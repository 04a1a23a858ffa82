"""Multinomial logistic regression with deterministic convex training.

The objective is mean softmax cross-entropy plus an L2 penalty on the
weights (biases unpenalized). Training runs damped Newton iterations with
backtracking line search from a zero start; the objective is convex, so
the optimum is independent of initialization and identical inputs yield
bit-identical models.

Newton runs in the row space of the standardized training rows. L2-penalized
weights never leave that span (the representer theorem), and Newton's method
is affine-invariant, so fitting the weights in an orthonormal basis V of the
span and mapping them back as W_r @ V.T gives the same iterates as the full
space, with rank columns instead of features columns: fewer than the
features when there are fewer rows, or when features depend linearly on
each other.

Newton also runs on the sum-to-zero class subspace: with one L2 penalty for
every class, the optimal weights sum to zero over the classes, and the
biases can (adding one constant to every bias changes nothing). The
parameters are P @ theta, with P an orthonormal (C, C - 1) Helmert basis of
{v : sum(v) = 0}. The gradient and the Hessian leave that subspace
invariant, so Newton gives the same iterates as on all C classes, with a
Hessian of side (C - 1) * (rank + 1). The fitted biases sum to zero by
construction, so the saved model does not depend on the solver's path.

Training sets of one row count can be fitted as one stack, as
cross-validation fits its folds: the solver's arrays take a leading axis
over the sets, and numpy's stacked matmul, solve and eigh make one call for
the stack that runs every set with its own BLAS/LAPACK call. Each set's
slices have the memory order its arrays get alone, and its Newton steps,
stop test and line search are its own, so every model of a stack is bit
for bit the one its set trains alone. Small fits gain most: their time goes
to the fixed cost of each call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .skeleton import _is_integer, _is_real, _json_numbers, _reading
from .stats import Standardizer, fit_standardizer

MODEL_FORMAT_VERSION = 1

# Tiny ridge keeps the Newton solve well posed where the data curvature
# vanishes (a saturated fit): the biases are never penalized, and at
# l2_lambda = 0 neither are the weights.
_NEWTON_RIDGE = 1e-10
# Eigenvalues of the Gram matrix at or below d * eps * the largest are
# rounding noise of a direction the rows of the (N, d) Z do not span.
_ROW_SPACE_RTOL = np.finfo(np.float64).eps
_ARMIJO_C1 = 1e-4
_MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run."""

    l2_lambda: float = 1.0
    max_iters: int = 1000
    grad_tol: float = 1e-6

    def __post_init__(self):
        if not (_is_real(self.l2_lambda) and 0 <= self.l2_lambda < math.inf):  # NaN fails
            raise ValueError(f"l2_lambda must be finite and >= 0, got {self.l2_lambda}")
        if not _is_integer(self.max_iters) or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if not (_is_real(self.grad_tol) and 0 < self.grad_tol < math.inf):
            raise ValueError(f"grad_tol must be finite and > 0, got {self.grad_tol}")


@dataclass(frozen=True)
class LinearModel:
    """Trained weights plus the standardizer fitted on the training rows.

    predict_proba applies the standardizer itself, so inputs are raw
    (unstandardized) feature rows.
    """

    task: str
    class_count: int
    weights: np.ndarray            # (C, n_features)
    biases: np.ndarray             # (C,)
    standardizer: Standardizer
    feature_names: tuple[str, ...]
    l2_lambda: float

    def __post_init__(self):
        if not _is_integer(self.class_count) or self.class_count < 2:
            raise ValueError(f"class_count must be an int >= 2, got {self.class_count!r}")
        object.__setattr__(self, "class_count", int(self.class_count))
        if not isinstance(self.task, str):
            raise ValueError(f"task must be a string, got {self.task!r}")
        if not (_is_real(self.l2_lambda) and 0 <= self.l2_lambda < math.inf):  # NaN fails
            raise ValueError(f"l2_lambda must be finite and >= 0, got {self.l2_lambda}")
        object.__setattr__(self, "l2_lambda", float(self.l2_lambda))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        object.__setattr__(self, "biases", np.asarray(self.biases, dtype=np.float64))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        seen = set()
        for name in self.feature_names:  # predict aligns table columns by name
            if not isinstance(name, str):
                raise ValueError(f"feature_names must hold only strings, got {name!r}")
            if name in seen:
                raise ValueError(f"feature_names must be distinct, got {name!r} twice")
            seen.add(name)
        if self.weights.shape != (self.class_count, len(self.feature_names)):
            raise ValueError(
                f"weights shape {self.weights.shape} does not match "
                f"{self.class_count} classes x {len(self.feature_names)} features"
            )
        if self.biases.shape != (self.class_count,):
            raise ValueError(f"biases shape {self.biases.shape} != ({self.class_count},)")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.biases).all()):
            raise ValueError("model parameters must be finite")
        if self.standardizer.means.shape != (len(self.feature_names),):
            raise ValueError(f"standardizer of {self.standardizer.means.size} columns "
                             f"for {len(self.feature_names)} features")


def _softmax(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax over the classes of (..., N, C) logits and its log-sum-exp,
    from one max-shifted exp."""
    zmax = logits.max(axis=-1)
    exp = np.exp(logits - zmax[..., None])
    sums = exp.sum(axis=-1)
    exp /= sums[..., None]
    return exp, np.log(sums) + zmax


def loss_and_gradient(params: np.ndarray, X: np.ndarray, y: np.ndarray,
                      l2_lambda: float) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
    """Mean cross-entropy + (lambda/2) ||W||^2, its exact gradient, and the
    (N, C) class probabilities they come from, which Newton's Hessian reuses.

    params is (C, d + 1): the first d columns are class weights, the last
    column is the bias. X is the standardized (N, d) design matrix and
    y holds class ids in [0, C). A stack of fits puts one more leading axis
    on all three, (S, C, d + 1), (S, N, d) and (S, N); the loss is then an
    (S,) array, and every fit gets the bits it gets alone.
    """
    params = np.asarray(params, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if not np.isfinite(params).all():
        raise ValueError("non-finite parameters")
    if not np.isfinite(X).all():
        raise ValueError("non-finite features")
    n = X.shape[-2]
    c = params.shape[-2]
    if y.min() < 0 or y.max() >= c:
        raise ValueError(f"labels must lie in [0, {c})")

    weights = params[..., :-1]
    logits = X @ weights.mT + params[..., None, :, -1]
    probs, lse = _softmax(logits)
    truth = np.arange(y.size).reshape(y.shape) * c + y  # flat index of each row's label
    nll = (lse - logits.reshape(-1)[truth]).mean(axis=-1)
    loss = nll + 0.5 * l2_lambda * (weights ** 2).sum(axis=(-2, -1))

    delta = probs.copy()
    delta.reshape(-1)[truth] -= 1.0
    delta /= n
    grad_w = delta.mT @ X + l2_lambda * weights
    grad_b = delta.sum(axis=-2)
    return loss, np.concatenate([grad_w, grad_b[..., None]], axis=-1), probs


def _sum_zero_basis(class_count: int) -> np.ndarray:
    """Orthonormal Helmert columns (C, C-1) spanning {v : sum(v) = 0}."""
    basis = np.zeros((class_count, class_count - 1))
    for k in range(1, class_count):
        unit = 1.0 / math.sqrt(k * (k + 1))
        basis[:k, k - 1] = unit
        basis[k, k - 1] = -k * unit
    return basis


def _hessian(probs: np.ndarray, basis: np.ndarray, design: np.ndarray,
             diagonal: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Exact Hessian over the flattened (C-1, d+1) coordinates theta of
    params = basis @ theta, given loss_and_gradient's class probabilities p
    at those params, the fit's fixed design matrix [X, 1] and diagonal (L2
    penalty plus Newton ridge). Block (a, b) weighs the design rows by
    (p @ (P[:, a] * P[:, b]) - q[:, a] * q[:, b]) / N, q = p @ P. A stack
    of fits puts one more leading axis on p, the design and out.

    out is the fit's Hessian buffer, overwritten and returned: a fit
    allocates it once instead of faulting in fresh pages every iteration.
    """
    n, da = design.shape[-2:]
    k = basis.shape[1]
    q = probs @ basis
    blocks = out.reshape(out.shape[:-2] + (k, da, k, da))  # a view of out
    for a in range(k):
        for b in range(a, k):
            w = (probs @ (basis[:, a] * basis[:, b]) - q[..., a] * q[..., b]) / n
            block = design.mT @ (w[..., None] * design)
            blocks[..., a, :, b, :] = block
            if b != a:
                blocks[..., b, :, a, :] = block
    out.reshape(out.shape[:-2] + (-1,))[..., ::out.shape[-1] + 1] += diagonal
    return out


def _row_space(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Orthonormal (d, r) basis V of the span of the rows of standardized
    (n, d) rows Z, and Z @ V. A stack (S, n, d) whose sets all span r
    dimensions gives the (S, d, r) bases and their (S, n, r) products; a
    stack whose sets differ in rank gives None.

    The basis comes from the eigenvectors of the smaller Gram matrix. With
    fewer rows than features, Z = U S V.T gives Z @ Z.T = U S^2 U.T, so
    Z @ V = U S and V = Z.T @ U / S. With more, the span is still narrower
    than the features wherever columns are linearly dependent, as five of
    the 110 LMA features are: each Effort mean is a mean or sum of per-joint
    kinematic means, and the six Initiation means sum to one.
    """
    n, d = Z.shape[-2:]
    evals, evecs = np.linalg.eigh(Z @ Z.mT if n < d else Z.mT @ Z)
    m = evals.shape[-1]
    kept = evals > d * _ROW_SPACE_RTOL * evals.max(axis=-1, keepdims=True, initial=0.0)
    ranks = np.unique(kept.sum(axis=-1))  # eigh sorts ascending: a set keeps its last r
    if ranks.size > 1:
        return None
    r = int(ranks[0])
    # Each set's columns in the Fortran order that a boolean column
    # index gives one set, so that its products are its bits alone.
    U = evecs[..., m - r:].mT.copy().mT
    if n >= d:
        return U, Z @ U
    sigma = np.sqrt(evals[..., None, m - r:])
    return (Z.mT @ U) / sigma, U * sigma


def _newton_minimize(Z: np.ndarray, y: np.ndarray, class_count: int,
                     config: TrainConfig) -> tuple[np.ndarray, list]:
    """Damped Newton descent on the convex objective; returns the (C, d+1)
    params, whose weights and biases sum to zero over the classes, and the
    loss history. A stack of S fits, Z (S, n, d) and y (S, n), returns
    (S, C, d+1) params and a list of S histories.

    The parameters are fitted, from zero, in the row space of Z and on the
    sum-to-zero class subspace (see the module docstring). The fits of a
    stack take their Newton steps together, so that each Hessian build,
    solve and objective makes one call for the stack, but every fit keeps
    its own stop test, Armijo halving and flat exit. A fit that stops stops
    moving, so each fit goes through exactly the iterates, and ends at the
    bits, it would alone. A stack whose row spaces differ in rank is fitted
    set by set. One softmax per iterate, in its loss_and_gradient call,
    feeds its gradient and Hessian. The stopping test is on the full-space
    gradient [grad_W @ V.T, grad_b].
    """
    space = _row_space(Z)
    if space is None:
        fits = [_newton_minimize(z, labels, class_count, config) for z, labels in zip(Z, y)]
        return np.stack([params for params, _ in fits]), [history for _, history in fits]
    V, ZV = space
    lead = ZV.shape[:-2]
    n, r = ZV.shape[-2:]
    basis = _sum_zero_basis(class_count)
    theta = np.zeros(lead + (class_count - 1, r + 1))
    design = np.concatenate([ZV, np.ones(lead + (n, 1))], axis=-1)
    penalty = np.append(np.full(r, config.l2_lambda), 0.0)  # biases unpenalized
    diagonal = np.tile(penalty, class_count - 1) + _NEWTON_RIDGE
    hess_buffer = np.empty(lead + (diagonal.size, diagonal.size))
    loss, grad, probs = loss_and_gradient(basis @ theta, ZV, y, config.l2_lambda)
    histories = [[value] for value in np.ravel(loss).tolist()]
    running = np.ones(lead, dtype=bool)
    for _ in range(config.max_iters):
        running &= ~(np.maximum(np.abs(grad[..., :-1] @ V.mT).max(axis=(-2, -1), initial=0.0),
                                np.abs(grad[..., -1]).max(axis=-1)) <= config.grad_tol)
        if not running.any():
            break
        hess = _hessian(probs, basis, design, diagonal, hess_buffer)
        reduced = basis.T @ grad
        step = np.linalg.solve(hess, reduced.reshape(lead + (-1, 1))).reshape(theta.shape)
        descent = (reduced * step).reshape(lead + (-1,)).sum(axis=-1)
        pending = running.copy()
        for halvings in range(_MAX_BACKTRACKS):
            # Every pending fit has halved as often; powers of two scale exactly.
            scale = 0.5 ** halvings
            candidate = theta - scale * step
            evaluated = loss_and_gradient(basis @ candidate, ZV, y, config.l2_lambda)
            accepted = pending & (evaluated[0] <= loss - _ARMIJO_C1 * scale * descent)
            if accepted.all():  # every fit moves, as one fit always does
                theta, (loss, grad, probs) = candidate, evaluated
            elif accepted.any():
                moving = accepted[..., None, None]
                for state, new in ((theta, candidate), (grad, evaluated[1]),
                                   (probs, evaluated[2])):
                    np.copyto(state, new, where=moving)
                loss = np.where(accepted, evaluated[0], loss)
            pending ^= accepted  # accepted fits were pending
            if not pending.any():
                break
        # A fit still pending is numerically flat, as no step length improves
        # it, and stops (pending fits were running).
        running ^= pending
        losses = np.ravel(loss).tolist()
        for i in np.flatnonzero(running):
            histories[i].append(losses[i])
    params = basis @ np.concatenate([theta[..., :-1] @ V.mT, theta[..., -1:]], axis=-1)
    return params, histories if lead else histories[0]


def train(X: np.ndarray, y: np.ndarray, task, config: TrainConfig | None = None,
          feature_names=None) -> LinearModel | list[LinearModel]:
    """Fit a multinomial logistic regression on raw feature rows.

    task owns the class structure: its class_count sets the number of
    classes, every one of which must have a row of y, and its kind labels
    the model. Any object with those two attributes will do, such as an
    evaluation.TaskSpec (not imported here: evaluation imports this module).
    The standardizer is fitted here, on exactly the rows given,
    and travels with the model; callers never standardize themselves.

    X (N, d) and y (N,) give one model. S training sets of N rows each,
    stacked as X (S, N, d) and y (S, N), give a list of S models, each with
    its own standardizer and each bit for bit the model its set gives
    alone; they are fitted as one stacked Newton problem, so each
    BLAS/LAPACK call of a Newton step is made once for the stack.
    """
    config = config or TrainConfig()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim not in (2, 3):
        raise ValueError(f"expected a 2-D feature matrix or a 3-D stack of them, "
                         f"got shape {X.shape}")
    stacked = X.ndim == 3
    if y.shape != X.shape[:-1]:
        if stacked:
            raise ValueError(f"labels of shape {y.shape} for {X.shape[0]} sets of "
                             f"{X.shape[1]} rows: each set needs one label per row")
        raise ValueError("labels must be one per row")
    finite = np.isfinite(X).all(axis=(-2, -1))
    if not finite.all():
        raise ValueError("non-finite training data"
                         + (f" in set {np.argmin(finite)}" if stacked else ""))
    if y.dtype.kind not in "iu":  # bool is kind "b"
        raise ValueError(f"task {task.kind!r}: labels must be integers, got dtype {y.dtype}")
    class_count = task.class_count
    n, d = X.shape[-2:]
    for i, labels in enumerate(np.atleast_2d(y)):  # one set, or each of a stack
        where = f"task {task.kind!r}" + (f", set {i}" if stacked else "")
        outside = (labels < 0) | (labels >= class_count)
        if outside.any():
            raise ValueError(f"{where}: label {labels[outside][0]} is outside "
                             f"[0, {class_count})")
        counts = np.bincount(labels, minlength=class_count)
        if not counts.all():
            raise ValueError(f"{where}: class {np.argmin(counts)} has no training rows")
    if feature_names is None:
        feature_names = tuple(f"x{j}" for j in range(d))
    elif len(feature_names) != d:
        raise ValueError(f"{len(feature_names)} feature names for {d} columns")

    standardizers = [fit_standardizer(rows) for rows in X.reshape(-1, n, d)]
    shape = X.shape[:-2] + (1, d)
    Z = ((X - np.stack([s.means for s in standardizers]).reshape(shape))
         / np.stack([s.stds for s in standardizers]).reshape(shape))
    params, _ = _newton_minimize(Z, y, class_count, config)
    models = [LinearModel(
        task=task.kind,
        class_count=class_count,
        weights=fit[:, :-1],
        biases=fit[:, -1],
        standardizer=standardizer,
        feature_names=tuple(feature_names),
        l2_lambda=config.l2_lambda,
    ) for fit, standardizer in zip(params.reshape(-1, class_count, d + 1), standardizers)]
    return models if stacked else models[0]


def predict_proba(model: LinearModel, X: np.ndarray) -> np.ndarray:
    """(N, C) class probabilities for raw, finite (N, d) feature rows;
    positive, each row summing to 1."""
    X = np.asarray(X, dtype=np.float64)
    expected = model.weights.shape[1]
    if X.ndim != 2 or X.shape[1] != expected:
        raise ValueError(f"expected an (N, {expected}) feature matrix, "
                         f"got shape {X.shape}")
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite feature value in row {np.argmin(finite)}")
    z = model.standardizer.transform(X)
    return _softmax(z @ model.weights.T + model.biases)[0]


def predict(model: LinearModel, X: np.ndarray) -> np.ndarray:
    """(N,) most probable class ids; exact ties go to the lower id."""
    return np.argmax(predict_proba(model, X), axis=1)


def save_model(model: LinearModel, path) -> None:
    """Serialize a model to JSON at full round-trip float precision."""
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "task": model.task,
        "class_count": model.class_count,
        "l2_lambda": model.l2_lambda,
        "feature_names": list(model.feature_names),
        "standardizer": {
            "means": model.standardizer.means.tolist(),
            "stds": model.standardizer.stds.tolist(),
        },
        "weights": model.weights.tolist(),
        "biases": model.biases.tolist(),
    }
    Path(path).write_text(json.dumps(payload, indent=1), encoding="utf-8")


def load_model(path) -> LinearModel:
    path = Path(path)
    with _reading(path):
        payload = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    version = payload.get("format_version")
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported model format version {version!r} "
            f"(expected {MODEL_FORMAT_VERSION})"
        )
    try:
        names, standardizer = payload["feature_names"], payload["standardizer"]
        if not isinstance(names, list):
            raise ValueError(f"feature_names must be a list, got {names!r}")
        for key, value, shape in (
                ("weights", payload["weights"], (None, len(names))),
                ("biases", payload["biases"], (None,)),
                ("standardizer means", standardizer["means"], (None,)),
                ("standardizer stds", standardizer["stds"], (None,)),
                ("l2_lambda", payload["l2_lambda"], ())):
            _json_numbers(value, shape, key)
        return LinearModel(
            task=payload["task"],
            class_count=payload["class_count"],
            weights=payload["weights"],
            biases=payload["biases"],
            standardizer=Standardizer(means=standardizer["means"], stds=standardizer["stds"]),
            feature_names=names,
            l2_lambda=float(payload["l2_lambda"]),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from None
