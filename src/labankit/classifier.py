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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .skeleton import _is_integer
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
        if not 0 <= self.l2_lambda < math.inf:  # NaN fails too
            raise ValueError(f"l2_lambda must be finite and >= 0, got {self.l2_lambda}")
        if not _is_integer(self.max_iters) or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if not 0 < self.grad_tol < math.inf:
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
        if type(self.class_count) is not int or self.class_count < 2:  # bool is no int
            raise ValueError(f"class_count must be an int >= 2, got {self.class_count!r}")
        if not isinstance(self.task, str):
            raise ValueError(f"task must be a string, got {self.task!r}")
        if not 0 <= self.l2_lambda < math.inf:  # NaN fails too
            raise ValueError(f"l2_lambda must be finite and >= 0, got {self.l2_lambda}")
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        object.__setattr__(self, "biases", np.asarray(self.biases, dtype=np.float64))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
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


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def loss_and_gradient(params: np.ndarray, X: np.ndarray, y: np.ndarray,
                      l2_lambda: float) -> tuple[float, np.ndarray]:
    """Mean cross-entropy + (lambda/2) ||W||^2 and its exact gradient.

    params is (C, d + 1): the first d columns are class weights, the last
    column is the bias. X is the standardized (N, d) design matrix and
    y holds class ids in [0, C).
    """
    params = np.asarray(params, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if not np.isfinite(params).all():
        raise ValueError("non-finite parameters")
    if not np.isfinite(X).all():
        raise ValueError("non-finite features")
    n = X.shape[0]
    c = params.shape[0]
    if y.min() < 0 or y.max() >= c:
        raise ValueError(f"labels must lie in [0, {c})")

    weights = params[:, :-1]
    biases = params[:, -1]
    logits = X @ weights.T + biases

    # log-sum-exp and softmax from one max-shifted (overflow-safe) exponential.
    zmax = logits.max(axis=1)
    exp = np.exp(logits - zmax[:, None])
    sums = exp.sum(axis=1)
    nll = (np.log(sums) + zmax - logits[np.arange(n), y]).mean()
    loss = nll + 0.5 * l2_lambda * (weights ** 2).sum()

    delta = exp / sums[:, None]
    delta[np.arange(n), y] -= 1.0
    delta /= n
    grad_w = delta.T @ X + l2_lambda * weights
    grad_b = delta.sum(axis=0)
    return float(loss), np.concatenate([grad_w, grad_b[:, None]], axis=1)


def _sum_zero_basis(class_count: int) -> np.ndarray:
    """Orthonormal Helmert columns (C, C-1) spanning {v : sum(v) = 0}."""
    basis = np.zeros((class_count, class_count - 1))
    for k in range(1, class_count):
        unit = 1.0 / math.sqrt(k * (k + 1))
        basis[:k, k - 1] = unit
        basis[k, k - 1] = -k * unit
    return basis


def _hessian(params: np.ndarray, basis: np.ndarray, X: np.ndarray,
             design: np.ndarray, diagonal: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Exact Hessian over the flattened (C-1, d+1) coordinates theta of
    params = basis @ theta, given the fit's fixed design matrix [X, 1] and
    diagonal (L2 penalty plus Newton ridge). Block (a, b) weighs the design
    rows by (p @ (P[:, a] * P[:, b]) - q[:, a] * q[:, b]) / N, q = p @ P.

    out is the fit's Hessian buffer, overwritten and returned: a fit
    allocates it once instead of faulting in fresh pages every iteration.
    """
    n, da = design.shape
    k = basis.shape[1]
    probs = _softmax(X @ params[:, :-1].T + params[:, -1])
    q = probs @ basis
    blocks = out.reshape(k, da, k, da)  # a view of out
    for a in range(k):
        for b in range(a, k):
            w = (probs @ (basis[:, a] * basis[:, b]) - q[:, a] * q[:, b]) / n
            block = design.T @ (w[:, None] * design)
            blocks[a, :, b, :] = block
            if b != a:
                blocks[b, :, a, :] = block
    out.flat[::out.shape[0] + 1] += diagonal
    return out


def _row_space(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An orthonormal (d, r) basis V of the span of Z's rows, and Z @ V.

    The basis comes from the eigenvectors of the smaller Gram matrix. With
    fewer rows than features, Z = U S V.T gives Z @ Z.T = U S^2 U.T, so
    Z @ V = U S and V = Z.T @ U / S. With more, the span is still narrower
    than the features wherever columns are linearly dependent, as five of
    the 110 LMA features are: each Effort mean is a mean or sum of per-joint
    kinematic means, and the six Initiation means sum to one.
    """
    n, d = Z.shape
    evals, evecs = np.linalg.eigh(Z @ Z.T if n < d else Z.T @ Z)
    kept = evals > d * _ROW_SPACE_RTOL * evals.max(initial=0.0)
    if n >= d:
        V = evecs[:, kept]
        return V, Z @ V
    sigma = np.sqrt(evals[kept])
    U = evecs[:, kept]
    return (Z.T @ U) / sigma, U * sigma


def _newton_minimize(Z: np.ndarray, y: np.ndarray, class_count: int,
                     config: TrainConfig) -> tuple[np.ndarray, list[float]]:
    """Damped Newton descent on the convex objective; returns the (C, d+1)
    params, whose weights and biases sum to zero over the classes, and the
    loss history.

    The parameters are fitted, from zero, in the row space of Z and on the
    sum-to-zero class subspace (see the module docstring). The stopping
    test is on the full-space gradient.
    """
    V, ZV = _row_space(Z)
    n, r = ZV.shape
    basis = _sum_zero_basis(class_count)

    def full_space(p):  # (k, r + 1) -> (k, d + 1)
        return np.concatenate([p[:, :-1] @ V.T, p[:, -1:]], axis=1)

    theta = np.zeros((class_count - 1, r + 1))
    design = np.concatenate([ZV, np.ones((n, 1))], axis=1)
    penalty = np.append(np.full(r, config.l2_lambda), 0.0)  # biases unpenalized
    diagonal = np.tile(penalty, class_count - 1) + _NEWTON_RIDGE
    hess_buffer = np.empty((diagonal.size, diagonal.size))
    params = basis @ theta
    loss, grad = loss_and_gradient(params, ZV, y, config.l2_lambda)
    history = [loss]
    for _ in range(config.max_iters):
        if np.abs(full_space(grad)).max() <= config.grad_tol:
            break
        hess = _hessian(params, basis, ZV, design, diagonal, hess_buffer)
        reduced = basis.T @ grad
        step = np.linalg.solve(hess, reduced.reshape(-1)).reshape(theta.shape)
        descent = float((reduced * step).sum())
        scale = 1.0
        for _ in range(_MAX_BACKTRACKS):
            candidate = theta - scale * step
            cand_params = basis @ candidate
            cand_loss, cand_grad = loss_and_gradient(cand_params, ZV, y, config.l2_lambda)
            if cand_loss <= loss - _ARMIJO_C1 * scale * descent:
                break
            scale *= 0.5
        else:
            # Numerically flat: no step length improves the objective.
            break
        theta, params, loss, grad = candidate, cand_params, cand_loss, cand_grad
        history.append(loss)
    return basis @ full_space(theta), history


def train(X: np.ndarray, y: np.ndarray, task, config: TrainConfig | None = None,
          feature_names=None) -> LinearModel:
    """Fit a multinomial logistic regression on raw feature rows.

    task owns the class structure: its class_count sets the number of
    classes, every one of which must have a row of y, and its kind labels
    the model. Any object with those two attributes will do, such as an
    evaluation.TaskSpec (not imported here: evaluation imports this module).
    The standardizer is fitted here, on exactly the rows given,
    and travels with the model; callers never standardize themselves.
    """
    config = config or TrainConfig()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D feature matrix, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise ValueError("labels must be one per row")
    if not np.isfinite(X).all():
        raise ValueError("non-finite training data")
    if y.dtype.kind not in "iu":  # bool is kind "b"
        raise ValueError(f"task {task.kind!r}: labels must be integers, got dtype {y.dtype}")
    class_count = task.class_count
    outside = (y < 0) | (y >= class_count)
    if outside.any():
        raise ValueError(f"task {task.kind!r}: label {y[outside][0]} is outside "
                         f"[0, {class_count})")
    counts = np.bincount(y, minlength=class_count)
    if not counts.all():
        raise ValueError(f"task {task.kind!r}: class {np.argmin(counts)} "
                         f"has no training rows")
    if feature_names is None:
        feature_names = tuple(f"x{j}" for j in range(X.shape[1]))
    elif len(feature_names) != X.shape[1]:
        raise ValueError(
            f"{len(feature_names)} feature names for {X.shape[1]} columns"
        )

    standardizer = fit_standardizer(X)
    Z = standardizer.transform(X)
    params, _ = _newton_minimize(Z, y, class_count, config)
    return LinearModel(
        task=task.kind,
        class_count=class_count,
        weights=params[:, :-1],
        biases=params[:, -1],
        standardizer=standardizer,
        feature_names=tuple(feature_names),
        l2_lambda=config.l2_lambda,
    )


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
    return _softmax(z @ model.weights.T + model.biases)


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


def _json_array(key: str, value, ndim: int, kinds=(int, float)) -> np.ndarray:
    """A model file's value as an ndim-D object array whose every cell has
    one of the types kinds exactly, or ValueError naming the key. A JSON
    true is a bool, not an int, and "0.5" a string, not a number, though
    np.asarray would read both as numbers."""
    cells = np.asarray(value, dtype=object)
    if cells.ndim != ndim:
        raise ValueError(f"{key} must be {ndim}-D, got {cells.ndim}-D")
    for cell in cells.flat:
        if type(cell) not in kinds:
            what = "strings" if str in kinds else "numbers"
            raise ValueError(f"{key} must hold only {what}, got {cell!r}")
    return cells


def load_model(path) -> LinearModel:
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid model JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    version = payload.get("format_version")
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported model format version {version!r} "
            f"(expected {MODEL_FORMAT_VERSION})"
        )
    try:
        standardizer = payload["standardizer"]
        return LinearModel(
            task=payload["task"],
            class_count=payload["class_count"],
            weights=_json_array("weights", payload["weights"], 2),
            biases=_json_array("biases", payload["biases"], 1),
            standardizer=Standardizer(
                means=_json_array("standardizer means", standardizer["means"], 1),
                stds=_json_array("standardizer stds", standardizer["stds"], 1),
            ),
            feature_names=tuple(_json_array("feature_names", payload["feature_names"],
                                            1, (str,))),
            l2_lambda=float(_json_array("l2_lambda", payload["l2_lambda"], 0)),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from None
