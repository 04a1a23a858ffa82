"""Multinomial logistic regression with deterministic convex training.

The objective is mean softmax cross-entropy plus an L2 penalty on the
weights (biases unpenalized). Training runs damped Newton iterations with
backtracking line search from a zero start; the objective is convex, so
the optimum is independent of initialization and identical inputs yield
bit-identical models.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .stats import Standardizer, fit_standardizer

MODEL_FORMAT_VERSION = 1

# Tiny ridge keeps the Newton solve well-posed along the softmax shift
# direction (adding a constant to every bias leaves the objective flat).
_NEWTON_RIDGE = 1e-10
_ARMIJO_C1 = 1e-4
_MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run."""

    l2_lambda: float = 1.0
    max_iters: int = 1000
    grad_tol: float = 1e-6

    def __post_init__(self):
        if self.l2_lambda < 0:
            raise ValueError(f"l2_lambda must be >= 0, got {self.l2_lambda}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.grad_tol <= 0:
            raise ValueError(f"grad_tol must be > 0, got {self.grad_tol}")


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


def _hessian(params: np.ndarray, X: np.ndarray, design: np.ndarray,
             diagonal: np.ndarray) -> np.ndarray:
    """Exact Hessian over flattened (C, d+1) parameters, given the fit's fixed
    design matrix [X, 1] and diagonal (L2 penalty plus Newton ridge)."""
    n, da = design.shape
    c = params.shape[0]
    probs = _softmax(X @ params[:, :-1].T + params[:, -1])
    hess = np.empty((c, da, c, da))
    for i in range(c):
        for j in range(i, c):
            w = probs[:, i] * ((1.0 if i == j else 0.0) - probs[:, j]) / n
            block = design.T @ (w[:, None] * design)
            hess[i, :, j, :] = block
            if j != i:
                hess[j, :, i, :] = block
    hess = hess.reshape(c * da, c * da)
    hess[np.diag_indices_from(hess)] += diagonal
    return hess


def _newton_minimize(Z: np.ndarray, y: np.ndarray, class_count: int,
                     config: TrainConfig,
                     init: np.ndarray | None = None) -> tuple[np.ndarray, list[float]]:
    """Damped Newton descent on the convex objective; returns (params, loss history)."""
    n, d = Z.shape
    params = np.zeros((class_count, d + 1)) if init is None else init.astype(np.float64)
    design = np.concatenate([Z, np.ones((n, 1))], axis=1)
    penalty = np.append(np.full(d, config.l2_lambda), 0.0)  # biases unpenalized
    diagonal = np.tile(penalty, class_count) + _NEWTON_RIDGE
    loss, grad = loss_and_gradient(params, Z, y, config.l2_lambda)
    history = [loss]
    for _ in range(config.max_iters):
        if np.abs(grad).max() <= config.grad_tol:
            break
        hess = _hessian(params, Z, design, diagonal)
        step = np.linalg.solve(hess, grad.reshape(-1)).reshape(params.shape)
        descent = float((grad * step).sum())
        scale = 1.0
        for _ in range(_MAX_BACKTRACKS):
            candidate = params - scale * step
            cand_loss, cand_grad = loss_and_gradient(candidate, Z, y, config.l2_lambda)
            if cand_loss <= loss - _ARMIJO_C1 * scale * descent:
                break
            scale *= 0.5
        else:
            # Numerically flat: no step length improves the objective.
            break
        params, loss, grad = candidate, cand_loss, cand_grad
        history.append(loss)
    return params, history


def train(X: np.ndarray, y: np.ndarray, config: TrainConfig | None = None,
          feature_names=None, task: str = "four_way") -> LinearModel:
    """Fit a multinomial logistic regression on raw feature rows.

    The standardizer is fitted here, on exactly the rows given, and
    travels with the model; callers never standardize themselves.
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
    if y.min() < 0:
        raise ValueError("labels must be non-negative class ids")
    class_count = int(y.max()) + 1
    if X.shape[0] < class_count:
        raise ValueError(
            f"need at least {class_count} rows for {class_count} classes, got {X.shape[0]}"
        )
    counts = np.bincount(y, minlength=class_count)
    for c in range(class_count):
        if counts[c] == 0:
            raise ValueError(f"class {c} missing from training data")
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
        task=task,
        class_count=class_count,
        weights=params[:, :-1],
        biases=params[:, -1],
        standardizer=standardizer,
        feature_names=tuple(feature_names),
        l2_lambda=config.l2_lambda,
    )


def predict_proba(model: LinearModel, x: np.ndarray) -> np.ndarray:
    """Class probabilities for raw, finite feature row(s); positive, summing to 1."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    rows = np.atleast_2d(x)
    expected = model.weights.shape[1]
    if rows.shape[1] != expected:
        raise ValueError(f"expected {expected} features, got {rows.shape[1]}")
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite feature value in row {np.argmin(finite)}")
    z = model.standardizer.transform(rows)
    probs = _softmax(z @ model.weights.T + model.biases)
    return probs[0] if single else probs


def predict(model: LinearModel, x: np.ndarray) -> np.ndarray | int:
    """Most probable class id(s); exact ties go to the lower id."""
    probs = predict_proba(model, x)
    if probs.ndim == 1:
        return int(np.argmax(probs))
    return np.argmax(probs, axis=1)


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
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid model JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported model format version {version!r} "
            f"(expected {MODEL_FORMAT_VERSION})"
        )
    try:
        return LinearModel(
            task=payload["task"],
            class_count=payload["class_count"],
            weights=np.asarray(payload["weights"], dtype=np.float64),
            biases=np.asarray(payload["biases"], dtype=np.float64),
            standardizer=Standardizer(
                means=np.asarray(payload["standardizer"]["means"], dtype=np.float64),
                stds=np.asarray(payload["standardizer"]["stds"], dtype=np.float64),
            ),
            feature_names=tuple(payload["feature_names"]),
            l2_lambda=float(payload["l2_lambda"]),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
