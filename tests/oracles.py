"""Reference implementations that the tests compare the library against.

The per-frame scalar functions compute one descriptor family at a single
frame, independently of the vectorized labankit.descriptors.frame_matrix.
A `state` argument is the (velocity, acceleration, jerk) triple that
labankit.descriptors.differentiate returns.

loss_and_gradient and hessian are the straightforward classifier
objective: two separate softmax exponentials, and a Hessian that rebuilds
its design matrix and penalty on every call. The library computes the
same operations once each, so it must agree with them bit for bit.
"""

import numpy as np

from labankit.classifier import _NEWTON_RIDGE

from labankit.descriptors import (
    CURVATURE_CAP,
    DIRECTNESS_WINDOW,
    EPS_PATH,
    EPS_SPEED,
    FOOT_L,
    FOOT_R,
    HAND_L,
    HAND_R,
    HEAD,
    PELVIS,
    TRACKED_JOINT_INDICES,
)


def directness(track: np.ndarray, t: int, w: int) -> float:
    """Chord-to-path ratio of one joint track over a clamped window around t.

    Returns ||p(b) - p(a)|| / sum(||p(tau+1) - p(tau)||) with
    a = max(0, t - w) and b = min(T - 1, t + w). A joint whose windowed
    path is shorter than EPS_PATH wanders nowhere and counts as fully
    Direct (1.0).
    """
    if w < 1:
        raise ValueError(f"half-window must be >= 1, got {w}")
    track = np.asarray(track, dtype=np.float64)
    n = track.shape[0]
    a = max(0, t - w)
    b = min(n - 1, t + w)
    steps = np.linalg.norm(np.diff(track[a:b + 1], axis=0), axis=1)
    path = float(steps.sum())
    if path < EPS_PATH:
        return 1.0
    chord = float(np.linalg.norm(track[b] - track[a]))
    # chord <= path mathematically; the min guards float roundoff.
    return min(1.0, chord / path)


def effort_frame(state, fragment, t: int,
                 w: int = DIRECTNESS_WINDOW,
                 tracked=TRACKED_JOINT_INDICES) -> np.ndarray:
    """Effort qualities (Flow, Space, Time, Weight) at frame t.

    Weight is total kinetic energy of the tracked joints under unit
    masses; Time and Flow are mean acceleration and jerk magnitudes;
    Space is mean windowed Directness.
    """
    velocity, acceleration, jerk = state
    joints = list(tracked)
    flow = float(np.linalg.norm(jerk[t, joints], axis=1).mean())
    space = float(np.mean([
        directness(fragment.positions[:, j], t, w) for j in joints
    ]))
    time_ = float(np.linalg.norm(acceleration[t, joints], axis=1).mean())
    speed_sq = (velocity[t, joints] ** 2).sum(axis=1)
    weight = float(0.5 * speed_sq.sum())
    return np.array([flow, space, time_, weight])


def dispersion_frame(fragment, t: int) -> np.ndarray:
    """Twelve body-extent measurements of the pose at frame t."""
    pose = fragment.positions[t]
    pelvis = pose[PELVIS]
    values = np.empty(12)
    for k, j in enumerate((HEAD, HAND_L, HAND_R, FOOT_L, FOOT_R)):
        values[k] = np.linalg.norm(pose[j] - pelvis)
    centroid = pose.mean(axis=0)
    to_centroid = np.linalg.norm(pose - centroid, axis=1)
    values[5] = to_centroid.mean()
    values[6] = pose[:, 1].max() - pose[:, 1].min()
    xz = pose[:, [0, 2]]
    values[7] = np.linalg.norm(xz[:, None, :] - xz[None, :, :], axis=2).max()
    values[8] = to_centroid.std()
    values[9] = np.linalg.norm(pose[HAND_L] - pose[HAND_R])
    values[10] = np.linalg.norm(pose[FOOT_L] - pose[FOOT_R])
    values[11] = pose[PELVIS, 1]
    return values


def initiation_frame(state, t: int,
                     tracked=TRACKED_JOINT_INDICES) -> np.ndarray:
    """Each tracked joint's share of total speed at frame t; sums to 1.

    A near-rest frame (total speed below EPS_SPEED) has no leader and
    scores uniformly.
    """
    velocity = state[0]
    speeds = np.linalg.norm(velocity[t, list(tracked)], axis=1)
    total = speeds.sum()
    if total < EPS_SPEED:
        return np.full(len(tracked), 1.0 / len(tracked))
    return speeds / total


def trajectory_frame(fragment, state, t: int) -> np.ndarray:
    """Pelvis path increment, curvature, and net displacement at frame t.

    The path increment is 0 at the final frame. Curvature is
    ||v x a|| / ||v||^3, zero below EPS_SPEED and capped at CURVATURE_CAP.
    """
    track = fragment.positions[:, PELVIS]
    n = track.shape[0]
    increment = float(np.linalg.norm(track[t + 1] - track[t])) if t + 1 < n else 0.0
    velocity, acceleration, _ = state
    v = velocity[t, PELVIS]
    a = acceleration[t, PELVIS]
    speed = float(np.linalg.norm(v))
    if speed < EPS_SPEED:
        curvature = 0.0
    else:
        curvature = min(float(np.linalg.norm(np.cross(v, a))) / speed ** 3,
                        CURVATURE_CAP)
    net = float(np.linalg.norm(track[t] - track[0]))
    return np.array([increment, curvature, net])


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

    # log-sum-exp with max subtraction for overflow safety.
    zmax = logits.max(axis=1)
    lse = np.log(np.exp(logits - zmax[:, None]).sum(axis=1)) + zmax
    nll = (lse - logits[np.arange(n), y]).mean()
    loss = nll + 0.5 * l2_lambda * (weights ** 2).sum()

    probs = _softmax(logits)
    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    delta /= n
    grad_w = delta.T @ X + l2_lambda * weights
    grad_b = delta.sum(axis=0)
    return float(loss), np.concatenate([grad_w, grad_b[:, None]], axis=1)


def hessian(params: np.ndarray, X: np.ndarray, l2_lambda: float) -> np.ndarray:
    """Exact Hessian of the objective over flattened (C, d+1) parameters."""
    n, d = X.shape
    c = params.shape[0]
    da = d + 1
    design = np.concatenate([X, np.ones((n, 1))], axis=1)
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
    penalty = np.tile(np.concatenate([np.full(d, l2_lambda), [0.0]]), c)
    hess[np.diag_indices_from(hess)] += penalty + _NEWTON_RIDGE
    return hess
