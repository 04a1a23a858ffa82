"""Reference implementations that the tests compare the library against.

The per-frame scalar functions compute one descriptor family at a single
frame, independently of the vectorized labankit.descriptors.frame_matrix.
A `positions` argument is a (T, 24, 3) sequence; a `state` argument is the (velocity, acceleration, jerk) triple that
labankit.descriptors.differentiate returns.

differentiate is three np.gradient calls, one per derivative order. The
library evaluates np.gradient's uniform-spacing formulas itself, which
must give the same arrays bit for bit, in the same dtype.

frame_matrix is the frame-major descriptor matrix: every family computed
on (frames, joints, 3) arrays, one frame's joints and coordinates
innermost, with the horizontal extent over all 276 joint pairs and the
derivatives from this module's differentiate. The library computes it on
joint-major coordinate planes, with the extent first over the reaching
joints, which must give the same matrix bit for bit.

loss_and_gradient and hessian are the straightforward classifier
objective: two separate softmax exponentials, and a Hessian over all
C * (d + 1) parameters that rebuilds its design matrix and penalty on
every call. reduced_hessian rebuilds, the same way, the Hessian over the
(C - 1) * (d + 1) coordinates of a given sum-to-zero class basis. The
library computes the same operations once each, so it must agree with
them bit for bit.

newton_minimize is the full-space Newton solver: the same damped Newton
with Armijo backtracking, run on all C * (d + 1) parameters with the
rebuilding hessian above and no centring of the biases. The library runs
it in the row space of the training rows and on the sum-to-zero class
subspace, which must give the same model in as many iterations.

slice_fragments is the fragment cut with uncapped frame counts, which
overflow at an infinite seconds x fps product. The library caps each count
one frame past the sequence, which must give the same slices wherever
the products are finite.

write_features_csv, write_predictions_csv and write_ranking_csv are the
three CSVs written cell by cell through csv.writer. The library formats
each row's floats in one call, which must give the same bytes.

kruskal_wallis is the one-column H: average ranks from np.unique, one
boolean mask per class and tie counts from a second np.unique. The
library computes every column's H from one argsort, which must give the
same floats bit for bit.

remap_task maps tiers to a task's class ids one row at a time, after
checking each distinct tier by value. The library indexes one lookup
array, which must give the same labels, mask and refusals.

staccato is the R1 synth builder that adds one full-length raised-cosine
ramp per limb stroke and one full-length sin^2 pulse per hop, with its
_ramp and _pulse. The library keeps a running sum over the events and
evaluates each frame's latest event only, which must give the same
positions bit for bit.
"""

import csv
import math

import numpy as np

from labankit.classifier import _ARMIJO_C1, _MAX_BACKTRACKS, _NEWTON_RIDGE

from labankit.skeleton import _DURATION_TOL, MIN_FRAGMENT_SECONDS, VALID_TIERS
from labankit.synth import (
    _ARM_L,
    _ARM_R,
    _LEG_L,
    _LEG_R,
    _burst_schedule,
    _jitter,
    _rest_pose,
)
from labankit.descriptors import (
    _EFFORT_AT,
    _INITIATION_AT,
    _KIN_SUFFIXES,
    _KINEMATICS_AT,
    _NET_DISPLACEMENT,
    _TRACKED_PELVIS,
    _TRAJECTORY_AT,
    CURVATURE_CAP,
    DIRECTNESS_HALF_WINDOW_S,
    EPS_PATH,
    EPS_SPEED,
    FOOT_L,
    FOOT_R,
    FRAME_FEATURE_NAMES,
    HAND_L,
    HAND_R,
    HEAD,
    PELVIS,
    TRACKED_JOINT_INDICES,
    _norm3,
    windowed_directness,
)


def differentiate(track: np.ndarray, fps: float):
    """(velocity, acceleration, jerk) of a (T, ..., 3) track: each order is
    np.gradient at 1 / fps, second-order at the ends, of the previous one
    minus its first frame."""
    dt = 1.0 / float(fps)
    velocity = np.gradient(track - track[0], dt, axis=0, edge_order=2)
    acceleration = np.gradient(velocity - velocity[0], dt, axis=0, edge_order=2)
    jerk = np.gradient(acceleration - acceleration[0], dt, axis=0, edge_order=2)
    return velocity, acceleration, jerk


def half_window(fps: float) -> int:
    """Directness half-window in frames: DIRECTNESS_HALF_WINDOW_S at fps,
    rounded, and never below one frame."""
    return max(1, round(DIRECTNESS_HALF_WINDOW_S * fps))


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


def effort_frame(state, positions, t: int, fps: float,
                 tracked=TRACKED_JOINT_INDICES) -> np.ndarray:
    """Effort qualities (Flow, Space, Time, Weight) at frame t.

    Weight is total kinetic energy of the tracked joints under unit
    masses; Time and Flow are mean acceleration and jerk magnitudes;
    Space is mean Directness over the half_window(fps) window.
    """
    velocity, acceleration, jerk = state
    joints = list(tracked)
    flow = float(np.linalg.norm(jerk[t, joints], axis=1).mean())
    space = float(np.mean([
        directness(positions[:, j], t, half_window(fps)) for j in joints
    ]))
    time_ = float(np.linalg.norm(acceleration[t, joints], axis=1).mean())
    speed_sq = (velocity[t, joints] ** 2).sum(axis=1)
    weight = float(0.5 * speed_sq.sum())
    return np.array([flow, space, time_, weight])


def dispersion_frame(positions, t: int) -> np.ndarray:
    """Twelve body-extent measurements of the pose at frame t."""
    pose = positions[t]
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


def trajectory_frame(positions, state, t: int, fps: float) -> np.ndarray:
    """Pelvis path increment, curvature, and net displacement at frame t.

    The path increment is the distance to the next frame times fps (m/s);
    the final frame takes the step from the frame before it. Curvature is
    ||v x a|| / ||v||^3, zero below EPS_SPEED and capped at CURVATURE_CAP.
    """
    track = positions[:, PELVIS]
    n = track.shape[0]
    step = (t, t + 1) if t + 1 < n else (t - 1, t)
    increment = float(np.linalg.norm(track[step[1]] - track[step[0]])) * fps
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


def _horizontal_extent(pos: np.ndarray) -> np.ndarray:
    """Each frame's widest xz distance between two of its joints, one joint
    index offset at a time on transposed (24, frames) copies."""
    x = np.ascontiguousarray(pos[:, :, 0].T)
    z = np.ascontiguousarray(pos[:, :, 2].T)
    widest = np.zeros(pos.shape[0])
    for k in range(1, pos.shape[1]):
        d = x[k:] - x[:-k]
        d *= d
        dz = z[k:] - z[:-k]
        dz *= dz
        d += dz
        np.maximum(widest, d.max(axis=0), out=widest)
    return np.sqrt(widest)


def frame_matrix(positions: np.ndarray, fps: float) -> np.ndarray:
    """The (T, ..., 55) descriptor matrix of finite (T, ..., 24, 3) float
    positions, each family computed frame-major."""
    pos = np.asarray(positions, dtype=np.float64)
    out = np.empty((*pos.shape[:-2], len(FRAME_FEATURE_NAMES)))

    frames = pos.reshape(-1, *pos.shape[-2:])
    dispersion = out.reshape(-1, out.shape[-1])[:, :_EFFORT_AT]
    root = frames[:, PELVIS]
    dispersion[:, :5] = _norm3(frames[:, [HEAD, HAND_L, HAND_R, FOOT_L, FOOT_R]]
                               - root[:, None])
    offsets = frames - frames.mean(axis=1)[:, None, :]
    offsets *= offsets
    to_centroid = np.sqrt((offsets[..., 0] + offsets[..., 1]) + offsets[..., 2])
    dispersion[:, 5] = to_centroid.mean(axis=1)
    dispersion[:, 8] = to_centroid.std(axis=1)
    dispersion[:, 6] = frames[:, :, 1].max(axis=1) - frames[:, :, 1].min(axis=1)
    dispersion[:, 7] = _horizontal_extent(frames)
    dispersion[:, 9] = _norm3(frames[:, HAND_L] - frames[:, HAND_R])
    dispersion[:, 10] = _norm3(frames[:, FOOT_L] - frames[:, FOOT_R])
    dispersion[:, 11] = root[:, 1]

    tracked = pos[..., list(TRACKED_JOINT_INDICES), :]
    velocity, acceleration, jerk = differentiate(tracked, fps)
    fps = float(fps)
    speeds = _norm3(velocity)
    accels = _norm3(acceleration)
    jerks = _norm3(jerk)
    cross = _norm3(np.cross(velocity[..., _TRACKED_PELVIS, :],
                            acceleration[..., _TRACKED_PELVIS, :]))
    energies = 0.5 * speeds ** 2
    direct = windowed_directness(tracked, half_window(fps))
    for k, block in enumerate((speeds, accels, jerks, energies, direct)):
        out[..., _KINEMATICS_AT + k:_INITIATION_AT:len(_KIN_SUFFIXES)] = block

    out[..., _EFFORT_AT] = jerks.mean(axis=-1)
    out[..., _EFFORT_AT + 1] = direct.mean(axis=-1)
    out[..., _EFFORT_AT + 2] = accels.mean(axis=-1)
    out[..., _EFFORT_AT + 3] = energies.sum(axis=-1)

    total = speeds.sum(axis=-1)
    resting = total < EPS_SPEED
    shares = speeds / np.where(resting, 1.0, total)[..., None]
    shares[resting] = 1.0 / len(TRACKED_JOINT_INDICES)
    out[..., _INITIATION_AT:_TRAJECTORY_AT] = shares

    pelvis = pos[..., PELVIS, :]
    steps = _norm3(np.diff(pelvis, axis=0)) * fps
    out[:-1, ..., _TRAJECTORY_AT] = steps
    out[-1, ..., _TRAJECTORY_AT] = steps[-1]
    speed = speeds[..., _TRACKED_PELVIS]
    curvature = np.zeros(speed.shape)
    moving = speed >= EPS_SPEED
    curvature[moving] = np.minimum(cross[moving] / speed[moving] ** 3, CURVATURE_CAP)
    out[..., _TRAJECTORY_AT + 1] = curvature
    out[..., _NET_DISPLACEMENT] = _norm3(pelvis - pelvis[0])
    return out


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


def reduced_hessian(params: np.ndarray, basis: np.ndarray, X: np.ndarray,
                    l2_lambda: float) -> np.ndarray:
    """Exact Hessian over flattened (C-1, d+1) coordinates theta of the
    (C, d+1) params = basis @ theta, basis being (C, C-1) orthonormal with
    columns that sum to zero."""
    n, d = X.shape
    k = basis.shape[1]
    da = d + 1
    design = np.concatenate([X, np.ones((n, 1))], axis=1)
    probs = _softmax(X @ params[:, :-1].T + params[:, -1])
    q = probs @ basis
    hess = np.empty((k, da, k, da))
    for a in range(k):
        for b in range(a, k):
            w = (probs @ (basis[:, a] * basis[:, b]) - q[:, a] * q[:, b]) / n
            block = design.T @ (w[:, None] * design)
            hess[a, :, b, :] = block
            if b != a:
                hess[b, :, a, :] = block
    hess = hess.reshape(k * da, k * da)
    penalty = np.tile(np.concatenate([np.full(d, l2_lambda), [0.0]]), k)
    hess[np.diag_indices_from(hess)] += penalty + _NEWTON_RIDGE
    return hess


def newton_minimize(Z: np.ndarray, y: np.ndarray, class_count: int,
                    config) -> tuple[np.ndarray, list[float]]:
    """Damped Newton descent on the convex objective; returns (params, loss history)."""
    n, d = Z.shape
    params = np.zeros((class_count, d + 1))
    loss, grad = loss_and_gradient(params, Z, y, config.l2_lambda)
    history = [loss]
    for _ in range(config.max_iters):
        if np.abs(grad).max() <= config.grad_tol:
            break
        hess = hessian(params, Z, config.l2_lambda)
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


def slice_fragments(frame_count: int, fps: float, length_s: float,
                    stride_s: float) -> list[slice]:
    """Fragments of round(length_s * fps) frames, at least the 3 s floor's,
    at stride round(stride_s * fps), never below one frame."""
    n_frames = max(round(length_s * fps),
                   math.ceil(MIN_FRAGMENT_SECONDS * fps - _DURATION_TOL))
    stride = max(1, round(stride_s * fps))
    return [slice(start, start + n_frames)
            for start in range(0, frame_count - n_frames + 1, stride)]


def write_features_csv(path, feature_names, rows) -> None:
    """A feature CSV whose every cell goes through csv.writer, each value
    formatted with "{:.9g}"."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source_id", "start_frame", "tier", *feature_names])
        writer.writerows([source_id, start_frame, tier, *map("{:.9g}".format, vector)]
                         for source_id, start_frame, tier, vector in rows)


def write_predictions_csv(path, table, probs) -> None:
    """A prediction CSV whose every cell goes through csv.writer, each
    probability formatted with "{:.9g}"."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source_id", "start_frame", "tier", "predicted_class",
                         *(f"prob_{c}" for c in range(probs.shape[1]))])
        writer.writerows([source_id, start, tier, int(np.argmax(row)),
                          *map("{:.9g}".format, row)]
                         for source_id, start, tier, row in zip(
                             table.source_ids, table.start_frames, table.tiers, probs))


def write_ranking_csv(path, ranking) -> None:
    """A ranking CSV whose every cell goes through csv.writer, each H
    formatted with "{:.9g}"."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "feature", "H"])
        writer.writerows([rank, name, "{:.9g}".format(h)]
                         for rank, (name, h) in enumerate(ranking, start=1))


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of finite values, with ties assigned the average of
    their positions."""
    values = np.asarray(values)
    if not np.isfinite(values).all():  # np.unique would merge NaNs into one tie
        raise ValueError("non-finite value in input")
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def kruskal_wallis(values: np.ndarray, labels: np.ndarray) -> float:
    """Kruskal-Wallis H of one column, with average ranks and the standard
    tie correction; 0 when every value is identical."""
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    if values.ndim != 1 or values.shape != labels.shape:
        raise ValueError("values and labels must be 1-D arrays of equal length")
    if values.size == 0:
        raise ValueError("empty input")
    if not np.isfinite(values).all():
        raise ValueError("non-finite value in input")
    classes = np.unique(labels)
    if classes.size < 2:
        raise ValueError(f"need at least 2 classes, got {classes.size}")

    n = values.size
    ranks = average_ranks(values)
    rank_stat = 0.0
    for c in classes:
        members = labels == c
        rank_stat += ranks[members].sum() ** 2 / members.sum()
    h_raw = 12.0 / (n * (n + 1)) * rank_stat - 3.0 * (n + 1)

    _, tie_counts = np.unique(values, return_counts=True)
    tie_counts = tie_counts.astype(np.float64)
    correction = 1.0 - (tie_counts ** 3 - tie_counts).sum() / (n ** 3 - n)
    if correction <= 0.0:
        return 0.0
    return max(h_raw / correction, 0.0)


def remap_task(tiers, task) -> tuple[np.ndarray, np.ndarray]:
    """(labels, mask) of the rows the task keeps, mapped row by row."""
    tiers = np.asarray(tiers)
    for t in np.unique(tiers):
        if t not in VALID_TIERS:
            raise ValueError(f"unknown tier value {t}")
    mapped = np.array([
        -1 if task.mapping[int(t)] is None else task.mapping[int(t)]
        for t in tiers
    ], dtype=np.int64)
    mask = mapped >= 0
    return mapped[mask], mask


def _ramp(s: np.ndarray, start: float, width: float) -> np.ndarray:
    """Raised-cosine step from 0 to 1 over [start, start + width]."""
    u = np.clip((s - start) / width, 0.0, 1.0)
    return 0.5 * (1.0 - np.cos(np.pi * u))


def _pulse(s: np.ndarray, start: float, width: float) -> np.ndarray:
    """Smooth out-and-back bump (sin^2) supported on [start, start + width]."""
    u = np.clip((s - start) / width, 0.0, 1.0)
    return np.sin(np.pi * u) ** 2


def staccato(s: np.ndarray, duration: float, rng: np.random.Generator) -> np.ndarray:
    """R1: sparse fast limb relocations and hops from a standing base."""
    transition = 0.12
    reach = _jitter(rng, 0.45, 0.2)
    hop_amp = _jitter(rng, 0.07, 0.2)

    pos = _rest_pose(len(s))
    for chain in (_ARM_L, _ARM_R, _LEG_L, _LEG_R):
        times = _burst_schedule(rng, duration - transition, (0.1, 0.5), (0.4, 0.7))
        displacement = np.zeros((len(s), 3))
        previous = np.zeros(3)
        for start in times:
            target = rng.uniform(-1.0, 1.0, size=3) * reach
            target[1] *= 0.5  # strokes stay mostly horizontal
            displacement += np.outer(_ramp(s, start, transition), target - previous)
            previous = target
        for joint, scale in chain:
            pos[:, joint] += scale * displacement

    hops = _burst_schedule(rng, duration - 0.25, (0.5, 1.0), (0.9, 1.4))
    rise = np.zeros(len(s))
    for start in hops:
        rise += hop_amp * _pulse(s, start, 0.25)
    pos[:, :, 1] += rise[:, None]
    return pos
