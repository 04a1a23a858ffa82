"""Per-frame Laban Movement Analysis descriptors and fragment aggregation.

A sequence is a (T, 24, 3) positions array sampled at fps. It yields a
(T x 55) matrix of per-frame descriptors in five families, in this fixed
column order:

  * Dispersion (12) -- limb reach and body extent,
  * Effort (4) -- Flow, Space, Time, Weight,
  * Per-joint kinematics (30) -- speed, acceleration, jerk, kinetic
    energy, and Directness for each of six tracked joints,
  * Initiation (6) -- each tracked joint's share of total speed,
  * Trajectory (3) -- pelvis path increment, curvature, net displacement.

A fragment, a run of a sequence's frames, aggregates its rows of the
sequence's matrix to a 110-dim vector (per-column mean, then per-column
population standard deviation) with stable feature names. Kinematics at
a fragment's edges use the sequence's neighbouring frames; only net
displacement, measured from the fragment's first frame, is recomputed
per fragment.

All quantities are in meters and seconds. Distances and speeds are
translation-invariant except the pelvis world height; everything is
invariant to rotation about a vertical axis.
"""

from __future__ import annotations

import numpy as np

from .skeleton import SMPL_JOINT_NAMES, _check_fps, _check_positions

PELVIS, HEAD, HAND_L, HAND_R, FOOT_L, FOOT_R = 0, 15, 22, 23, 10, 11

# Tracked joints: root plus end effectors, which dominate expressive motion.
TRACKED_JOINT_INDICES = (PELVIS, HEAD, HAND_L, HAND_R, FOOT_L, FOOT_R)
TRACKED_JOINT_NAMES = tuple(SMPL_JOINT_NAMES[j] for j in TRACKED_JOINT_INDICES)
_TRACKED_PELVIS = TRACKED_JOINT_INDICES.index(PELVIS)

# Half-window of windowed Directness in seconds; frame_matrix rounds it to
# max(1, round(DIRECTNESS_HALF_WINDOW_S * fps)) frames.
DIRECTNESS_HALF_WINDOW_S = 0.5

# Path shorter than this counts as stationary; stationary joints are Direct.
EPS_PATH = 1e-6
# Speeds below this are treated as rest in curvature and initiation.
EPS_SPEED = 1e-8
# Curvature cap guards the ||v x a|| / ||v||^3 near-rest singularity.
CURVATURE_CAP = 100.0

# Bump when the descriptor enumeration, its order or what a descriptor
# means changes.
FEATURE_SCHEMA_VERSION = 2

_DISPERSION_NAMES = (
    "dispersion.head_pelvis",
    "dispersion.hand_l_pelvis",
    "dispersion.hand_r_pelvis",
    "dispersion.foot_l_pelvis",
    "dispersion.foot_r_pelvis",
    "dispersion.centroid_mean",
    "dispersion.vertical_extent",
    "dispersion.horizontal_extent",
    "dispersion.centroid_std",
    "dispersion.hand_hand",
    "dispersion.foot_foot",
    "dispersion.pelvis_height",
)

_EFFORT_NAMES = ("effort.flow", "effort.space", "effort.time", "effort.weight")

_KIN_SUFFIXES = ("speed", "accel", "jerk", "energy", "directness")

_TRAJECTORY_NAMES = (
    "trajectory.path_increment",
    "trajectory.curvature",
    "trajectory.net_displacement",
)

# The 55 per-frame descriptor names in canonical column order.
FRAME_FEATURE_NAMES = (
    _DISPERSION_NAMES
    + _EFFORT_NAMES
    + tuple(f"kin.{joint}.{suffix}"
            for joint in TRACKED_JOINT_NAMES for suffix in _KIN_SUFFIXES)
    + tuple(f"initiation.{joint}" for joint in TRACKED_JOINT_NAMES)
    + _TRAJECTORY_NAMES
)
_NET_DISPLACEMENT = FRAME_FEATURE_NAMES.index("trajectory.net_displacement")

# The 110 aggregate names: every frame feature's mean, then its std.
FEATURE_NAMES_110 = (tuple(f"{n}.mean" for n in FRAME_FEATURE_NAMES)
                     + tuple(f"{n}.std" for n in FRAME_FEATURE_NAMES))


def _norm3(d: np.ndarray) -> np.ndarray:
    """Euclidean norms over a last axis of length 3, without writing to d.

    Bit-identical to np.linalg.norm(d, axis=-1) on float input: that squares
    elementwise and adds the three squares in this order. Its reduction over
    a 3-long axis pays a per-output cost that three elementwise adds avoid.
    """
    s = d * d
    return np.sqrt((s[..., 0] + s[..., 1]) + s[..., 2])


def differentiate(track: np.ndarray,
                  fps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(velocity, acceleration, jerk) of a (T, ..., 3) track by frame
    differencing at 1/fps.

    Each array has the track's shape, in m/s, m/s^2, m/s^3. Central
    differences at interior frames and second-order one-sided differences
    at the two ends; each derivative order applies the same operator to the
    previous one.
    """
    track = np.asarray(track)
    dt = 1.0 / _check_fps(fps, "fragment")
    if track.ndim < 2 or track.shape[-1] != 3 or not np.isfinite(track).all():
        raise ValueError(f"expected a finite (T, ..., 3) track, got shape {track.shape}")
    if track.shape[0] < 4:
        raise ValueError(
            f"sequence too short for jerk: need at least 4 frames, "
            f"got {track.shape[0]}"
        )
    # Each order is taken of its input minus the first frame: the end
    # weights of edge_order=2 do not sum to exactly 0 in floating point, and
    # a still joint must differentiate to exact zeros.
    velocity = np.gradient(track - track[0], dt, axis=0, edge_order=2)
    acceleration = np.gradient(velocity - velocity[0], dt, axis=0, edge_order=2)
    jerk = np.gradient(acceleration - acceleration[0], dt, axis=0, edge_order=2)
    return velocity, acceleration, jerk


def windowed_directness(track: np.ndarray, w: int) -> np.ndarray:
    """Directness at every frame t of a (T, ..., 3) track: the chord-to-path
    ratio ||p(b) - p(a)|| / sum(||p(tau+1) - p(tau)||) over the clamped window
    a = max(0, t - w), b = min(T - 1, t + w), via the cumulative path along
    time and norms on the last axis; the result has shape (T, ...). A window
    whose path is shorter than EPS_PATH counts as fully Direct (1.0).
    """
    if w < 1:
        raise ValueError(f"half-window must be >= 1, got {w}")
    track = np.asarray(track, dtype=np.float64)
    n = track.shape[0]
    steps = _norm3(np.diff(track, axis=0))
    cumulative = np.concatenate([np.zeros((1, *steps.shape[1:])),
                                 np.cumsum(steps, axis=0)])
    t = np.arange(n)
    a = np.maximum(0, t - w)
    b = np.minimum(n - 1, t + w)
    path = cumulative[b] - cumulative[a]
    chord = _norm3(track[b] - track[a])
    moving = path >= EPS_PATH
    out = np.ones(path.shape)
    out[moving] = np.minimum(1.0, chord[moving] / path[moving])
    return out


def _horizontal_extent(pos: np.ndarray) -> np.ndarray:
    """Each frame's widest xz distance between two of its joints.

    Joint j is compared with joint j - k for every offset k, so each of the
    unordered pairs is visited once without building a (T, pairs) array.
    Bit-identical to the max of the full 24x24 norm matrix: sqrt is monotone
    and correctly rounded, (a-b)**2 == (b-a)**2, and the 2-axis norm is
    sqrt(dx*dx + dz*dz).
    """
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


def _net_displacement(pelvis: np.ndarray) -> np.ndarray:
    """Each frame's pelvis distance from the first frame."""
    return _norm3(pelvis - pelvis[0])


def frame_matrix(positions: np.ndarray, fps: float) -> np.ndarray:
    """The (T x 55) descriptor matrix of a sequence, vectorized over frames;
    its columns are FRAME_FEATURE_NAMES, stacked family by family.

    Dispersion rows depend on their own frame alone. Kinematics and
    Directness windows see the whole sequence and are cut short only at its
    two ends; net displacement is measured from frame 0.
    """
    pos = np.asarray(positions)
    _check_positions(pos, "fragment")
    n = pos.shape[0]
    pelvis = pos[:, PELVIS]

    # Dispersion: limb reach, centroid spread, extents, hand and foot
    # spans, pelvis height.
    reach = _norm3(pos[:, [HEAD, HAND_L, HAND_R, FOOT_L, FOOT_R]] - pelvis[:, None])
    to_centroid = _norm3(pos - pos.mean(axis=1)[:, None, :])
    dispersion = (reach, to_centroid.mean(axis=1),
                  pos[:, :, 1].max(axis=1) - pos[:, :, 1].min(axis=1),
                  _horizontal_extent(pos), to_centroid.std(axis=1),
                  _norm3(pos[:, HAND_L] - pos[:, HAND_R]),
                  _norm3(pos[:, FOOT_L] - pos[:, FOOT_R]),
                  pelvis[:, 1])
    del to_centroid  # (T, 24): not kept alive through the other families

    joints = list(TRACKED_JOINT_INDICES)
    # Only the tracked joints' kinematics are used, so only they are
    # differentiated.
    velocity, acceleration, jerk = differentiate(pos[:, joints], fps)
    fps = float(fps)  # checked by differentiate

    # Tracked-joint kinematic magnitudes, shared by Effort and the
    # per-joint block.
    speeds = _norm3(velocity)
    accels = _norm3(acceleration)
    jerks = _norm3(jerk)
    energies = 0.5 * speeds ** 2
    direct = windowed_directness(pos[:, joints],
                                 max(1, round(DIRECTNESS_HALF_WINDOW_S * fps)))
    # Effort: Flow, Space, Time, Weight.
    effort = (jerks.mean(axis=1), direct.mean(axis=1), accels.mean(axis=1),
              energies.sum(axis=1))
    kinematics = np.stack([speeds, accels, jerks, energies, direct], axis=2).reshape(n, -1)

    # Initiation.
    total = speeds.sum(axis=1)
    resting = total < EPS_SPEED
    shares = speeds / np.where(resting, 1.0, total)[:, None]
    shares[resting] = 1.0 / len(joints)

    # Trajectory, pelvis reference. The path increment is the step to the
    # next frame in m/s; the last frame repeats the step that reached it.
    steps = _norm3(np.diff(pelvis, axis=0)) * fps
    increments = np.append(steps, steps[-1])
    v = velocity[:, _TRACKED_PELVIS]
    speed = speeds[:, _TRACKED_PELVIS]
    cross = _norm3(np.cross(v, acceleration[:, _TRACKED_PELVIS]))
    curvature = np.zeros(n)
    moving = speed >= EPS_SPEED
    curvature[moving] = np.minimum(cross[moving] / speed[moving] ** 3, CURVATURE_CAP)
    trajectory = (increments, curvature, _net_displacement(pelvis))

    return np.column_stack([*dispersion, *effort, kinematics, shares, *trajectory])


def aggregate(matrix: np.ndarray) -> np.ndarray:
    """Collapse a (T x 55) matrix to the 110 values named by
    FEATURE_NAMES_110: column means, then population standard deviations."""
    if matrix.ndim != 2 or matrix.shape[0] < 1 or matrix.shape[1] != len(FRAME_FEATURE_NAMES):
        raise ValueError(f"expected a non-empty (T, {len(FRAME_FEATURE_NAMES)}) "
                         f"matrix, got shape {matrix.shape}")
    return np.concatenate([matrix.mean(axis=0), matrix.std(axis=0)])


def fragment_features(positions: np.ndarray, fps: float,
                      starts=None, length: int | None = None) -> np.ndarray:
    """Aggregate feature vectors in FEATURE_NAMES_110 order.

    positions is a whole (T, 24, 3) sequence. Without starts and length it
    is one fragment and the result is its (110,) vector. With them, the
    result is the (len(starts), 110) array of the fragments
    positions[s:s + length]: the sequence's frame_matrix is computed once,
    and each fragment aggregates its rows with net displacement measured
    from its own first frame.
    """
    if (starts is None) != (length is None):
        raise ValueError("starts and length must be given together")
    if length is not None and length < 1:
        raise ValueError(f"length must be >= 1 frame, got {length}")
    pos = np.asarray(positions)
    rows = frame_matrix(pos, fps)
    whole = starts is None
    if whole:
        starts, length = (0,), len(rows)
    out = np.empty((len(starts), len(FEATURE_NAMES_110)))
    for i, start in enumerate(starts):
        if not 0 <= start <= len(rows) - length:
            raise ValueError(f"fragment at frame {start} of {length} frames does not "
                             f"fit in a sequence of {len(rows)} frames")
        block = rows[start:start + length].copy()
        block[:, _NET_DISPLACEMENT] = _net_displacement(pos[start:start + length, PELVIS])
        out[i] = aggregate(block)
    return out[0] if whole else out
