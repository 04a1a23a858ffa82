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

A fragment, a slice of a sequence's frames, aggregates its rows of the
sequence's matrix to a 110-dim vector (per-column mean, then per-column
population standard deviation) with stable feature names. Kinematics at
a fragment's edges use the sequence's neighbouring frames; only net
displacement, measured from the fragment's first frame, is recomputed
per fragment. A whole sequence taken as one fragment is
aggregate(frame_matrix(positions, fps)).

Sequences of one frame count and fps can be stacked on axes between time
and joints: frame_matrix takes (T, ..., 24, 3) and returns (T, ..., 55),
aggregate takes (L, ..., 55) and returns (..., 110), and fragment_features
returns (len(fragments), ..., 110). Each sequence gets the same bits as when
described alone, and one call pays numpy's fixed cost per call once for
all of them, which is most of the work on a 5 s clip. A single sequence
is the case with no stacked axes. The working arrays of a call are a few
times its positions, so callers cap how many frames they stack.

frame_matrix describes its frames from one float64 copy of the positions
laid out as joint-major coordinate planes (3, 24, n), n being the frames
of every stacked sequence, so Dispersion's elementwise steps and its
reductions over joints run along rows of n contiguous values. Integer and
float32 positions are described from their float64 values. The mean and
std of the 24 joint-to-centroid distances stay frame-major (n, 24)
reductions: numpy sums 8 or more contiguous values pairwise, and a sum
down the joint rows would round differently. The six tracked joints go
back to frame-major (T, ..., 6, 3) for their kinematics and Directness.

All quantities are in meters and seconds. Distances and speeds are
translation-invariant except the pelvis world height; everything is
invariant to rotation about a vertical axis.
"""

from __future__ import annotations

import numpy as np

from .skeleton import SMPL_JOINT_NAMES, _check_fps, _check_positions, _is_integer
from .stats import mean_std

PELVIS, HEAD, HAND_L, HAND_R, FOOT_L, FOOT_R = 0, 15, 22, 23, 10, 11

# Tracked joints: root plus end effectors, which dominate expressive motion.
TRACKED_JOINT_INDICES = (PELVIS, HEAD, HAND_L, HAND_R, FOOT_L, FOOT_R)
TRACKED_JOINT_NAMES = tuple(SMPL_JOINT_NAMES[j] for j in TRACKED_JOINT_INDICES)
_TRACKED_PELVIS = TRACKED_JOINT_INDICES.index(PELVIS)

# Joints that end a frame's widest horizontal pair in ordinary poses: head,
# knees, ankles, feet, elbows, wrists and hands. _horizontal_extent starts
# from their pairs and bounds the other, inner joints.
_REACHING_JOINTS = np.array([4, 5, 7, 8, 10, 11, 15, 18, 19, 20, 21, 22, 23])
_INNER_JOINTS = np.setdiff1d(np.arange(len(SMPL_JOINT_NAMES)), _REACHING_JOINTS)

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
# First columns of the families after Dispersion, which starts at 0.
_EFFORT_AT = len(_DISPERSION_NAMES)
_KINEMATICS_AT = _EFFORT_AT + len(_EFFORT_NAMES)
_INITIATION_AT = _KINEMATICS_AT + len(_KIN_SUFFIXES) * len(TRACKED_JOINT_NAMES)
_TRAJECTORY_AT = _INITIATION_AT + len(TRACKED_JOINT_NAMES)
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


def _check_jerk_frames(count: int):
    """Refuse a sequence with too few frames for the jerk's end formulas."""
    if count < 4:
        raise ValueError(f"sequence too short for jerk: need at least 4 frames, got {count}")


def differentiate(track: np.ndarray,
                  fps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(velocity, acceleration, jerk) of a (T, ..., 3) track by frame
    differencing at 1/fps.

    Each array has the track's shape, in m/s, m/s^2, m/s^3. Central
    differences at interior frames and second-order one-sided differences
    at the two ends; each derivative order applies the same operator to the
    previous one.

    Each order is bit for bit np.gradient(g, 1 / fps, axis=0, edge_order=2)
    of its input g minus g's first frame, without np.gradient's per-call
    argument handling: the same output dtype (integers become float64,
    other floats keep theirs) and np.gradient's uniform-spacing formulas,
    evaluated in its order with the same Python-float coefficients, so in
    that dtype. The interior difference is divided in the output array,
    which has the dtype of numpy's temporary and so rounds the same.
    """
    track = np.asarray(track)
    dt = 1.0 / _check_fps(fps, "fragment")
    if track.ndim < 2 or track.shape[-1] != 3 or not np.isfinite(track).all():
        raise ValueError(f"expected a finite (T, ..., 3) track, got shape {track.shape}")
    _check_jerk_frames(track.shape[0])
    # Each order is taken of its input minus the first frame: the end
    # weights of edge_order=2 do not sum to exactly 0 in floating point, and
    # a still joint must differentiate to exact zeros.
    f = track - track[0]
    if not np.issubdtype(f.dtype, np.inexact):
        f = f.astype(np.float64)
    derivatives = []
    for order in range(3):
        d = np.empty_like(f)
        np.subtract(f[2:], f[:-2], out=d[1:-1])
        d[1:-1] /= 2.0 * dt
        d[0] = (-1.5 / dt) * f[0] + (2.0 / dt) * f[1] + (-0.5 / dt) * f[2]
        d[-1] = (0.5 / dt) * f[-3] + (-2.0 / dt) * f[-2] + (1.5 / dt) * f[-1]
        derivatives.append(d)
        if order < 2:
            np.subtract(d, d[0], out=f)
    velocity, acceleration, jerk = derivatives
    return velocity, acceleration, jerk


def windowed_directness(track: np.ndarray, w: int) -> np.ndarray:
    """Directness at every frame t of a (T, ..., 3) track: the chord-to-path
    ratio ||p(b) - p(a)|| / sum(||p(tau+1) - p(tau)||) over the clamped window
    a = max(0, t - w), b = min(T - 1, t + w), via the cumulative path along
    time and norms on the last axis; the result has shape (T, ...). A window
    whose path is shorter than EPS_PATH counts as fully Direct (1.0).

    Any w >= T - 1 makes every window the whole track, so w is capped at T,
    which keeps t - w an int64 at any frame rate.
    """
    if not _is_integer(w) or w < 1:
        raise ValueError(f"half-window w must be an integer frame count >= 1, got {w!r}")
    track = np.asarray(track, dtype=np.float64)
    n = track.shape[0]
    w = min(w, n)
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


def _widest_squared(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Each column's largest dx*dx + dz*dz over the pairs of rows of the
    (joints, frames) x and z planes.

    Row j is compared with row j - k for every offset k, so each of the
    unordered pairs is visited once without building a (frames, pairs)
    array.
    """
    widest = np.zeros(x.shape[1])
    buffers = np.empty((2, x.shape[0] - 1, x.shape[1]))
    for k in range(1, x.shape[0]):
        d, dz = buffers[:, k - 1:]
        np.subtract(x[k:], x[:-k], out=d)
        d *= d
        np.subtract(z[k:], z[:-k], out=dz)
        dz *= dz
        d += dz
        np.maximum(widest, d.max(axis=0), out=widest)
    return widest


def _horizontal_extent(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Each frame's widest xz distance between two of its joints, from the
    (24, frames) x and z coordinate planes.

    The widest pair among the reaching joints comes first. Each inner
    joint is then bounded by its squared distance to the farthest corner
    of the frame's xz bounding box, max(x - xmin, xmax - x)**2 +
    max(z - zmin, zmax - z)**2, computed as a pair's dx*dx + dz*dz is; only
    the frames where a bound exceeds the reaching maximum are compared over
    all 276 pairs. The result is bit-identical to the max of the full 24x24
    norm matrix. Rounding is monotone, and fl(a-b)**2 == fl(b-a)**2, so no
    computed pair with an inner endpoint exceeds that joint's computed
    bound; a max is exact, sqrt is monotone and correctly rounded, and the
    2-axis norm is sqrt(dx*dx + dz*dz). The choice of reaching joints only
    decides how many frames take the all-pairs pass, never a bit.
    """
    widest = _widest_squared(x[_REACHING_JOINTS], z[_REACHING_JOINTS])
    bound = _far_side_squared(x)
    bound += _far_side_squared(z)
    redo = np.flatnonzero(bound.max(axis=0) > widest)
    del bound
    if len(redo):
        widest[redo] = _widest_squared(x[:, redo], z[:, redo])
    return np.sqrt(widest)


def _far_side_squared(plane: np.ndarray) -> np.ndarray:
    """The (inner joints, frames) squared distances, along one coordinate
    plane of 24 joint rows, from each inner joint to the farther end of its
    frame's range."""
    inner = plane[_INNER_JOINTS]
    far = inner - plane.min(axis=0)
    np.subtract(plane.max(axis=0), inner, out=inner)
    np.maximum(far, inner, out=far)
    far *= far
    return far


def _net_displacement(pelvis: np.ndarray) -> np.ndarray:
    """Each frame's pelvis distance from the first frame."""
    return _norm3(pelvis - pelvis[0])


def frame_matrix(positions: np.ndarray, fps: float) -> np.ndarray:
    """The (T, ..., 55) descriptor matrix of a (T, ..., 24, 3) positions
    array, vectorized over frames: each sequence stacked on the axes between
    time and joints gets its own rows, the same bits as when described
    alone. Its columns are FRAME_FEATURE_NAMES, family by family.

    Dispersion rows depend on their own frame alone. Kinematics and
    Directness windows see the whole sequence and are cut short only at its
    two ends; net displacement is measured from frame 0.
    """
    pos = np.asarray(positions)
    _check_positions(pos, "fragment", stacked=True)
    _check_jerk_frames(pos.shape[0])
    # The one float64 copy: joint-major coordinate planes, planes[c, j] the
    # coordinate c of joint j at each of the n frames of every sequence.
    planes = np.ascontiguousarray(pos.reshape(-1, *pos.shape[-2:]).T, dtype=np.float64)
    n = planes.shape[-1]
    # The horizontal extent is taken before the output is allocated: it
    # copies the x and z planes of the frames that fail its bound, and on
    # unstructured poses every frame does.
    extent = _horizontal_extent(planes[0], planes[2])
    out = np.empty((*pos.shape[:-2], len(FRAME_FEATURE_NAMES)))

    # Dispersion: limb reach, centroid spread, extents, hand and foot
    # spans, pelvis height, written through a (12, n) view of their columns.
    dispersion = out.reshape(n, -1)[:, :_EFFORT_AT].T
    dispersion[:5] = _norm3(np.moveaxis(
        planes[:, [HEAD, HAND_L, HAND_R, FOOT_L, FOOT_R]] - planes[:, PELVIS, None], 0, -1))
    # Summing the 24 joint rows adds them in joint order, as a frame-major
    # mean over joints does. The squared offsets add up in _norm3's order
    # in two (24, n) arrays.
    centroid = np.add.reduce(planes, axis=1)
    centroid /= planes.shape[1]
    to_centroid = planes[0] - centroid[0, None]
    to_centroid *= to_centroid
    square = np.empty_like(to_centroid)
    for c in (1, 2):
        np.subtract(planes[c], centroid[c, None], out=square)
        square *= square
        to_centroid += square
    del square
    np.sqrt(to_centroid, out=to_centroid)
    # numpy sums 8 or more contiguous values pairwise, so the mean and std
    # over the 24 joints keep their frame-major (n, 24) reduction.
    to_centroid = np.ascontiguousarray(to_centroid.T)
    dispersion[5], dispersion[8] = mean_std(to_centroid, axis=1)
    del to_centroid
    dispersion[6] = planes[1].max(axis=0) - planes[1].min(axis=0)
    dispersion[7] = extent
    del extent
    dispersion[9] = _norm3(np.moveaxis(planes[:, HAND_L] - planes[:, HAND_R], 0, -1))
    dispersion[10] = _norm3(np.moveaxis(planes[:, FOOT_L] - planes[:, FOOT_R], 0, -1))
    dispersion[11] = planes[1, PELVIS]

    # Only the tracked joints' kinematics are used, so only they are
    # differentiated, from a frame-major (T, ..., 6, 3) copy of their
    # planes: np.gradient and the Directness gathers along time run faster
    # on it than on a view of the planes.
    tracked = np.ascontiguousarray(np.moveaxis(
        planes[:, list(TRACKED_JOINT_INDICES)].reshape(3, len(TRACKED_JOINT_INDICES),
                                                        *pos.shape[:-2]),
        (0, 1), (-1, -2)))
    del planes
    velocity, acceleration, jerk = differentiate(tracked, fps)
    fps = float(fps)  # checked by differentiate

    # Tracked-joint kinematic magnitudes, shared by Effort and the
    # per-joint block, whose columns run joint by joint.
    speeds = _norm3(velocity)
    accels = _norm3(acceleration)
    jerks = _norm3(jerk)
    # The pelvis's ||v x a|| for curvature, so that the derivatives can go
    # before Directness runs.
    cross = _norm3(np.cross(velocity[..., _TRACKED_PELVIS, :],
                            acceleration[..., _TRACKED_PELVIS, :]))
    del velocity, acceleration, jerk
    energies = 0.5 * speeds ** 2
    direct = windowed_directness(tracked, max(1, round(DIRECTNESS_HALF_WINDOW_S * fps)))
    for k, block in enumerate((speeds, accels, jerks, energies, direct)):
        out[..., _KINEMATICS_AT + k:_INITIATION_AT:len(_KIN_SUFFIXES)] = block

    # Effort: Flow, Space, Time, Weight.
    out[..., _EFFORT_AT] = jerks.mean(axis=-1)
    out[..., _EFFORT_AT + 1] = direct.mean(axis=-1)
    out[..., _EFFORT_AT + 2] = accels.mean(axis=-1)
    out[..., _EFFORT_AT + 3] = energies.sum(axis=-1)

    # Initiation.
    total = speeds.sum(axis=-1)
    resting = total < EPS_SPEED
    shares = speeds / np.where(resting, 1.0, total)[..., None]
    shares[resting] = 1.0 / len(TRACKED_JOINT_INDICES)
    out[..., _INITIATION_AT:_TRAJECTORY_AT] = shares

    # Trajectory, pelvis reference. The path increment is the step to the
    # next frame in m/s; the last frame repeats the step that reached it.
    pelvis = tracked[..., _TRACKED_PELVIS, :]
    steps = _norm3(np.diff(pelvis, axis=0)) * fps
    out[:-1, ..., _TRAJECTORY_AT] = steps
    out[-1, ..., _TRAJECTORY_AT] = steps[-1]
    speed = speeds[..., _TRACKED_PELVIS]
    curvature = np.zeros(speed.shape)
    moving = speed >= EPS_SPEED
    curvature[moving] = np.minimum(cross[moving] / speed[moving] ** 3, CURVATURE_CAP)
    out[..., _TRAJECTORY_AT + 1] = curvature
    out[..., _NET_DISPLACEMENT] = _net_displacement(pelvis)
    return out


def aggregate(matrix: np.ndarray) -> np.ndarray:
    """Collapse a (T, ..., 55) matrix to the (..., 110) values named by
    FEATURE_NAMES_110: means over time, then population standard
    deviations."""
    if matrix.ndim < 2 or matrix.shape[0] < 1 or matrix.shape[-1] != len(FRAME_FEATURE_NAMES):
        raise ValueError(f"expected a non-empty (T, ..., {len(FRAME_FEATURE_NAMES)}) "
                         f"matrix, got shape {matrix.shape}")
    return np.concatenate(mean_std(matrix), axis=-1)


def fragment_features(positions: np.ndarray, fps: float, fragments) -> np.ndarray:
    """The (len(fragments), ..., 110) feature vectors, in FEATURE_NAMES_110
    order, of fragments of whole (T, ..., 24, 3) sequences: each fragment is
    a slice(start, stop) of frames, as slice_fragments cuts them, taken from
    every stacked sequence.

    The sequences' frame_matrix is computed once, and each fragment
    aggregates its rows with net displacement measured from its own first
    frame. A vector with a non-finite feature is refused, naming the
    fragment's start frame and the feature.
    """
    pos = np.asarray(positions)
    rows = frame_matrix(pos, fps)
    pelvis = pos[..., PELVIS, :].astype(np.float64)
    out = np.empty((len(fragments), *rows.shape[1:-1], len(FEATURE_NAMES_110)))
    for i, f in enumerate(fragments):
        if not (isinstance(f, slice) and f.step is None and _is_integer(f.start)
                and _is_integer(f.stop) and 0 <= f.start < f.stop <= len(rows)):
            raise ValueError(f"fragment {i} is {f!r}, not a slice(start, stop) of integer "
                             f"frames 0 <= start < stop <= {len(rows)}")
        # Each fragment rewrites its whole window's net displacement before
        # aggregating it, so overlapping windows never see another's column.
        window = rows[f]
        window[..., _NET_DISPLACEMENT] = _net_displacement(pelvis[f])
        out[i] = aggregate(window)
    bad = np.argwhere(~np.isfinite(out))
    if len(bad):
        i, *_, j = bad[0]
        raise ValueError(f"fragment at frame {fragments[i].start}: feature "
                         f"{FEATURE_NAMES_110[j]} is {out[tuple(bad[0])]}")
    return out
