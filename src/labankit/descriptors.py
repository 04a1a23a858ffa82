"""Per-frame Laban Movement Analysis descriptors and fragment aggregation.

A fragment is a (T, 24, 3) positions array sampled at fps. Each fragment
yields a (T x 55) matrix of per-frame descriptors in five families, in
this fixed column order:

  * Dispersion (12) -- limb reach and body extent,
  * Effort (4) -- Flow, Space, Time, Weight,
  * Per-joint kinematics (30) -- speed, acceleration, jerk, kinetic
    energy, and Directness for each of six tracked joints,
  * Initiation (6) -- each tracked joint's share of total speed,
  * Trajectory (3) -- pelvis path increment, curvature, net displacement.

The matrix is aggregated to a 110-dim vector (per-column mean, then
per-column population standard deviation) with stable feature names.
Dispersion depends on one frame alone, so dispersion_matrix rows computed
once for a sequence's frames can be handed to each fragment that covers
them; the motion families depend on the fragment's edges.

All quantities are in meters and seconds. Distances and speeds are
translation-invariant except the pelvis world height; everything is
invariant to rotation about a vertical axis.
"""

from __future__ import annotations

import numpy as np

from .skeleton import SMPL_JOINT_COUNT, SMPL_JOINT_NAMES, _check_fps, _check_positions

PELVIS, HEAD, HAND_L, HAND_R, FOOT_L, FOOT_R = 0, 15, 22, 23, 10, 11

# Tracked joints: root plus end effectors, which dominate expressive motion.
TRACKED_JOINT_INDICES = (PELVIS, HEAD, HAND_L, HAND_R, FOOT_L, FOOT_R)
TRACKED_JOINT_NAMES = tuple(SMPL_JOINT_NAMES[j] for j in TRACKED_JOINT_INDICES)

# Half-window (frames) for windowed Directness: 0.5 s at 30 fps.
DIRECTNESS_WINDOW = 15

# The unordered joint pairs i < j that the horizontal extent compares.
_PAIR_I, _PAIR_J = np.triu_indices(SMPL_JOINT_COUNT, 1)

# Path shorter than this counts as stationary; stationary joints are Direct.
EPS_PATH = 1e-6
# Speeds below this are treated as rest in curvature and initiation.
EPS_SPEED = 1e-8
# Curvature cap guards the ||v x a|| / ||v||^3 near-rest singularity.
CURVATURE_CAP = 100.0

# Bump when the descriptor enumeration or its order changes.
FEATURE_SCHEMA_VERSION = 1

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
# The 110 aggregate names: every frame feature's mean, then its std.
FEATURE_NAMES_110 = (tuple(f"{n}.mean" for n in FRAME_FEATURE_NAMES)
                     + tuple(f"{n}.std" for n in FRAME_FEATURE_NAMES))


def differentiate(positions: np.ndarray,
                  fps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(velocity, acceleration, jerk) by frame differencing at 1/fps.

    Each array has the fragment's (T, 24, 3) shape, in m/s, m/s^2, m/s^3.

    Central differences at interior frames, one-sided at the ends; each
    derivative order applies the same operator to the previous one. Every
    descriptor path starts here, so this is where bad input is stopped.
    """
    positions = np.asarray(positions)
    dt = 1.0 / _check_fps(fps, "fragment")
    _check_positions(positions, "fragment")
    if positions.shape[0] < 4:
        raise ValueError(
            f"fragment too short for jerk: need at least 4 frames, "
            f"got {positions.shape[0]}"
        )
    velocity = np.gradient(positions, dt, axis=0)
    acceleration = np.gradient(velocity, dt, axis=0)
    jerk = np.gradient(acceleration, dt, axis=0)
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
    steps = np.linalg.norm(np.diff(track, axis=0), axis=-1)
    cumulative = np.concatenate([np.zeros((1, *steps.shape[1:])),
                                 np.cumsum(steps, axis=0)])
    t = np.arange(n)
    a = np.maximum(0, t - w)
    b = np.minimum(n - 1, t + w)
    path = cumulative[b] - cumulative[a]
    chord = np.linalg.norm(track[b] - track[a], axis=-1)
    moving = path >= EPS_PATH
    out = np.ones(path.shape)
    out[moving] = np.minimum(1.0, chord[moving] / path[moving])
    return out


def dispersion_matrix(positions: np.ndarray) -> np.ndarray:
    """The (T x 12) Dispersion block, columns named by the first 12
    FRAME_FEATURE_NAMES. Each row depends on its own frame alone, so the
    rows of a sequence's frames serve every fragment that covers them."""
    pos = np.asarray(positions)
    _check_positions(pos, "fragment")
    pelvis = pos[:, PELVIS]
    reach = np.linalg.norm(pos[:, [HEAD, HAND_L, HAND_R, FOOT_L, FOOT_R]]
                           - pelvis[:, None], axis=2)
    to_centroid = np.linalg.norm(pos - pos.mean(axis=1)[:, None, :], axis=2)
    # Bit-identical to the max of the full 24x24 norm matrix: sqrt is monotone
    # and correctly rounded, (a-b)**2 == (b-a)**2, and the 2-axis norm is
    # sqrt(dx*dx + dz*dz).
    x, z = pos[:, :, 0], pos[:, :, 2]
    dx = x[:, _PAIR_I] - x[:, _PAIR_J]
    dz = z[:, _PAIR_I] - z[:, _PAIR_J]
    return np.column_stack([
        reach,
        to_centroid.mean(axis=1),
        pos[:, :, 1].max(axis=1) - pos[:, :, 1].min(axis=1),
        np.sqrt((dx * dx + dz * dz).max(axis=1)),
        to_centroid.std(axis=1),
        np.linalg.norm(pos[:, HAND_L] - pos[:, HAND_R], axis=1),
        np.linalg.norm(pos[:, FOOT_L] - pos[:, FOOT_R], axis=1),
        pelvis[:, 1],
    ])


def frame_matrix(positions: np.ndarray, fps: float, *,
                 dispersion: np.ndarray | None = None) -> np.ndarray:
    """The (T x 55) descriptor matrix of a fragment, vectorized over frames;
    its columns are FRAME_FEATURE_NAMES, stacked family by family.

    dispersion, when given, is the fragment's (T x 12) dispersion_matrix
    block, computed elsewhere; it is checked for shape and finiteness.
    """
    velocity, acceleration, jerk = differentiate(positions, fps)
    pos = np.asarray(positions)
    n = pos.shape[0]
    joints = list(TRACKED_JOINT_INDICES)
    if dispersion is None:
        dispersion = dispersion_matrix(pos)
    elif (np.shape(dispersion) != (n, len(_DISPERSION_NAMES))
          or not np.isfinite(dispersion).all()):
        raise ValueError(f"dispersion must be a finite ({n}, {len(_DISPERSION_NAMES)}) "
                         f"block, got shape {np.shape(dispersion)}")

    # Tracked-joint kinematic magnitudes, shared by Effort and the
    # per-joint block.
    speeds = np.linalg.norm(velocity[:, joints], axis=2)
    accels = np.linalg.norm(acceleration[:, joints], axis=2)
    jerks = np.linalg.norm(jerk[:, joints], axis=2)
    energies = 0.5 * speeds ** 2
    direct = windowed_directness(pos[:, joints], DIRECTNESS_WINDOW)
    # Effort: Flow, Space, Time, Weight.
    effort = (jerks.mean(axis=1), direct.mean(axis=1), accels.mean(axis=1),
              energies.sum(axis=1))
    kinematics = np.stack([speeds, accels, jerks, energies, direct], axis=2).reshape(n, -1)

    # Initiation.
    total = speeds.sum(axis=1)
    resting = total < EPS_SPEED
    shares = speeds / np.where(resting, 1.0, total)[:, None]
    shares[resting] = 1.0 / len(joints)

    # Trajectory, pelvis reference; the last frame's increment is 0.
    pelvis = pos[:, PELVIS]
    increments = np.linalg.norm(np.diff(pelvis, axis=0, append=pelvis[-1:]), axis=1)
    v = velocity[:, PELVIS]
    speed = np.linalg.norm(v, axis=1)
    cross = np.linalg.norm(np.cross(v, acceleration[:, PELVIS]), axis=1)
    curvature = np.zeros(n)
    moving = speed >= EPS_SPEED
    curvature[moving] = np.minimum(cross[moving] / speed[moving] ** 3, CURVATURE_CAP)
    trajectory = (increments, curvature, np.linalg.norm(pelvis - pelvis[0], axis=1))

    return np.column_stack([dispersion, *effort, kinematics, shares, *trajectory])


def aggregate(matrix: np.ndarray) -> np.ndarray:
    """Collapse a (T x 55) matrix to the 110 values named by
    FEATURE_NAMES_110: column means, then population standard deviations."""
    if matrix.ndim != 2 or matrix.shape[0] < 1 or matrix.shape[1] != len(FRAME_FEATURE_NAMES):
        raise ValueError(f"expected a non-empty (T, {len(FRAME_FEATURE_NAMES)}) "
                         f"matrix, got shape {matrix.shape}")
    return np.concatenate([matrix.mean(axis=0), matrix.std(axis=0)])


def fragment_features(positions: np.ndarray, fps: float, *,
                      dispersion: np.ndarray | None = None) -> np.ndarray:
    """The 110-dim aggregate feature vector of one fragment, in
    FEATURE_NAMES_110 order; dispersion is passed on to frame_matrix."""
    return aggregate(frame_matrix(positions, fps, dispersion=dispersion))
