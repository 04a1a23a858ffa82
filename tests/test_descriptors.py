import math
import re
import tracemalloc

import numpy as np
import pytest

from labankit import (
    FEATURE_NAMES_110,
    FRAME_FEATURE_NAMES,
    N_REGIMES,
    TRACKED_JOINT_INDICES,
    RegimeSpec,
    SkeletonError,
    SkeletonSequence,
    aggregate,
    fragment_features,
    frame_matrix,
    generate,
    slice_fragments,
)
from labankit import descriptors
from labankit.descriptors import differentiate, windowed_directness

from conftest import rest_positions, wiggle_positions
import oracles
from oracles import (
    directness,
    dispersion_frame,
    effort_frame,
    half_window,
    initiation_frame,
    trajectory_frame,
)

PELVIS, HEAD, HAND_L, HAND_R, FOOT_L, FOOT_R = 0, 15, 22, 23, 10, 11


def column(name):
    return FRAME_FEATURE_NAMES.index(name)


# ---------------------------------------------------------------------------
# differentiate
# ---------------------------------------------------------------------------

def test_differentiate_linear_motion():
    n, fps = 100, 30.0
    positions = rest_positions(n)
    positions[:, :, 0] += np.arange(n)[:, None]  # slope 1 m/frame along x
    velocity, acceleration, jerk = differentiate(positions, fps)
    assert np.allclose(velocity[:, :, 0], 30.0, atol=1e-9)
    assert np.allclose(velocity[:, :, 1:], 0.0, atol=1e-9)
    assert np.allclose(acceleration, 0.0, atol=1e-6)
    assert np.allclose(jerk, 0.0, atol=1e-4)


def test_differentiate_rest():
    for arr in differentiate(rest_positions(100), 30.0):
        assert np.all(arr == 0.0)


def test_differentiate_quadratic_against_analytic_second_derivative():
    # p(t) = (t dt)^2 along x: the analytic oracle gives d2p/ds2 = 2 m/s^2
    # everywhere, and central differences are exact on quadratics.
    n, fps = 100, 30.0
    dt = 1.0 / fps
    t = np.arange(n)
    positions = rest_positions(n)
    positions[:, :, 0] += ((t * dt) ** 2)[:, None]
    velocity, acceleration, _ = differentiate(positions, fps)
    interior = slice(2, n - 2)
    assert np.allclose(acceleration[interior, :, 0], 2.0, atol=1e-9)
    # velocity oracle: dp/ds = 2 t dt^2 * fps = 2 t dt
    expected_v = 2.0 * t[interior] * dt
    assert np.allclose(velocity[interior, :, 0], expected_v[:, None], atol=1e-9)


def test_differentiate_needs_four_frames():
    positions = rest_positions(90)[:3]
    with pytest.raises(ValueError, match="too short for jerk"):
        differentiate(positions, 1.0)  # 3 frames, 3 s at 1 fps


def test_differentiate_of_tracked_joints_equals_their_rows_of_the_skeleton():
    positions = wiggle_positions(120, seed=3)
    joints = list(TRACKED_JOINT_INDICES)
    for part, whole in zip(differentiate(positions[:, joints], 30.0),
                           differentiate(positions, 30.0)):
        assert np.array_equal(part, whole[:, joints])


@pytest.mark.parametrize("track", [np.zeros((10, 6, 2)), np.zeros(10),
                                   np.full((10, 6, 3), np.nan)],
                         ids=["two-coordinates", "flat", "nan"])
def test_differentiate_rejects_a_track_that_is_not_finite_t_by_3(track):
    with pytest.raises(ValueError, match=r"expected a finite \(T, \.\.\., 3\) track"):
        differentiate(track, 30.0)


def _derivative_case(name):
    """A named track of the np.gradient pinning test."""
    kind, _, arg = name.partition(" ")
    positions = wiggle_positions(60, seed=4)
    if kind == "minimum":
        return positions[:4, HAND_L]
    if kind == "stacked":
        return np.stack([positions, wiggle_positions(60, seed=5)], axis=1)[:, :, [0, 15, 22]]
    if kind == "dtype":
        return {"int64": np.round(positions * 100).astype(np.int64),
                "int32": np.round(positions * 100).astype(np.int32),
                "float32": positions.astype(np.float32),
                "float64": positions}[arg]
    if kind == "signed-zero":
        track = np.zeros((12, 6, 3))
        track[::2, 1::2] = -0.0
        track[5:, 0, 2] = -0.0
        track[7:, 3] = positions[7:12, 3]
        return track
    rng = np.random.default_rng(6)
    return positions * float(arg) * rng.choice([-1.0, 1.0], size=positions.shape)


@pytest.mark.parametrize("fps", [24, 29.97, 30, 60, 120])
@pytest.mark.parametrize("name", [
    "minimum", "stacked", "dtype int64", "dtype int32", "dtype float32", "dtype float64",
    "signed-zero", "scale 1e-150", "scale 1e150",
])
def test_differentiate_is_numpy_gradient_bit_for_bit(name, fps):
    track = _derivative_case(name)
    for got, want in zip(differentiate(track, fps), oracles.differentiate(track, fps)):
        assert got.dtype == want.dtype == (np.float32 if track.dtype == np.float32
                                           else np.float64)
        assert got.shape == track.shape
        assert got.tobytes() == want.tobytes()


def test_fragment_features_rejects_a_non_finite_coordinate_by_location():
    positions = wiggle_positions(150)
    positions[37, 5, 1] = np.nan
    with pytest.raises(SkeletonError, match="non-finite coordinate at frame 37, joint 5"):
        fragment_features(positions, 30.0, [slice(0, 150)])


@pytest.mark.parametrize("shape, message", [
    ((150, 23, 3), "joint count 23 != 24"),
    ((150, 24, 2), r"shape \(T, 24, 3\)"),
    ((150, 72), r"shape \(T, 24, 3\)"),
])
def test_fragment_features_rejects_the_wrong_shape(shape, message):
    with pytest.raises(SkeletonError, match=message):
        fragment_features(np.zeros(shape), 30.0, [slice(0, 150)])


def test_fragment_features_rejects_a_three_frame_fragment():
    with pytest.raises(ValueError, match="need at least 4 frames, got 3"):
        fragment_features(rest_positions(3), 1.0, [slice(0, 3)])


# ---------------------------------------------------------------------------
# directness
# ---------------------------------------------------------------------------

def test_directness_straight_line_is_one():
    track = np.outer(np.arange(50), [0.02, 0.01, 0.03])
    for t in (0, 10, 25, 49):
        assert directness(track, t, 15) == pytest.approx(1.0, abs=1e-9)


def test_directness_closed_loop_near_zero():
    theta = np.linspace(0, 2 * np.pi, 61)  # closes within the window
    track = np.stack([np.cos(theta), np.zeros_like(theta), np.sin(theta)], axis=1)
    assert directness(track, 30, 30) < 0.05


def test_directness_half_circle_matches_chord_over_arc():
    # Analytic oracle: chord = 2r, arc = pi r, ratio 2/pi.
    theta = np.linspace(0, np.pi, 64)
    track = np.stack([np.cos(theta), np.zeros_like(theta), np.sin(theta)], axis=1)
    value = directness(track, 32, 64)
    assert value == pytest.approx(2.0 / np.pi, abs=0.01)


def test_directness_stationary_rule():
    track = np.zeros((40, 3))
    assert directness(track, 20, 10) == 1.0


def test_windowed_directness_matches_scalar():
    rng = np.random.default_rng(3)
    track = np.cumsum(rng.normal(scale=0.02, size=(80, 3)), axis=0)
    profile = windowed_directness(track, 15)
    scalar = np.array([directness(track, t, 15) for t in range(80)])
    assert np.allclose(profile, scalar, atol=1e-9)
    assert np.all((profile > 0) & (profile <= 1.0))


def test_windowed_directness_of_stacked_tracks_equals_one_call_per_track():
    positions = wiggle_positions(150, seed=5)
    joints = list(TRACKED_JOINT_INDICES)
    # Stationary joints take the EPS_PATH rule inside the batched call too.
    positions[:, HEAD] = positions[0, HEAD]
    stacked = windowed_directness(positions[:, joints], 15)
    assert stacked.shape == (150, 6)
    assert np.array_equal(stacked, np.stack(
        [windowed_directness(positions[:, j], 15) for j in joints], axis=1))


@pytest.mark.parametrize("w", [1.5, 3.0, True, 0])
def test_windowed_directness_refuses_a_half_window_that_is_no_frame_count(w):
    # 1.5 used to fail inside fancy indexing, and True ran as one frame.
    with pytest.raises(ValueError, match=re.escape(
            f"half-window w must be an integer frame count >= 1, got {w!r}")):
        windowed_directness(np.zeros((10, 3)), w)


def test_windowed_directness_takes_a_numpy_integer_half_window():
    track = wiggle_positions(40, seed=2)[:, 0]
    assert np.array_equal(windowed_directness(track, np.int64(3)),
                          windowed_directness(track, 3))


def test_windowed_directness_of_a_huge_half_window_is_whole_track_windows():
    # A half-window past int64 used to overflow in t - w.
    track = wiggle_positions(40, seed=2)[:, [0, 22]]
    whole = windowed_directness(track, len(track))
    assert np.array_equal(windowed_directness(track, 10**30), whole)
    assert np.array_equal(windowed_directness(track, len(track) - 1), whole)


def test_a_huge_finite_fps_gives_the_features_of_whole_sequence_windows(monkeypatch):
    # round(0.5 * 1e20) frames is past int64; frame_matrix and
    # fragment_features used to raise OverflowError.
    positions = wiggle_positions(100)
    fragments = [slice(0, 100), slice(10, 60)]
    huge = fragment_features(positions, 1e20, fragments)
    matrix = frame_matrix(positions, 1e20)
    assert np.isfinite(huge).all() and np.isfinite(matrix).all()
    # The same fps with the half-window set to exactly T frames.
    monkeypatch.setattr(descriptors, "DIRECTNESS_HALF_WINDOW_S", len(positions) / 1e20)
    assert round(descriptors.DIRECTNESS_HALF_WINDOW_S * 1e20) == len(positions)
    assert huge.tobytes() == fragment_features(positions, 1e20, fragments).tobytes()
    assert matrix.tobytes() == frame_matrix(positions, 1e20).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_fps_whose_derivatives_overflow_fails_naming_the_feature():
    with pytest.raises(ValueError, match=r"fragment at frame 10: feature \S+ is (inf|nan)"):
        fragment_features(wiggle_positions(100), 1e300, [slice(10, 60)])


# ---------------------------------------------------------------------------
# effort
# ---------------------------------------------------------------------------

def test_effort_rest_frame():
    positions = rest_positions(100)
    state = differentiate(positions, 30.0)
    flow, space, time_, weight = effort_frame(state, positions, 50, 30.0)
    assert flow == 0.0
    assert space == 1.0  # stationary joints count as Direct
    assert time_ == 0.0
    assert weight == 0.0


def test_effort_weight_is_kinetic_energy_sum():
    n, fps = 100, 30.0
    positions = rest_positions(n)
    # right hand moves at 2 m/s, everything else at rest
    positions[:, HAND_R, 2] += np.arange(n) * (2.0 / fps)
    state = differentiate(positions, fps)
    _, _, _, weight = effort_frame(state, positions, 50, fps)
    assert weight == pytest.approx(2.0, abs=1e-9)


def test_effort_time_matches_sinusoid_oracle():
    # All joints oscillate at 1 Hz with amplitude 0.5 m. Analytic oracle:
    # a(s) = -A w^2 sin(w s), mean |a| over whole periods = (2/pi) A w^2.
    fps, seconds = 30.0, 5.0
    n = int(fps * seconds)
    t = np.arange(n) / fps
    positions = rest_positions(n)
    positions[:, :, 0] += (0.5 * np.sin(2 * np.pi * t))[:, None]
    state = differentiate(positions, fps)
    expected = (2 / np.pi) * 0.5 * (2 * np.pi) ** 2
    interior = range(15, int(fps * 4.0) + 15)  # 4 whole periods, ends excluded
    observed = np.mean([effort_frame(state, positions, k, fps)[2] for k in interior])
    assert observed == pytest.approx(expected, rel=0.05)


# ---------------------------------------------------------------------------
# dispersion
# ---------------------------------------------------------------------------

def test_dispersion_coincident_pose_is_zero():
    assert np.allclose(dispersion_frame(np.zeros((100, 24, 3)), 10), 0.0)


def test_dispersion_head_height_example():
    positions = np.zeros((100, 24, 3))
    positions[:, :, 1] = 1.0        # everything at pelvis height
    positions[:, HEAD, 1] = 1.7
    values = dispersion_frame(positions, 0)
    assert values[0] == pytest.approx(0.7, abs=1e-12)


def hand_fixture_pose():
    """A pose with hand-computable dispersion values."""
    pose = np.zeros((24, 3))
    pose[:, 1] = 1.0                      # 19 joints collapsed at (0, 1, 0)
    pose[HEAD] = (0.0, 1.7, 0.0)
    pose[HAND_L] = (0.8, 1.4, 0.0)
    pose[HAND_R] = (-0.8, 1.4, 0.0)
    pose[FOOT_L] = (0.1, 0.0, 0.2)
    pose[FOOT_R] = (-0.1, 0.0, 0.2)
    return pose


def test_dispersion_fixture_matches_hand_computation():
    pose = hand_fixture_pose()
    values = dispersion_frame(np.repeat(pose[None], 100, axis=0), 42)

    # D1-D5, D7, D10-D12: literal hand arithmetic.
    assert values[0] == pytest.approx(0.7, abs=1e-9)
    assert values[1] == pytest.approx(math.sqrt(0.8), abs=1e-9)
    assert values[2] == pytest.approx(math.sqrt(0.8), abs=1e-9)
    assert values[3] == pytest.approx(math.sqrt(1.05), abs=1e-9)
    assert values[4] == pytest.approx(math.sqrt(1.05), abs=1e-9)
    assert values[6] == pytest.approx(1.7, abs=1e-9)
    assert values[9] == pytest.approx(1.6, abs=1e-9)
    assert values[10] == pytest.approx(0.2, abs=1e-9)
    assert values[11] == pytest.approx(1.0, abs=1e-9)

    # D6, D8, D9: independent brute-force loops over the 24 points.
    centroid = sum(pose) / 24.0
    dists = [math.dist(p, centroid) for p in pose]
    d6 = sum(dists) / 24.0
    d9 = math.sqrt(sum((d - d6) ** 2 for d in dists) / 24.0)
    d8 = max(
        math.hypot(pose[i][0] - pose[j][0], pose[i][2] - pose[j][2])
        for i in range(24) for j in range(24)
    )
    assert values[5] == pytest.approx(d6, abs=1e-9)
    assert values[7] == pytest.approx(d8, abs=1e-9)
    assert values[8] == pytest.approx(d9, abs=1e-9)
    assert d8 == pytest.approx(1.6, abs=1e-12)  # the two hands


# ---------------------------------------------------------------------------
# initiation
# ---------------------------------------------------------------------------

def make_tracked_speeds_fragment(speeds, fps=30.0):
    """Tracked joints move linearly along distinct axes at given speeds;
    returns the (positions, fps) pair."""
    n = 100
    positions = rest_positions(n)
    for k, j in enumerate(TRACKED_JOINT_INDICES):
        axis = k % 3
        positions[:, j, axis] += np.arange(n) * (speeds[k] / fps)
    return positions, fps


def test_initiation_single_mover():
    speeds = [0.0, 0.0, 0.0, 1.5, 0.0, 0.0]  # right hand only
    frag = make_tracked_speeds_fragment(speeds)
    scores = initiation_frame(differentiate(*frag), 50)
    assert scores[3] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.delete(scores, 3), 0.0, atol=1e-12)


def test_initiation_uniform_at_rest_and_equal_speeds():
    rest = differentiate(rest_positions(100), 30.0)
    assert np.allclose(initiation_frame(rest, 10), 1 / 6, atol=1e-15)
    equal = make_tracked_speeds_fragment([1.0] * 6)
    scores = initiation_frame(differentiate(*equal), 50)
    assert np.allclose(scores, 1 / 6, atol=1e-12)


def test_initiation_normalization_arithmetic():
    frag = make_tracked_speeds_fragment([1.0, 2.0, 3.0, 0.0, 0.0, 0.0])
    scores = initiation_frame(differentiate(*frag), 50)
    assert np.allclose(scores, [1 / 6, 2 / 6, 3 / 6, 0, 0, 0], atol=1e-12)
    assert scores.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------

def test_trajectory_straight_line_zero_curvature():
    n, fps = 100, 30.0
    positions = rest_positions(n)
    positions[:, PELVIS] += np.outer(np.arange(n) / fps, [1.0, 0.0, 0.5])
    state = differentiate(positions, fps)
    for t in range(2, n - 2):
        assert trajectory_frame(positions, state, t, fps)[1] == pytest.approx(0.0, abs=1e-9)


def test_trajectory_circle_curvature_matches_one_over_radius():
    # Analytic oracle: a circle of radius r has curvature 1/r everywhere.
    radius, fps, seconds = 2.0, 30.0, 5.0
    n = int(fps * seconds)
    s = np.arange(n) / fps
    speed = 1.0
    theta = speed * s / radius
    positions = rest_positions(n)
    positions[:, PELVIS, 0] = radius * np.cos(theta)
    positions[:, PELVIS, 2] = radius * np.sin(theta)
    state = differentiate(positions, fps)
    kappas = [trajectory_frame(positions, state, t, fps)[1] for t in range(3, n - 3)]
    assert np.mean(kappas) == pytest.approx(1.0 / radius, rel=0.05)


def test_trajectory_rest_and_final_increment():
    rest = rest_positions(100)
    state = differentiate(rest, 30.0)
    assert np.allclose(trajectory_frame(rest, state, 50, 30.0), 0.0)
    moving = rest_positions(100)
    moving[:, PELVIS, 0] += np.arange(100) * 0.01
    state2 = differentiate(moving, 30.0)
    # 0.01 m per frame at 30 fps is 0.3 m/s, at the final frame too.
    assert trajectory_frame(moving, state2, 99, 30.0)[0] == pytest.approx(0.3, abs=1e-12)
    assert trajectory_frame(moving, state2, 50, 30.0)[0] == pytest.approx(0.3, abs=1e-12)
    assert trajectory_frame(moving, state2, 99, 30.0)[2] == pytest.approx(0.99, abs=1e-12)


# ---------------------------------------------------------------------------
# frame_matrix and aggregate
# ---------------------------------------------------------------------------

def test_frame_matrix_has_55_stable_columns(wiggle_fragment):
    matrix = frame_matrix(wiggle_fragment, 30.0)
    assert matrix.shape == (150, 55)
    assert len(FRAME_FEATURE_NAMES) == 55
    assert len(set(FRAME_FEATURE_NAMES)) == 55


def test_frame_matrix_rest_columns():
    matrix = frame_matrix(rest_positions(100), 30.0)
    for name in ("effort.flow", "effort.time", "effort.weight"):
        assert np.all(matrix[:, column(name)] == 0.0)
    for j in ("pelvis", "head", "hand_l", "hand_r", "foot_l", "foot_r"):
        assert np.all(matrix[:, column(f"kin.{j}.directness")] == 1.0)
    assert np.all(matrix[:, column("effort.space")] == 1.0)


def test_frame_matrix_composes_per_frame_operations(wiggle_fragment):
    # The vectorized matrix must equal the five per-frame family functions
    # applied independently at every frame.
    positions = wiggle_fragment
    state = differentiate(positions, 30.0)
    velocity, acceleration, jerk = state
    matrix = frame_matrix(positions, 30.0)
    for t in range(0, positions.shape[0], 13):
        row = np.concatenate([
            dispersion_frame(positions, t),
            effort_frame(state, positions, t, 30.0),
            np.concatenate([
                [np.linalg.norm(velocity[t, j]),
                 np.linalg.norm(acceleration[t, j]),
                 np.linalg.norm(jerk[t, j]),
                 0.5 * np.linalg.norm(velocity[t, j]) ** 2,
                 directness(positions[:, j], t, half_window(30.0))]
                for j in TRACKED_JOINT_INDICES
            ]),
            initiation_frame(state, t),
            trajectory_frame(positions, state, t, 30.0),
        ])
        assert np.allclose(matrix[t], row, atol=1e-9), f"frame {t}"
    # dispersion_frame's twelve values are the first twelve columns.
    assert FRAME_FEATURE_NAMES[11] == "dispersion.pelvis_height"


@pytest.mark.parametrize("seed", range(6))
def test_horizontal_extent_equals_full_norm_matrix_max_exactly(seed):
    rng = np.random.default_rng(seed)
    positions = rng.normal(scale=10.0 ** rng.uniform(-2, 2), size=(120, 24, 3))
    xz = positions[:, :, [0, 2]]
    full = np.linalg.norm(xz[:, :, None, :] - xz[:, None, :, :], axis=3)
    extent = frame_matrix(positions, 30.0)[:, column("dispersion.horizontal_extent")]
    assert np.array_equal(extent, full.max(axis=(1, 2)))


def test_horizontal_extent_of_coincident_xz_pose_is_exactly_zero():
    positions = np.zeros((100, 24, 3))
    positions[:, :, 0] = 0.25
    positions[:, :, 2] = -1.5
    positions[:, :, 1] = np.linspace(0.0, 1.8, 24)
    extent = frame_matrix(positions, 30.0)[:, column("dispersion.horizontal_extent")]
    assert np.all(extent == 0.0)


def _extent_poses():
    """(T, 2, 3, 24, 3) positions whose frames mix hand-built horizontal
    extents with smooth motion at scales 1e-100 to 1e100, and the (T, 2, 3)
    mask of the frames whose one widest xz pair has an inner joint as an
    endpoint."""
    base = np.stack([wiggle_positions(12, seed=k) for k in range(6)], axis=1)
    base[..., [0, 2]] *= 0.2  # every joint within 0.2 m of the origin
    inner_widest = np.zeros(base.shape[:2], dtype=bool)

    def place(t, joint, x, z):
        base[t, :, joint, 0] = x
        base[t, :, joint, 2] = z

    # Pelvis 0 to right hand 23, spine 9 to shoulder 16, pelvis 0 to spine 9.
    for t, (a, b) in zip((1, 4, 7), ((PELVIS, HAND_R), (9, 16), (PELVIS, 9))):
        place(t, a, 1.5, -0.5)
        place(t, b, -1.25, 0.75)
        inner_widest[t] = True
    # A tie: hands 22-23 and pelvis 0 to shoulder 16 are both 4 m apart.
    for joint, x, z in ((HAND_L, -2.0, 0.0), (HAND_R, 2.0, 0.0),
                        (PELVIS, 0.0, -2.0), (16, 0.0, 2.0)):
        place(9, joint, x, z)
    # Coincident xz.
    base[10, ..., 0] = 0.3
    base[10, ..., 2] = -0.7
    scales = 10.0 ** np.array([-100, -50, 0, 0, 50, 100])
    return (base * scales[:, None, None]).reshape(12, 2, 3, 24, 3), inner_widest.reshape(12, 2, 3)


def _xz_norm_matrix(positions):
    """Each frame's 24x24 matrix of xz distances between its joints."""
    xz = positions[..., [0, 2]]
    return np.linalg.norm(xz[..., :, None, :] - xz[..., None, :, :], axis=-1)


# At 1e100 m the pelvis's ||v x a|| for curvature overflows; column 7 does not.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_horizontal_extent_is_the_norm_matrix_max_on_both_paths(monkeypatch):
    positions, inner_widest = _extent_poses()
    passes = []

    def recording(x, z):
        passes.append((x.copy(), z.copy()))
        return widest_squared(x, z)

    widest_squared = descriptors._widest_squared
    monkeypatch.setattr(descriptors, "_widest_squared", recording)
    extent = frame_matrix(positions, 30.0)[..., column("dispersion.horizontal_extent")]
    norms = _xz_norm_matrix(positions)
    assert extent.tobytes() == norms.max(axis=(-2, -1)).tobytes()
    assert np.all(extent[10] == 0.0)
    # Frames 1, 4 and 7 have one widest pair: pelvis to hand, spine to
    # shoulder, pelvis to spine.
    for t, pair in zip((1, 4, 7), ((PELVIS, HAND_R), (9, 16), (PELVIS, 9))):
        widest = norms[t] == extent[t][..., None, None]
        assert np.all(widest.sum(axis=(-2, -1)) == 2) and np.all(widest[..., pair[0], pair[1]])
    assert np.all(norms[9, ..., HAND_L, HAND_R] == norms[9, ..., PELVIS, 16])
    # The reaching joints first, then all 24 on the frames that need them,
    # every inner-widest frame among them.
    (reach_x, _), (all_x, all_z) = passes
    assert reach_x.shape == (13, 12 * 6) and all_x.shape[0] == 24
    frames = positions.reshape(-1, 24, 3)
    taken = {(*x, *z) for x, z in zip(all_x.T, all_z.T)}
    for c in np.flatnonzero(inner_widest.reshape(-1)):
        assert (*frames[c, :, 0], *frames[c, :, 2]) in taken
    assert all_x.shape[1] < len(frames)


def test_horizontal_extent_of_a_synth_clip_takes_the_reaching_pass_alone(monkeypatch):
    positions = generate(RegimeSpec(0, duration_s=5.0, fps=30.0, seed=0)).positions
    passes = []
    widest_squared = descriptors._widest_squared
    monkeypatch.setattr(descriptors, "_widest_squared",
                        lambda x, z: passes.append(x.shape) or widest_squared(x, z))
    extent = frame_matrix(positions, 30.0)[:, column("dispersion.horizontal_extent")]
    assert passes == [(13, 150)]
    assert extent.tobytes() == _xz_norm_matrix(positions).max(axis=(1, 2)).tobytes()
    assert extent.tobytes() == oracles._horizontal_extent(positions).tobytes()


def _oracle_case(name):
    """(positions, fps) of one named input of the frame-major oracle check."""
    kind, _, arg = name.partition(" ")
    if kind == "regime":
        regime, blend = arg.split("@")
        return generate(RegimeSpec(int(regime), duration_s=5.0, fps=30.0,
                                   blend=float(blend), seed=int(regime))).positions, 30.0
    if kind == "fps":
        fps = float(arg)
        return generate(RegimeSpec(1, duration_s=4.0, fps=fps, blend=0.3, seed=5)).positions, fps
    if kind == "stacked":
        alone = [generate(RegimeSpec(k, duration_s=4.0, fps=30.0, blend=0.6, seed=k)).positions
                 for k in range(N_REGIMES)]
        stacked = np.stack(alone, axis=1)
        return (stacked if arg == "1" else stacked.reshape(120, 2, 2, 24, 3)), 30.0
    if kind == "still":
        return rest_positions(100), 30.0
    if kind == "coincident-xz":
        positions = wiggle_positions(100)
        positions[:, :, 0] = positions[:, :1, 0]
        positions[:, :, 2] = positions[:, :1, 2]
        return positions, 30.0
    positions = generate(RegimeSpec(2, duration_s=4.0, fps=60.0, blend=0.6, seed=9)).positions
    return {"offset": positions + 1e3, "scaled": positions * 1e-3}[kind], 60.0


@pytest.mark.parametrize("name", [
    *(f"regime {r}@{blend}" for r in range(N_REGIMES) for blend in (0.0, 0.6)),
    *(f"fps {fps}" for fps in (24, 29.97, 30, 60, 120)),
    "stacked 1", "stacked 2", "still", "coincident-xz", "offset", "scaled",
])
def test_frame_matrix_is_the_frame_major_oracle_bit_for_bit(name):
    # The golden CSV pins 9 significant digits; this pins every bit.
    positions, fps = _oracle_case(name)
    matrix = frame_matrix(positions, fps)
    assert matrix.tobytes() == oracles.frame_matrix(positions, fps).tobytes()
    if name == "still":
        assert np.all(matrix[:, column("initiation.pelvis"):column("initiation.foot_r") + 1]
                      == 1.0 / 6)
        assert np.all(matrix[:, column("trajectory.curvature")] == 0.0)


@pytest.mark.parametrize("stacked", [False, True])
def test_fragment_features_are_numpy_mean_and_std_of_the_oracle_rows(stacked):
    # Dense cuts: 15 s at 60 fps, 5 s fragments every 0.5 s.
    alone = [generate(RegimeSpec(k, duration_s=15.0, fps=60.0, blend=0.6, seed=k)).positions
             for k in range(2 if stacked else 1)]
    positions = np.stack(alone, axis=1) if stacked else alone[0]
    fragments = [slice(s, s + 300) for s in range(0, 601, 30)]
    rows = oracles.frame_matrix(positions, 60.0)
    pelvis = positions[..., PELVIS, :]
    expected = []
    for f in fragments:
        window = rows[f].copy()
        window[..., column("trajectory.net_displacement")] = np.linalg.norm(
            pelvis[f] - pelvis[f.start], axis=-1)
        expected.append(np.concatenate([window.mean(axis=0), window.std(axis=0)], axis=-1))
    assert (fragment_features(positions, 60.0, fragments).tobytes()
            == np.stack(expected).tobytes())


@pytest.mark.parametrize("layout", ["contiguous", "strided", "last-axis-strided"])
@pytest.mark.parametrize("shape", [(60, 3), (60, 5, 3), (60, 6, 3), (60, 24, 3)])
def test_norm3_equals_linalg_norm_bit_for_bit(shape, layout):
    rng = np.random.default_rng(len(shape) * 31 + shape[-2])
    values = (rng.choice([-1.0, 1.0], size=shape)
              * 10.0 ** rng.uniform(-150, 150, size=shape))
    values.flat[::7] = 0.0
    values.flat[3::11] = -0.0
    values[0] = -0.0
    if layout == "strided":
        base = np.zeros((2 * shape[0], *shape[1:-1], 6))
        base[::2, ..., ::2] = values
        d = base[::2, ..., ::2]
    elif layout == "last-axis-strided":
        d = np.moveaxis(np.ascontiguousarray(np.moveaxis(values, -1, 0)), 0, -1)
    else:
        d = values
    before = d.copy()
    norms = descriptors._norm3(d)
    assert np.array_equal(norms.view(np.int64),
                          np.linalg.norm(d, axis=-1).view(np.int64))
    assert np.array_equal(d.view(np.int64), before.view(np.int64))  # d is not written


def test_aggregate_constant_columns_have_zero_std():
    assert np.all(aggregate(np.full((64, 55), 2.5))[55:] == 0.0)
    # A rest fragment is constant per column too, up to float summation dust.
    vector = aggregate(frame_matrix(rest_positions(100), 30.0))
    assert np.allclose(vector[55:], 0.0, atol=1e-12)
    assert vector.shape == (len(FEATURE_NAMES_110),) == (110,)
    assert FEATURE_NAMES_110[:55] == tuple(f"{n}.mean" for n in FRAME_FEATURE_NAMES)
    assert FEATURE_NAMES_110[55:] == tuple(f"{n}.std" for n in FRAME_FEATURE_NAMES)


def test_aggregate_two_point_arithmetic():
    vector = aggregate(np.tile([[1.0], [3.0]], (1, 55)))
    assert np.allclose(vector[:55], 2.0)
    assert np.allclose(vector[55:], 1.0)
    for bad in (np.ones((2, 54)), np.ones(55), np.ones((0, 55))):
        with pytest.raises(ValueError):
            aggregate(bad)


def test_aggregate_matches_two_pass_oracle():
    rng = np.random.default_rng(17)
    values = rng.normal(loc=3.0, scale=2.0, size=(100, 55))
    vector = aggregate(values)
    # Independent two-pass mean/variance with compensated summation.
    for j in range(55):
        col = values[:, j]
        mean = math.fsum(col) / len(col)
        var = math.fsum((x - mean) ** 2 for x in col) / len(col)
        assert vector[j] == pytest.approx(mean, rel=1e-9)
        assert vector[55 + j] == pytest.approx(math.sqrt(var), rel=1e-9)


# ---------------------------------------------------------------------------
# invariance properties
# ---------------------------------------------------------------------------

def test_horizontal_translation_invariance(wiggle_fragment):
    base = frame_matrix(wiggle_fragment, 30.0)
    shifted = wiggle_fragment + np.array([3.7, 0.0, -12.1])
    moved = frame_matrix(shifted, 30.0)
    assert np.abs(moved - base).max() <= 1e-6


def test_vertical_translation_changes_only_pelvis_height(wiggle_fragment):
    offset = 0.83
    base = frame_matrix(wiggle_fragment, 30.0)
    shifted = wiggle_fragment + np.array([0.0, offset, 0.0])
    moved = frame_matrix(shifted, 30.0)
    height = column("dispersion.pelvis_height")
    others = [j for j in range(55) if j != height]
    assert np.abs(moved[:, others] - base[:, others]).max() <= 1e-6
    assert np.allclose(moved[:, height] - base[:, height], offset, atol=1e-9)


def test_rotation_about_vertical_axis_invariance(wiggle_fragment):
    positions = wiggle_fragment
    base = frame_matrix(positions, 30.0)
    center = positions[:, PELVIS].mean(axis=0)
    angle = 1.1
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    relative = positions - np.array([center[0], 0.0, center[2]])
    rotated = relative @ rot.T + np.array([center[0], 0.0, center[2]])
    moved = frame_matrix(rotated, 30.0)
    assert np.abs(moved - base).max() <= 1e-6


def test_time_reversal_preserves_total_path(wiggle_fragment):
    # Total path in meters: the forward steps (m/s) of every frame but the
    # last, which repeats the step before it, over fps.
    inc = column("trajectory.path_increment")
    forward = frame_matrix(wiggle_fragment, 30.0)[:-1, inc].sum() / 30.0
    rev = wiggle_fragment[::-1].copy()
    backward = frame_matrix(rev, 30.0)[:-1, inc].sum() / 30.0
    assert forward == pytest.approx(backward, abs=1e-9)


def test_frame_rate_consistency_of_speed_means():
    # Band-limited motion sampled at 30 and 60 fps: fragment-mean speeds
    # agree within 2%.
    lo = aggregate(frame_matrix(wiggle_positions(150, fps=30.0, seed=4), 30.0))
    hi = aggregate(frame_matrix(wiggle_positions(300, fps=60.0, seed=4), 60.0))
    names = list(FEATURE_NAMES_110)
    for j in ("pelvis", "head", "hand_l", "hand_r", "foot_l", "foot_r"):
        idx = names.index(f"kin.{j}.speed.mean")
        assert lo[idx] == pytest.approx(hi[idx], rel=0.02)


def test_directness_and_initiation_ranges(wiggle_fragment):
    matrix = frame_matrix(wiggle_fragment, 30.0)
    for j in ("pelvis", "head", "hand_l", "hand_r", "foot_l", "foot_r"):
        col = matrix[:, column(f"kin.{j}.directness")]
        assert np.all((col > 0.0) & (col <= 1.0))
    init = matrix[:, column("initiation.pelvis"):column("initiation.foot_r") + 1]
    assert np.all(init >= 0.0)
    assert np.allclose(init.sum(axis=1), 1.0, atol=1e-9)
    for name in ("effort.weight", "trajectory.path_increment"):
        assert np.all(matrix[:, column(name)] >= 0.0)


# ---------------------------------------------------------------------------
# The extract path: one frame_matrix per sequence, whose rows every
# fragment aggregates
# ---------------------------------------------------------------------------

NET = column("trajectory.net_displacement")

# (fps, seconds, length_s, stride_s)
_SEQUENCE_CUTS = {
    "stride-0.5s": (30.0, 8.0, 5.0, 0.5),
    "stride-1s": (30.0, 8.0, 5.0, 1.0),
    "stride-longer-than-fragment": (30.0, 20.0, 4.0, 7.0),
    "fps-29.97": (29.97, 9.0, 5.0, 1.0),
    "length-not-a-stride-multiple": (30.0, 12.3, 5.0, 1.5),
    "shorter-than-one-fragment": (30.0, 4.0, 5.0, 1.0),
}


def _cut(fps, seconds, length_s, stride_s):
    frames = round(seconds * fps)
    seq = SkeletonSequence("w", fps, wiggle_positions(frames, fps=fps, seed=2))
    return seq, slice_fragments(seq, length_s=length_s, stride_s=stride_s)


def _record_frame_matrix_calls(monkeypatch):
    """Patch descriptors' frame_matrix to record the frame count of each call."""
    calls = []

    def recording(positions, fps):
        calls.append(len(positions))
        return frame_matrix(positions, fps)

    monkeypatch.setattr(descriptors, "frame_matrix", recording)
    return calls


@pytest.mark.parametrize("cut", _SEQUENCE_CUTS.values(), ids=_SEQUENCE_CUTS.keys())
def test_sequence_dispersion_rows_give_the_per_fragment_features(cut):
    # Each vector aggregates the sequence's rows over its fragment, with net
    # displacement measured from the fragment's first frame. Dispersion rows
    # depend on their own frame alone, so that half of the vector is also
    # what the fragment's positions give when taken as a sequence of their
    # own.
    seq, fragments = _cut(*cut)
    if not fragments:
        assert fragment_features(seq.positions, seq.fps, []).shape == (0, 110)
        return
    rows = frame_matrix(seq.positions, seq.fps)
    dispersion = [k for k, name in enumerate(FEATURE_NAMES_110)
                  if name.startswith("dispersion.")]
    vectors = fragment_features(seq.positions, seq.fps, fragments)
    for f, vector in zip(fragments, vectors):
        block = rows[f].copy()
        pelvis = seq.positions[f, PELVIS]
        block[:, NET] = np.linalg.norm(pelvis - pelvis[0], axis=1)
        assert np.array_equal(vector, aggregate(block))
        assert np.array_equal(vector[dispersion],
                              aggregate(frame_matrix(seq.positions[f], seq.fps))[dispersion])


@pytest.mark.parametrize("cut", _SEQUENCE_CUTS.values(), ids=_SEQUENCE_CUTS.keys())
def test_sequence_dispersion_computes_each_covered_frame_once(cut, monkeypatch):
    # However the fragments overlap or leave frames uncovered, the
    # sequence's matrix, Dispersion block and all, is computed in one call
    # over all of its frames.
    seq, fragments = _cut(*cut)
    calls = _record_frame_matrix_calls(monkeypatch)
    fragment_features(seq.positions, seq.fps, fragments)
    assert calls == [seq.frame_count]


@pytest.mark.parametrize("call", ["frame_matrix", "fragment_features"])
def test_descriptor_memory_stays_within_four_positions_arrays(call):
    # 5 min at 30 fps: the traced peak may not scale with the 276 joint
    # pairs of the horizontal extent or with the fragment count.
    positions = wiggle_positions(9000)
    run = {
        "frame_matrix": lambda: frame_matrix(positions, 30.0),
        "fragment_features": lambda: fragment_features(
            positions, 30.0, [slice(s, s + 150) for s in range(0, 8851, 15)]),
    }[call]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * positions.nbytes


@pytest.mark.parametrize("cut", ["stride-0.5s", "fps-29.97", "length-not-a-stride-multiple"])
def test_overlapping_fragments_agree_on_every_shared_frame(cut, monkeypatch):
    # The per-frame rows that each fragment aggregates: on a frame that two
    # fragments share, all columns but net displacement are the same bits,
    # and net displacement is measured from each fragment's first frame.
    seq, fragments = _cut(*_SEQUENCE_CUTS[cut])
    blocks = []

    def recording(matrix):
        blocks.append(matrix.copy())
        return aggregate(matrix)

    monkeypatch.setattr(descriptors, "aggregate", recording)
    vectors = fragment_features(seq.positions, seq.fps, fragments)
    assert len(blocks) == len(fragments) > 2
    others = [k for k in range(55) if k != NET]
    length = fragments[0].stop - fragments[0].start
    for f, block, vector in zip(fragments, blocks, vectors):
        assert np.array_equal(vector, aggregate(block))
        pelvis = seq.positions[f, PELVIS]
        assert np.array_equal(block[:, NET], np.linalg.norm(pelvis - pelvis[0], axis=1))
    shared_frames = 0
    for i, f in enumerate(fragments):
        for j in range(i + 1, len(fragments)):
            offset = fragments[j].start - f.start
            if offset >= length:
                break
            assert np.array_equal(blocks[i][offset:, others], blocks[j][:length - offset, others])
            shared_frames += length - offset
    assert shared_frames > 0


@pytest.mark.parametrize("fps", [30.0, 29.97])
@pytest.mark.parametrize("stride_s", [0.5, 1.0])
def test_each_fragment_row_is_the_one_fragment_call_in_either_order(fps, stride_s):
    # Fragments aggregate their windows of one sequence matrix in place:
    # whichever fragments came before, and in either order, each row is the
    # bits that the fragment gets alone.
    seq, fragments = _cut(fps, 9.0, 5.0, stride_s)
    alone = np.array([fragment_features(seq.positions, fps, [f])[0] for f in fragments])
    forward = fragment_features(seq.positions, fps, fragments)
    backward = fragment_features(seq.positions, fps, fragments[::-1])[::-1]
    assert len(fragments) > 2
    assert np.array_equal(forward.view(np.int64), alone.view(np.int64))
    assert np.array_equal(backward.view(np.int64), alone.view(np.int64))


def _refusal(i, fragment, frames=240):
    """A pattern for the message that refuses fragment i of a sequence."""
    return re.escape(f"fragment {i} is {fragment!r}, not a slice(start, stop) of integer "
                     f"frames 0 <= start < stop <= {frames}")


@pytest.mark.parametrize("starts, length, message", [
    ([0], 241, "fragment 0 is slice(0, 241, None), not a slice"),  # past the end
    ([240], 1, "fragment 0 is slice(240, 241, None), not a slice"),  # past the end
    ([-1], 150, "fragment 0 is slice(-1, 149, None), not a slice"),  # negative
    ([0, 91], 150, "fragment 1 is slice(91, 241, None), not a slice"),  # past the end
    ([0], 0, "fragment 0 is slice(0, 0, None), not a slice"),  # empty
    ([0], -5, "fragment 0 is slice(0, -5, None), not a slice"),  # stop before start
])
def test_fragment_features_rejects_fragments_outside_the_sequence(starts, length, message):
    # Fragments of length frames at each start of a 240-frame sequence.
    fragments = [slice(start, start + length) for start in starts]
    with pytest.raises(ValueError, match=re.escape(message)):
        fragment_features(wiggle_positions(240), 30.0, fragments)


_NOT_INTEGERS = pytest.mark.parametrize(
    "bound", [True, np.True_, 30.0, np.float64(30.0), "30", None],
    ids=["bool", "numpy-bool", "float", "numpy-float", "str", "none"])


@_NOT_INTEGERS
def test_fragment_features_refuses_a_start_that_is_not_an_integer(bound):
    fragment = slice(bound, 150)
    with pytest.raises(ValueError, match=_refusal(1, fragment)):
        fragment_features(wiggle_positions(240), 30.0, [slice(0, 150), fragment])


@_NOT_INTEGERS
def test_fragment_features_refuses_a_length_that_is_not_an_integer(bound):
    # From frame 0 the stop is the length; a None stop would run to the end.
    fragment = slice(0, bound)
    with pytest.raises(ValueError, match=_refusal(0, fragment)):
        fragment_features(wiggle_positions(240), 30.0, [fragment])


@pytest.mark.parametrize("fragment", [slice(0, 150, 1), slice(0, 150, 2), (0, 150),
                                      range(0, 150), 0],
                         ids=["step-1", "step-2", "tuple", "range", "int"])
def test_fragment_features_refuses_an_entry_that_is_not_a_slice_without_step(fragment):
    with pytest.raises(ValueError, match=_refusal(1, fragment)):
        fragment_features(wiggle_positions(240), 30.0, [slice(0, 150), fragment])


def test_fragment_features_takes_a_numpy_integer_length():
    positions = wiggle_positions(240)
    fragments = [slice(np.int64(0), np.int64(150)), slice(np.int32(90), np.uint16(240))]
    assert np.array_equal(fragment_features(positions, 30.0, fragments),
                          fragment_features(positions, 30.0, [slice(0, 150), slice(90, 240)]))


def test_fragments_of_different_lengths_are_each_described_as_alone():
    # No length is shared: each window aggregates on its own.
    positions = wiggle_positions(240)
    fragments = [slice(0, 150), slice(30, 240), slice(100, 200)]
    alone = [fragment_features(positions, 30.0, [f])[0] for f in fragments]
    assert np.array_equal(fragment_features(positions, 30.0, fragments), alone)


# ---------------------------------------------------------------------------
# stacked sequences
# ---------------------------------------------------------------------------

def _same_bits(a, b):
    return np.array_equal(a, b) and np.ascontiguousarray(a).tobytes() == b.tobytes()


@pytest.mark.parametrize("batch", [1, 2, 3, 7])
@pytest.mark.parametrize("fps", [30.0, 29.97, 60.0])
def test_stacked_sequences_are_described_as_each_alone(fps, batch):
    # Every regime, frame counts that are not multiples of 8, and the last
    # sequence of a batch a smooth wiggle: each sequence's rows, aggregate
    # and fragment vectors are the bits it gets alone.
    frames = round(5.1 * fps)
    assert frames % 8
    alone = [generate(RegimeSpec(k % N_REGIMES, duration_s=frames / fps, fps=fps,
                                 blend=0.3, seed=k)).positions for k in range(batch)]
    alone[-1] = wiggle_positions(frames, fps=fps, seed=batch)
    assert {len(p) for p in alone} == {frames}
    stacked = np.stack(alone, axis=1)
    length = round(4.0 * fps)
    fragments = [slice(s, s + length) for s in range(0, frames - length + 1, 7)]
    matrix = frame_matrix(stacked, fps)
    vectors = fragment_features(stacked, fps, fragments)
    assert matrix.shape == (frames, batch, 55)
    assert vectors.shape == (len(fragments), batch, 110)
    whole = aggregate(matrix)
    for k, positions in enumerate(alone):
        rows = frame_matrix(positions, fps)
        assert _same_bits(matrix[:, k], rows)
        assert _same_bits(whole[k], aggregate(rows))
        assert _same_bits(vectors[:, k], fragment_features(positions, fps, fragments))
    assert _same_bits(frame_matrix(alone[0][:, None], fps)[:, 0], frame_matrix(alone[0], fps))


def test_sequences_stacked_on_two_axes_are_described_as_each_alone():
    alone = [wiggle_positions(157, seed=k) for k in range(6)]
    stacked = np.stack(alone, axis=1).reshape(157, 2, 3, 24, 3)
    fragments = [slice(0, 150), slice(7, 157)]
    vectors = fragment_features(stacked, 30.0, fragments)
    assert vectors.shape == (2, 2, 3, 110)
    for k, positions in enumerate(alone):
        assert _same_bits(vectors[:, k // 3, k % 3],
                          fragment_features(positions, 30.0, fragments))


@pytest.mark.parametrize("call", ["frame_matrix", "fragment_features"])
def test_stacked_descriptor_memory_stays_within_three_positions_arrays(call):
    # Seven 50 s sequences at 30 fps stacked on one axis.
    stacked = np.stack([wiggle_positions(1500, seed=k) for k in range(7)], axis=1)
    run = {
        "frame_matrix": lambda: frame_matrix(stacked, 30.0),
        "fragment_features": lambda: fragment_features(
            stacked, 30.0, [slice(s, s + 150) for s in range(0, 1351, 15)]),
    }[call]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * stacked.nbytes


def test_stacked_sequences_are_checked_by_location():
    stacked = np.stack([wiggle_positions(150, seed=k) for k in range(3)], axis=1)
    stacked[37, 2, 5, 1] = np.nan
    with pytest.raises(SkeletonError,
                       match="non-finite coordinate at frame 37, sequence 2, joint 5"):
        fragment_features(stacked, 30.0, [slice(0, 150)])
    with pytest.raises(SkeletonError, match="joint count 23 != 24"):
        frame_matrix(np.zeros((150, 2, 23, 3)), 30.0)
    with pytest.raises(SkeletonError, match=r"shape \(T, 24, 3\), with any stacked axes"):
        frame_matrix(np.zeros((150, 2, 24, 2)), 30.0)


@pytest.mark.parametrize("shape", [(8, 0, 24, 3), (8, 2, 0, 24, 3)])
def test_an_empty_stacked_axis_is_refused_naming_the_shape(shape):
    # It used to die in a numpy reshape of a size-0 array.
    message = re.escape(f"positions have an empty stacked axis, shape {shape}")
    with pytest.raises(SkeletonError, match=message):
        frame_matrix(np.zeros(shape), 30.0)
    with pytest.raises(SkeletonError, match=message):
        fragment_features(np.zeros(shape), 30.0, [slice(0, 8)])


@pytest.mark.parametrize("stack", [(), (2,)], ids=["one", "stacked"])
@pytest.mark.parametrize("frames", [0, 3])
def test_fewer_than_four_frames_are_refused_before_any_descriptor(monkeypatch, frames,
                                                                   stack):
    # Zero frames used to die in a numpy reshape; the extent run, which
    # comes before the kinematics, must not see a sequence too short for them.
    def no_extent(x, z):
        raise AssertionError("the horizontal extent ran")

    monkeypatch.setattr(descriptors, "_horizontal_extent", no_extent)
    positions = np.zeros((frames, *stack, 24, 3))
    message = f"sequence too short for jerk: need at least 4 frames, got {frames}"
    with pytest.raises(ValueError, match=message):
        frame_matrix(positions, 30.0)
    with pytest.raises(ValueError, match=message):
        fragment_features(positions, 30.0, [slice(0, 1)])


def test_five_feature_means_are_linear_in_the_others():
    # These identities make any feature table rank <= 105, so a fit with
    # more rows than features still has a row space narrower than 110.
    fps = 30.0
    vectors = np.concatenate([
        fragment_features(wiggle_positions(300, fps=fps, seed=seed), fps,
                          [slice(s, s + 150) for s in range(0, 151, 5)])
        for seed in (1, 2, 3, 4)])
    mean = {name: vectors[:, j] for j, name in enumerate(FEATURE_NAMES_110)
            if name.endswith(".mean")}
    joints = ("pelvis", "head", "hand_l", "hand_r", "foot_l", "foot_r")

    def kin(quantity):
        return np.stack([mean[f"kin.{joint}.{quantity}.mean"] for joint in joints])

    assert np.allclose(mean["effort.flow.mean"], kin("jerk").mean(axis=0), rtol=1e-12)
    assert np.allclose(mean["effort.space.mean"], kin("directness").mean(axis=0), rtol=1e-12)
    assert np.allclose(mean["effort.time.mean"], kin("accel").mean(axis=0), rtol=1e-12)
    assert np.allclose(mean["effort.weight.mean"], kin("energy").sum(axis=0), rtol=1e-12)
    shares = np.stack([mean[f"initiation.{joint}.mean"] for joint in joints])
    assert np.allclose(shares.sum(axis=0), 1.0, rtol=0, atol=1e-12)
    dependent = [FEATURE_NAMES_110.index(f"effort.{quality}.mean")
                 for quality in ("flow", "space", "time", "weight")]
    dependent.append(FEATURE_NAMES_110.index("initiation.pelvis.mean"))
    Z = (vectors - vectors.mean(axis=0)) / vectors.std(axis=0)
    assert vectors.shape[0] > 110
    assert np.linalg.matrix_rank(Z) == np.linalg.matrix_rank(np.delete(Z, dependent, axis=1))
    assert np.linalg.matrix_rank(Z) == 110 - 5
