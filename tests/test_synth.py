import itertools

import numpy as np
import pytest

from labankit import (
    FEATURE_NAMES_110,
    RegimeSpec,
    fragment_features,
    generate,
    slice_fragments,
)
from labankit import synth

import oracles

NAMES = list(FEATURE_NAMES_110)


def regime_feature(regime, seed, name, **kwargs):
    seq = generate(RegimeSpec(regime, seed=seed, **kwargs))
    vectors = fragment_features(seq.positions, seq.fps, slice_fragments(seq))
    return vectors[0, NAMES.index(name)]


def regime_features(regime, seeds, name, **kwargs):
    return np.array([regime_feature(regime, s, name, **kwargs) for s in seeds])


def pairwise_win_fraction(a, b):
    wins = sum(x > y for x, y in itertools.product(a, b))
    return wins / (len(a) * len(b))


def test_same_spec_and_seed_is_bit_identical():
    spec = RegimeSpec(1, duration_s=4.0, fps=30.0, seed=123, blend=0.3)
    a = generate(spec)
    b = generate(spec)
    assert np.array_equal(a.positions, b.positions)
    assert a.tier == 1
    c = generate(RegimeSpec(1, duration_s=4.0, fps=30.0, seed=124, blend=0.3))
    assert not np.array_equal(a.positions, c.positions)


def test_generated_sequences_pass_validation():
    for regime in range(4):
        seq = generate(RegimeSpec(regime, seed=regime))
        assert seq.frame_count == 150
        assert seq.positions.shape[1] == 24
        assert np.isfinite(seq.positions).all()
        assert seq.tier == regime
        assert slice_fragments(seq)  # long enough for one fragment


def test_invalid_specs_rejected():
    with pytest.raises(ValueError, match="regime"):
        RegimeSpec(4)
    with pytest.raises(ValueError, match="duration"):
        RegimeSpec(0, duration_s=2.0)
    with pytest.raises(ValueError, match="fps"):
        RegimeSpec(0, fps=8.0)
    with pytest.raises(ValueError, match="blend"):
        RegimeSpec(0, blend=1.0)
    with pytest.raises(ValueError, match="noise"):
        RegimeSpec(0, noise_amp=-0.1)
    with pytest.raises(ValueError, match="seed"):
        RegimeSpec(0, seed=-1)
    # bool is an int subclass and np.bool_ compares as a number.
    for noise_amp in (True, np.True_):
        with pytest.raises(ValueError, match=f"^noise_amp must be .*, got {noise_amp}$"):
            RegimeSpec(0, noise_amp=noise_amp)
    for blend in (False, np.False_):
        with pytest.raises(ValueError, match=rf"^blend must be in \[0, 1\), got {blend}$"):
            RegimeSpec(0, blend=blend)


@pytest.mark.parametrize("field, value", [
    ("regime", 1.0), ("regime", True), ("regime", np.bool_(True)), ("regime", "1"),
    ("seed", True), ("seed", np.bool_(False)), ("seed", 3.0),
], ids=["regime-float", "regime-bool", "regime-numpy-bool", "regime-str",
        "seed-bool", "seed-numpy-bool", "seed-float"])
def test_regime_and_seed_must_be_integers(field, value):
    kwargs = {"regime": 0, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be .*integer"):
        RegimeSpec(**kwargs)


def test_numpy_integer_regime_and_seed_are_accepted():
    seq = generate(RegimeSpec(np.int64(1), duration_s=3.0, seed=np.uint16(9)))
    assert seq.source_id == "synth_r1_seed9" and seq.tier == 1


def _oracle_positions(monkeypatch, spec):
    """generate(spec) with R1 built by one full-length array per event."""
    builders = list(synth._REGIME_BUILDERS)
    builders[1] = oracles.staccato
    with monkeypatch.context() as patch:
        patch.setattr(synth, "_REGIME_BUILDERS", tuple(builders))
        return generate(spec).positions


# Every regime, blend and frame rate at 3 s and 5 s; 60 s and 180 s only
# where R1 is built (R1 itself, and R0 / R2 blended toward it).
_SHORT_SPECS = [
    RegimeSpec(regime, duration_s=duration, fps=fps, blend=blend, seed=seed)
    for regime in range(4) for blend in (0.0, 0.5, 0.85) for duration in (3.0, 5.0)
    for fps in (10.0, 29.97, 30.0, 60.0, 120.0) for seed in (0, 1)
]
_LONG_SPECS = [
    *(RegimeSpec(1, duration_s=60.0, fps=fps, blend=blend, seed=3)
      for fps in (10.0, 30.0, 60.0, 120.0) for blend in (0.0, 0.5, 0.85)),
    RegimeSpec(0, duration_s=60.0, fps=30.0, blend=0.85, seed=4),
    RegimeSpec(2, duration_s=60.0, fps=60.0, blend=0.5, seed=1),
    *(RegimeSpec(1, duration_s=180.0, fps=fps, blend=blend, seed=5)
      for fps in (10.0, 30.0) for blend in (0.0, 0.85)),
]


def test_staccato_running_sum_gives_the_per_event_oracle_bit_for_bit(monkeypatch):
    events = synth._events
    windows = []  # (last frame time, event starts, window) of every event track

    def recording_events(s, starts, amounts, width, shape):
        windows.append((s[-1], np.asarray(starts), width))
        return events(s, starts, amounts, width, shape)

    monkeypatch.setattr(synth, "_events", recording_events)
    for spec in _SHORT_SPECS + _LONG_SPECS:
        tracks_before = len(windows)
        built = generate(spec).positions
        if spec.duration_s >= 60.0:  # the long specs all build R1
            assert len(windows) > tracks_before, spec
        oracle = _oracle_positions(monkeypatch, spec)
        assert np.array_equal(built.view(np.int64), oracle.view(np.int64)), spec
    # Some event's window holds the last frame, so the window crosses the
    # end of the clip and its ramp or pulse never reaches its end value.
    assert any(((starts < last) & (last < starts + width)).any()
               for last, starts, width in windows)


def test_event_tracks_are_the_per_event_sums_bit_for_bit():
    # The track itself, before it meets the pose: past a hop, sin(pi)^2
    # leaves 1.5e-32 * amplitude, which the pose's 0.95 m would absorb.
    rng = np.random.default_rng(0)
    s = np.arange(1800) / 60.0
    strokes = synth._burst_schedule(rng, 30.0 - synth._STROKE_S, (0.1, 0.5),
                                    synth._STROKE_GAP_S)
    deltas = rng.normal(size=(len(strokes), 3))
    hops = synth._burst_schedule(rng, 30.0 - synth._HOP_S, (0.5, 1.0), synth._HOP_GAP_S)
    displacement = np.zeros((len(s), 3))
    for start, delta in zip(strokes, deltas):
        displacement += np.outer(oracles._ramp(s, start, synth._STROKE_S), delta)
    rise = np.zeros(len(s))
    for start in hops:
        rise += 0.07 * oracles._pulse(s, start, synth._HOP_S)
    assert (rise[s > hops[0] + synth._HOP_S] > 0.0).all()  # not 0 past a hop
    tracks = [
        (synth._events(s, strokes, deltas, synth._STROKE_S, synth._raised_cosine),
         displacement),
        (synth._events(s, hops, np.full((len(hops), 1), 0.07), synth._HOP_S, synth._sin2),
         rise[:, None]),
    ]
    for built, oracle in tracks:
        assert np.array_equal(built.view(np.int64), oracle.view(np.int64))


def test_staccato_event_windows_cannot_overlap():
    # _events adds each frame's latest event to the running sum of the
    # earlier ones, which holds only while an event's window closes
    # before the next event of its kind starts.
    assert synth._STROKE_GAP_S[0] > synth._STROKE_S
    assert synth._HOP_GAP_S[0] > synth._HOP_S


def test_locomotion_pelvis_is_direct():
    values = regime_features(0, range(10), "kin.pelvis.directness.mean")
    assert values.min() > 0.9


def test_sway_loop_pelvis_is_indirect():
    values = regime_features(2, range(10), "kin.pelvis.directness.mean")
    assert values.max() < 0.5


def test_effort_ordering_contracts_over_seeds():
    # >= 95% of cross-regime pairwise comparisons must hold, over >= 50
    # seeded fragments per regime.
    seeds = range(50)
    space0 = regime_features(0, seeds, "effort.space.mean")
    space2 = regime_features(2, seeds, "effort.space.mean")
    time1 = regime_features(1, seeds, "effort.time.mean")
    time3 = regime_features(3, seeds, "effort.time.mean")
    flow1 = regime_features(1, seeds, "effort.flow.mean")
    flow0 = regime_features(0, seeds, "effort.flow.mean")
    assert pairwise_win_fraction(space0, space2) >= 0.95
    assert pairwise_win_fraction(time1, time3) >= 0.95
    assert pairwise_win_fraction(flow1, flow0) >= 0.95


def test_undulation_is_pelvis_led():
    values = regime_features(3, range(8), "initiation.pelvis.mean")
    assert values.min() > 1 / 6  # pelvis leads more than a uniform share


def test_blend_interpolates_toward_neighbors():
    # Hard-variant sequences stay finite, valid, and deterministic, and a
    # blended tier-0 sequence drifts away from its pure-regime twin.
    pure = generate(RegimeSpec(0, seed=5))
    blended = generate(RegimeSpec(0, seed=5, blend=0.9))
    assert blended.positions.shape == pure.positions.shape
    assert not np.allclose(blended.positions, pure.positions)


def test_noise_free_generation_is_smooth():
    seq = generate(RegimeSpec(2, seed=0, noise_amp=0.0))
    steps = np.linalg.norm(np.diff(seq.positions, axis=0), axis=2)
    assert steps.max() < 0.2  # no teleports at 30 fps
