import itertools

import numpy as np
import pytest

from labankit import (
    FEATURE_NAMES_110,
    RegimeSpec,
    generate,
    slice_fragments,
)

from conftest import extract_vectors

NAMES = list(FEATURE_NAMES_110)


def regime_feature(regime, seed, name, **kwargs):
    seq = generate(RegimeSpec(regime, seed=seed, **kwargs))
    return extract_vectors(seq, slice_fragments(seq))[0, NAMES.index(name)]


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
