import itertools
import json
import math
import re
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from labankit import (
    DatasetManifest,
    ManifestEntry,
    RegimeSpec,
    SkeletonError,
    SkeletonSequence,
    balance_dataset,
    fragment_features,
    frame_matrix,
    generate,
    load_manifest,
    load_sequence,
    save_manifest,
    save_sequence,
    slice_fragments,
)

import oracles
from conftest import rest_positions, wiggle_positions


def write_skeleton(path, frames, fps=30.0, tier=0, source_id="clip"):
    path.write_text(json.dumps({
        "source_id": source_id, "fps": fps, "tier": tier, "frames": frames,
    }))
    return path


def test_load_minimal_valid_file(tmp_path):
    frames = rest_positions(2).tolist()
    path = write_skeleton(tmp_path / "ok.json", frames)
    seq = load_sequence(path)
    assert seq.frame_count == 2
    assert seq.positions.shape[1] == 24
    assert seq.tier == 0
    assert seq.fps == 30.0


def test_load_rejects_wrong_joint_count(tmp_path):
    frames = rest_positions(3).tolist()
    frames[1] = frames[1][:23]
    path = write_skeleton(tmp_path / "bad.json", frames)
    with pytest.raises(SkeletonError, match=re.escape(
            f"{path}: frames[1] must be a list of 24 entries, got 23 entries")):
        load_sequence(path)


def test_load_rejects_nan_with_location(tmp_path):
    frames = rest_positions(8).tolist()
    frames[5][3][1] = float("nan")
    path = write_skeleton(tmp_path / "nan.json", frames)
    with pytest.raises(SkeletonError) as err:
        load_sequence(path)
    assert "frame 5" in str(err.value)
    assert "joint 3" in str(err.value)


def test_load_rejects_bad_fps_and_parse_failures(tmp_path):
    frames = rest_positions(2).tolist()
    with pytest.raises(SkeletonError, match="fps"):
        load_sequence(write_skeleton(tmp_path / "fps.json", frames, fps=0.0))
    with pytest.raises(SkeletonError, match="fps"):
        load_sequence(write_skeleton(tmp_path / "bool.json", frames, fps=True))
    with pytest.raises(SkeletonError, match="fps"):
        SkeletonSequence(source_id="clip", fps=True, positions=rest_positions(2))
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    with pytest.raises(SkeletonError, match="invalid JSON"):
        load_sequence(garbage)
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"fps": 30.0, "frames": frames}))
    with pytest.raises(SkeletonError, match="source_id"):
        load_sequence(partial)


def test_load_rejects_a_file_that_is_not_utf8_naming_it(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"source_id": "caf\u00e9"}'.encode("latin-1"))
    with pytest.raises(SkeletonError, match=f"^{re.escape(str(path))}: .*codec can't decode"):
        load_sequence(path)


def test_load_rejects_short_joint(tmp_path):
    frames = rest_positions(3).tolist()
    frames[2][7] = [1.0, 2.0]
    path = write_skeleton(tmp_path / "arity.json", frames)
    with pytest.raises(SkeletonError, match=re.escape(
            f"{path}: frames[2][7] must be a list of 3 entries, got 2 entries")):
        load_sequence(path)


@pytest.mark.parametrize("value", ["1.0", None, [1.0], {"x": 1.0}, True, False],
                         ids=["string", "null", "list", "object", "true", "false"])
def test_load_rejects_a_non_numeric_coordinate_by_location(tmp_path, value):
    frames = rest_positions(6).tolist()
    frames[4][9][2] = value
    path = write_skeleton(tmp_path / "text.json", frames)
    with pytest.raises(SkeletonError, match=re.escape(
            f"{path}: frames[4][9][2] must be a number, got {value!r}")):
        load_sequence(path)


def test_load_accepts_true_and_false_outside_the_frames(tmp_path):
    path = write_skeleton(tmp_path / "tf.json", rest_positions(3).tolist(),
                          source_id="true_false")
    seq = load_sequence(path)
    assert seq.source_id == "true_false"
    assert np.array_equal(seq.positions, rest_positions(3))


def test_load_rejects_all_bool_frames(tmp_path):
    frames = [[[True, False, True]] * 24] * 3
    path = write_skeleton(tmp_path / "bools.json", frames)
    with pytest.raises(SkeletonError, match=re.escape(
            f"{path}: frames[0][0][0] must be a number, got True")):
        load_sequence(path)


@pytest.mark.parametrize("value", [2**64, -2**63 - 1, 10**400],
                         ids=["2**64", "-2**63-1", "10**400"])
def test_load_rejects_an_integer_beyond_64_bits_by_location(tmp_path, value):
    frames = rest_positions(3).tolist()
    frames[1][2][0] = value
    path = write_skeleton(tmp_path / "huge.json", frames)
    with pytest.raises(SkeletonError, match=re.escape(
            f"{path}: frames[1][2][0] must be an integer within 64 bits, got {value}")):
        load_sequence(path)


def test_load_accepts_integer_coordinates_as_float64(tmp_path):
    frames = np.round(rest_positions(3) * 100).astype(int).tolist()
    frames[2][5][1] = 2**63  # still an unsigned 64-bit integer
    seq = load_sequence(write_skeleton(tmp_path / "ints.json", frames))
    assert seq.positions.dtype == np.float64
    assert seq.positions[2, 5, 1] == float(2**63)
    assert np.array_equal(seq.positions[0], np.round(rest_positions(1)[0] * 100))


def test_load_accepts_scientific_notation(tmp_path):
    joint = "[1.5e-1, 2e0, -3.25E-2]"
    frame = "[" + ", ".join([joint] * 24) + "]"
    path = tmp_path / "sci.json"
    path.write_text(
        '{"source_id": "s", "fps": 3e1, "tier": 1, "frames": [%s, %s]}'
        % (frame, frame)
    )
    seq = load_sequence(path)
    assert seq.frame_count == 2
    assert seq.fps == 30.0
    assert seq.positions[0, 0, 0] == 0.15


def test_save_load_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    positions = rng.normal(scale=1.234567891234, size=(40, 24, 3))
    seq = SkeletonSequence("roundtrip", 29.97, positions, tier=2)
    path = tmp_path / "seq.json"
    save_sequence(seq, path)
    loaded = load_sequence(path)
    assert loaded.source_id == seq.source_id
    assert loaded.fps == seq.fps
    assert loaded.tier == seq.tier
    assert np.array_equal(loaded.positions, seq.positions)


def _stdlib_dump_bytes(seq, path):
    payload = {
        "source_id": seq.source_id,
        "fps": seq.fps,
        "tier": seq.tier,
        "frames": seq.positions.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))
    return path.read_bytes()


@pytest.mark.parametrize("regime", range(4))
def test_save_writes_the_stdlib_dump_bytes_for_every_regime(tmp_path, regime):
    seq = generate(RegimeSpec(regime, seed=40 + regime))
    save_sequence(seq, tmp_path / "fast.json")
    assert (tmp_path / "fast.json").read_bytes() == _stdlib_dump_bytes(seq, tmp_path / "ref.json")


def test_save_writes_the_stdlib_dump_bytes_for_edge_floats(tmp_path):
    positions = rest_positions(3)
    positions[0, 0] = (-0.0, 5e-324, 1e17)
    positions[1, 5] = (1 / 3, 2.0, -7.0)
    seq = SkeletonSequence("edge \u00e9\"quoted\"", 29.97, positions, tier=None)
    save_sequence(seq, tmp_path / "fast.json")
    written = (tmp_path / "fast.json").read_bytes()
    assert written == _stdlib_dump_bytes(seq, tmp_path / "ref.json")
    assert b"[-0.0,5e-324,1e+17]" in written and b"2.0,-7.0]" in written
    assert np.array_equal(load_sequence(tmp_path / "fast.json").positions, positions)


@pytest.mark.parametrize("tier", [None, 2])
def test_container_round_trip_is_bit_exact_and_repeatable(tmp_path, tier):
    positions = rest_positions(3)
    positions[0, 0] = (-0.0, 5e-324, 1e17)
    positions[1, 5] = (1 / 3, 2.0, -7.0)
    seq = SkeletonSequence("edge \u00e9\"quoted\"\nline", 29.97, positions, tier=tier)
    first, second = tmp_path / "a.skel", tmp_path / "b.skel"
    save_sequence(seq, first)
    save_sequence(seq, second)
    assert first.read_bytes() == second.read_bytes()
    header = first.read_bytes()[:-8 * positions.size]
    assert header.endswith(b"\n") and header.count(b"\n") == 1
    loaded = load_sequence(first)
    assert (loaded.source_id, loaded.fps, loaded.tier) == (seq.source_id, 29.97, tier)
    assert np.array_equal(loaded.positions.view(np.int64), positions.view(np.int64))


GOLDEN_CONTAINER = Path(__file__).parent / "data" / "sequence_golden_v1.skel"


def golden_container_sequence():
    positions = np.arange(4 * 24 * 3, dtype=np.float64).reshape(4, 24, 3) / 7 - 20
    positions[0, 0] = (-0.0, 5e-324, 1e17)
    return SkeletonSequence("golden", 29.97, positions, tier=3)


def test_container_bytes_match_the_golden_file(tmp_path):
    """Pins the container format. Regenerate the fixture only together with a
    SKELETON_FORMAT_VERSION bump: PYTHONPATH=src python tests/test_skeleton.py"""
    seq = golden_container_sequence()
    save_sequence(seq, tmp_path / "golden.skel")
    golden = GOLDEN_CONTAINER.read_bytes()
    assert (tmp_path / "golden.skel").read_bytes() == golden
    header, body = golden.split(b"\n", 1)
    assert header == (b'{"format_version": 1, "source_id": "golden", "fps": 29.97, '
                      b'"tier": 3, "shape": [4, 24, 3]}')
    assert body == seq.positions.astype("<f8").tobytes()
    loaded = load_sequence(GOLDEN_CONTAINER)
    assert (loaded.source_id, loaded.fps, loaded.tier) == ("golden", 29.97, 3)
    assert np.array_equal(loaded.positions.view(np.int64), seq.positions.view(np.int64))


_MISSING = object()
_BODY = rest_positions(3).astype("<f8").tobytes()
_NAN_POSITIONS = rest_positions(3)
_NAN_POSITIONS[1, 4, 2] = np.nan
_NAN_BODY = _NAN_POSITIONS.astype("<f8").tobytes()


@pytest.mark.parametrize("header, body, message", [
    ({}, _BODY[:-8], "body has 1720 bytes, expected 1728 for shape [3, 24, 3]"),
    ({}, _BODY + b"\0", "body has 1729 bytes, expected 1728"),
    ({"shape": [3, 23, 3]}, _BODY, "shape must be [T, 24, 3]"),
    ({"shape": [3, 24]}, _BODY, "shape must be [T, 24, 3]"),
    ({"shape": [-1, 24, 3]}, b"", "shape must be [T, 24, 3]"),
    ({"shape": [3.0, 24, 3]}, _BODY, "shape must be [T, 24, 3]"),
    ({"shape": [True, 24, 3]}, _BODY[:576], "shape must be [T, 24, 3]"),
    ({"shape": "3x24x3"}, _BODY, "shape must be [T, 24, 3]"),
    (b"not json", _BODY, "invalid header line"),
    (b"\xff\xfe", _BODY, "invalid header line"),
    (b"[3, 24, 3]", _BODY, "header line must be a JSON object"),
    ({"format_version": 2}, _BODY, "unsupported skeleton format version 2"),
    ({"format_version": _MISSING}, _BODY, "unsupported skeleton format version None"),
    ({"fps": _MISSING}, _BODY, "missing required header key 'fps'"),
    ({"tier": _MISSING}, _BODY, "missing required header key 'tier'"),
    ({"shape": _MISSING}, _BODY, "missing required header key 'shape'"),
    ({}, _NAN_BODY, "non-finite coordinate at frame 1, joint 4"),
    ({"fps": True}, _BODY, "fps must be positive and finite, got True"),
    ({"source_id": 5}, _BODY, "source_id must be a string, got 5"),
    ({"tier": 7}, _BODY, "tier 7 not in"),
    ({"shape": [1, 24, 3]}, _BODY[:576], "need at least 2 frames, got 1"),
], ids=["truncated", "trailing", "joints", "rank", "negative", "float", "bool",
        "string", "not-json", "not-utf8", "not-object", "version", "no-version",
        "no-fps", "no-tier", "no-shape", "nan", "bool-fps", "int-source-id", "tier",
        "one-frame"])
def test_load_rejects_a_bad_container_naming_the_path(tmp_path, header, body, message):
    if isinstance(header, dict):
        fields = {"format_version": 1, "source_id": "clip", "fps": 30.0, "tier": 0,
                  "shape": [3, 24, 3], **header}
        header = json.dumps({k: v for k, v in fields.items() if v is not _MISSING}).encode()
    path = tmp_path / "bad.skel"
    path.write_bytes(header + b"\n" + body)
    with pytest.raises(SkeletonError) as err:
        load_sequence(path)
    assert str(err.value).startswith(f"{path}: ")
    assert message in str(err.value)


@pytest.mark.parametrize("fps", [30, 29.97, np.int64(30), np.int32(25), np.float32(30),
                                 np.float64(59.94)])
def test_sequence_and_fragment_accept_numeric_fps(fps):
    seq = SkeletonSequence("s", fps, rest_positions(200), tier=1)
    assert type(seq.fps) is float and seq.fps == float(fps)
    assert seq.duration_s == 200 / float(fps)
    matrix = frame_matrix(rest_positions(200), fps)
    assert np.array_equal(matrix, frame_matrix(rest_positions(200), float(fps)))


@pytest.mark.parametrize("fps", [True, False, np.bool_(True), 0, 0.0, -30.0, np.int64(-1),
                                 float("nan"), np.float32("nan"), float("inf"),
                                 np.float64("-inf"), "30", None])
def test_sequence_and_fragment_reject_bad_fps(fps):
    with pytest.raises(SkeletonError, match="fps must be positive and finite"):
        SkeletonSequence("s", fps, rest_positions(200), tier=1)
    with pytest.raises(SkeletonError, match="fps must be positive and finite"):
        frame_matrix(rest_positions(200), fps)


# Arrays whose dtype is not an integer or a float, each from the same values.
NOT_REAL_POSITIONS = {
    "bool": lambda p: p > 0.5,
    "complex": lambda p: p + 1j,
    "str": lambda p: p.astype(str),
    "object": lambda p: p.astype(object),
}


@pytest.mark.parametrize("kind", sorted(NOT_REAL_POSITIONS))
def test_sequence_and_fragment_refuse_positions_that_are_not_real_numbers(kind):
    # complex used to lose its imaginary part to a ComplexWarning, and bool
    # and numeric strings became numbers.
    positions = NOT_REAL_POSITIONS[kind](rest_positions(200))
    message = re.escape(f"positions must be integers or floats, got dtype {positions.dtype}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SkeletonError, match=f"sequence 's': {message}"):
            SkeletonSequence("s", 30.0, positions, tier=1)
        for describe in (lambda: frame_matrix(positions, 30.0),
                         lambda: fragment_features(positions, 30.0, [slice(0, 150)])):
            with pytest.raises(SkeletonError, match=f"fragment: {message}"):
                describe()


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16, np.float32])
def test_integer_and_float32_positions_are_described_in_float64(dtype):
    # Millimetre integers, or float32 meters: the sequence holds them as
    # float64, and the descriptors give the bits of their float64 values.
    scale = 1.0 if dtype == np.float32 else 1000.0
    positions = (wiggle_positions(200) * scale).astype(dtype)
    values = positions.astype(np.float64)
    seq = SkeletonSequence("s", 30.0, positions, tier=1)
    assert seq.positions.dtype == np.float64
    assert seq.positions.tobytes() == values.tobytes()
    fragments = [slice(0, 150), slice(25, 175), slice(50, 200)]
    assert frame_matrix(positions, 30.0).tobytes() == frame_matrix(values, 30.0).tobytes()
    assert (fragment_features(positions, 30.0, fragments).tobytes()
            == fragment_features(values, 30.0, fragments).tobytes())


def test_slice_exact_tiling():
    seq = SkeletonSequence("s", 30.0, rest_positions(300), tier=0)
    frags = slice_fragments(seq, length_s=5.0, stride_s=5.0)
    assert frags == [slice(0, 150), slice(150, 300)]


def test_slice_overlapping_stride():
    seq = SkeletonSequence("s", 30.0, rest_positions(300), tier=0)
    frags = slice_fragments(seq, length_s=5.0, stride_s=2.5)
    assert frags == [slice(0, 150), slice(75, 225), slice(150, 300)]


def test_slice_too_short_sequence_gives_empty_list():
    seq = SkeletonSequence("s", 30.0, rest_positions(60), tier=0)
    assert slice_fragments(seq, length_s=3.0, stride_s=3.0) == []


@pytest.mark.parametrize("fps, length_s, stride_s, expected", [
    (30.0, 1e308, 5.0, []),               # the fragment's frame count is inf
    (1e308, 5.0, 5.0, []),                # so is the 3 s floor's
    (30.0, 5.0, 1e308, [slice(0, 150)]),  # a stride of inf frames: one fragment
], ids=["length", "floor", "stride"])
def test_slice_takes_an_infinite_frame_count_as_longer_than_the_sequence(
        fps, length_s, stride_s, expected):
    seq = SkeletonSequence("s", fps, rest_positions(300), tier=0)
    assert slice_fragments(seq, length_s=length_s, stride_s=stride_s) == expected


@pytest.mark.parametrize("fps", [0.5, 10.0, 29.97, 30.0, 59.94, 1e300])
def test_slice_cuts_finite_products_as_the_uncapped_counts_do(fps):
    # Lengths and strides run from one frame to far past the sequence.
    seconds = [1e-300, 0.5 / fps, 1.0, 2.5, 3.0, 3.01, 5.0, 150.5 / fps,
               299.5 / fps, 301 / fps, 1e300 / fps, 1e300]
    for frame_count in (2, 89, 90, 150, 151, 300):
        seq = SkeletonSequence("s", fps, rest_positions(frame_count), tier=0)
        for length_s, stride_s in itertools.product(seconds, seconds):
            if length_s >= 3.0 and math.isfinite(max(length_s, stride_s) * fps):
                assert slice_fragments(seq, length_s, stride_s) == \
                    oracles.slice_fragments(frame_count, fps, length_s, stride_s)


def test_slice_rejects_bad_parameters():
    seq = SkeletonSequence("s", 30.0, rest_positions(300), tier=0)
    with pytest.raises(ValueError, match="3.0 s floor"):
        slice_fragments(seq, length_s=2.0, stride_s=2.0)
    with pytest.raises(ValueError, match="stride"):
        slice_fragments(seq, length_s=5.0, stride_s=0.0)
    for length_s, stride_s, message in [
        (math.nan, 5.0, "length_s must be finite, got nan"),
        (math.inf, 5.0, "length_s must be finite, got inf"),
        (5.0, math.nan, "stride_s must be finite, got nan"),
        (5.0, math.inf, "stride_s must be finite, got inf"),
        (5.0, -math.inf, "stride_s must be finite, got -inf"),
    ]:
        with pytest.raises(ValueError, match=message):
            slice_fragments(seq, length_s=length_s, stride_s=stride_s)


@pytest.mark.parametrize("name", ["length_s", "stride_s"])
@pytest.mark.parametrize("value", [True, False, np.True_, "5", None],
                         ids=["bool", "false", "numpy-bool", "str", "none"])
def test_slice_refuses_a_length_or_stride_that_is_not_a_number(name, value):
    # True would otherwise cut 1 s strides, and np.True_ converts to 1.0.
    seq = SkeletonSequence("s", 30.0, rest_positions(300), tier=0)
    with pytest.raises(ValueError,
                       match=re.escape(f"{name} must be a number of seconds, got {value!r}")):
        slice_fragments(seq, **{"length_s": 5.0, "stride_s": 5.0, name: value})


def test_slice_concat_reproduces_parent_bits():
    rng = np.random.default_rng(5)
    seq = SkeletonSequence("s", 30.0, rng.normal(size=(300, 24, 3)), tier=1)
    frags = slice_fragments(seq, length_s=5.0, stride_s=5.0)
    joined = np.concatenate([seq.positions[f] for f in frags], axis=0)
    assert np.array_equal(joined, seq.positions)


@pytest.mark.parametrize("fps, frames, length_s, stride_s, starts, n", [
    (30.1, 200, 3.0, 1.0, [0, 30, 60, 90], 91),  # round() lands under the 3 s floor
    (29.97, 400, 5.0, 2.5, [0, 75, 150, 225], 150),
    (60.0, 900, 4.0, 0.5, list(range(0, 661, 30)), 240),
])
def test_slice_gives_read_only_views_of_the_parent(fps, frames, length_s, stride_s,
                                                   starts, n):
    rng = np.random.default_rng(9)
    seq = SkeletonSequence("s", fps, rng.normal(size=(frames, 24, 3)), tier=None)
    frags = slice_fragments(seq, length_s=length_s, stride_s=stride_s)
    assert frags == [slice(start, start + n) for start in starts]
    for f in frags:
        view = seq.positions[f]
        assert view.shape == (n, 24, 3)
        assert np.shares_memory(view, seq.positions)
        assert not view.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0, 0] = 1.0


def make_manifest(counts, prefix="e"):
    entries = []
    for tier, n in counts.items():
        for i in range(n):
            entries.append(ManifestEntry(
                path=__import__("pathlib").Path(f"/data/{prefix}{tier}_{i}.json"),
                source_id=f"{prefix}{tier}_{i}",
                tier=tier,
            ))
    return DatasetManifest(tuple(entries))


def test_balance_production_scale_counts():
    manifest = make_manifest({0: 2000, 1: 2000, 2: 2000, 3: 2000})
    balanced = balance_dataset(manifest, per_class=1075, seed=0)
    assert len(balanced) == 4300
    assert Counter(e.tier for e in balanced.entries) == {0: 1075, 1: 1075, 2: 1075, 3: 1075}


def test_balance_smallest_class_passes_through():
    manifest = make_manifest({0: 30, 1: 12, 2: 30, 3: 30})
    balanced = balance_dataset(manifest, per_class=12, seed=3)
    tier1 = [e.source_id for e in balanced.entries if e.tier == 1]
    assert sorted(tier1) == sorted(e.source_id for e in manifest.entries if e.tier == 1)


def test_balance_deterministic_and_idempotent():
    manifest = make_manifest({0: 40, 1: 40, 2: 40, 3: 40})
    once = balance_dataset(manifest, per_class=25, seed=9)
    again = balance_dataset(manifest, per_class=25, seed=9)
    assert once == again
    rebalanced = balance_dataset(once, per_class=25, seed=9)
    assert rebalanced == once


def test_balance_refuses_a_negative_seed_naming_it():
    manifest = make_manifest({0: 4, 1: 4, 2: 4, 3: 4})
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        balance_dataset(manifest, per_class=2, seed=-1)


def test_balance_error_names_small_tier():
    manifest = make_manifest({0: 40, 1: 10, 2: 40, 3: 40})
    with pytest.raises(SkeletonError, match="tier 1 has 10 entries"):
        balance_dataset(manifest, per_class=20, seed=0)


@pytest.mark.parametrize("kwargs, message", [
    ({"per_class": 1.5}, "per_class must be an integer >= 1, got 1.5"),
    ({"per_class": True}, "per_class must be an integer >= 1, got True"),
    ({"seed": 2.5}, "seed must be an integer, got 2.5"),
    ({"seed": True}, "seed must be an integer, got True"),
], ids=["per-class-float", "per-class-bool", "seed-float", "seed-bool"])
def test_balance_refuses_a_count_or_seed_that_is_not_an_integer(kwargs, message):
    # seed=True used to run as seed 1, and the floats failed inside numpy.
    manifest = make_manifest({0: 4, 1: 4, 2: 4, 3: 4})
    with pytest.raises(ValueError, match=re.escape(message)):
        balance_dataset(manifest, **{"per_class": 2, "seed": 0, **kwargs})


def test_balance_takes_numpy_integers():
    manifest = make_manifest({0: 4, 1: 4, 2: 4, 3: 4})
    assert (balance_dataset(manifest, per_class=np.int64(2), seed=np.uint8(3))
            == balance_dataset(manifest, per_class=2, seed=3))


def test_manifest_rejects_duplicates_and_bad_tiers():
    entry = ManifestEntry(path=__import__("pathlib").Path("/a.json"),
                          source_id="a", tier=0)
    with pytest.raises(SkeletonError, match="duplicate source_id"):
        DatasetManifest((entry, entry))
    with pytest.raises(SkeletonError, match="tier"):
        DatasetManifest((ManifestEntry(path=__import__("pathlib").Path("/b.json"),
                                       source_id="b", tier=7),))


def test_manifest_round_trip(tmp_path):
    for tier in (0, 1):
        for i in range(2):
            write_skeleton(tmp_path / f"t{tier}_{i}.json", rest_positions(2).tolist(),
                           tier=tier, source_id=f"t{tier}_{i}")
    lines = [json.dumps({"path": f"t{tier}_{i}.json", "tier": tier})
             for tier in (0, 1) for i in range(2)]
    path = tmp_path / "manifest.jsonl"
    path.write_text("\n".join(lines) + "\n")
    manifest = load_manifest(path)
    assert len(manifest) == 4
    assert manifest.entries[0].source_id == "t0_0"
    assert manifest.entries[0].path.exists()

    out = tmp_path / "copy.jsonl"
    save_manifest(manifest, out)
    assert load_manifest(out) == manifest


def test_manifest_reports_bad_line(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"path": "a.json", "tier": 0}\nnot json\n')
    with pytest.raises(SkeletonError, match=":2"):
        load_manifest(path)


def test_sequence_positions_are_read_only():
    seq = SkeletonSequence("s", 30.0, rest_positions(4), tier=0)
    with pytest.raises(ValueError):
        seq.positions[0, 0, 0] = 1.0


def test_sequence_copies_positions():
    positions = rest_positions(4)
    view = positions[:]
    seq = SkeletonSequence("x", 30.0, positions)
    positions[0, 0, 0] = 5.0  # the caller's array stays writable
    view[0, 0, 1] = np.nan    # and a view of it cannot reach the sequence
    assert not np.shares_memory(seq.positions, positions)
    assert np.array_equal(seq.positions, rest_positions(4))


@pytest.mark.parametrize("field, value, message", [
    ("path", 5, "path must be a string, got 5"),
    ("path", None, "path must be a string, got None"),
    ("source_id", None, "source_id must be a string, got None"),
    ("source_id", 3, "source_id must be a string, got 3"),
    ("tier", None, "tier must be an integer"),
    ("tier", True, "tier must be an integer"),
    ("tier", 7, "tier 7 not in"),
])
def test_manifest_entry_validates_itself(field, value, message):
    fields = {"path": "/a.json", "source_id": "a", "tier": 0}
    assert ManifestEntry(**fields).path == Path("/a.json")
    with pytest.raises(SkeletonError, match=message):
        ManifestEntry(**{**fields, field: value})


@pytest.mark.parametrize("source_id", [None, 5])
def test_load_rejects_a_non_string_source_id(tmp_path, source_id):
    path = write_skeleton(tmp_path / "s.json", rest_positions(2).tolist(),
                          source_id=source_id)
    with pytest.raises(SkeletonError, match=f"source_id must be a string, got {source_id}"):
        load_sequence(path)


if __name__ == "__main__":
    save_sequence(golden_container_sequence(), GOLDEN_CONTAINER)
