"""Golden feature CSV: pins every feature value, as written, across commits.

The fixture holds one synthetic sequence per regime (one blended, one at
60 fps). Each is cut into 5 s fragments at a 1 s stride, described the
way extract does (one fragment_features call per sequence), and followed
by one row for the whole sequence taken as a single fragment. The first
test computes those whole-sequence rows as aggregate(frame_matrix(...))
instead, and checks that they are the one-fragment call's bits. A change
that moves any written feature digit fails here; if the change is meant
to, bump FEATURE_SCHEMA_VERSION and write the new fixture with

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import numpy as np

from labankit import (
    FEATURE_NAMES_110,
    FEATURE_SCHEMA_VERSION,
    RegimeSpec,
    aggregate,
    fragment_features,
    frame_matrix,
    generate,
    slice_fragments,
    write_features_csv,
)

GOLDEN = Path(__file__).parent / "data" / f"features_golden_v{FEATURE_SCHEMA_VERSION}.csv"

# (regime, fps, blend): every regime, one blended, one at 60 fps.
_SPECS = ((0, 30.0, 0.0), (1, 30.0, 0.6), (2, 30.0, 0.0), (3, 60.0, 0.0))


def _one_fragment(seq):
    return fragment_features(seq.positions, seq.fps, [slice(0, seq.frame_count)])[0]


def _whole_clip(seq):
    vector = aggregate(frame_matrix(seq.positions, seq.fps))
    assert np.array_equal(vector.view(np.int64), _one_fragment(seq).view(np.int64))
    return vector


def write_golden(path, whole=_one_fragment) -> None:
    rows = []
    for regime, fps, blend in _SPECS:
        seq = generate(RegimeSpec(regime, duration_s=8.0, fps=fps, blend=blend,
                                  seed=100 + regime), source_id=f"golden_r{regime}")
        fragments = slice_fragments(seq, length_s=5.0, stride_s=1.0)
        vectors = fragment_features(seq.positions, seq.fps, fragments)
        rows += [(seq.source_id, f.start, regime, vector)
                 for f, vector in zip(fragments, vectors)]
        rows.append((f"{seq.source_id}_whole", 0, regime, whole(seq)))
    write_features_csv(path, FEATURE_NAMES_110, rows)


def test_features_match_golden_csv_bytes(tmp_path):
    out = tmp_path / "features.csv"
    write_golden(out, whole=_whole_clip)
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_extract_path_features_match_golden_csv_bytes(tmp_path):
    out = tmp_path / "features.csv"
    write_golden(out)
    assert out.read_bytes() == GOLDEN.read_bytes()


if __name__ == "__main__":
    write_golden(GOLDEN)
