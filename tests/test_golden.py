"""Golden feature CSV: pins every feature value, as written, across commits.

The fixture holds one synthetic sequence per regime (one blended, one at
60 fps) cut into 5 s fragments at a 1 s stride. A change that moves any
written feature digit fails here; if the change is meant to, bump
FEATURE_SCHEMA_VERSION and regenerate the fixture with

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

from labankit import (
    FEATURE_NAMES_110,
    RegimeSpec,
    fragment_features,
    generate,
    slice_fragments,
    write_features_csv,
)

GOLDEN = Path(__file__).parent / "data" / "features_golden_v1.csv"

# (regime, fps, blend): every regime, one blended, one at 60 fps.
_SPECS = ((0, 30.0, 0.0), (1, 30.0, 0.6), (2, 30.0, 0.0), (3, 60.0, 0.0))


def write_golden(path) -> None:
    rows = []
    for regime, fps, blend in _SPECS:
        seq = generate(RegimeSpec(regime, duration_s=8.0, fps=fps, blend=blend,
                                  seed=100 + regime), source_id=f"golden_r{regime}")
        rows.extend((seq.source_id, start, regime, fragment_features(view, seq.fps))
                    for start, view in slice_fragments(seq, length_s=5.0, stride_s=1.0))
    write_features_csv(path, FEATURE_NAMES_110, rows)


def test_features_match_golden_csv_bytes(tmp_path):
    out = tmp_path / "features.csv"
    write_golden(out)
    assert out.read_bytes() == GOLDEN.read_bytes()


if __name__ == "__main__":
    write_golden(GOLDEN)
