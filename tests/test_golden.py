"""Golden feature CSV: pins every feature value, as written, across commits.

The fixture holds one synthetic sequence per regime (one blended, one at
60 fps) cut into 5 s fragments at a 1 s stride, written once with
per-fragment descriptors and once the way extract computes them, with each
frame's Dispersion rows shared by its fragments. A change that moves any
written feature digit fails here; if the change is meant to, bump
FEATURE_SCHEMA_VERSION and regenerate the fixture with

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

from labankit import cli
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


def write_golden(path, shared_dispersion: bool = False) -> None:
    rows = []
    for regime, fps, blend in _SPECS:
        seq = generate(RegimeSpec(regime, duration_s=8.0, fps=fps, blend=blend,
                                  seed=100 + regime), source_id=f"golden_r{regime}")
        fragments = slice_fragments(seq, length_s=5.0, stride_s=1.0)
        dispersion = (cli._sequence_dispersion(seq.positions, fragments)
                      if shared_dispersion else None)
        for start, view in fragments:
            block = None if dispersion is None else dispersion[start:start + len(view)]
            rows.append((seq.source_id, start, regime,
                         fragment_features(view, seq.fps, dispersion=block)))
    write_features_csv(path, FEATURE_NAMES_110, rows)


def test_features_match_golden_csv_bytes(tmp_path):
    out = tmp_path / "features.csv"
    write_golden(out)
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_extract_path_features_match_golden_csv_bytes(tmp_path):
    out = tmp_path / "features.csv"
    write_golden(out, shared_dispersion=True)
    assert out.read_bytes() == GOLDEN.read_bytes()


if __name__ == "__main__":
    write_golden(GOLDEN)
