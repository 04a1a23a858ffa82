"""Golden feature CSV: pins every feature value, as written, across commits.

The fixture holds one synthetic sequence per regime (one blended, one at
60 fps). Each is cut into 5 s fragments at a 1 s stride, described the
way extract does (one fragment_features call per sequence), and followed
by one row for the whole sequence taken as a single fragment. The second
test computes those whole-sequence rows with the bare
fragment_features(positions, fps) call instead. A change that moves any
written feature digit fails here; if the change is meant to, bump
FEATURE_SCHEMA_VERSION and write the new fixture with

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

from labankit import (
    FEATURE_NAMES_110,
    FEATURE_SCHEMA_VERSION,
    RegimeSpec,
    fragment_features,
    generate,
    slice_fragments,
    write_features_csv,
)

GOLDEN = Path(__file__).parent / "data" / f"features_golden_v{FEATURE_SCHEMA_VERSION}.csv"

# (regime, fps, blend): every regime, one blended, one at 60 fps.
_SPECS = ((0, 30.0, 0.0), (1, 30.0, 0.6), (2, 30.0, 0.0), (3, 60.0, 0.0))


def write_golden(path, bare_whole_sequence: bool = False) -> None:
    rows = []
    for regime, fps, blend in _SPECS:
        seq = generate(RegimeSpec(regime, duration_s=8.0, fps=fps, blend=blend,
                                  seed=100 + regime), source_id=f"golden_r{regime}")
        fragments = slice_fragments(seq, length_s=5.0, stride_s=1.0)
        starts = [start for start, _ in fragments]
        vectors = fragment_features(seq.positions, seq.fps, starts, len(fragments[0][1]))
        rows += [(seq.source_id, start, regime, vector)
                 for start, vector in zip(starts, vectors)]
        whole = (fragment_features(seq.positions, seq.fps) if bare_whole_sequence
                 else fragment_features(seq.positions, seq.fps, [0], seq.frame_count)[0])
        rows.append((f"{seq.source_id}_whole", 0, regime, whole))
    write_features_csv(path, FEATURE_NAMES_110, rows)


def test_features_match_golden_csv_bytes(tmp_path):
    out = tmp_path / "features.csv"
    write_golden(out, bare_whole_sequence=True)
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_extract_path_features_match_golden_csv_bytes(tmp_path):
    out = tmp_path / "features.csv"
    write_golden(out)
    assert out.read_bytes() == GOLDEN.read_bytes()


if __name__ == "__main__":
    write_golden(GOLDEN)
