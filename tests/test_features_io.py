import numpy as np
import pytest

from labankit import FEATURE_NAMES_110, FeatureTable, write_features_csv
from labankit.features_io import write_predictions_csv

import oracles

# Ids that csv.writer must quote (or, for the empty id, leave empty).
_SOURCE_IDS = ("a,b", 'q"x', "l\nm", "", "r\rs", "plain")
_EDGE_VALUES = (-0.0, 5e-324, 1e-300, 1e300, 0.0, 3.0, -7.0, 1e15, 2.0 ** 53,
                123456789.0, 0.1, -2.5e-7)


def _rows(feature_count, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for i, source_id in enumerate(_SOURCE_IDS):
        vector = rng.normal(size=feature_count) * 10.0 ** rng.integers(-8, 9, feature_count)
        edges = np.roll(_EDGE_VALUES, i)[:feature_count]
        vector[:len(edges)] = edges
        rows.append((source_id, 30 * i, i % 4, vector))
    return rows


@pytest.mark.parametrize("names", [FEATURE_NAMES_110, ("x",), ()],
                         ids=["110", "1", "0"])
def test_feature_rows_have_the_bytes_of_the_cell_by_cell_writer(tmp_path, names):
    rows = _rows(len(names))
    expected = tmp_path / "reference.csv"
    oracles.write_features_csv(expected, names, rows)
    out = tmp_path / "features.csv"
    write_features_csv(out, names, rows)
    assert out.read_bytes() == expected.read_bytes()
    # Any float sequence is a vector.
    write_features_csv(out, names, [(s, f, t, list(v)) for s, f, t, v in rows])
    assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("shape", [(109,), (111,), (1, 110), ()])
def test_a_vector_of_another_length_is_refused_with_its_row(tmp_path, shape):
    rows = [("ok", 0, 1, np.zeros(110)), ("clip_7", 45, 2, np.zeros(shape))]
    with pytest.raises(ValueError, match=r"'clip_7' at frame 45: vector of shape"):
        write_features_csv(tmp_path / "features.csv", FEATURE_NAMES_110, rows)


@pytest.mark.parametrize("prob_rows", [2, 4])
def test_predictions_need_one_probability_row_per_table_row(tmp_path, prob_rows):
    table = FeatureTable(names=("x",), values=np.zeros((3, 1)),
                         tiers=np.array([0, 1, 2]), source_ids=("a", "b", "c"),
                         start_frames=np.zeros(3, dtype=np.int64))
    probs = np.full((prob_rows, 4), 0.25)
    with pytest.raises(ValueError, match=f"{prob_rows} probability rows for a table of 3"):
        write_predictions_csv(tmp_path / "predictions.csv", table, probs)
