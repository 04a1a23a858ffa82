import csv
import random
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from labankit import (FEATURE_NAMES_110, FeatureTable, read_features_csv,
                      write_features_csv)
from labankit import features_io
from labankit.features_io import write_predictions_csv, write_ranking_csv

import oracles

GOLDEN = Path(__file__).parent / "data" / "features_golden_v2.csv"

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
    with pytest.raises(ValueError, match=r"row \('clip_7', 45, 2\): vector of shape"):
        write_features_csv(tmp_path / "features.csv", FEATURE_NAMES_110, rows)


@pytest.mark.parametrize("cells", [("clip_7", 45), ("clip_7", 45, 2, "extra")],
                         ids=["2", "4"])
def test_a_row_of_another_metadata_count_is_refused_with_its_row(tmp_path, cells):
    rows = [("ok", 0, 1, np.zeros(110)), (*cells, np.zeros(110))]
    with pytest.raises(ValueError, match=re.escape(
            f"row {cells}: vector of shape (110,), expected (110,) after 3 metadata cells")):
        write_features_csv(tmp_path / "features.csv", FEATURE_NAMES_110, rows)


def test_prediction_and_ranking_rows_have_the_bytes_of_the_cell_by_cell_writer(tmp_path):
    rows = _rows(4)
    table = FeatureTable(names=("x",), values=np.zeros((len(rows), 1)),
                         tiers=np.array([t for _, _, t, _ in rows]),
                         source_ids=tuple(s for s, _, _, _ in rows),
                         start_frames=np.array([f for _, f, _, _ in rows]))
    probs = np.array([v for _, _, _, v in rows])
    ranking = [(_SOURCE_IDS[i % len(_SOURCE_IDS)], h) for i, h in enumerate(_EDGE_VALUES)]
    for write, args in ((write_predictions_csv, (table, probs)),
                        (write_ranking_csv, (ranking,))):
        expected, out = tmp_path / "reference.csv", tmp_path / "out.csv"
        getattr(oracles, write.__name__)(expected, *args)
        write(out, *args)
        assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("prob_rows", [2, 4])
def test_predictions_need_one_probability_row_per_table_row(tmp_path, prob_rows):
    table = FeatureTable(names=("x",), values=np.zeros((3, 1)),
                         tiers=np.array([0, 1, 2]), source_ids=("a", "b", "c"),
                         start_frames=np.zeros(3, dtype=np.int64))
    probs = np.full((prob_rows, 4), 0.25)
    with pytest.raises(ValueError, match=f"{prob_rows} probability rows for a table of 3"):
        write_predictions_csv(tmp_path / "predictions.csv", table, probs)


def _read_both_ways(path):
    """The tables that the loadtxt pass and the row loop make of one file."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        fast = features_io._parse_lines(path, header, fh)
        fh.seek(0)
        next(reader)
        rows = features_io._read_rows(path, header, reader)
    return fast, rows


def _row_loop_only(path):
    """The row loop's table of a file that the loadtxt pass declines."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        with pytest.raises(ValueError, match="quoted or over-long line"):
            features_io._parse_lines(path, header, fh)
        fh.seek(0)
        next(reader)
        return features_io._read_rows(path, header, reader)


def _assert_same_table(a, b):
    assert a.names == b.names and a.source_ids == b.source_ids
    assert a.values.shape == b.values.shape and a.values.flags.c_contiguous
    assert np.array_equal(a.values.view(np.int64), b.values.view(np.int64))
    for x, y in ((a.tiers, b.tiers), (a.start_frames, b.start_frames)):
        assert x.dtype == y.dtype == np.int64 and np.array_equal(x, y)


def test_written_rows_read_back_with_their_ids_and_nine_digit_values(tmp_path):
    # Quoted ids send the file to the row loop.
    rows = _rows(len(FEATURE_NAMES_110))
    path = tmp_path / "features.csv"
    write_features_csv(path, FEATURE_NAMES_110, rows)
    table = _row_loop_only(path)
    _assert_same_table(read_features_csv(path), table)
    assert table.names == FEATURE_NAMES_110
    assert table.source_ids == _SOURCE_IDS
    assert table.start_frames.tolist() == [f for _, f, _, _ in rows]
    assert table.tiers.tolist() == [t for _, _, t, _ in rows]
    expected = np.array([[float(format(v, ".9g")) for v in vector]
                         for _, _, _, vector in rows])
    assert np.array_equal(table.values.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("order", ["golden", "shuffled"])
def test_loadtxt_pass_and_row_loop_read_the_same_table(tmp_path, order):
    path = GOLDEN
    if order == "shuffled":
        with open(GOLDEN, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        columns = list(range(len(rows[0])))
        random.Random(3).shuffle(columns)
        path = tmp_path / "shuffled.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([row[j] for j in columns] for row in rows)
    fast, rows = _read_both_ways(path)
    _assert_same_table(fast, rows)
    _assert_same_table(read_features_csv(path), rows)
    golden = read_features_csv(GOLDEN)
    assert np.array_equal(fast.aligned_to(golden.names), golden.values)


_HEADER = "source_id,start_frame,tier,a,b\r\n"


def test_spellings_that_float_and_int_accept_read_with_their_values(tmp_path):
    path = tmp_path / "features.csv"
    path.write_bytes((_HEADER + 's0,0,1,1_000, 1.5 \r\n"s1",30,+2,"1.5",+1.5\r\n'
                      "\r\n\ns2,60,3,\u0661\u0662,-0\n").encode())
    table = read_features_csv(path)
    assert table.source_ids == ("s0", "s1", "s2")
    assert table.start_frames.tolist() == [0, 30, 60]
    assert table.tiers.tolist() == [1, 2, 3]
    assert table.values.tolist() == [[1000.0, 1.5], [1.5, 1.5], [12.0, 0.0]]
    assert np.signbit(table.values[2, 1])


@pytest.mark.parametrize("body", [
    " 1.5 , 2.5 ", "+1.5,2.5", "1.5,2.5\r\n\r\n\n", "1.5,2.5\n\ns1,0,2,1.5,2.5",
], ids=["spaces", "plus", "blank-tail", "blank-between"])
def test_spellings_loadtxt_shares_with_float_take_the_loadtxt_pass(tmp_path, body):
    path = tmp_path / "features.csv"
    path.write_text(_HEADER + "s0,0,1," + body, encoding="utf-8")
    fast, rows = _read_both_ways(path)
    _assert_same_table(fast, rows)
    assert fast.values[0].tolist() == [1.5, 2.5]


@pytest.mark.parametrize("body", [
    ' 1.5 ,"2.5"', '1.5,2.5\r\n"s1",0,2,1.5,2.5', '1.5,2.5\r\n"s\r\n1",0,2,1.5,2.5',
], ids=["quoted-value", "quoted-id", "quoted-line-break"])
def test_quoted_lines_are_left_to_the_row_loop(tmp_path, body):
    path = tmp_path / "features.csv"
    path.write_text(_HEADER + "s0,0,1," + body, encoding="utf-8", newline="")
    rows = _row_loop_only(path)
    _assert_same_table(read_features_csv(path), rows)
    assert rows.values.tolist()[0] == [1.5, 2.5]


@pytest.mark.parametrize("rows, message", [
    ("s0,0,1,1.5,2.5,9", "{path}:2: 6 cells, expected 5"),
    ("s0,0,1,1.5", "{path}:2: 4 cells, expected 5"),
    ("s0,0,1,,2.5", "{path}:2: could not convert string to float: ''"),
    ("s0,1.0,1,1.5,2.5", "{path}:2: invalid literal for int() with base 10: '1.0'"),
    ("s0,0,7,1.5,2.5", "{path}:2: tier 7 not in (0, 1, 2, 3)"),
    ("s0,0,1,1.5,2.5\r\n\r\n\r\ns1,0,2,nan,2.5",
     "{path}:5: non-finite value nan in column 'a'"),
], ids=["extra-cell", "missing-cell", "empty-cell", "float-start-frame", "tier-7",
        "nan-after-blank-lines"])
def test_refused_rows_keep_their_messages(tmp_path, rows, message):
    path = tmp_path / "features.csv"
    path.write_text(_HEADER + rows + "\r\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        read_features_csv(path)
    assert str(exc.value) == message.format(path=path)


@pytest.mark.parametrize("tail", ["", "\n\r\n\r"], ids=["header-only", "blank-lines"])
def test_a_file_without_rows_is_an_empty_table_without_a_warning(tmp_path, tail):
    path = tmp_path / "features.csv"
    path.write_text(_HEADER + tail, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = read_features_csv(path)
    assert table.values.shape == (0, 2) and table.names == ("a", "b")
    assert table.tiers.shape == table.start_frames.shape == (0,)


@pytest.fixture
def field_size_limit():
    """Lower csv.field_size_limit() for one test."""
    default = csv.field_size_limit()
    yield csv.field_size_limit
    csv.field_size_limit(default)


def test_fields_over_the_csv_field_size_limit_are_refused_by_csv(tmp_path,
                                                                 field_size_limit):
    # Long lines of short fields read as they do under the default limit.
    long_lines = tmp_path / "long_lines.csv"
    names = [f"f{j}" for j in range(20)]
    write_features_csv(long_lines, names, _rows(len(names)))
    expected = read_features_csv(long_lines)
    field_size_limit(40)
    _assert_same_table(read_features_csv(long_lines), expected)
    _assert_same_table(_row_loop_only(long_lines), expected)
    path = tmp_path / "features.csv"
    # The message names the line where the reader stopped: the quoted field
    # opening on line 3 passes 40 characters on its 14th line.
    for row, line in [("s1,0,1," + " " * 40 + "1.5,2.5", 3),
                      ('"' + "x,\n" * 20 + '",0,1,1.5,2.5', 16)]:
        path.write_text(_HEADER + "s0,0,1,1.5,2.5\r\n" + row + "\r\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            read_features_csv(path)
        assert str(exc.value) == f"{path}:{line}: field larger than field limit (40)"
    path.write_text('source_id,start_frame,tier,"' + "y" * 41 + '"\r\n', encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        read_features_csv(path)
    assert str(exc.value) == f"{path}:1: field larger than field limit (40)"


def test_rows_after_a_header_spanning_lines_are_named_by_their_file_line(tmp_path):
    path = tmp_path / "features.csv"
    header = 'source_id,start_frame,tier,"a\nb"\r\n'
    path.write_text(header + "s0,0,1,1.5\r\ns1,0,2,nan\r\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        read_features_csv(path)
    assert str(exc.value) == f"{path}:4: non-finite value nan in column 'a\\nb'"
    path.write_text(header + "s0,0,1,1.5\r\ns1,0,2\r\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        read_features_csv(path)
    assert str(exc.value) == f"{path}:4: 3 cells, expected 4"


def test_whatever_the_loadtxt_pass_returns_the_row_loop_returns(tmp_path):
    # Mutated copies of a small table: the row loop is the reference, and
    # the loadtxt pass may only ever agree with it or decline.
    rng = random.Random(0)
    path = tmp_path / "features.csv"
    pieces = [",", '"', "\r", "\n", " ", "1", ".", "e", "-", "_", "nan", "\x00",
              "\xa0", "\u0661"]
    # The loadtxt pass declines any line with a '"', so most base rows are
    # quote-free for it to be taken often.
    rows = ['s0,0,1,1.5,2.5', '"a,b",30,2,-0,1e5', '"l\nm",60,3,.5,2.', '"q""x",0,0,1,2',
            's1,15,0,-2.5e-3,7', 's2,45,3, 1e5 ,+0', 'x y,90,2,.5,-2.',
            's_4,120,1,3E2,0.', 'id-5,7,3,-0.,1', "s'6,0,0,9,8", 's7,300,2,1e-300,-4',
            'S8,1,1,0.1,2e2', 's9,2,0,+.5,-.5', 's10,3,3,7,7']
    taken = 0
    for _ in range(1000):
        text = list("".join(rng.sample(rows, 3)[k] + rng.choice(["\n", "\r\n", "\r"])
                            for k in range(3)))
        for _ in range(rng.randint(1, 3)):
            text.insert(rng.randrange(len(text) + 1), rng.choice(pieces))
        path.write_text(_HEADER + "".join(text), encoding="utf-8", newline="")
        try:
            fast, rows_table = _read_both_ways(path)
        except (ValueError, OverflowError):
            continue
        _assert_same_table(fast, rows_table)
        taken += 1
    assert taken > 40
