"""Feature-table CSV reading and writing.

A feature CSV has metadata columns (source_id, start_frame, tier) followed
by the 110 canonical feature columns. Readers align columns by name, never
by position, so reordered files are equivalent.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .skeleton import VALID_TIERS, _reading, _validate_tier

METADATA_COLUMNS = ("source_id", "start_frame", "tier")

# Feature values are printed with 9 significant digits.
_VALUE_FORMAT = "{:.9g}"


@dataclass(frozen=True)
class FeatureTable:
    """Rows of fragment feature vectors with their provenance metadata."""

    names: tuple[str, ...]
    values: np.ndarray            # (N, F)
    tiers: np.ndarray             # (N,)
    source_ids: tuple[str, ...]
    start_frames: np.ndarray      # (N,)

    def __post_init__(self):
        n = self.values.shape[0]
        if not (len(self.source_ids) == n and self.tiers.shape == (n,)
                and self.start_frames.shape == (n,)):
            raise ValueError("metadata length does not match the row count")
        if self.values.ndim != 2 or self.values.shape[1] != len(self.names):
            raise ValueError(
                f"value matrix {self.values.shape} does not match "
                f"{len(self.names)} feature names"
            )

    def __len__(self) -> int:
        return self.values.shape[0]

    def aligned_to(self, names) -> np.ndarray:
        """Return the value matrix with columns permuted to the given names.

        Raises if the name sets differ, reporting the first mismatch.
        """
        names = list(names)
        have = set(self.names)
        for name in names:
            if name not in have:
                raise ValueError(f"feature name mismatch: {name!r} missing from the table")
        extra = sorted(have - set(names))
        if extra:
            raise ValueError(f"feature name mismatch: unexpected column {extra[0]!r}")
        index = {name: j for j, name in enumerate(self.names)}
        order = [index[name] for name in names]
        return self.values[:, order]


class _Rows(list):
    """A csv.writer target that keeps each written row as a string."""

    write = list.append


def _write_rows(path, header, width, rows) -> None:
    """Write the header, then each row: its metadata cells, which csv.writer
    quotes, followed by its vector, any sequence of width floats, which one
    call formats, as a float never needs quoting. A vector of another shape,
    or metadata of another cell count, raises ValueError naming the row's
    metadata."""
    values = f",{_VALUE_FORMAT}" * width
    eol = csv.excel.lineterminator
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        lines = _Rows()
        writer = csv.writer(lines)
        for *metadata, vector in rows:
            vector = np.asarray(vector, dtype=np.float64)
            if vector.shape != (width,) or len(metadata) != len(header) - width:
                raise ValueError(f"row {tuple(metadata)}: vector of shape {vector.shape}, "
                                 f"expected ({width},) after {len(header) - width} "
                                 f"metadata cells")
            writer.writerow(metadata)
            fh.write(lines.pop().removesuffix(eol)
                     + values.format(*vector.tolist()) + eol)


def write_features_csv(path, feature_names, rows) -> None:
    """Write fragment rows, (source_id, start_frame, tier, vector) tuples
    whose vector is any float sequence in feature_names order, as CSV."""
    _write_rows(path, [*METADATA_COLUMNS, *feature_names], len(feature_names), rows)


def read_features_csv(path) -> FeatureTable:
    """Read a feature CSV; feature columns are everything non-metadata.

    Every feature cell must parse as a finite float, and every tier must be
    in VALID_TIERS. A well-formed file of unquoted lines, none longer than
    csv.field_size_limit(), is parsed by one np.loadtxt pass. Any other file
    is read again row by row (_read_rows), which decides what float() and
    int() accept and words every error with its file line.
    """
    path = Path(path)
    with _reading(path), open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(_rows_of(path, reader), None)
        if header is None:
            raise ValueError(f"{path}: empty file, expected a header row")
        seen = set()
        for name in header:
            if name in seen:
                raise ValueError(f"{path}: duplicate column {name!r}")
            seen.add(name)
        for column in METADATA_COLUMNS:
            if column not in header:
                raise ValueError(f"{path}: missing required column {column!r}")
        try:
            return _parse_lines(path, header, fh)
        except (ValueError, OverflowError):
            pass
        fh.seek(0)
        reader = csv.reader(fh)  # a new reader counts lines from the top
        next(reader)
        return _read_rows(path, header, reader)


def _parse_lines(path, header, lines) -> FeatureTable:
    """Parse the data lines in one np.loadtxt pass.

    Raises ValueError or OverflowError, without a location, wherever the row
    loop might read the file otherwise: a line that holds a '"' or is longer
    than csv.field_size_limit(), a cell loadtxt cannot parse (float() also
    takes "1_000"), a bad row length, start_frame or tier, or a non-finite
    value. Every line it takes is one row of short, unquoted cells.
    """
    lines = map(_plain_line, lines)
    # loadtxt warns on input without rows; blank lines are skipped either way.
    first = next((line for line in lines if line.strip("\r\n")), None)
    if first is None:
        return _read_rows(path, header, ())
    # Fields are named by column index; the metadata cells stay str objects.
    dtype = np.dtype([(str(j), object if name in METADATA_COLUMNS else np.float64)
                      for j, name in enumerate(header)])
    records = np.loadtxt(itertools.chain([first], lines), dtype=dtype, delimiter=",",
                         comments=None, ndmin=1)
    meta = {c: records[str(header.index(c))].tolist() for c in METADATA_COLUMNS}
    feature_cols = [j for j, name in enumerate(header) if name not in METADATA_COLUMNS]
    values = np.empty((len(records), len(feature_cols)))
    for k, j in enumerate(feature_cols):
        values[:, k] = records[str(j)]
    tiers = np.asarray([int(t) for t in meta["tier"]], dtype=np.int64)
    start_frames = np.asarray([int(s) for s in meta["start_frame"]], dtype=np.int64)
    if not (np.isin(tiers, VALID_TIERS).all() and np.isfinite(values).all()):
        raise ValueError("a tier or a value is out of range")
    return FeatureTable(names=tuple(header[j] for j in feature_cols), values=values,
                        tiers=tiers, source_ids=tuple(meta["source_id"]),
                        start_frames=start_frames)


def _plain_line(line: str) -> str:
    """The line, if it holds no '"' and is no longer than
    csv.field_size_limit(); otherwise ValueError."""
    if '"' in line or len(line) > csv.field_size_limit():
        raise ValueError("a quoted or over-long line")
    return line


def _read_rows(path, header, reader) -> FeatureTable:
    """Read the rows after the header one by one, checking cell counts,
    parsing and tiers row by row, and finiteness once after every row has
    parsed; every error names the file line on which its row ends."""
    meta_index = {c: header.index(c) for c in METADATA_COLUMNS}
    feature_cols = [
        (j, name) for j, name in enumerate(header) if name not in METADATA_COLUMNS
    ]

    source_ids: list[str] = []
    start_frames: list[int] = []
    tiers: list[int] = []
    values: list[list[float]] = []
    linenos: list[int] = []  # file line of each row; blank lines are skipped
    for row in _rows_of(path, reader):
        lineno = reader.line_num
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(
                f"{path}:{lineno}: {len(row)} cells, expected {len(header)}"
            )
        try:
            source_ids.append(row[meta_index["source_id"]])
            start_frames.append(int(row[meta_index["start_frame"]]))
            tiers.append(int(row[meta_index["tier"]]))
            values.append([float(row[j]) for j, _ in feature_cols])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        _validate_tier(tiers[-1], f"{path}:{lineno}")
        linenos.append(lineno)

    matrix = np.asarray(values, dtype=np.float64) if values \
        else np.empty((0, len(feature_cols)))
    finite = np.isfinite(matrix)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]  # the first bad cell in file order
        raise ValueError(f"{path}:{linenos[i]}: non-finite value {matrix[i, j]} "
                         f"in column {feature_cols[j][1]!r}")
    return FeatureTable(
        names=tuple(name for _, name in feature_cols),
        values=matrix,
        tiers=np.asarray(tiers, dtype=np.int64),
        source_ids=tuple(source_ids),
        start_frames=np.asarray(start_frames, dtype=np.int64),
    )


def _rows_of(path, reader):
    """Iterate over a csv.reader, raising its csv.Error (such as a field
    over csv.field_size_limit()) as a ValueError naming the file line where
    the reader stopped."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None


def write_predictions_csv(path, table: FeatureTable, probs) -> None:
    """Write each table row's metadata, most probable class (exact ties go to
    the lower id) and class probabilities; probs is (len(table), C)."""
    if probs.shape[0] != len(table):
        raise ValueError(f"{probs.shape[0]} probability rows for a table "
                         f"of {len(table)} rows")
    _write_rows(path, [*METADATA_COLUMNS, "predicted_class",
                       *(f"prob_{c}" for c in range(probs.shape[1]))], probs.shape[1],
                zip(table.source_ids, table.start_frames, table.tiers,
                    np.argmax(probs, axis=1), probs))


def write_ranking_csv(path, ranking) -> None:
    """Write a (rank, feature, H) table, rank starting at 1."""
    _write_rows(path, ["rank", "feature", "H"], 1,
                ((rank, name, (h,)) for rank, (name, h) in enumerate(ranking, start=1)))
