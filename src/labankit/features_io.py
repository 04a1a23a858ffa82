"""Feature-table CSV reading and writing.

A feature CSV has metadata columns (source_id, start_frame, tier) followed
by the 110 canonical feature columns. Readers align columns by name, never
by position, so reordered files are equivalent.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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


def write_features_csv(path, feature_names, rows) -> None:
    """Write fragment rows as CSV.

    rows yields (source_id, start_frame, tier, vector) tuples; the vector
    order must match feature_names.
    """
    feature_names = list(feature_names)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*METADATA_COLUMNS, *feature_names])
        for source_id, start_frame, tier, vector in rows:
            writer.writerow([
                source_id, start_frame, tier,
                *(_VALUE_FORMAT.format(v) for v in vector),
            ])


def read_features_csv(path) -> FeatureTable:
    """Read a feature CSV; feature columns are everything non-metadata.

    Every feature cell must parse as a finite float.
    """
    path = Path(path)
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        for j, name in enumerate(header):
            if name in header[:j]:
                raise ValueError(f"{path}: duplicate column {name!r}")
        for column in METADATA_COLUMNS:
            if column not in header:
                raise ValueError(f"{path}: missing required column {column!r}")
        meta_index = {c: header.index(c) for c in METADATA_COLUMNS}
        feature_cols = [
            (j, name) for j, name in enumerate(header) if name not in METADATA_COLUMNS
        ]

        source_ids: list[str] = []
        start_frames: list[int] = []
        tiers: list[int] = []
        values: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
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
            finite = np.isfinite(values[-1])
            if not finite.all():
                j = np.argmin(finite)
                raise ValueError(f"{path}:{lineno}: non-finite value {values[-1][j]} "
                                 f"in column {feature_cols[j][1]!r}")

    matrix = np.asarray(values, dtype=np.float64) if values \
        else np.empty((0, len(feature_cols)))
    return FeatureTable(
        names=tuple(name for _, name in feature_cols),
        values=matrix,
        tiers=np.asarray(tiers, dtype=np.int64),
        source_ids=tuple(source_ids),
        start_frames=np.asarray(start_frames, dtype=np.int64),
    )


def write_predictions_csv(path, table: FeatureTable, probs) -> None:
    """Write each table row's metadata, most probable class (exact ties go to
    the lower id) and class probabilities; probs is (len(table), C)."""
    classes = np.argmax(probs, axis=1)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*METADATA_COLUMNS, "predicted_class",
                         *(f"prob_{c}" for c in range(probs.shape[1]))])
        for i, row in enumerate(probs):
            writer.writerow([
                table.source_ids[i], table.start_frames[i], table.tiers[i],
                int(classes[i]), *(_VALUE_FORMAT.format(p) for p in row),
            ])


def write_ranking_csv(path, ranking) -> None:
    """Write a (rank, feature, H) table, rank starting at 1."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "feature", "H"])
        for rank, (name, h) in enumerate(ranking, start=1):
            writer.writerow([rank, name, _VALUE_FORMAT.format(h)])
