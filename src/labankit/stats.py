"""Feature standardization and Kruskal-Wallis discriminativeness ranking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Floor keeps constant columns from dividing by zero; they standardize to 0.
STD_FLOOR = 1e-8

# A ranking is a list of (feature name, H) pairs sorted by descending H,
# ties broken by ascending name.
FeatureRanking = list[tuple[str, float]]

# kruskal_wallis ranks its columns in blocks of about this many values, so
# the ranking's temporaries (ten or so arrays of a block's size) stay near
# 20 MB at any row count.
_RANK_BLOCK_VALUES = 1 << 18


@dataclass(frozen=True)
class Standardizer:
    """Per-column mean/std transform fitted on training rows only."""

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "means", np.asarray(self.means, dtype=np.float64))
        object.__setattr__(self, "stds", np.asarray(self.stds, dtype=np.float64))
        if self.means.shape != self.stds.shape or self.means.ndim != 1:
            raise ValueError("means and stds must be 1-D arrays of equal length")
        if not (np.isfinite(self.means).all() and np.isfinite(self.stds).all()):
            raise ValueError("means and stds must be finite")
        if (self.stds <= 0).any():
            raise ValueError("stds must be positive (floored at fit time)")

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=np.float64) - self.means) / self.stds


def fit_standardizer(X: np.ndarray) -> Standardizer:
    """Fit per-column mean and population std, with std floored at STD_FLOOR."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {X.shape}")
    if X.shape[0] < 2:
        raise ValueError(f"need at least 2 rows to fit a standardizer, got {X.shape[0]}")
    return Standardizer(
        means=X.mean(axis=0),
        stds=np.maximum(X.std(axis=0), STD_FLOOR),
    )


def _column_ranks(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Average ranks along each row of a finite (F, N) matrix, and each
    row's tie sum, sum_t (t^3 - t) over its tie runs of t equal values.

    One argsort orders every row; a tie run of t values at sorted positions
    start..end (0-based) ranks (start + end) / 2 + 1 = start + (t + 1) / 2.
    Ranks are exact half-integers, so every sum of them below 2^53 is exact
    in any order.
    """
    f, n = columns.shape
    order = np.argsort(columns, axis=1)
    ordered = np.take_along_axis(columns, order, axis=1)
    first = np.ones((f, n), dtype=bool)  # each tie run's first sorted position
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=first[:, 1:])
    starts = np.flatnonzero(first)
    lengths = np.diff(starts, append=f * n)
    rows, positions = np.divmod(starts, n)
    run_ranks = positions + (lengths + 1) / 2.0
    ranks = np.empty((f, n))
    np.put_along_axis(ranks, order, np.repeat(run_ranks, lengths).reshape(f, n), axis=1)
    lengths = lengths.astype(np.float64)
    ties = np.bincount(rows, weights=lengths ** 3 - lengths, minlength=f)
    return ranks, ties


def kruskal_wallis(values: np.ndarray, labels: np.ndarray) -> float | np.ndarray:
    """Kruskal-Wallis H with average ranks and the standard tie correction.

    H = [12 / (N (N+1)) * sum_g R_g^2 / n_g - 3 (N+1)]
        / (1 - sum_t (t^3 - t) / (N^3 - N))

    where R_g sums the ranks of group g and t runs over tie-group sizes.
    If every value is identical the correction denominator vanishes and
    H is defined as 0 (no discrimination).

    values is one (N,) column, giving H as a float, or an (N, F) matrix,
    giving the (F,) H of every column from one shared pass.
    """
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    if values.ndim not in (1, 2) or labels.ndim != 1 or values.shape[0] != labels.size:
        raise ValueError("values and labels must be 1-D arrays of equal length")
    if labels.size == 0:
        raise ValueError("empty input")
    if not np.isfinite(values).all():
        raise ValueError("non-finite value in input")
    classes, groups, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    if classes.size < 2:
        raise ValueError(f"need at least 2 classes, got {classes.size}")

    n = labels.size
    columns = np.atleast_2d(values.T)
    one_hot = np.eye(classes.size)[groups]
    rank_sums = np.empty((columns.shape[0], classes.size))  # exact, see _column_ranks
    ties = np.empty(columns.shape[0])
    step = max(1, _RANK_BLOCK_VALUES // n)
    for j in range(0, columns.shape[0], step):
        ranks, ties[j:j + step] = _column_ranks(np.ascontiguousarray(columns[j:j + step]))
        rank_sums[j:j + step] = ranks @ one_hot
    # float_power squares through pow(), as a scalar's R_g ** 2 does. An
    # array's ** 2 multiplies, and rounds some squares past 2^51 otherwise.
    rank_stat = 0.0
    for g in range(classes.size):
        rank_stat = rank_stat + np.float_power(rank_sums[:, g], 2) / sizes[g]
    h_raw = 12.0 / (n * (n + 1)) * rank_stat - 3.0 * (n + 1)
    correction = 1.0 - ties / (n ** 3 - n)
    h = np.zeros(ties.shape)
    varied = correction > 0.0
    h[varied] = np.maximum(h_raw[varied] / correction[varied], 0.0)
    return h if values.ndim == 2 else float(h[0])


def rank_features(X: np.ndarray, labels: np.ndarray, names) -> FeatureRanking:
    """Per-column Kruskal-Wallis H on raw values, sorted descending.

    Rank statistics are invariant to monotone rescaling, so the columns
    are used unstandardized.
    """
    X = np.asarray(X, dtype=np.float64)
    names = list(names)
    if X.ndim != 2 or X.shape[1] != len(names):
        raise ValueError(
            f"matrix shape {X.shape} does not match {len(names)} feature names"
        )
    finite = np.isfinite(X).all(axis=0)
    if not finite.all():
        raise ValueError(f"feature {names[np.argmin(finite)]!r} has a non-finite value")
    scored = list(zip(names, kruskal_wallis(X, labels).tolist()))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored
