"""Feature standardization and Kruskal-Wallis discriminativeness ranking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Floor keeps constant columns from dividing by zero; they standardize to 0.
STD_FLOOR = 1e-8

# A ranking is a list of (feature name, H) pairs sorted by descending H,
# ties broken by ascending name.
FeatureRanking = list[tuple[str, float]]


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


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of finite values, with ties assigned the average of
    their positions."""
    values = np.asarray(values)
    if not np.isfinite(values).all():  # np.unique would merge NaNs into one tie
        raise ValueError("non-finite value in input")
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def kruskal_wallis(values: np.ndarray, labels: np.ndarray) -> float:
    """Kruskal-Wallis H with average ranks and the standard tie correction.

    H = [12 / (N (N+1)) * sum_g R_g^2 / n_g - 3 (N+1)]
        / (1 - sum_t (t^3 - t) / (N^3 - N))

    where R_g sums the ranks of group g and t runs over tie-group sizes.
    If every value is identical the correction denominator vanishes and
    H is defined as 0 (no discrimination).
    """
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    if values.ndim != 1 or values.shape != labels.shape:
        raise ValueError("values and labels must be 1-D arrays of equal length")
    if values.size == 0:
        raise ValueError("empty input")
    if not np.isfinite(values).all():
        raise ValueError("non-finite value in input")
    classes = np.unique(labels)
    if classes.size < 2:
        raise ValueError(f"need at least 2 classes, got {classes.size}")

    n = values.size
    ranks = average_ranks(values)
    rank_stat = 0.0
    for c in classes:
        members = labels == c
        rank_stat += ranks[members].sum() ** 2 / members.sum()
    h_raw = 12.0 / (n * (n + 1)) * rank_stat - 3.0 * (n + 1)

    _, tie_counts = np.unique(values, return_counts=True)
    tie_counts = tie_counts.astype(np.float64)
    correction = 1.0 - (tie_counts ** 3 - tie_counts).sum() / (n ** 3 - n)
    if correction <= 0.0:
        return 0.0
    return max(h_raw / correction, 0.0)


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
    scored = [
        (names[j], kruskal_wallis(X[:, j], labels))
        for j in range(X.shape[1])
    ]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored
