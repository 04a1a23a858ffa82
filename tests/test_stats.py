import re

import numpy as np
import pytest
import scipy.stats

import oracles
from labankit import stats
from labankit import (
    FEATURE_NAMES_110,
    Standardizer,
    kruskal_wallis,
    rank_features,
)
from labankit.stats import fit_standardizer


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

def brute_force_ranks(values):
    """Average ranks by direct counting, one value at a time."""
    values = list(values)
    ranks = []
    for v in values:
        below = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        # positions below+1 .. below+equal share the average rank
        ranks.append(below + (equal + 1) / 2.0)
    return ranks


def brute_force_h(values, labels):
    """Kruskal-Wallis H from first principles."""
    n = len(values)
    ranks = brute_force_ranks(values)
    groups = {}
    for r, g in zip(ranks, labels):
        groups.setdefault(g, []).append(r)
    h = 12.0 / (n * (n + 1)) * sum(
        sum(rs) ** 2 / len(rs) for rs in groups.values()
    ) - 3.0 * (n + 1)
    tie_sizes = {}
    for v in values:
        tie_sizes[v] = tie_sizes.get(v, 0) + 1
    correction = 1.0 - sum(t ** 3 - t for t in tie_sizes.values()) / (n ** 3 - n)
    if correction <= 0:
        return 0.0
    return h / correction


# ---------------------------------------------------------------------------
# standardizer
# ---------------------------------------------------------------------------

def test_standardizer_two_point_arithmetic():
    std = fit_standardizer(np.array([[0.0], [2.0]]))
    assert std.means[0] == 1.0
    assert std.stds[0] == 1.0


def test_standardizer_constant_column_floors_and_maps_to_zero():
    std = fit_standardizer(np.full((10, 3), 4.25))
    assert np.all(std.stds == 1e-8)
    assert np.all(std.transform(np.full((5, 3), 4.25)) == 0.0)
    # Non-representable constants standardize to float dust, not exact zero,
    # but stay far below one floored standard deviation.
    std2 = fit_standardizer(np.full((10, 1), 4.2))
    assert np.abs(std2.transform(np.full((2, 1), 4.2))).max() < 1e-6


def test_standardizer_transformed_statistics():
    rng = np.random.default_rng(0)
    X = rng.normal(loc=5.0, scale=3.0, size=(500, 8))
    Z = fit_standardizer(X).transform(X)
    assert np.abs(Z.mean(axis=0)).max() <= 1e-9
    assert np.abs(Z.std(axis=0) - 1.0).max() <= 1e-9


def test_standardizer_inverse_is_identity():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(50, 4)) * 10.0
    std = fit_standardizer(X)
    assert np.allclose(std.transform(X) * std.stds + std.means, X, atol=1e-9)


def test_standardizer_needs_two_rows():
    with pytest.raises(ValueError, match="at least 2 rows"):
        fit_standardizer(np.ones((1, 3)))
    with pytest.raises(ValueError):
        Standardizer(means=np.zeros(3), stds=np.zeros(3))


@pytest.mark.parametrize("means, stds", [
    ([0.0, np.nan], [1.0, 1.0]),
    ([0.0, np.inf], [1.0, 1.0]),
    ([0.0, 0.0], [1.0, np.nan]),
    ([0.0, 0.0], [1.0, np.inf]),
])
def test_standardizer_rejects_non_finite_means_and_stds(means, stds):
    with pytest.raises(ValueError, match="finite"):
        Standardizer(means=np.array(means), stds=np.array(stds))


# ---------------------------------------------------------------------------
# kruskal_wallis
# ---------------------------------------------------------------------------

def kw_column(values, labels):
    """kruskal_wallis of one column."""
    return kruskal_wallis(np.asarray(values, dtype=np.float64)[:, None], labels)[0]


def test_kw_three_ordered_groups():
    # Hand computation: ranks 1..9, R = (6, 15, 24), N = 9:
    # H = 12/90 * (36/3 + 225/3 + 576/3) - 30 = 7.2, no ties.
    values = np.array([1, 2, 3, 4, 5, 6, 7, 8, 9], dtype=float)
    labels = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
    assert kw_column(values, labels) == pytest.approx(7.2, abs=1e-9)


def test_kw_all_equal_is_zero():
    values = np.full(12, 3.5)
    labels = np.repeat([0, 1, 2], 4)
    assert kw_column(values, labels) == 0.0


def test_kw_two_groups_matches_brute_force_oracle():
    values = np.array([1.0, 2.0, 3.0, 4.0])
    labels = np.array([0, 0, 1, 1])
    expected = brute_force_h(values.tolist(), labels.tolist())
    assert expected == pytest.approx(2.4, abs=1e-12)
    assert kw_column(values, labels) == pytest.approx(expected, abs=1e-9)


def test_kw_random_instances_match_oracles():
    rng = np.random.default_rng(6)
    for trial in range(20):
        n = rng.integers(6, 40)
        k = rng.integers(2, 5)
        # integer-valued data forces ties
        values = rng.integers(0, 8, size=n).astype(float)
        labels = rng.integers(0, k, size=n)
        while np.unique(labels).size < 2:
            labels = rng.integers(0, k, size=n)
        ours = kw_column(values, labels)
        brute = brute_force_h(values.tolist(), labels.tolist())
        assert ours == pytest.approx(brute, abs=1e-9), f"trial {trial}"
        if np.unique(values).size > 1:
            groups = [values[labels == c] for c in np.unique(labels)]
            ref = scipy.stats.kruskal(*groups).statistic
            assert ours == pytest.approx(ref, abs=1e-9), f"trial {trial}"


def test_kw_monotone_transform_invariance():
    # Transforms chosen to be exactly order-preserving on small integers,
    # so rank structure (including ties) is untouched.
    rng = np.random.default_rng(42)
    transforms = [
        lambda x: x + 100.0,
        lambda x: x * 8.0,
        lambda x: x ** 3,
        lambda x: 2.0 * x - 7.0,
    ]
    for trial in range(100):
        values = rng.integers(-20, 20, size=30).astype(float)
        labels = rng.integers(0, 3, size=30)
        while np.unique(labels).size < 2:
            labels = rng.integers(0, 3, size=30)
        base = kw_column(values, labels)
        transform = transforms[trial % len(transforms)]
        assert kw_column(transform(values), labels) == \
            pytest.approx(base, abs=1e-9), f"trial {trial}"


def test_kw_relabeling_invariance():
    rng = np.random.default_rng(9)
    values = rng.normal(size=40)
    labels = rng.integers(0, 4, size=40)
    base = kw_column(values, labels)
    permuted = np.array([3, 0, 1, 2])[labels]
    assert kw_column(values, permuted) == pytest.approx(base, abs=1e-12)


def test_kw_errors():
    with pytest.raises(ValueError, match="classes"):
        kw_column(np.arange(5.0), np.zeros(5, dtype=int))
    with pytest.raises(ValueError, match="empty"):
        kw_column(np.array([]), np.array([]))
    with pytest.raises(ValueError, match="non-finite"):
        kw_column(np.array([1.0, np.nan, 3.0, 4.0]), np.array([0, 0, 1, 1]))
    # One column is an (N, 1) matrix: a 1-D column is refused like any other shape.
    for shape, labels in [((4,), [0, 0, 1, 1]), ((4, 2), [[0, 0, 1, 1]]),
                          ((3, 2), [0, 0, 1, 1])]:
        labels = np.array(labels)
        with pytest.raises(ValueError, match=re.escape(
                f"expected an (N, F) matrix and N labels, got shapes "
                f"{shape} and {labels.shape}")):
            kruskal_wallis(np.zeros(shape), labels)


def tie_heavy_matrix(rng, n, f):
    """f columns of n rows: integer values from a range of 1 to 8 (1 gives
    an all-equal column), normal draws, or half of each."""
    columns = []
    for j in range(f):
        kind = j % 3
        if kind == 0:
            column = rng.integers(0, int(rng.integers(1, 9)), size=n).astype(float)
        elif kind == 1:
            column = rng.normal(size=n)
        else:
            column = np.where(rng.random(n) < 0.5, rng.normal(size=n), 3.0)
        columns.append(column)
    return np.stack(columns, axis=1)


@pytest.mark.parametrize("block_values", [None, 500], ids=["one-block", "blocks"])
def test_kw_of_every_column_at_once_equals_the_one_column_oracle_bit_for_bit(
        block_values, monkeypatch):
    if block_values is not None:
        monkeypatch.setattr(stats, "_RANK_BLOCK_VALUES", block_values)
    rng = np.random.default_rng(21)
    for trial in range(300):
        n = int(rng.integers(2, 301))
        k = int(rng.integers(2, 5))
        X = tie_heavy_matrix(rng, n, int(rng.integers(1, 7)))
        labels = rng.integers(0, k, size=n)
        labels[:2] = [0, 1]
        expected = np.array([oracles.kruskal_wallis(X[:, j], labels)
                             for j in range(X.shape[1])])
        assert np.array_equal(kruskal_wallis(X, labels), expected), f"trial {trial}"
        ranks, _ = stats._column_ranks(np.ascontiguousarray(X.T))
        assert np.array_equal(ranks, [oracles.average_ranks(column) for column in X.T])


def test_kw_of_an_all_equal_column_is_zero_among_others():
    labels = np.repeat([0, 1, 2], 4)
    X = np.stack([np.full(12, 3.5), np.arange(12.0), np.full(12, -1.0)], axis=1)
    h = kruskal_wallis(X, labels)
    assert h[0] == 0.0 and h[2] == 0.0 and h[1] > 0.0
    assert h[1] == oracles.kruskal_wallis(X[:, 1], labels)


def test_kw_equals_the_oracle_where_class_rank_sums_square_past_2_to_51():
    # At 20,400 rows a class rank sum is a half-integer near 5e7, whose
    # square (past 2^51) is not a float: both sides must round it alike.
    rng = np.random.default_rng(22)
    n = 20_400
    X = np.round(rng.normal(size=(n, 13)), 1)
    labels = rng.integers(0, 4, size=n)
    expected = [oracles.kruskal_wallis(X[:, j], labels) for j in range(13)]
    assert kruskal_wallis(X, labels).tolist() == expected


def test_rank_features_rejects_non_finite_column():
    labels = np.repeat([0, 1], 10)
    X = np.tile(labels[:, None] * 1.0, (1, 3))
    X[4, 1] = np.nan
    with pytest.raises(ValueError, match="'b'"):
        rank_features(X, labels, ["a", "b", "c"])


def column_ranks(values):
    """stats._column_ranks of one column."""
    ranks, _ = stats._column_ranks(np.asarray(values, dtype=np.float64).reshape(1, -1))
    return ranks[0]


def test_average_ranks_matches_brute_force():
    rng = np.random.default_rng(13)
    for _ in range(20):
        values = rng.integers(0, 6, size=25).astype(float)
        assert np.allclose(column_ranks(values), brute_force_ranks(values.tolist()))


def test_average_ranks_are_exact_half_integers():
    values = np.array([3.0, 1.0, 3.0, 2.0, 3.0, 1.0, -0.5])
    assert column_ranks(values).tolist() == [6.0, 2.5, 6.0, 4.0, 6.0, 2.5, 1.0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_average_ranks_rejects_non_finite_values(bad):
    # _column_ranks takes finite values only (NaN != NaN would split a tie
    # run), so kruskal_wallis, which ranks through it, refuses the rest.
    labels = np.array([0, 1, 0, 1])
    with pytest.raises(ValueError, match="non-finite"):
        kruskal_wallis(np.array([[1.0, 0.0], [bad, 1.0], [2.0, 2.0], [bad, 3.0]]), labels)


# ---------------------------------------------------------------------------
# rank_features
# ---------------------------------------------------------------------------

def test_rank_features_orders_by_signal():
    rng = np.random.default_rng(2)
    n = 90
    labels = np.repeat([0, 1, 2], n // 3)
    X = np.zeros((n, 4))
    X[:, 0] = 1.0                      # constant: H = 0, ranked last
    X[:, 1] = labels * 10.0 + rng.normal(scale=0.01, size=n)  # strong signal
    X[:, 2] = rng.normal(size=n)       # noise
    X[:, 3] = 2.0                      # constant
    ranking = rank_features(X, labels, ["aconst", "signal", "noise", "bconst"])
    assert ranking[0][0] == "signal"
    assert [name for name, _ in ranking[-2:]] == ["aconst", "bconst"]  # name tiebreak
    assert ranking[-1][1] == 0.0


def test_rank_features_invariant_under_monotone_column_transform():
    rng = np.random.default_rng(3)
    n = 60
    labels = np.repeat([0, 1], n // 2)
    X = rng.integers(-10, 10, size=(n, 5)).astype(float)
    base = rank_features(X, labels, list("abcde"))
    X2 = X.copy()
    X2[:, 2] = X2[:, 2] * 4.0 + 1.0
    transformed = rank_features(X2, labels, list("abcde"))
    assert [name for name, _ in base] == [name for name, _ in transformed]
    assert np.allclose([h for _, h in base], [h for _, h in transformed], atol=1e-9)


def test_rank_features_flow_signal_lands_on_top():
    # Synthetic 3-class data whose injected signal sits in the Effort-Flow
    # column; that feature must rank in the top 3.
    rng = np.random.default_rng(8)
    n = 120
    labels = np.repeat([0, 1, 2], n // 3)
    X = rng.normal(size=(n, 110))
    flow_col = list(FEATURE_NAMES_110).index("effort.flow.mean")
    X[:, flow_col] = labels * 3.0 + rng.normal(scale=0.3, size=n)
    ranking = rank_features(X, labels, FEATURE_NAMES_110)
    top3 = [name for name, _ in ranking[:3]]
    assert "effort.flow.mean" in top3
