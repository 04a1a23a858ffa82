import json

import numpy as np
import pytest

from labankit import (
    TASKS,
    TaskSpec,
    TrainConfig,
    confusion_matrix,
    cross_validate,
    get_task,
    macro_f1,
    remap_task,
    render_confusion,
    stratified_kfold,
)


def separable_blobs(rng, per_class=40, c=4, d=6, spread=6.0):
    centers = rng.normal(scale=spread, size=(c, d))
    X = np.concatenate([centers[k] + rng.normal(size=(per_class, d))
                        for k in range(c)])
    tiers = np.repeat(np.arange(c), per_class)
    return X, tiers


# ---------------------------------------------------------------------------
# task remapping
# ---------------------------------------------------------------------------

def test_remap_binary():
    labels, mask = remap_task([0, 1, 2, 3], TASKS["binary"])
    assert mask.all()
    assert labels.tolist() == [0, 0, 1, 1]


def test_remap_three_way_drops_tier_one():
    labels, mask = remap_task([0, 1, 2, 3], TASKS["three_way"])
    assert mask.tolist() == [True, False, True, True]
    assert labels.tolist() == [0, 1, 2]


def test_remap_four_way_identity():
    labels, mask = remap_task([0, 1, 2, 3], TASKS["four_way"])
    assert mask.all()
    assert labels.tolist() == [0, 1, 2, 3]


def test_remap_rejects_unknown_tier():
    with pytest.raises(ValueError, match="unknown tier"):
        remap_task([0, 5], TASKS["binary"])
    with pytest.raises(ValueError, match="unknown tier value 1.5"):
        remap_task([0, 1.5, 2.9, 3], TASKS["four_way"])
    labels, _ = remap_task(np.array([0.0, 2.0, 3.0]), TASKS["four_way"])
    assert labels.tolist() == [0, 2, 3]
    with pytest.raises(ValueError, match="unknown task"):
        get_task("five_way")


def test_task_spec_requires_contiguous_classes():
    with pytest.raises(ValueError, match="contiguous"):
        TaskSpec("broken", {0: 0, 1: 2, 2: 2, 3: 2})
    with pytest.raises(ValueError, match=r"cover exactly the tiers \(0, 1, 2, 3\), got \[0, 1\]"):
        TaskSpec("pair", {0: 0, 1: 1})


# ---------------------------------------------------------------------------
# stratified k-fold
# ---------------------------------------------------------------------------

def test_kfold_even_split():
    labels = np.repeat([0, 1, 2, 3], 100)
    folds = stratified_kfold(labels, k=5, seed=0)
    for c in range(4):
        counts = np.bincount(folds[labels == c], minlength=5)
        assert counts.tolist() == [20] * 5


def test_kfold_remainder_split():
    labels = np.concatenate([np.zeros(101, int), np.ones(100, int)])
    folds = stratified_kfold(labels, k=5, seed=3)
    counts = sorted(np.bincount(folds[labels == 0], minlength=5), reverse=True)
    assert counts == [21, 20, 20, 20, 20]


def test_kfold_determinism_and_seed_sensitivity():
    labels = np.repeat([0, 1], 50)
    a = stratified_kfold(labels, 5, seed=11)
    b = stratified_kfold(labels, 5, seed=11)
    c = stratified_kfold(labels, 5, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_kfold_partition_property():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 3, size=200)
    folds = stratified_kfold(labels, 4, seed=5)
    assert folds.shape == (200,)
    assert set(np.unique(folds)) == {0, 1, 2, 3}


def test_kfold_rejects_small_class():
    labels = np.array([0] * 20 + [1] * 3)
    with pytest.raises(ValueError, match="class 1 has 3 rows"):
        stratified_kfold(labels, k=5, seed=0)


# ---------------------------------------------------------------------------
# confusion matrix and macro F1
# ---------------------------------------------------------------------------

def test_confusion_perfect_predictions():
    y = np.array([0, 1, 2, 3, 0, 1])
    m = confusion_matrix(y, y, 4)
    assert np.array_equal(m, np.diag([2, 2, 1, 1]))


def test_confusion_single_predicted_column():
    y_true = np.array([0, 1, 2, 2])
    m = confusion_matrix(y_true, np.zeros(4, int), 3)
    assert m[:, 0].tolist() == [1, 1, 2]
    assert m[:, 1:].sum() == 0


def test_confusion_matches_hand_tally():
    y_true = [0, 0, 0, 1, 1, 1, 2, 2, 2, 2, 0, 1]
    y_pred = [0, 1, 0, 1, 1, 2, 2, 2, 0, 2, 0, 0]
    # hand tally: row 0: pred (0,0,1,0)->3x0? count: true0 rows: p=0,1,0,0 ->
    # three 0s and one 1; true1: 1,1,2,0; true2: 2,2,0,2
    expected = np.array([
        [3, 1, 0],
        [1, 2, 1],
        [1, 0, 3],
    ])
    assert np.array_equal(confusion_matrix(y_true, y_pred, 3), expected)


def test_confusion_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        confusion_matrix([0, 4], [0, 1], 4)


def test_macro_f1_perfect_and_degenerate():
    assert macro_f1(np.diag([5, 3, 2])) == 1.0
    # class 2 never predicted and never correct -> its term is 0
    m = np.array([[4, 0, 0], [0, 4, 0], [2, 2, 0]])
    per_class = [2 * (4 / 6) * 1.0 / ((4 / 6) + 1.0),
                 2 * (4 / 6) * 1.0 / ((4 / 6) + 1.0),
                 0.0]
    assert macro_f1(m) == pytest.approx(np.mean(per_class), abs=1e-12)


def test_macro_f1_matches_hand_computation():
    m = np.array([[5, 1], [2, 4]])
    # class 0: P = 5/7, R = 5/6, F1 = 10/13; class 1: P = 4/5, R = 4/6, F1 = 8/11
    expected = (10 / 13 + 8 / 11) / 2
    assert macro_f1(m) == pytest.approx(expected, abs=1e-12)


def test_macro_f1_equals_the_per_class_formula_bit_for_bit():
    def per_class_f1(m):
        m = m.astype(float)
        scores = []
        for c in range(m.shape[0]):
            p = m[c, c] / m[:, c].sum() if m[:, c].sum() > 0 else 0.0
            r = m[c, c] / m[c].sum() if m[c].sum() > 0 else 0.0
            scores.append(2 * p * r / (p + r) if p + r > 0 else 0.0)
        return float(np.mean(scores))

    rng = np.random.default_rng(15)
    for _ in range(50):
        m = rng.integers(0, 4, size=(4, 4)) * (rng.random((4, 4)) < 0.6)
        assert macro_f1(m) == per_class_f1(m)


# ---------------------------------------------------------------------------
# cross_validate
# ---------------------------------------------------------------------------

def test_cross_validate_separable_data():
    rng = np.random.default_rng(1)
    X, tiers = separable_blobs(rng)
    report = cross_validate(X, tiers, TASKS["four_way"], k=5, seed=0)
    assert report.accuracy >= 0.90
    assert report.n_rows == 160
    assert report.confusion.sum() == 160
    assert report.accuracy == pytest.approx(
        np.trace(report.confusion) / report.n_rows, abs=1e-12)


def test_cross_validate_permuted_labels_hit_chance():
    rng = np.random.default_rng(2)
    X, tiers = separable_blobs(rng, per_class=100)
    shuffled = rng.permutation(tiers)
    report = cross_validate(X, shuffled, TASKS["four_way"], k=5, seed=0)
    assert abs(report.accuracy - 0.25) <= 0.05


def test_cross_validate_is_deterministic():
    rng = np.random.default_rng(3)
    X, tiers = separable_blobs(rng, per_class=15)
    a = cross_validate(X, tiers, TASKS["binary"], k=3, seed=7)
    b = cross_validate(X, tiers, TASKS["binary"], k=3, seed=7)
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())


def test_report_dict_key_order_is_pinned():
    # The evaluate report JSON is written from to_dict in this key order.
    rng = np.random.default_rng(3)
    X, tiers = separable_blobs(rng, per_class=15)
    payload = cross_validate(X, tiers, TASKS["binary"], k=3, seed=7).to_dict()
    assert list(payload) == [
        "task", "k", "seed", "n_rows", "class_count", "accuracy",
        "mean_fold_accuracy", "macro_f1", "fold_accuracies", "per_class_recall",
        "confusion", "confusion_row_normalized", "predictions", "labels", "folds",
    ]
    assert isinstance(payload["confusion"], list)
    assert isinstance(payload["predictions"][0], int)


def test_cross_validate_three_way_row_count():
    rng = np.random.default_rng(4)
    X, tiers = separable_blobs(rng, per_class=20)
    report = cross_validate(X, tiers, TASKS["three_way"], k=4, seed=0)
    assert report.n_rows == 80 - 20
    assert report.class_count == 3
    assert report.confusion.shape == (3, 3)


def test_cross_validate_no_leakage_from_test_rows():
    # Blowing up one test-fold row must not change any other row's
    # out-of-fold prediction: only the fold that holds it out predicts with
    # a model that never saw it, and the other folds' models see the raw
    # value only through their own training rows.
    rng = np.random.default_rng(5)
    X, tiers = separable_blobs(rng, per_class=25)
    task = TASKS["four_way"]
    base = cross_validate(X, tiers, task, k=5, seed=9)
    victim_fold = base.folds[0]
    X2 = X.copy()
    X2[0] = 1e9  # absurd outlier in row 0's feature vector
    poked = cross_validate(X2, tiers, task, k=5, seed=9)
    same_fold_other_rows = (base.folds == victim_fold)
    same_fold_other_rows[0] = False
    assert np.array_equal(base.predictions[same_fold_other_rows],
                          poked.predictions[same_fold_other_rows])


def test_cross_validate_rejects_small_class():
    rng = np.random.default_rng(6)
    X, tiers = separable_blobs(rng, per_class=3)
    with pytest.raises(ValueError, match="fewer than k"):
        cross_validate(X, tiers, TASKS["four_way"], k=5, seed=0)


def test_report_shapes_and_rendering():
    rng = np.random.default_rng(7)
    X, tiers = separable_blobs(rng, per_class=12)
    report = cross_validate(X, tiers, TASKS["binary"], k=3, seed=0,
                            config=TrainConfig(max_iters=50))
    assert report.confusion.shape == (2, 2)
    assert len(report.fold_accuracies) == 3
    row_sums = report.confusion_row_normalized.sum(axis=1)
    assert np.allclose(row_sums[report.confusion.sum(axis=1) > 0], 1.0)
    text = render_confusion(report)
    assert "rows = true" in text
    assert "binary" in text
    payload = report.to_dict()
    assert set(payload) >= {"task", "accuracy", "macro_f1", "confusion",
                            "fold_accuracies", "per_class_recall"}
