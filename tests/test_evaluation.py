import json
import re

import numpy as np
import pytest

import oracles

from labankit import (
    TASKS,
    TaskSpec,
    TrainConfig,
    cross_validate,
    get_task,
    remap_task,
    render_confusion,
)
from labankit.evaluation import confusion_matrix, macro_f1, stratified_kfold


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


@pytest.mark.parametrize("kind", sorted(TASKS))
def test_remap_matches_the_per_row_reference(kind):
    task = TASKS[kind]
    rng = np.random.default_rng(11)
    cases = [rng.integers(0, 4, 500), rng.integers(0, 4, 500).astype(np.float64),
             np.array([], dtype=np.int64), [3, 2, 1, 0]]
    for tiers in cases:
        labels, mask = remap_task(tiers, task)
        want_labels, want_mask = oracles.remap_task(tiers, task)
        assert labels.dtype == want_labels.dtype and mask.dtype == want_mask.dtype
        assert np.array_equal(labels, want_labels) and np.array_equal(mask, want_mask)
    for tiers in ([0, 5, -1, 2], [np.nan, 4.0, 0.0], [2, 1.5, 3.5], [7]):
        with pytest.raises(ValueError) as want:
            oracles.remap_task(tiers, task)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            remap_task(tiers, task)


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


@pytest.mark.parametrize("k", [2.5, 2.0, True])
def test_kfold_refuses_a_fold_count_that_is_not_an_integer(k):
    # 2.5 used to deal each class round-robin mod 2.5, truncated to 3 folds.
    with pytest.raises(ValueError, match=f"k must be an integer, got {k!r}"):
        stratified_kfold(np.zeros(6), k, 0)
    assert np.array_equal(stratified_kfold(np.zeros(6), np.int64(2), 0),
                          stratified_kfold(np.zeros(6), 2, 0))



@pytest.mark.parametrize("seed", [True, np.True_, 2.5, "1"])
def test_kfold_refuses_a_seed_that_is_not_an_integer(seed):
    # True used to run as seed 1 and 2.5 to fail inside numpy.
    with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
        stratified_kfold(np.zeros(6), 2, seed)
    assert np.array_equal(stratified_kfold(np.zeros(6), 2, np.int64(1)),
                          stratified_kfold(np.zeros(6), 2, 1))

def test_kfold_and_cross_validate_refuse_a_negative_seed_naming_it():
    # numpy refused it without naming the seed.
    message = "seed must be >= 0, got -1"
    with pytest.raises(ValueError, match=message):
        stratified_kfold(np.zeros(6), 2, -1)
    X, tiers = separable_blobs(np.random.default_rng(6), per_class=6)
    with pytest.raises(ValueError, match=message):
        cross_validate(X, tiers, TASKS["four_way"], k=2, seed=-1)


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


@pytest.mark.parametrize("class_count", [2.0, True, "2"])
def test_confusion_refuses_a_class_count_that_is_not_an_integer(class_count):
    with pytest.raises(ValueError, match=re.escape(
            f"class_count must be an integer, got {class_count!r}")):
        confusion_matrix([0, 1], [1, 1], class_count)
    assert np.array_equal(confusion_matrix([0, 1], [1, 1], np.int64(2)), [[0, 1], [0, 1]])


@pytest.mark.parametrize("y_true, y_pred, message", [
    ([0.0, 1.0], [0, 1], "true labels must be integers, got dtype float64"),
    ([0, 1], [True, False], "predicted labels must be integers, got dtype bool"),
    ([], [], "true labels must be integers, got dtype float64"),
], ids=["float-true", "bool-predicted", "empty-lists"])
def test_confusion_refuses_labels_that_are_not_integers_naming_them(y_true, y_pred,
                                                                    message):
    # They used to die in numpy's IndexError.
    with pytest.raises(ValueError, match=f"^{message}$"):
        confusion_matrix(y_true, y_pred, 2)


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


def test_every_fold_model_carries_its_tasks_kind_and_class_count(monkeypatch):
    from labankit import evaluation
    real_train = evaluation.train
    models = []

    def recorded(*args, **kwargs):
        fitted = real_train(*args, **kwargs)
        models.extend(fitted)  # one model per fold of the stack
        return fitted

    monkeypatch.setattr(evaluation, "train", recorded)
    rng = np.random.default_rng(8)
    X, tiers = separable_blobs(rng, per_class=12)
    for task in TASKS.values():
        models.clear()
        cross_validate(X, tiers, task, k=3, seed=0)
        assert [(m.task, m.class_count) for m in models] == [
            (task.kind, task.class_count)] * 3, task.kind


def overlapping_blobs(per_class, d=6):
    return separable_blobs(np.random.default_rng(1), per_class=per_class, d=d, spread=1.0)


def record_train_calls(monkeypatch):
    """The (X shape, models) of each train call cross_validate makes."""
    from labankit import evaluation
    real_train = evaluation.train
    calls = []

    def recorded(X, *args, **kwargs):
        models = real_train(X, *args, **kwargs)
        calls.append((np.shape(X), models))
        return models

    monkeypatch.setattr(evaluation, "train", recorded)
    return calls


def assert_fold_models_are_train_on_their_rows(monkeypatch, X, tiers, config):
    """Every fold's model of a 5-fold CV equals train on that fold's rows
    alone, bit for bit; returns the X shapes of cross_validate's train calls."""
    from labankit import classifier, evaluation
    task, k = TASKS["four_way"], 5
    calls = record_train_calls(monkeypatch)
    report = cross_validate(X, tiers, task, k=k, config=config, seed=0)
    fold_order = [f for stack in evaluation._fold_stacks(report.folds, k) for f in stack]
    fitted = dict(zip(fold_order, [m for _, models in calls for m in models]))
    labels, mask = remap_task(tiers, task)
    for f in range(k):
        rows = report.folds != f
        alone = classifier.train(X[mask][rows], labels[rows], task, config)
        model = fitted[f]
        for got, want in ((model.weights, alone.weights), (model.biases, alone.biases),
                          (model.standardizer.means, alone.standardizer.means),
                          (model.standardizer.stds, alone.standardizer.stds)):
            assert got.tobytes() == want.tobytes(), f"fold {f}"
    return [shape for shape, _ in calls]


def test_equal_folds_fit_as_one_stack_each_model_as_train_alone(monkeypatch):
    X, tiers = overlapping_blobs(per_class=10)
    shapes = assert_fold_models_are_train_on_their_rows(monkeypatch, X, tiers,
                                                        TrainConfig())
    assert shapes == [(5, 32, 6)]


def test_unequal_folds_fit_as_one_stack_per_size_each_model_as_train_alone(monkeypatch):
    # 21 rows per class deal 5 to fold 0 and 4 to each other fold.
    X, tiers = overlapping_blobs(per_class=21)
    shapes = assert_fold_models_are_train_on_their_rows(monkeypatch, X, tiers,
                                                        TrainConfig(l2_lambda=0.1))
    assert shapes == [(1, 64, 6), (4, 68, 6)]


def test_fits_that_stop_apart_and_backtrack_end_as_they_would_alone(monkeypatch):
    # Unpenalized on overlapping blobs, the folds take 7 to 21 Newton steps,
    # and some halve their step.
    from labankit import classifier
    real_newton, real_objective = classifier._newton_minimize, classifier.loss_and_gradient
    steps, evaluations = [], []

    def newton(Z, *args):
        params, histories = real_newton(Z, *args)
        if Z.ndim == 3:
            steps.append([len(history) - 1 for history in histories])
        return params, histories

    def objective(params, *args):
        evaluations.append(params.shape[:-2])
        return real_objective(params, *args)

    monkeypatch.setattr(classifier, "_newton_minimize", newton)
    monkeypatch.setattr(classifier, "loss_and_gradient", objective)
    X, tiers = overlapping_blobs(per_class=10)
    assert_fold_models_are_train_on_their_rows(monkeypatch, X, tiers,
                                               TrainConfig(l2_lambda=0.0))
    [stack_steps] = steps
    assert len(set(stack_steps)) > 1
    stacked_evaluations = evaluations.count((5,))
    assert stacked_evaluations > max(stack_steps) + 1  # some step was halved


def test_folds_of_another_rank_fit_in_their_own_stack(monkeypatch):
    # Wide folds: a fold that trains on both copies of a duplicated row spans
    # one dimension fewer than a fold that holds one copy out, so the stack
    # of folds is fitted set by set.
    from labankit import classifier
    real_row_space = classifier._row_space
    ranks = []

    def recorded(Z):
        space = real_row_space(Z)
        ranks.append(None if space is None else space[0].shape[-1])
        return space

    monkeypatch.setattr(classifier, "_row_space", recorded)
    X, tiers = overlapping_blobs(per_class=10, d=60)
    X[1] = X[0]
    shapes = assert_fold_models_are_train_on_their_rows(monkeypatch, X, tiers,
                                                        TrainConfig())
    assert shapes == [(5, 32, 60)]
    assert ranks[0] is None
    assert sorted(set(ranks[1:6])) == [30, 31]


@pytest.mark.parametrize("cap, shapes", [
    (40, [(1, 32, 6)] * 5),
    (64, [(2, 32, 6), (2, 32, 6), (1, 32, 6)]),
])
def test_folds_over_the_stack_cap_are_fitted_in_smaller_stacks(monkeypatch, cap, shapes):
    from labankit import evaluation
    X, tiers = overlapping_blobs(per_class=10)
    whole = cross_validate(X, tiers, TASKS["four_way"], k=5, seed=3)
    monkeypatch.setattr(evaluation, "_STACK_ROWS", cap)
    calls = record_train_calls(monkeypatch)
    capped = cross_validate(X, tiers, TASKS["four_way"], k=5, seed=3)
    assert [shape for shape, _ in calls] == shapes
    assert json.dumps(capped.to_dict()) == json.dumps(whole.to_dict())


@pytest.mark.parametrize("rows", [43, 37])
def test_cross_validate_refuses_another_row_count_than_the_tiers(rows):
    _, tiers = separable_blobs(np.random.default_rng(6), per_class=10)
    X = np.random.default_rng(7).normal(size=(rows, 6))
    with pytest.raises(ValueError, match=re.escape(f"got shape ({rows}, 6) for 40 tiers")):
        cross_validate(X, tiers, TASKS["three_way"], k=5, seed=0)


def test_cross_validate_names_the_shape_of_a_one_dimensional_input():
    _, tiers = separable_blobs(np.random.default_rng(6), per_class=10)
    with pytest.raises(ValueError, match=re.escape("got shape (40,) for 40 tiers")):
        cross_validate(np.zeros(40), tiers, TASKS["three_way"], k=5, seed=0)


def test_cross_validate_rejects_small_class():
    rng = np.random.default_rng(6)
    X, tiers = separable_blobs(rng, per_class=3)
    with pytest.raises(ValueError, match="fewer than k"):
        cross_validate(X, tiers, TASKS["four_way"], k=5, seed=0)


def test_cross_validate_refuses_a_fold_count_that_is_not_an_integer():
    X, tiers = separable_blobs(np.random.default_rng(6), per_class=6)
    with pytest.raises(ValueError, match="k must be an integer, got 2.5"):
        cross_validate(X, tiers, TASKS["four_way"], k=2.5, seed=0)



def test_cross_validate_refuses_a_seed_that_is_not_an_integer():
    X, tiers = separable_blobs(np.random.default_rng(6), per_class=6)
    with pytest.raises(ValueError, match="seed must be an integer, got True"):
        cross_validate(X, tiers, TASKS["four_way"], k=2, seed=True)


def test_numpy_integer_fold_count_and_seed_report_like_ints():
    # The report used to keep the np.int64s, which json.dumps refuses.
    X, tiers = separable_blobs(np.random.default_rng(6), per_class=6)
    numpy = cross_validate(X, tiers, TASKS["binary"], k=np.int64(3), seed=np.int64(7))
    plain = cross_validate(X, tiers, TASKS["binary"], k=3, seed=7)
    assert json.dumps(numpy.to_dict()) == json.dumps(plain.to_dict())

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
