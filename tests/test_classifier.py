import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize

import oracles
from labankit import classifier
from labankit import (
    LinearModel,
    Standardizer,
    TrainConfig,
    load_model,
    loss_and_gradient,
    predict,
    predict_proba,
    save_model,
    train,
)
from labankit.classifier import _newton_minimize
from labankit.stats import fit_standardizer


def random_problem(rng, n=None, c=None, d=None):
    n = n or int(rng.integers(20, 200))
    c = c or int(rng.integers(2, 5))
    d = d or int(rng.integers(2, 12))
    X = rng.normal(size=(n, d))
    y = rng.integers(0, c, size=n)
    # ensure every class appears
    y[:c] = np.arange(c)
    return X, y, c, d


def blobs(rng, per_class=40, c=3, d=5, spread=4.0):
    X, y = [], []
    centers = rng.normal(scale=spread, size=(c, d))
    for k in range(c):
        X.append(centers[k] + rng.normal(size=(per_class, d)))
        y.append(np.full(per_class, k))
    return np.concatenate(X), np.concatenate(y)


# ---------------------------------------------------------------------------
# loss and gradient
# ---------------------------------------------------------------------------

def test_zero_weights_give_log_c_loss():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(64, 6))
    y = np.tile([0, 1], 32)
    loss, _ = loss_and_gradient(np.zeros((2, 7)), X, y, l2_lambda=0.0)
    assert loss == pytest.approx(math.log(2.0), abs=1e-12)
    y4 = np.tile([0, 1, 2, 3], 16)
    loss4, _ = loss_and_gradient(np.zeros((4, 7)), X, y4, l2_lambda=0.0)
    assert loss4 == pytest.approx(math.log(4.0), abs=1e-12)


def central_difference_gradient(params, X, y, l2, h=1e-6):
    grad = np.zeros_like(params)
    flat = params.ravel()
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = h
        plus, _ = loss_and_gradient((flat + bump).reshape(params.shape), X, y, l2)
        minus, _ = loss_and_gradient((flat - bump).reshape(params.shape), X, y, l2)
        grad.ravel()[i] = (plus - minus) / (2 * h)
    return grad


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(1)
    for trial in range(20):
        X, y, c, d = random_problem(rng)
        params = rng.normal(scale=0.5, size=(c, d + 1))
        l2 = float(rng.uniform(0.0, 2.0))
        _, analytic = loss_and_gradient(params, X, y, l2)
        numeric = central_difference_gradient(params, X, y, l2)
        rel = np.abs(analytic - numeric) / np.maximum(
            np.abs(analytic) + np.abs(numeric), 1e-6)
        assert rel.max() < 1e-5, f"trial {trial}: max rel err {rel.max():.2e}"


def test_loss_rejects_non_finite():
    X = np.ones((4, 2))
    y = np.array([0, 1, 0, 1])
    bad = np.full((2, 3), np.nan)
    with pytest.raises(ValueError, match="non-finite"):
        loss_and_gradient(bad, X, y, 0.1)
    with pytest.raises(ValueError, match="non-finite"):
        loss_and_gradient(np.zeros((2, 3)), X * np.inf, y, 0.1)


def test_softmax_overflow_safety():
    X = np.array([[1e3, -1e3], [-1e3, 1e3]])
    params = np.array([[5.0, -5.0, 0.0], [-5.0, 5.0, 0.0]])
    loss, grad = loss_and_gradient(params, X, np.array([0, 1]), 0.0)
    assert np.isfinite(loss) and np.isfinite(grad).all()


EXACTNESS_CASES = [(c, l2) for c in (2, 3, 4) for l2 in (0.0, 0.01, 1.0)]


@pytest.mark.parametrize("c, l2", EXACTNESS_CASES)
def test_loss_and_gradient_equal_the_two_softmax_reference_bit_for_bit(c, l2):
    rng = np.random.default_rng(100 * c + int(100 * l2))
    X, y, c, d = random_problem(rng, n=90, c=c, d=7)
    for scale in (0.0, 0.5, 3.0):
        params = rng.normal(scale=scale, size=(c, d + 1))
        loss, grad = loss_and_gradient(params, X, y, l2)
        ref_loss, ref_grad = oracles.loss_and_gradient(params, X, y, l2)
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)


def test_loss_and_gradient_equal_the_reference_with_logits_above_700():
    rng = np.random.default_rng(11)
    X, y, c, d = random_problem(rng, n=40, c=3, d=4)
    params = rng.normal(size=(c, d + 1))
    params[:, -1] = [750.0, 720.0, 705.0]
    logits = X @ params[:, :-1].T + params[:, -1]
    assert logits.max() > 700  # np.exp(logits) itself would overflow
    loss, grad = loss_and_gradient(params, X, y, 0.01)
    ref_loss, ref_grad = oracles.loss_and_gradient(params, X, y, 0.01)
    assert np.isfinite(loss) and loss == ref_loss
    assert np.array_equal(grad, ref_grad)


@pytest.mark.parametrize("c, l2", EXACTNESS_CASES)
def test_newton_hessians_equal_the_rebuilding_reference_bit_for_bit(c, l2, monkeypatch):
    # Every Hessian a fit builds, from the design matrix and diagonal that
    # _newton_minimize prepares once, must equal the per-call reduced
    # rebuild, and the full-space Hessian projected onto the sum-to-zero
    # class subspace.
    rng = np.random.default_rng(200 + 10 * c + int(100 * l2))
    X, y = blobs(rng, per_class=15, c=c, d=5, spread=1.0)
    Z = (X - X.mean(0)) / X.std(0)
    real_hessian = classifier._hessian
    built, projected = [], []

    def checked(params, basis, X, design, diagonal, out):
        hess = real_hessian(params, basis, X, design, diagonal, out)
        built.append(np.array_equal(hess, oracles.reduced_hessian(params, basis, X, l2)))
        lift = np.kron(basis, np.eye(X.shape[1] + 1))
        full = lift.T @ oracles.hessian(params, X, l2) @ lift
        projected.append(np.abs(hess - full).max() / np.abs(full).max())
        return hess

    monkeypatch.setattr(classifier, "_hessian", checked)
    _newton_minimize(Z, y, c, TrainConfig(l2_lambda=l2, max_iters=4))
    assert built and all(built)
    assert max(projected) <= 1e-12


@pytest.mark.parametrize("c", (2, 3, 4))
def test_sum_zero_basis_is_orthonormal_and_sums_to_zero(c):
    basis = classifier._sum_zero_basis(c)
    assert basis.shape == (c, c - 1)
    assert np.abs(basis.T @ basis - np.eye(c - 1)).max() <= 1e-15
    assert np.abs(basis.sum(axis=0)).max() <= 1e-15


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_separable_one_dimensional_data_trains_to_full_accuracy():
    rng = np.random.default_rng(2)
    x = np.concatenate([rng.uniform(-3.0, -0.5, 40), rng.uniform(0.5, 3.0, 40)])
    y = (x > 0).astype(int)
    model = train(x[:, None], y)
    assert np.mean(predict(model, x[:, None]) == y) == 1.0


def test_huge_l2_shrinks_weights_and_predicts_priors():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(120, 4))
    y = np.concatenate([np.zeros(30, int), np.ones(90, int)])  # priors 1/4, 3/4
    model = train(X, y, TrainConfig(l2_lambda=1e6))
    assert np.abs(model.weights).max() < 1e-4
    probs = predict_proba(model, X)
    assert np.allclose(probs[:, 0], 0.25, atol=1e-3)
    assert np.allclose(probs[:, 1], 0.75, atol=1e-3)


def test_objective_matches_independent_convex_solver():
    rng = np.random.default_rng(4)
    X, y = blobs(rng)
    config = TrainConfig(l2_lambda=0.5, grad_tol=1e-9)
    model = train(X, y, config)
    std = model.standardizer
    Z = std.transform(X)
    ours = loss_and_gradient(
        np.concatenate([model.weights, model.biases[:, None]], axis=1),
        Z, y, config.l2_lambda)[0]

    def objective(flat):
        return loss_and_gradient(flat.reshape(3, Z.shape[1] + 1), Z, y,
                                 config.l2_lambda)
    def fun(flat):
        loss, grad = objective(flat)
        return loss, grad.ravel()
    x0 = rng.normal(scale=0.1, size=3 * (Z.shape[1] + 1))
    result = scipy.optimize.minimize(fun, x0, jac=True, method="L-BFGS-B",
                                     options={"maxiter": 5000, "ftol": 1e-15,
                                              "gtol": 1e-10})
    assert ours == pytest.approx(result.fun, abs=1e-6)
    assert ours <= result.fun + 1e-6  # ours is at least as optimal


def test_convexity_runs_from_different_initializations_agree():
    rng = np.random.default_rng(5)
    X, y = blobs(rng, per_class=30)
    Z = (X - X.mean(0)) / X.std(0)
    config = TrainConfig(l2_lambda=1.0, grad_tol=1e-9)
    p_zero, hist_zero = _newton_minimize(Z, y, 3, config)
    init = rng.normal(scale=2.0, size=p_zero.shape)
    p_rand, hist_rand = _newton_minimize(Z, y, 3, config, init=init)
    assert hist_zero[-1] == pytest.approx(hist_rand[-1], abs=1e-6)


def test_monotone_descent():
    rng = np.random.default_rng(6)
    X, y = blobs(rng, per_class=25, c=4)
    Z = (X - X.mean(0)) / X.std(0)
    _, history = _newton_minimize(Z, y, 4, TrainConfig())
    assert all(b <= a for a, b in zip(history, history[1:]))


@pytest.mark.parametrize("c", (2, 3, 4))
def test_a_bias_shifted_start_gives_the_zero_start_model(c):
    rng = np.random.default_rng(9)
    X, y = blobs(rng, per_class=20, c=c)
    Z = (X - X.mean(0)) / X.std(0)
    config = TrainConfig(l2_lambda=0.1)
    zero, zero_history = _newton_minimize(Z, y, c, config)
    init = np.zeros_like(zero)
    init[:, -1] = -3.0
    shifted, shifted_history = _newton_minimize(Z, y, c, config, init=init)
    assert len(shifted_history) == len(zero_history)
    assert np.abs(shifted - zero).max() <= 1e-12 * np.abs(zero).max()


def test_binary_fit_is_antisymmetric_over_the_two_classes():
    rng = np.random.default_rng(10)
    X, y = blobs(rng, per_class=25, c=2)
    model = train(X, y, TrainConfig(l2_lambda=0.01))
    assert np.abs(model.weights).max() > 0
    assert np.array_equal(model.weights[0], -model.weights[1])
    assert model.biases[0] == -model.biases[1]


def test_biases_are_centred_whatever_the_bias_start():
    # The objective is flat along "add c to every bias"; the saved biases
    # must not depend on where the solver started along it.
    rng = np.random.default_rng(8)
    X, y = blobs(rng, per_class=20, c=3)
    Z = (X - X.mean(0)) / X.std(0)
    config = TrainConfig(l2_lambda=0.1)
    zero, _ = _newton_minimize(Z, y, 3, config)
    init = np.zeros_like(zero)
    init[:, -1] = 5.0
    shifted, _ = _newton_minimize(Z, y, 3, config, init=init)
    assert np.abs(shifted[:, -1] - zero[:, -1]).max() <= 1e-12
    assert abs(zero[:, -1].sum()) <= 1e-12


def test_training_is_bit_deterministic():
    rng = np.random.default_rng(7)
    X, y = blobs(rng)
    a = train(X, y, TrainConfig())
    b = train(X, y, TrainConfig())
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.biases, b.biases)


def test_train_validates_inputs():
    X = np.ones((6, 2))
    with pytest.raises(ValueError, match="class 1 missing"):
        train(X, np.array([0, 0, 0, 2, 2, 2]))
    with pytest.raises(ValueError, match="non-finite"):
        train(X * np.nan, np.array([0, 1, 0, 1, 0, 1]))
    with pytest.raises(ValueError, match="at least"):
        train(np.ones((2, 2)), np.array([0, 2]))


@pytest.mark.parametrize("kwargs, message", [
    ({"l2_lambda": math.nan}, "l2_lambda must be finite and >= 0"),
    ({"l2_lambda": math.inf}, "l2_lambda must be finite and >= 0"),
    ({"l2_lambda": -1.0}, "l2_lambda must be finite and >= 0"),
    ({"grad_tol": math.nan}, "grad_tol must be finite and > 0"),
    ({"grad_tol": math.inf}, "grad_tol must be finite and > 0"),
    ({"grad_tol": 0.0}, "grad_tol must be finite and > 0"),
])
def test_train_config_requires_finite_penalty_and_tolerance(kwargs, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(**kwargs)


# ---------------------------------------------------------------------------
# row-space, sum-to-zero Newton
# ---------------------------------------------------------------------------

SHAPES = ("wide", "tall", "duplicated", "constant", "all_constant", "near_deficient")


def shaped_problem(kind, c, rng):
    """Rows with class-dependent means and unequal class priors: wide
    (30 x 110), tall (300 x 8), or 60 x 6 with one column duplicated, two
    columns constant, or every column constant (exactly representable
    constants, so standardizing gives exact zeros); or near_deficient, 40 x
    110 rows in duplicate pairs, one pair apart by 1e-9 in one cell, with
    ten constant columns."""
    n, d = {"wide": (30, 110), "tall": (300, 8), "near_deficient": (20, 110)}.get(
        kind, (60, 6))
    y = np.minimum(np.arange(n) % (c + 1), c - 1)
    X = rng.normal(size=(n, d)) + rng.normal(size=(c, d))[y]
    if kind == "duplicated":
        X[:, 3] = X[:, 1]
    elif kind == "constant":
        X[:, [0, 4]] = 2.5
    elif kind == "all_constant":
        X[:] = np.arange(d) - 1.5
    elif kind == "near_deficient":
        X, y = np.repeat(X, 2, axis=0), np.repeat(y, 2)
        X[:, 100:] = 2.5
        X[1, 0] += 1e-9
    return X, y


def record_hessian_sides(monkeypatch):
    sides = []
    real_hessian = classifier._hessian

    def recorded(params, basis, X, design, diagonal, out):
        hess = real_hessian(params, basis, X, design, diagonal, out)
        sides.append(hess.shape[0])
        return hess

    monkeypatch.setattr(classifier, "_hessian", recorded)
    return sides


@pytest.mark.parametrize("kind", SHAPES)
@pytest.mark.parametrize("c, l2", EXACTNESS_CASES)
def test_row_space_newton_predicts_like_the_full_space_reference(kind, c, l2):
    rng = np.random.default_rng(300 + 10 * c + int(100 * l2))
    X, y = shaped_problem(kind, c, rng)
    config = TrainConfig(l2_lambda=l2)
    model = train(X, y, config)
    Z = model.standardizer.transform(X)
    _, history = _newton_minimize(Z, y, c, config)
    params, reference_history = oracles.newton_minimize(Z, y, c, config)
    assert len(history) == len(reference_history)  # as many Newton iterations
    reference = replace(model, weights=params[:, :-1], biases=params[:, -1])
    # Compared on the training rows: off their span, at l2 = 0, the
    # reference's weights carry drift of the Newton ridge's scale.
    ours, theirs = predict_proba(model, X), predict_proba(reference, X)
    assert np.abs(ours - theirs).max() <= 1e-12
    assert np.array_equal(ours.argmax(axis=1), theirs.argmax(axis=1))


@pytest.mark.parametrize("kind", ["wide", "tall"])
def test_the_row_space_comes_from_the_smaller_gram_matrix(kind, monkeypatch):
    rng = np.random.default_rng(15)
    X, _ = shaped_problem(kind, 3, rng)
    grams = []
    real_eigh = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        grams.append(a.shape)
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    Z = fit_standardizer(X).transform(X)
    V, ZV = classifier._row_space(Z)
    side = min(X.shape)
    assert grams == [(side, side)]
    rank = np.linalg.matrix_rank(Z)
    assert V.shape == (X.shape[1], rank) and ZV.shape == (X.shape[0], rank)
    assert np.abs(V.T @ V - np.eye(rank)).max() <= 1e-12
    assert np.abs(Z @ V - ZV).max() <= 1e-12 * np.abs(ZV).max()


def test_wide_fit_builds_hessians_of_the_row_space(monkeypatch):
    rng = np.random.default_rng(12)
    X, y = shaped_problem("wide", 4, rng)
    sides = record_hessian_sides(monkeypatch)
    model = train(X, y, TrainConfig(l2_lambda=0.1))
    rank = np.linalg.matrix_rank(model.standardizer.transform(X))
    assert rank <= X.shape[0] - 1 < X.shape[1]
    assert sides and set(sides) == {3 * (rank + 1)}


def test_tall_fit_with_dependent_columns_builds_hessians_of_their_rank(monkeypatch):
    # More rows than features, one column a copy of another: the row space
    # drops the dependent direction, as it drops the five of the 110-feature
    # schema in a paper-sized fit.
    rng = np.random.default_rng(16)
    X, y = shaped_problem("duplicated", 4, rng)
    sides = record_hessian_sides(monkeypatch)
    model = train(X, y, TrainConfig(l2_lambda=0.1))
    rank = np.linalg.matrix_rank(model.standardizer.transform(X))
    assert rank == X.shape[1] - 1 < X.shape[0]
    assert sides and set(sides) == {3 * (rank + 1)}


def assert_fit_predicts_the_priors(X, y, monkeypatch):
    sides = record_hessian_sides(monkeypatch)
    model = train(X, y)
    assert sides and set(sides) == {2}
    priors = np.bincount(y) / y.size
    assert np.allclose(predict_proba(model, X), priors, rtol=0, atol=1e-9)


def test_all_constant_columns_fit_rank_zero_and_predict_the_priors(monkeypatch):
    rng = np.random.default_rng(13)
    X, y = shaped_problem("all_constant", 3, rng)
    assert_fit_predicts_the_priors(X, y, monkeypatch)


def test_all_constant_columns_of_a_wide_fit_leave_a_rank_zero_row_space(monkeypatch):
    # 20 x 110 takes its basis from the 20 x 20 Gram, which is all zeros: only
    # the biases are fitted, as in the tall case above.
    X = np.tile(np.arange(110) - 1.5, (20, 1))
    y = np.minimum(np.arange(20) % 4, 2)
    assert_fit_predicts_the_priors(X, y, monkeypatch)


def test_converged_fit_meets_grad_tol_on_the_full_space_gradient():
    rng = np.random.default_rng(14)
    X, y = shaped_problem("wide", 3, rng)
    Z = (X - X.mean(0)) / X.std(0)
    config = TrainConfig(l2_lambda=0.01)
    params, history = _newton_minimize(Z, y, 3, config)
    assert len(history) - 1 < config.max_iters
    _, grad = loss_and_gradient(params, Z, y, config.l2_lambda)
    assert np.abs(grad).max() <= config.grad_tol


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def identity_standardizer(d):
    return Standardizer(means=np.zeros(d), stds=np.ones(d))


def fixture_model(weights, biases, task="four_way"):
    weights = np.asarray(weights, dtype=np.float64)
    return LinearModel(
        task=task,
        class_count=weights.shape[0],
        weights=weights,
        biases=np.asarray(biases, dtype=np.float64),
        standardizer=identity_standardizer(weights.shape[1]),
        feature_names=tuple(f"x{j}" for j in range(weights.shape[1])),
        l2_lambda=1.0,
    )


def test_zero_weight_model_is_uniform():
    model = fixture_model(np.zeros((4, 3)), np.zeros(4))
    probs = predict_proba(model, np.array([1.0, -2.0, 0.5]))
    assert np.allclose(probs, 0.25, atol=1e-15)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_logit_shift_invariance():
    weights = np.array([[1.0, -0.5], [0.2, 0.8], [-1.0, 0.3]])
    base = fixture_model(weights, np.array([0.1, -0.2, 0.4]))
    shifted = fixture_model(weights, np.array([0.1, -0.2, 0.4]) + 123.0)
    x = np.array([0.7, -1.3])
    assert np.allclose(predict_proba(base, x), predict_proba(shifted, x), atol=1e-12)


def test_predict_proba_matches_hand_softmax():
    model = fixture_model(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.5, -0.5]))
    x = np.array([0.3, 0.9])
    logits = [0.3 + 0.5, 0.9 - 0.5]
    denom = math.exp(logits[0]) + math.exp(logits[1])
    expected = [math.exp(z) / denom for z in logits]
    assert np.allclose(predict_proba(model, x), expected, atol=1e-12)


def test_predict_argmax_and_tie_rule():
    probs_model = fixture_model(
        np.array([[0.0], [1.0], [0.0], [0.0]]), np.log([0.1, 0.7, 0.1, 0.1]))
    assert predict(probs_model, np.array([0.0])) == 1

    tie_model = fixture_model(np.array([[1.0], [1.0], [0.0]]), np.zeros(3))
    assert predict(tie_model, np.array([2.0])) == 0  # exact tie -> lower id

    rng = np.random.default_rng(8)
    model = fixture_model(rng.normal(size=(4, 6)), rng.normal(size=4))
    X = rng.normal(size=(20, 6))
    assert np.array_equal(predict(model, X),
                          np.argmax(predict_proba(model, X), axis=1))


def test_predict_rejects_wrong_dimension():
    model = fixture_model(np.zeros((2, 5)), np.zeros(2))
    with pytest.raises(ValueError, match="expected 5 features"):
        predict_proba(model, np.zeros(4))


def test_predict_proba_rejects_non_finite_rows():
    model = fixture_model(np.zeros((2, 3)), np.zeros(2))
    rows = np.zeros((4, 3))
    rows[2, 1] = np.nan
    rows[3, 0] = np.inf
    with pytest.raises(ValueError, match="row 2"):
        predict_proba(model, rows)
    with pytest.raises(ValueError, match="non-finite"):
        predict(model, rows[3])


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(9)
    model = fixture_model(rng.normal(size=(4, 6)), rng.normal(size=4))
    probs = predict_proba(model, rng.normal(size=(50, 6)))
    assert np.all(probs > 0)
    assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_model_round_trip_reproduces_probabilities(tmp_path):
    rng = np.random.default_rng(10)
    X, y = blobs(rng, per_class=20)
    model = train(X, y, TrainConfig(), task="binary")
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.task == "binary"
    assert loaded.feature_names == model.feature_names
    assert np.array_equal(loaded.weights, model.weights)
    before = predict_proba(model, X)
    after = predict_proba(loaded, X)
    assert np.abs(before - after).max() <= 1e-12


def test_load_model_rejects_bad_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": 99}')
    with pytest.raises(ValueError, match="format version"):
        load_model(path)
