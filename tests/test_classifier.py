import math

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
    # _newton_minimize prepares once, must equal the per-call rebuild.
    rng = np.random.default_rng(200 + 10 * c + int(100 * l2))
    X, y = blobs(rng, per_class=15, c=c, d=5, spread=1.0)
    Z = (X - X.mean(0)) / X.std(0)
    real_hessian = classifier._hessian
    built = []

    def checked(params, X, design, diagonal):
        hess = real_hessian(params, X, design, diagonal)
        built.append(np.array_equal(hess, oracles.hessian(params, X, l2)))
        return hess

    monkeypatch.setattr(classifier, "_hessian", checked)
    _newton_minimize(Z, y, c, TrainConfig(l2_lambda=l2, max_iters=4))
    assert built and all(built)


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
