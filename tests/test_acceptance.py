"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured values (run with -s to see them)."""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from labankit import (
    FEATURE_NAMES_110,
    FRAME_FEATURE_NAMES,
    RegimeSpec,
    TrainConfig,
    cross_validate,
    differentiate,
    frame_matrix,
    fragment_features,
    generate,
    get_task,
    kruskal_wallis,
    loss_and_gradient,
    rank_features,
    remap_task,
    slice_fragments,
)
from labankit.cli import main as cli_main
from labankit.features_io import read_features_csv

from conftest import rest_positions, wiggle_positions
from oracles import directness, effort_frame, trajectory_frame

DATA_DIR = Path(__file__).parent / "data"


def run_cli(*argv):
    return cli_main([str(a) for a in argv])


def test_descriptor_correctness():
    start = time.time()
    # straight-line track: chord equals path
    track = np.outer(np.arange(60), [0.03, 0.0, 0.01])
    straight = directness(track, 30, 15)
    assert straight == pytest.approx(1.0, abs=1e-9)

    # half circle: analytic chord/arc oracle gives 2/pi
    theta = np.linspace(0, np.pi, 64)
    half = np.stack([np.cos(theta), np.zeros_like(theta), np.sin(theta)], axis=1)
    half_value = directness(half, 32, 64)
    assert half_value == pytest.approx(2.0 / np.pi, abs=0.01)

    # circle of radius 2 m: curvature 1/r
    radius, fps = 2.0, 30.0
    n = 150
    s = np.arange(n) / fps
    positions = rest_positions(n)
    positions[:, 0, 0] = radius * np.cos(s / radius)
    positions[:, 0, 2] = radius * np.sin(s / radius)
    state = differentiate(positions, fps)
    kappa = np.mean([trajectory_frame(positions, state, t, fps)[1]
                     for t in range(3, n - 3)])
    assert kappa == pytest.approx(1.0 / radius, rel=0.05)

    # rest fragment: Time, Weight, Flow all zero
    rest = rest_positions(120)
    flow, space, time_q, weight = effort_frame(differentiate(rest, 30.0), rest, 60, 30.0)
    assert flow == 0.0 and time_q == 0.0 and weight == 0.0 and space == 1.0

    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"PASS descriptor correctness: straight {straight:.12f}, "
          f"half-circle {half_value:.4f} (2/pi {2 / np.pi:.4f}), "
          f"curvature {kappa:.4f} (1/r {1 / radius:.4f}), rest zero "
          f"[{elapsed:.2f} s]")


def test_invariance_suite():
    positions = wiggle_positions(150, fps=30.0, seed=12)
    base = frame_matrix(positions, 30.0)

    shifted = frame_matrix(positions + np.array([5.2, 0.0, -3.3]), 30.0)
    horizontal = np.abs(shifted - base).max()
    assert horizontal <= 1e-6

    center = positions[:, 0].mean(axis=0)
    angle = 0.77
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    pivot = np.array([center[0], 0.0, center[2]])
    rotated = frame_matrix((positions - pivot) @ rot.T + pivot, 30.0)
    rotation = np.abs(rotated - base).max()
    assert rotation <= 1e-6

    offset = 0.61
    lifted = frame_matrix(positions + np.array([0.0, offset, 0.0]), 30.0)
    height_col = FRAME_FEATURE_NAMES.index("dispersion.pelvis_height")
    others = [j for j in range(55) if j != height_col]
    assert np.abs(lifted[:, others] - base[:, others]).max() <= 1e-6
    height_delta = lifted[:, height_col] - base[:, height_col]
    assert np.abs(height_delta - offset).max() <= 1e-9

    print(f"PASS invariance suite: translation {horizontal:.2e}, "
          f"rotation {rotation:.2e}, vertical offset exact to "
          f"{np.abs(height_delta - offset).max():.2e}")


def test_statistics_oracle():
    h = kruskal_wallis(np.arange(1.0, 10.0), np.repeat([0, 1, 2], 3))
    assert h == pytest.approx(7.2, abs=1e-9)

    flat = kruskal_wallis(np.full(15, 2.0), np.repeat([0, 1, 2], 5))
    assert flat == 0.0

    rng = np.random.default_rng(77)
    transforms = [lambda x: x + 1000.0, lambda x: 16.0 * x, lambda x: x ** 3,
                  lambda x: 0.5 * x - 3.0]
    worst = 0.0
    for trial in range(100):
        values = rng.integers(-30, 30, size=24).astype(float)
        labels = rng.integers(0, 3, size=24)
        while np.unique(labels).size < 2:
            labels = rng.integers(0, 3, size=24)
        base = kruskal_wallis(values, labels)
        moved = kruskal_wallis(transforms[trial % 4](values), labels)
        worst = max(worst, abs(moved - base))
    assert worst <= 1e-9
    print(f"PASS statistics oracle: H(1..9 in 3 groups) = {h:.12f}, "
          f"all-equal H = {flat}, monotone invariance worst drift {worst:.2e}")


def test_optimizer_correctness():
    rng = np.random.default_rng(123)
    worst_rel = 0.0
    for _ in range(20):
        n = int(rng.integers(20, 201))
        c = int(rng.choice([2, 3, 4]))
        d = int(rng.integers(2, 12))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, c, size=n)
        y[:c] = np.arange(c)
        params = rng.normal(scale=0.5, size=(c, d + 1))
        l2 = float(rng.uniform(0.0, 2.0))
        _, analytic = loss_and_gradient(params, X, y, l2)
        numeric = np.zeros_like(params)
        h = 1e-6
        flat = params.ravel()
        for i in range(flat.size):
            bump = np.zeros_like(flat)
            bump[i] = h
            up, _ = loss_and_gradient((flat + bump).reshape(params.shape), X, y, l2)
            down, _ = loss_and_gradient((flat - bump).reshape(params.shape), X, y, l2)
            numeric.ravel()[i] = (up - down) / (2 * h)
        rel = np.abs(analytic - numeric) / np.maximum(
            np.abs(analytic) + np.abs(numeric), 1e-6)
        worst_rel = max(worst_rel, rel.max())
    assert worst_rel < 1e-5

    # two deterministic optimizers on the same convex objective
    from labankit.classifier import _newton_minimize
    X = rng.normal(size=(150, 8))
    centers = rng.normal(scale=4.0, size=(3, 8))
    y = rng.integers(0, 3, size=150)
    X += centers[y]
    Z = (X - X.mean(0)) / X.std(0)
    config = TrainConfig(l2_lambda=1.0, grad_tol=1e-9)
    _, history = _newton_minimize(Z, y, 3, config)
    newton_obj = history[-1]

    def fun(flat):
        loss, grad = loss_and_gradient(flat.reshape(3, 9), Z, y, 1.0)
        return loss, grad.ravel()
    lbfgs = scipy.optimize.minimize(fun, rng.normal(scale=0.3, size=27),
                                    jac=True, method="L-BFGS-B",
                                    options={"maxiter": 5000, "ftol": 1e-15,
                                             "gtol": 1e-10})
    gap = abs(newton_obj - lbfgs.fun)
    assert gap <= 1e-6

    # zero-weight loss is ln C
    for c in (2, 3, 4):
        Xc = rng.normal(size=(4 * c, 5))
        yc = np.tile(np.arange(c), 4)
        loss, _ = loss_and_gradient(np.zeros((c, 6)), Xc, yc, 0.0)
        assert loss == pytest.approx(math.log(c), abs=1e-12)

    print(f"PASS optimizer correctness: gradient worst rel {worst_rel:.2e}, "
          f"Newton-vs-LBFGS gap {gap:.2e}, zero-weight loss = ln C")


def test_end_to_end_synthetic_gate(tmp_path):
    # Full pipeline at gate scale: 4 regimes x 200 fragments, 5 s at 30 fps,
    # synth -> extract -> evaluate, single-threaded.
    start = time.time()
    data = tmp_path / "data"
    assert run_cli("synth", "--out-dir", data, "--per-regime", 200,
                   "--seed", 20250810) == 0
    features = tmp_path / "features.csv"
    assert run_cli("extract", "--manifest", data / "manifest.jsonl",
                   "--out", features) == 0

    accuracies = {}
    for task, floor in (("four_way", 0.90), ("three_way", 0.92), ("binary", 0.95)):
        report_path = tmp_path / f"report_{task}.json"
        assert run_cli("evaluate", "--features", features, "--out", report_path,
                       "--task", task, "--k", 5) == 0
        report = json.loads(report_path.read_text())
        accuracies[task] = report["accuracy"]
        assert report["accuracy"] >= floor, f"{task}: {report['accuracy']:.3f}"

    # label-permutation control: destroyed signal scores near chance
    table = read_features_csv(features)
    rng = np.random.default_rng(1)
    shuffled = rng.permutation(table.tiers)
    control = cross_validate(table.values, shuffled, get_task("four_way"),
                             k=5, seed=0)
    assert abs(control.accuracy - 0.25) <= 0.05

    elapsed = time.time() - start
    assert elapsed < 300.0
    print(f"PASS end-to-end gate: four-way {accuracies['four_way']:.3f}, "
          f"three-way {accuracies['three_way']:.3f}, "
          f"binary {accuracies['binary']:.3f}, permuted {control.accuracy:.3f} "
          f"[{elapsed:.0f} s]")


def test_features_agree_across_sampling_rates():
    # One smooth motion, 5 s of conftest's wiggle, sampled at 30, 60 and
    # 120 fps: all 110 features agree within 20 %. What differs is sampling
    # itself: central differences shrink a sinusoid by sin(x)/x per order
    # (x = 2 pi f / fps), 7 % on jerk for the 1.8 Hz parts at 30 fps; a
    # Directness window's path gains length with more frames; and 30 fps
    # under-samples the curvature peaks of slow pelvis frames (19 % at
    # seed 9). Fragment-edge jerk that grows with fps moves the jerk and
    # Flow features alone by 47-117 % on these seeds.
    worst = 0.0
    for seed in range(10):
        features = {fps: fragment_features(
                        wiggle_positions(round(5 * fps), fps=fps, seed=seed), fps)
                    for fps in (30.0, 60.0, 120.0)}
        for fps in (60.0, 120.0):
            np.testing.assert_allclose(features[fps], features[30.0], rtol=0.2,
                                       err_msg=f"seed {seed}, {fps} fps vs 30 fps")
            worst = max(worst, (np.abs(features[fps] - features[30.0])
                                / np.abs(features[30.0])).max())
    print(f"PASS sampling rate: 110 features at 60 and 120 fps within "
          f"{worst:.3f} of 30 fps (bound 0.2) over 10 seeds")


def test_ordinal_confusion_concentrates_on_adjacent_tiers():
    # Harder variant: regime parameters interpolated (blend) so adjacent
    # regimes overlap; errors must concentrate next to the diagonal.
    rows, tiers = [], []
    for regime in range(4):
        for i in range(60):
            seq = generate(RegimeSpec(regime, seed=regime * 7919 + i, blend=0.85))
            for _, positions in slice_fragments(seq):
                rows.append(fragment_features(positions, seq.fps))
                tiers.append(regime)
    report = cross_validate(np.array(rows), np.array(tiers),
                            get_task("four_way"), k=5, seed=1)
    confusion = report.confusion
    adjacent = sum(confusion[i, j] for i in range(4) for j in range(4)
                   if abs(i - j) == 1)
    non_adjacent = sum(confusion[i, j] for i in range(4) for j in range(4)
                       if abs(i - j) > 1)
    assert adjacent > non_adjacent
    print(f"PASS ordinal confusion: accuracy {report.accuracy:.3f}, "
          f"adjacent mass {adjacent}, non-adjacent mass {non_adjacent}")


def test_directness_family_ranks_in_top_ten():
    # Binary data whose injected signal is path indirectness: direct
    # locomotion (tier 0) vs recirculating sway (tier 2), blended within
    # class so that no incidental feature separates perfectly.
    rows, tiers = [], []
    for regime in (0, 2):
        for i in range(60):
            seq = generate(RegimeSpec(regime, seed=regime * 1000 + i, blend=0.6))
            for _, positions in slice_fragments(seq):
                rows.append(fragment_features(positions, seq.fps))
                tiers.append(regime)
    labels, mask = remap_task(tiers, get_task("binary"))
    ranking = rank_features(np.array(rows)[mask], labels, FEATURE_NAMES_110)
    top10 = [name for name, _ in ranking[:10]]
    family = [name for name in top10
              if ".directness" in name or name.startswith("effort.space")]
    assert len(family) >= 1
    print(f"PASS ranking property: {len(family)} Directness-family feature(s) "
          f"in top 10: {family[:4]}")


def test_determinism_of_reruns_and_workers(tmp_path):
    data = tmp_path / "data"
    assert run_cli("synth", "--out-dir", data, "--per-regime", 3,
                   "--seed", 7) == 0
    manifest = data / "manifest.jsonl"
    synth_echo = data / ("manifest.jsonl.config.json")
    file_bytes = {p.name: p.read_bytes() for p in sorted(data.iterdir())}
    assert len(file_bytes) == 4 * 3 + 2  # the skeletons, the manifest and its echo
    assert run_cli("synth", "--config", synth_echo) == 0
    assert {p.name: p.read_bytes() for p in sorted(data.iterdir())} == file_bytes

    features = tmp_path / "features.csv"
    assert run_cli("extract", "--manifest", manifest, "--out", features) == 0
    first = features.read_bytes()
    assert run_cli("extract", "--config",
                   features.parent / (features.name + ".config.json")) == 0
    assert features.read_bytes() == first

    threaded = tmp_path / "threaded.csv"
    assert run_cli("extract", "--manifest", manifest, "--out", threaded,
                   "--workers", 4) == 0
    assert threaded.read_bytes() == first

    report = tmp_path / "report.json"
    assert run_cli("evaluate", "--features", features, "--out", report,
                   "--task", "binary", "--k", 3, "--seed", 2) == 0
    report_bytes = report.read_bytes()
    assert run_cli("evaluate", "--config",
                   report.parent / (report.name + ".config.json")) == 0
    assert report.read_bytes() == report_bytes

    model = tmp_path / "model.json"
    assert run_cli("train", "--features", features, "--out", model,
                   "--task", "four_way") == 0
    model_bytes = model.read_bytes()
    assert run_cli("train", "--config",
                   model.parent / (model.name + ".config.json")) == 0
    assert model.read_bytes() == model_bytes

    outputs = {}
    predictions = tmp_path / "predictions.csv"
    assert run_cli("predict", "--model", model, "--features", features,
                   "--out", predictions) == 0
    outputs["predict"] = predictions
    ranking = tmp_path / "ranking.csv"
    assert run_cli("rank-features", "--features", features, "--out", ranking,
                   "--task", "four_way") == 0
    outputs["rank-features"] = ranking
    balanced = tmp_path / "balanced.jsonl"
    assert run_cli("balance", "--manifest", manifest, "--out", balanced,
                   "--per-class", 2, "--seed", 3) == 0
    outputs["balance"] = balanced
    for name, path in outputs.items():
        before = path.read_bytes()
        echo = path.parent / (path.name + ".config.json")
        assert run_cli(name, "--config", echo) == 0, name
        assert path.read_bytes() == before, name

    print("PASS determinism: echo re-runs of all seven commands and "
          "1-vs-4-worker extraction are byte-identical")


def test_feature_schema_is_stable():
    reference = (DATA_DIR / "feature_names_v1.txt").read_text().split()
    assert len(FEATURE_NAMES_110) == 110
    assert list(FEATURE_NAMES_110) == reference
    print("PASS schema stability: 110 canonical names match the v1 fixture")
