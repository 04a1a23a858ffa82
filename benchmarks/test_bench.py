"""Self-tests of the benchmark at toy size (not part of the tier-1 suite).

Run from the repository root:  python3 -m pytest -q benchmarks/test_bench.py
"""

import json
import math
import shutil
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench  # noqa: E402

TOYS = {
    "gate": replace(bench.WORKLOADS["gate"], per_regime=5, accuracy_floors=()),
    "dense": replace(bench.WORKLOADS["dense"], per_regime=5, duration_s=6.0,
                     l2_values=(0.1, 1.0)),
}
COUNT_SUFFIXES = (".calls", ".rows", ".bytes", "skeleton.fragments",
                  "objective_evals_per_fit")


@pytest.fixture(scope="module")
def cli():
    return bench.load_library(bench.ROOT)


def toy_run(cli, workload, trace, seed=3):
    return bench.run(TOYS[workload], seed, 0.0, trace, cli, bench.metric_units(trace))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(TOYS))
def test_every_benchmark_metric_is_emitted(cli, workload, trace):
    result, record = toy_run(cli, workload, trace)
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_counts_repeat_exactly_at_the_same_seed(cli):
    counts = []
    for _ in range(2):
        result, _ = toy_run(cli, "dense", True)
        counts.append({k: m["value"] for k, m in result["metrics"].items()
                       if k.endswith(COUNT_SUFFIXES)})
    assert counts[0] == counts[1]
    assert counts[0]["skeleton.fragments"] == 2 * TOYS["dense"].rows


def test_stage_metrics_are_medians_of_calibrated_samples(cli, tmp_path):
    w = replace(TOYS["gate"], repeats=2)
    bench_ = bench.Bench(cli, tmp_path, 3, 1)
    times = bench_.run_pass(w)
    refs = times["reference"]
    assert len(refs) == 1 + 1 + 3 * w.repeats
    # Group i ran between reference runs i and i + 1.
    order = ["synth"] + ["extract", "extract_par", "model"] * w.repeats
    seen = {}
    for i, group in enumerate(order):
        k = seen.get(group, 0)
        seen[group] = k + 1
        speed = bench.REFERENCE_S / ((refs[i] + refs[i + 1]) / 2)
        assert times["calibrated"][group][k] == pytest.approx(
            times["wall"][group][k] * speed)
    metrics = bench._stage_metrics([times, times])
    for group in bench.GROUPS:
        assert metrics[f"{group}_s"] == pytest.approx(
            statistics.median(times["calibrated"][group]))
    assert metrics["total_s"] == pytest.approx(
        sum(statistics.fmean(times["calibrated"][g]) for g in bench.PIPELINE))


def _nan_for_one_file(monkeypatch, cli):
    original = cli.fragment_features

    def fragment_features(fragment, *args, **kwargs):
        vector = original(fragment, *args, **kwargs)
        if fragment.parent_id == "r2_0001":
            vector.values[7] = math.nan
        return vector
    monkeypatch.setattr(cli, "fragment_features", fragment_features)


def _unnormalised(monkeypatch, cli):
    original = cli.predict_proba
    monkeypatch.setattr(cli, "predict_proba", lambda model, x: original(model, x) * 1.5)


def _exit_code_1(monkeypatch, cli):
    monkeypatch.setitem(cli._HANDLERS, "rank-features", lambda params: 1)


@pytest.mark.parametrize("corrupt, stage", [
    (_nan_for_one_file, "extract"),
    (_unnormalised, "predict"),
    (_exit_code_1, "rank-features"),
])
def test_corrupted_output_counts_as_failed(cli, monkeypatch, corrupt, stage):
    corrupt(monkeypatch, cli)
    result, record = toy_run(cli, "gate", False)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert any(f["argv"][0] == stage for f in record["failures"])


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/bench.py", "--workload", "gate", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
