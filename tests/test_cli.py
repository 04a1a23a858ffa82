import csv
import json
import math
import shlex
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from labankit import load_manifest, read_features_csv
from labankit.cli import main


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    """A 4-regime dataset: 6 sequences per regime, one fragment each."""
    root = tmp_path_factory.mktemp("dataset")
    assert run("synth", "--out-dir", root, "--per-regime", 6, "--seed", 42) == 0
    features = root / "features.csv"
    assert run("extract", "--manifest", root / "manifest.jsonl",
               "--out", features) == 0
    return root, features


def skeleton_path(root, source_id):
    """The path that synth's manifest in root lists for source_id."""
    entries = load_manifest(root / "manifest.jsonl").entries
    return next(entry.path for entry in entries if entry.source_id == source_id)


def test_synth_writes_sequences_and_manifest(small_dataset):
    root, _ = small_dataset
    manifest = load_manifest(root / "manifest.jsonl")
    assert len(manifest) == 24
    assert Counter(e.tier for e in manifest.entries) == {0: 6, 1: 6, 2: 6, 3: 6}
    assert all(entry.path.exists() for entry in manifest.entries)
    assert {entry.path.suffix for entry in manifest.entries} == {".skel"}


def test_extract_row_count_and_schema(small_dataset):
    _, features = small_dataset
    table = read_features_csv(features)
    assert len(table) == 24  # 5 s sequences, 5 s fragments: one per file
    assert len(table.names) == 110
    assert (features.parent / (features.name + ".config.json")).exists()


def test_extract_two_sequences_two_fragments_each(tmp_path):
    # 10 s sequences with 5 s fragments: 2 files x 2 fragments = 4 rows.
    from labankit import RegimeSpec, generate, save_sequence
    lines = []
    for i in range(2):
        seq = generate(RegimeSpec(0, duration_s=10.0, seed=i), source_id=f"long{i}")
        save_sequence(seq, tmp_path / f"long{i}.json")
        lines.append(json.dumps({"path": f"long{i}.json", "tier": 0}))
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("\n".join(lines) + "\n")
    out = tmp_path / "features.csv"
    assert run("extract", "--manifest", manifest, "--out", out) == 0
    table = read_features_csv(out)
    assert len(table) == 4
    assert table.start_frames.tolist() == [0, 150, 0, 150]


def test_extract_empty_manifest(tmp_path, capsys):
    manifest = tmp_path / "empty.jsonl"
    manifest.write_text("")
    out = tmp_path / "features.csv"
    assert run("extract", "--manifest", manifest, "--out", out) == 0
    table = read_features_csv(out)
    assert len(table) == 0
    assert len(table.names) == 110
    assert "empty manifest" in capsys.readouterr().err


def test_extract_warns_about_files_too_short_for_a_fragment(tmp_path, capsys):
    from labankit import RegimeSpec, generate, save_sequence
    lines = []
    for name, seconds in (("short", 3.5), ("long", 5.0)):
        seq = generate(RegimeSpec(0, duration_s=seconds, seed=1), source_id=name)
        save_sequence(seq, tmp_path / f"{name}.json")
        lines.append(json.dumps({"path": f"{name}.json", "tier": 0}))
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("\n".join(lines) + "\n")
    out = tmp_path / "features.csv"
    assert run("extract", "--manifest", manifest, "--out", out) == 0
    captured = capsys.readouterr()
    assert captured.out == f"wrote 1 fragment rows to {out}\n"
    warnings = captured.err.splitlines()
    assert len(warnings) == 1
    assert "1 file(s)" in warnings[0] and "short.json" in warnings[0]
    assert "long.json" not in warnings[0]
    assert len(read_features_csv(out)) == 1


def test_features_csv_rejects_non_finite_cells(small_dataset, tmp_path, capsys):
    _, features = small_dataset
    with open(features) as fh:
        rows = list(csv.reader(fh))
    column = "effort.flow.mean"
    for cell in ("nan", "inf", "-inf"):
        rows[3][rows[0].index(column)] = cell
        broken = tmp_path / f"{cell}.csv"
        with open(broken, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        with pytest.raises(ValueError, match=f"{cell}.csv:4: .*'{column}'"):
            read_features_csv(broken)
        assert run("rank-features", "--features", broken,
                   "--out", tmp_path / "ranking.csv") == 2
        assert f"{cell}.csv:4" in capsys.readouterr().err


def test_a_field_over_the_csv_field_size_limit_exits_2_with_its_line(
        small_dataset, tmp_path, capsys):
    _, features = small_dataset
    with open(features) as fh:
        rows = list(csv.reader(fh))
    rows[2][0] = "s" * 60
    long_field = tmp_path / "long_field.csv"
    with open(long_field, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    default = csv.field_size_limit(50)
    try:
        code = run("rank-features", "--features", long_field,
                   "--out", tmp_path / "ranking.csv")
    finally:
        csv.field_size_limit(default)
    assert code == 2
    assert f"{long_field}:3: field larger than field limit (50)" in capsys.readouterr().err


def test_features_csv_names_the_first_non_finite_cell_by_file_line(tmp_path):
    # Blank lines are skipped but still counted: the message gives the
    # file line, not the row index.
    path = tmp_path / "blank.csv"
    path.write_text("source_id,start_frame,tier,a,b\n"
                    "s0,0,1,1.5,2.5\n"
                    "\n"
                    "s1,0,2,0.5,0.25\n"
                    "\n"
                    "\n"
                    "s2,0,3,3.0,inf\n"
                    "s3,0,0,nan,-inf\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        read_features_csv(path)
    assert str(exc.value) == f"{path}:7: non-finite value inf in column 'b'"
    path.write_text(path.read_text().replace(",inf\n", ",4.0\n"))
    with pytest.raises(ValueError) as exc:
        read_features_csv(path)
    assert str(exc.value) == f"{path}:8: non-finite value nan in column 'a'"


def test_extract_partial_failure(small_dataset, tmp_path, capsys):
    root, _ = small_dataset
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{broken")
    missing = tmp_path / "missing.skel"
    lines = [json.dumps({"path": str(skeleton_path(root, "r0_0000")), "tier": 0}),
             json.dumps({"path": str(corrupt), "tier": 1}),
             json.dumps({"path": str(missing), "tier": 1}),
             json.dumps({"path": str(skeleton_path(root, "r2_0000")), "tier": 2})]
    manifest = tmp_path / "mixed.jsonl"
    manifest.write_text("\n".join(lines) + "\n")
    out = tmp_path / "features.csv"
    assert run("extract", "--manifest", manifest, "--out", out) == 1
    table = read_features_csv(out)
    assert len(table) == 2  # the two valid files still produce rows
    log = (out.parent / (out.name + ".errors.log")).read_text()
    err = capsys.readouterr().err
    # Each failing file is named exactly once, on stderr and in the log.
    for path in (corrupt, missing):
        assert log.count(path.name) == 1 and err.count(path.name) == 1
    assert f"error: {missing}: No such file or directory\n" in err
    assert f"{missing}\tNo such file or directory\n" in log


def _tier_case(tmp_path, file_tier, manifest_tier, suffix=".json"):
    from labankit import RegimeSpec, SkeletonSequence, generate, save_sequence
    seq = generate(RegimeSpec(2, duration_s=5.0, seed=3), source_id="clip")
    save_sequence(SkeletonSequence("clip", seq.fps, seq.positions, file_tier),
                  tmp_path / f"clip{suffix}")
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(json.dumps({"path": f"clip{suffix}", "tier": manifest_tier}) + "\n")
    return manifest, tmp_path / "features.csv"


def test_extract_fails_a_file_whose_tier_differs_from_the_manifest(tmp_path, capsys):
    manifest, out = _tier_case(tmp_path, file_tier=2, manifest_tier=0)
    assert run("extract", "--manifest", manifest, "--out", out) == 1
    assert len(read_features_csv(out)) == 0
    log = (out.parent / (out.name + ".errors.log")).read_text()
    assert log == f"{tmp_path / 'clip.json'}\tfile tier 2 differs from manifest tier 0\n"
    assert "file tier 2 differs from manifest tier 0" in capsys.readouterr().err


def test_extract_fails_a_container_whose_tier_differs_from_the_manifest(tmp_path):
    manifest, out = _tier_case(tmp_path, file_tier=2, manifest_tier=0, suffix=".skel")
    assert run("extract", "--manifest", manifest, "--out", out) == 1
    assert len(read_features_csv(out)) == 0
    log = (out.parent / (out.name + ".errors.log")).read_text()
    assert log == f"{tmp_path / 'clip.skel'}\tfile tier 2 differs from manifest tier 0\n"


@pytest.mark.parametrize("fps", [30.0, 29.97])
def test_extract_writes_the_same_features_from_json_and_container_files(tmp_path, fps):
    from labankit import RegimeSpec, generate, save_sequence
    outputs = []
    for suffix in (".json", ".skel"):
        lines = []
        for regime in range(4):
            seq = generate(RegimeSpec(regime, duration_s=8.0, fps=fps, blend=0.6,
                                      seed=regime), source_id=f"s{regime}")
            save_sequence(seq, tmp_path / f"s{regime}{suffix}")
            lines.append(json.dumps({"path": f"s{regime}{suffix}", "tier": regime}))
        manifest = tmp_path / f"manifest_{suffix[1:]}.jsonl"
        manifest.write_text("\n".join(lines) + "\n")
        out = tmp_path / f"features_{suffix[1:]}.csv"
        assert run("extract", "--manifest", manifest, "--out", out, "--stride", 1) == 0
        outputs.append(out.read_bytes())
    assert len(read_features_csv(out)) == 4 * 4
    assert outputs[0] == outputs[1]


def test_extract_labels_a_file_without_a_tier_with_the_manifest_tier(tmp_path):
    manifest, out = _tier_case(tmp_path, file_tier=None, manifest_tier=1)
    assert run("extract", "--manifest", manifest, "--out", out) == 0
    assert read_features_csv(out).tiers.tolist() == [1]
    assert not (out.parent / (out.name + ".errors.log")).exists()


def test_extract_computes_each_covered_frames_dispersion_rows_once(tmp_path, monkeypatch):
    # Two 8 s files cut into 5 s fragments every 1 s: 4 fragments each,
    # from one frame_matrix of each file's 240 frames, Dispersion block and
    # all.
    import labankit.descriptors
    from labankit import RegimeSpec, frame_matrix, generate, save_sequence

    computed = []

    def counting(positions, fps):
        computed.append(len(positions))
        return frame_matrix(positions, fps)

    for i in range(2):
        save_sequence(generate(RegimeSpec(i, duration_s=8.0, seed=i), source_id=f"s{i}"),
                      tmp_path / f"s{i}.json")
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(json.dumps({"path": f"s{i}.json", "tier": i}) + "\n"
                                for i in range(2)))
    out = tmp_path / "features.csv"
    monkeypatch.setattr(labankit.descriptors, "frame_matrix", counting)
    assert run("extract", "--manifest", manifest, "--out", out, "--stride", 1) == 0
    assert len(read_features_csv(out)) == 8
    assert computed == [240, 240]


def test_extract_writes_each_fragment_the_aggregate_of_its_sequence_rows(tmp_path):
    # 9 s at 60 fps cut every 0.5 s: each written vector aggregates the
    # sequence's frame_matrix rows over its fragment, with net displacement
    # measured from the fragment's first frame.
    from labankit import (FRAME_FEATURE_NAMES, RegimeSpec, aggregate, frame_matrix,
                          generate, save_sequence)
    seq = generate(RegimeSpec(2, duration_s=9.0, fps=60.0, blend=0.6, seed=5),
                   source_id="clip")
    save_sequence(seq, tmp_path / "clip.skel")
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(json.dumps({"path": "clip.skel", "tier": 2}) + "\n")
    out = tmp_path / "features.csv"
    assert run("extract", "--manifest", manifest, "--out", out, "--stride", 0.5) == 0
    table = read_features_csv(out)
    assert table.start_frames.tolist() == list(range(0, 241, 30))
    rows = frame_matrix(seq.positions, seq.fps)
    net = FRAME_FEATURE_NAMES.index("trajectory.net_displacement")
    for start, written in zip(table.start_frames, table.values):
        block = rows[start:start + 300].copy()
        pelvis = seq.positions[start:start + 300, 0]
        block[:, net] = np.linalg.norm(pelvis - pelvis[0], axis=1)
        expected = [float(f"{value:.9g}") for value in aggregate(block)]
        assert np.array_equal(written, expected)  # as written, to 9 digits


def test_extract_workers_bit_identical(small_dataset, tmp_path):
    root, _ = small_dataset
    one = tmp_path / "w1.csv"
    four = tmp_path / "w4.csv"
    assert run("extract", "--manifest", root / "manifest.jsonl", "--out", one,
               "--workers", 1) == 0
    assert run("extract", "--manifest", root / "manifest.jsonl", "--out", four,
               "--workers", 4) == 0
    assert one.read_bytes() == four.read_bytes()


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every ThreadPoolExecutor cli starts; none starts a
    thread."""
    from labankit import cli

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    sizes = []
    monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingPool)
    return sizes


def extract_three_files(dataset, tmp_path, requested):
    from labankit import DatasetManifest, save_manifest

    root, features = dataset
    manifest = tmp_path / "three.jsonl"
    save_manifest(DatasetManifest(load_manifest(root / "manifest.jsonl").entries[:3]),
                  manifest)
    out = tmp_path / "three.csv"
    assert run("extract", "--manifest", manifest, "--out", out,
               "--workers", requested) == 0
    assert out.read_bytes().splitlines()[1:] == features.read_bytes().splitlines()[1:4]
    echo = json.loads((tmp_path / "three.csv.config.json").read_text())
    assert echo["params"]["workers"] == requested


@pytest.mark.parametrize("requested, cores, started", [
    (1000, 8, [3]),     # one thread per file
    (1000, 2, [2]),     # one thread per usable CPU
    (2, 8, [2]),        # the requested count
    (1000, 1, []),      # a one-CPU affinity: serial, no pool
    (1000, None, []),   # no affinity and an unknown CPU count counts as one
])
def test_extract_starts_at_most_one_thread_per_file_and_core(
        small_dataset, tmp_path, monkeypatch, pool_sizes, requested, cores, started):
    # cores is the size of the affinity mask on a 64-CPU machine, or None
    # on a platform without sched_getaffinity whose CPU count is unknown.
    from labankit import cli

    if cores is None:
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(cli.os, "sched_getaffinity",
                            lambda pid: set(range(cores)), raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    extract_three_files(small_dataset, tmp_path, requested)
    assert pool_sizes == started


def test_extract_counts_every_cpu_where_the_platform_has_no_affinity(
        small_dataset, tmp_path, monkeypatch, pool_sizes):
    from labankit import cli

    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    extract_three_files(small_dataset, tmp_path, 1000)
    assert pool_sizes == [2]


def test_train_and_predict_round_trip(small_dataset, tmp_path):
    _, features = small_dataset
    model = tmp_path / "model.json"
    assert run("train", "--features", features, "--out", model,
               "--task", "four_way") == 0
    predictions = tmp_path / "pred.csv"
    assert run("predict", "--model", model, "--features", features,
               "--out", predictions) == 0
    with open(predictions) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 24
    correct = sum(int(r["predicted_class"]) == int(r["tier"]) for r in rows)
    assert correct / len(rows) >= 0.99  # separable regimes: self accuracy
    probs = [float(rows[0][f"prob_{c}"]) for c in range(4)]
    assert sum(probs) == pytest.approx(1.0, abs=1e-6)


def test_predict_aligns_columns_by_name(small_dataset, tmp_path):
    _, features = small_dataset
    model = tmp_path / "model.json"
    assert run("train", "--features", features, "--out", model,
               "--task", "binary") == 0

    # permute the feature columns of the CSV
    with open(features) as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    meta = [header.index(c) for c in ("source_id", "start_frame", "tier")]
    feature_idx = [j for j in range(len(header)) if j not in meta]
    rng = np.random.default_rng(0)
    order = meta + [feature_idx[k] for k in rng.permutation(len(feature_idx))]
    permuted = tmp_path / "permuted.csv"
    with open(permuted, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow([row[j] for j in order])

    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert run("predict", "--model", model, "--features", features, "--out", out_a) == 0
    assert run("predict", "--model", model, "--features", permuted, "--out", out_b) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_predict_reports_first_name_mismatch(small_dataset, tmp_path, capsys):
    _, features = small_dataset
    model = tmp_path / "model.json"
    run("train", "--features", features, "--out", model, "--task", "binary")
    with open(features) as fh:
        rows = list(csv.reader(fh))
    rows[0][rows[0].index("effort.flow.mean")] = "effort.flow.renamed"
    broken = tmp_path / "broken.csv"
    with open(broken, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert run("predict", "--model", model, "--features", broken,
               "--out", tmp_path / "x.csv") == 2
    assert "effort.flow.mean" in capsys.readouterr().err


def test_predict_task_guard(small_dataset, tmp_path, capsys):
    _, features = small_dataset
    model = tmp_path / "model.json"
    run("train", "--features", features, "--out", model, "--task", "binary")
    code = run("predict", "--model", model, "--features", features,
               "--out", tmp_path / "p.csv", "--task", "four_way")
    assert code == 2
    assert "binary" in capsys.readouterr().err


def test_predict_refuses_a_model_whose_class_count_is_not_its_tasks(small_dataset,
                                                                   tmp_path, capsys):
    # A four-class model relabelled "binary" would write four prob_ columns
    # under --task binary.
    _, features = small_dataset
    model = tmp_path / "model.json"
    assert run("train", "--features", features, "--out", model, "--task", "four_way") == 0
    payload = json.loads(model.read_text())
    payload["task"] = "binary"
    model.write_text(json.dumps(payload))
    out = tmp_path / "pred.csv"
    assert run("predict", "--model", model, "--features", features, "--out", out,
               "--task", "binary") == 2
    assert capsys.readouterr().err == (
        f"error: {model}: a 'binary' model has 2 classes, not 4\n")
    assert not out.exists() and not _echo_path(out).exists()


def test_evaluate_writes_report_and_prints_matrix(small_dataset, tmp_path, capsys):
    _, features = small_dataset
    report_path = tmp_path / "report.json"
    assert run("evaluate", "--features", features, "--out", report_path,
               "--task", "binary", "--k", 3) == 0
    report = json.loads(report_path.read_text())
    assert report["task"] == "binary"
    assert np.array(report["confusion"]).shape == (2, 2)
    assert report["accuracy"] >= 0.9
    out = capsys.readouterr().out
    assert "rows = true" in out and "pred 1" in out


def test_evaluate_k_too_large_names_class(small_dataset, tmp_path, capsys):
    _, features = small_dataset
    code = run("evaluate", "--features", features, "--out", tmp_path / "r.json",
               "--task", "four_way", "--k", 10)
    assert code == 2
    assert "fewer than k" in capsys.readouterr().err


@pytest.mark.parametrize("tiers, task, message", [
    ({0, 1, 2}, "four_way", "task 'four_way' keeps no rows of class 3 (tier 3)"),
    ({0, 1}, "binary", "task 'binary' keeps no rows of class 1 (tiers 2, 3)"),
    ({1, 2, 3}, "four_way", "task 'four_way' keeps no rows of class 0 (tier 0)"),
], ids=["four_way-without-tier-3", "binary-on-tiers-0-1", "four_way-without-tier-0"])
def test_a_task_class_without_rows_exits_2_before_any_output(small_dataset, tmp_path,
                                                             capsys, tiers, task, message):
    _, features = small_dataset
    with open(features, newline="") as fh:
        rows = list(csv.reader(fh))
    column = rows[0].index("tier")
    subset = tmp_path / "subset.csv"
    with open(subset, "w", newline="") as fh:
        csv.writer(fh).writerows(
            [rows[0]] + [row for row in rows[1:] if int(row[column]) in tiers])
    for command in ("train", "evaluate", "rank-features"):
        assert run(command, "--features", subset, "--task", task,
                   "--out", tmp_path / command) == 2, command
        assert capsys.readouterr().err == f"error: {subset}: {message}\n", command
    assert list(tmp_path.iterdir()) == [subset]


def test_rank_features_csv(small_dataset, tmp_path):
    _, features = small_dataset
    out = tmp_path / "ranking.csv"
    assert run("rank-features", "--features", features, "--out", out,
               "--task", "binary") == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 110
    assert [int(r["rank"]) for r in rows] == list(range(1, 111))
    h_values = [float(r["H"]) for r in rows]
    assert h_values == sorted(h_values, reverse=True)


def test_rank_and_evaluate_tasks_are_independent(small_dataset, tmp_path):
    _, features = small_dataset
    a = tmp_path / "four.csv"
    b = tmp_path / "binary.csv"
    assert run("rank-features", "--features", features, "--out", a,
               "--task", "four_way") == 0
    assert run("rank-features", "--features", features, "--out", b,
               "--task", "binary") == 0
    assert a.read_bytes() != b.read_bytes()


def test_balance_command(small_dataset, tmp_path):
    root, _ = small_dataset
    out = tmp_path / "balanced.jsonl"
    assert run("balance", "--manifest", root / "manifest.jsonl", "--out", out,
               "--per-class", 4, "--seed", 1) == 0
    manifest = load_manifest(out)
    assert Counter(e.tier for e in manifest.entries) == {0: 4, 1: 4, 2: 4, 3: 4}
    assert all(e.path.exists() for e in manifest.entries)


def test_balance_rejects_small_tier(small_dataset, tmp_path, capsys):
    root, _ = small_dataset
    code = run("balance", "--manifest", root / "manifest.jsonl",
               "--out", tmp_path / "b.jsonl", "--per-class", 10)
    assert code == 2
    assert "tier 0 has 6" in capsys.readouterr().err


def test_config_echo_reruns_bit_exactly(small_dataset, tmp_path):
    _, features = small_dataset
    report = tmp_path / "report.json"
    assert run("evaluate", "--features", features, "--out", report,
               "--task", "three_way", "--k", 3, "--seed", 5) == 0
    first = report.read_bytes()
    echo = report.parent / (report.name + ".config.json")
    assert echo.exists()
    assert run("evaluate", "--config", echo) == 0
    assert report.read_bytes() == first


def test_train_seed_flag_is_gone_and_old_echoes_still_load(small_dataset, tmp_path):
    _, features = small_dataset
    model = tmp_path / "model.json"
    with pytest.raises(SystemExit) as err:
        run("train", "--features", features, "--out", model, "--seed", 1)
    assert err.value.code == 2
    assert run("train", "--features", features, "--out", model) == 0
    echo = model.parent / (model.name + ".config.json")
    assert "seed" not in json.loads(echo.read_text())["params"]
    old = json.loads(echo.read_text())
    old["params"]["seed"] = 0
    old_echo = tmp_path / "old.config.json"
    old_echo.write_text(json.dumps(old))
    first = model.read_bytes()
    assert run("train", "--config", old_echo) == 0
    assert model.read_bytes() == first


def test_config_echo_subcommand_mismatch(small_dataset, tmp_path, capsys):
    _, features = small_dataset
    report = tmp_path / "r.json"
    run("evaluate", "--features", features, "--out", report, "--task", "binary",
        "--k", 2)
    echo = report.parent / (report.name + ".config.json")
    assert run("train", "--config", echo) == 2
    assert "evaluate" in capsys.readouterr().err


def test_config_echo_key_that_is_no_option_exits_2_naming_it(small_dataset, tmp_path,
                                                             capsys):
    # "l2_lambda" in place of "l2" used to rerun silently at the default l2.
    _, features = small_dataset
    report = tmp_path / "r.json"
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"subcommand": "evaluate", "params": {
        "features": str(features), "out": str(report), "l2_lambda": 100}}))
    assert run("evaluate", "--config", config) == 2
    assert capsys.readouterr().err == (
        f"error: config {config}: 'l2_lambda' is not an option of evaluate\n")
    assert list(tmp_path.iterdir()) == [config]


def test_missing_required_flags_exit_2(capsys):
    assert run("extract") == 2
    assert "--manifest" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        run("no-such-command")
    assert err.value.code == 2


ECHO_KEYS = {
    "synth": ["out_dir", "per_regime", "duration", "fps", "noise", "blend", "seed"],
    "extract": ["manifest", "out", "length", "stride", "workers"],
    "train": ["features", "out", "task", "l2", "max_iters", "grad_tol"],
    "predict": ["model", "features", "out", "task"],
    "evaluate": ["features", "out", "task", "k", "l2", "max_iters", "grad_tol",
                 "seed"],
    "rank-features": ["features", "out", "task"],
    "balance": ["manifest", "out", "per_class", "seed"],
}


def _echo_path(output):
    return output.parent / (output.name + ".config.json")


def test_main_reuses_one_parser_and_no_value_leaks_between_calls(small_dataset,
                                                                 tmp_path):
    from labankit.cli import build_parser
    assert build_parser() is build_parser()
    _, features = small_dataset
    report = tmp_path / "report.json"
    for argv, l2 in ((["--l2", 0.5], 0.5), ([], 1.0)):
        assert run("evaluate", "--features", features, "--out", report, *argv) == 0
        assert json.loads(_echo_path(report).read_text())["params"]["l2"] == l2


def test_config_echo_keys_are_pinned_and_reruns_rewrite_every_byte(tmp_path):
    data = tmp_path / "data"
    manifest = data / "manifest.jsonl"
    features = tmp_path / "features.csv"
    model = tmp_path / "model.json"
    outputs = {
        "synth": (manifest, ["--out-dir", data, "--per-regime", 2, "--seed", 9]),
        "extract": (features, ["--manifest", manifest, "--out", features]),
        "train": (model, ["--features", features, "--out", model,
                          "--task", "binary"]),
        "predict": (tmp_path / "pred.csv", ["--model", model, "--features", features,
                                            "--out", tmp_path / "pred.csv"]),
        "evaluate": (tmp_path / "r.json", ["--features", features, "--task", "binary",
                                           "--k", 2, "--out", tmp_path / "r.json"]),
        "rank-features": (tmp_path / "rank.csv", ["--features", features,
                                                  "--out", tmp_path / "rank.csv"]),
        "balance": (tmp_path / "b.jsonl", ["--manifest", manifest, "--per-class", 1,
                                           "--out", tmp_path / "b.jsonl"]),
    }
    for subcommand, (output, argv) in outputs.items():
        assert run(subcommand, *argv) == 0, subcommand
    assert list(outputs) == list(ECHO_KEYS)
    for subcommand, (output, _) in outputs.items():
        echo = _echo_path(output)
        first = (output.read_bytes(), echo.read_bytes())
        loaded = json.loads(first[1])
        assert loaded["subcommand"] == subcommand
        assert list(loaded["params"]) == ECHO_KEYS[subcommand], subcommand
        assert run(subcommand, "--config", echo) == 0, subcommand
        assert (output.read_bytes(), echo.read_bytes()) == first, subcommand


@pytest.mark.parametrize("subcommand", list(ECHO_KEYS))
def test_help_names_every_option(subcommand, capsys):
    from labankit.cli import _COMMANDS
    keys = [option.key for option in _COMMANDS[subcommand][1]]
    assert keys == ECHO_KEYS[subcommand]
    with pytest.raises(SystemExit) as err:
        run(subcommand, "--help")
    assert err.value.code == 0
    text = capsys.readouterr().out
    for key in ["config", *keys]:
        assert "--" + key.replace("_", "-") in text, key
    if subcommand == "synth":
        assert "(default 10)" in text and "(required)" in text
    if subcommand == "rank-features":
        assert "{four_way,three_way,binary}" in text


def test_readme_quick_start_commands_parse():
    from labankit.cli import _resolve_params, build_parser
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start (CLI)")[1].split("```bash")[1].split("```")[0]
    commands = [line for line in block.splitlines() if line.startswith("labankit ")]
    assert len(commands) == 6
    for line in commands:
        args = build_parser().parse_args(shlex.split(line)[1:])
        _resolve_params(args.subcommand, args)  # every required flag is given


@pytest.mark.parametrize("body", ["[]", '{"subcommand": "train", "params": [1]}',
                                  '{"subcommand": "train", "params": "x"}'])
def test_malformed_config_exits_2_with_its_path(tmp_path, capsys, body):
    config = tmp_path / "a.json"
    config.write_text(body)
    assert run("train", "--config", config) == 2
    assert str(config) in capsys.readouterr().err


@pytest.mark.parametrize("subcommand, key, value", [
    ("synth", "per_regime", 2.7),
    ("synth", "seed", True),
    ("synth", "per_regime", "abc"),
    ("synth", "per_regime", None),
    ("synth", "duration", "5"),
    ("synth", "duration", 10 ** 400),
    ("synth", "out_dir", 3),
    ("rank-features", "task", "five_way"),
])
def test_config_values_are_checked_against_the_option_type(tmp_path, capsys,
                                                            subcommand, key, value):
    out = tmp_path / "out"
    paths = {"out_dir": str(out), "features": "f.csv", "out": str(out)}
    params = {k: v for k, v in paths.items() if k in ECHO_KEYS[subcommand]}
    params[key] = value
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"subcommand": subcommand, "params": params}))
    assert run(subcommand, "--config", config) == 2
    err = capsys.readouterr().err
    assert str(config) in err and repr(key) in err
    assert list(tmp_path.iterdir()) == [config]


def test_config_int_for_a_float_option_is_taken_as_float(tmp_path):
    data = tmp_path / "data"
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"subcommand": "synth", "params": {
        "out_dir": str(data), "per_regime": 1, "duration": 4}}))
    assert run("synth", "--config", config) == 0
    echo = json.loads(_echo_path(data / "manifest.jsonl").read_text())
    assert echo["params"]["duration"] == 4.0
    assert isinstance(echo["params"]["duration"], float)


@pytest.mark.parametrize("argv, message", [
    (["extract", "--workers", 0], "--workers"),
    (["extract", "--workers", -3], "--workers"),
    (["extract", "--length", 2], "--length"),
    (["extract", "--length", "nan"], "--length"),
    (["extract", "--stride", 0], "--stride"),
    (["synth", "--per-regime", -1], "--per-regime"),
    (["extract", "--length", "inf"], "--length must be finite, got inf"),
    (["extract", "--stride", "inf"], "--stride must be finite, got inf"),
    (["train", "--grad-tol", "inf"], "--grad-tol must be finite, got inf"),
    (["train", "--l2", "nan"], "--l2 must be finite, got nan"),
    (["evaluate", "--grad-tol", "inf"], "--grad-tol must be finite, got inf"),
    (["evaluate", "--grad-tol", "nan"], "--grad-tol must be finite, got nan"),
    (["evaluate", "--l2", "inf"], "--l2 must be finite, got inf"),
    (["evaluate", "--l2", "nan"], "--l2 must be finite, got nan"),
    (["evaluate", "--l2", -0.5], "--l2 must be >= 0, got -0.5"),
    (["evaluate", "--grad-tol", 0], "--grad-tol must be > 0, got 0.0"),
    (["evaluate", "--max-iters", 0], "--max-iters must be >= 1, got 0"),
    (["evaluate", "--k", 1], "--k must be >= 2, got 1"),
    (["synth", "--fps", "inf"], "--fps must be finite, got inf"),
    (["balance", "--per-class", 0], "--per-class must be >= 1, got 0"),
])
def test_out_of_range_values_exit_2_before_any_output(small_dataset, tmp_path,
                                                      capsys, argv, message):
    root, features = small_dataset
    out = tmp_path / "out"
    paths = {"extract": ["--manifest", root / "manifest.jsonl", "--out", out],
             "train": ["--features", features, "--out", out],
             "evaluate": ["--features", features, "--out", out],
             "synth": ["--out-dir", out],
             "balance": ["--manifest", root / "manifest.jsonl", "--out", out]}
    assert run(*argv, *paths[argv[0]]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_out_of_range_config_value_exits_2_naming_the_flag(small_dataset, tmp_path,
                                                           capsys):
    root, _ = small_dataset
    out = tmp_path / "features.csv"
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"subcommand": "extract", "params": {
        "manifest": str(root / "manifest.jsonl"), "out": str(out), "workers": 0}}))
    assert run("extract", "--config", config) == 2
    assert "--workers" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("subcommand, key, value, message", [
    ("evaluate", "grad_tol", math.nan, "--grad-tol must be finite, got nan"),
    ("evaluate", "l2", math.inf, "--l2 must be finite, got inf"),
    ("train", "grad_tol", -math.inf, "--grad-tol must be finite, got -inf"),
    ("extract", "length", math.inf, "--length must be finite, got inf"),
])
def test_non_finite_config_value_exits_2_naming_the_flag(small_dataset, tmp_path, capsys,
                                                         subcommand, key, value, message):
    root, features = small_dataset
    paths = {"manifest": str(root / "manifest.jsonl"), "features": str(features),
             "out": str(tmp_path / "out")}
    params = {k: v for k, v in paths.items() if k in ECHO_KEYS[subcommand]}
    params[key] = value
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"subcommand": subcommand, "params": params}))
    assert run(subcommand, "--config", config) == 2
    assert f"error: {message}\n" == capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("argv, message", [
    (["--duration", 2], "duration must be finite and >= 3 s"),
    (["--duration", "nan"], "duration must be"),
    (["--duration", "inf"], "duration must be"),
    (["--fps", 500], "fps must be in [10, 120]"),
    (["--noise", "nan"], "--noise must be finite, got nan"),
    (["--noise", "inf"], "--noise must be finite, got inf"),
], ids=["duration-2", "duration-nan", "duration-inf", "fps-500", "noise-nan",
        "noise-inf"])
def test_synth_bad_spec_exits_2_and_creates_no_directory(tmp_path, capsys, argv,
                                                         message):
    assert run("synth", "--out-dir", tmp_path / "d", "--per-regime", 1, *argv) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("column", ["dispersion.head_pelvis.mean", "tier"])
def test_repeated_csv_column_exits_2(small_dataset, tmp_path, capsys, column):
    # A second, zero-filled copy of a column used to replace the first silently.
    _, features = small_dataset
    with open(features, newline="") as fh:
        rows = list(csv.reader(fh))
    doubled = tmp_path / "doubled.csv"
    with open(doubled, "w", newline="") as fh:
        csv.writer(fh).writerows(
            [rows[0] + [column]] + [row + ["0"] for row in rows[1:]])
    for command in ("evaluate", "rank-features"):
        out = tmp_path / f"{command}.out"
        assert run(command, "--features", doubled, "--out", out) == 2
        assert f"{doubled}: duplicate column {column!r}" in capsys.readouterr().err
        assert not out.exists()


def _nan_std(payload):
    payload["standardizer"]["stds"][0] = float("nan")
    return payload


def _drop_weights(payload):
    del payload["weights"]
    return payload


@pytest.mark.parametrize("edit, message", [
    (_nan_std, "means and stds must be finite"),
    (_drop_weights, "missing key 'weights'"),
    (lambda payload: [1], "expected a JSON object"),
], ids=["nan-std", "missing-key", "top-level-list"])
def test_predict_with_a_broken_model_exits_2_naming_it(small_dataset, tmp_path,
                                                       capsys, edit, message):
    _, features = small_dataset
    model = tmp_path / "model.json"
    assert run("train", "--features", features, "--out", model) == 0
    model.write_text(json.dumps(edit(json.loads(model.read_text()))))
    out = tmp_path / "pred.csv"
    assert run("predict", "--model", model, "--features", features, "--out", out) == 2
    assert f"{model}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("record, message", [
    ({"path": 5}, "manifest entry path must be a string, got 5"),
    ({"source_id": None}, "manifest entry source_id must be a string, got None"),
    ({"tier": None}, "tier must be an integer in (0, 1, 2, 3), got None"),
], ids=["int-path", "null-source-id", "null-tier"])
def test_bad_manifest_entry_exits_2_naming_its_line(small_dataset, tmp_path, capsys,
                                                    record, message):
    root, _ = small_dataset
    good = {"path": str(skeleton_path(root, "r0_0000")), "tier": 0}
    manifest = tmp_path / "manifest.jsonl"
    bad = {"path": str(skeleton_path(root, "r1_0000")), "tier": 1, **record}
    manifest.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    assert run("extract", "--manifest", manifest, "--out", tmp_path / "f.csv") == 2
    err = capsys.readouterr().err
    assert f"{manifest}:2: " in err and message in err
    assert list(tmp_path.iterdir()) == [manifest]


def test_feature_csv_tier_outside_0_3_exits_2_naming_its_line(small_dataset, tmp_path,
                                                               capsys):
    _, features = small_dataset
    model = tmp_path / "model.json"
    assert run("train", "--features", features, "--out", model) == 0
    with open(features, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[3][rows[0].index("tier")] = "7"
    broken = tmp_path / "tier7.csv"
    with open(broken, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with pytest.raises(ValueError, match="tier7.csv:4: tier 7 not in"):
        read_features_csv(broken)
    for command, extra in (("evaluate", []), ("train", []), ("rank-features", []),
                           ("predict", ["--model", model])):
        out = tmp_path / f"{command}.out"
        assert run(command, *extra, "--features", broken, "--out", out) == 2
        assert f"{broken}:4: tier 7 not in" in capsys.readouterr().err
        assert not out.exists()


# ---------------------------------------------------------------------------
# names the benchmark hooks into
# ---------------------------------------------------------------------------

def test_every_name_the_benchmark_tracer_wraps_resolves():
    # A traced benchmark pass wraps each (module, attribute) of
    # benchmarks/spans.LAYER_TARGETS, and its self-test replaces one
    # subcommand's handler, so renaming any of them breaks the benchmark.
    import importlib
    import importlib.util

    from labankit import cli

    path = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYER_TARGETS
    for module_name, attr, _, _ in spans.LAYER_TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr))
    assert set(cli._HANDLERS) == set(cli._COMMANDS)
    assert "rank-features" in cli._HANDLERS
