import csv
import json
import shlex
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


def test_synth_writes_sequences_and_manifest(small_dataset):
    root, _ = small_dataset
    manifest = load_manifest(root / "manifest.jsonl")
    assert len(manifest) == 24
    assert manifest.tier_counts() == {0: 6, 1: 6, 2: 6, 3: 6}
    assert all(entry.path.exists() for entry in manifest.entries)


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


def test_extract_partial_failure(small_dataset, tmp_path, capsys):
    root, _ = small_dataset
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{broken")
    lines = [json.dumps({"path": str(root / "r0_0000.json"), "tier": 0}),
             json.dumps({"path": str(corrupt), "tier": 1}),
             json.dumps({"path": str(root / "r2_0000.json"), "tier": 2})]
    manifest = tmp_path / "mixed.jsonl"
    manifest.write_text("\n".join(lines) + "\n")
    out = tmp_path / "features.csv"
    assert run("extract", "--manifest", manifest, "--out", out) == 1
    table = read_features_csv(out)
    assert len(table) == 2  # the two valid files still produce rows
    log = (out.parent / (out.name + ".errors.log")).read_text()
    assert "corrupt.json" in log
    assert "corrupt.json" in capsys.readouterr().err


def test_extract_workers_bit_identical(small_dataset, tmp_path):
    root, _ = small_dataset
    one = tmp_path / "w1.csv"
    four = tmp_path / "w4.csv"
    assert run("extract", "--manifest", root / "manifest.jsonl", "--out", one,
               "--workers", 1) == 0
    assert run("extract", "--manifest", root / "manifest.jsonl", "--out", four,
               "--workers", 4) == 0
    assert one.read_bytes() == four.read_bytes()


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
    assert manifest.tier_counts() == {0: 4, 1: 4, 2: 4, 3: 4}
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
    params = {"out_dir": str(out), "features": "f.csv", "out": str(out), key: value}
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


@pytest.mark.parametrize("argv, flag", [
    (["extract", "--workers", 0], "--workers"),
    (["extract", "--workers", -3], "--workers"),
    (["extract", "--length", 2], "--length"),
    (["extract", "--length", "nan"], "--length"),
    (["extract", "--stride", 0], "--stride"),
    (["synth", "--per-regime", -1], "--per-regime"),
])
def test_out_of_range_values_exit_2_before_any_output(small_dataset, tmp_path,
                                                      capsys, argv, flag):
    root, _ = small_dataset
    out = tmp_path / "out"
    paths = {"extract": ["--manifest", root / "manifest.jsonl", "--out", out],
             "synth": ["--out-dir", out]}
    assert run(*argv, *paths[argv[0]]) == 2
    assert flag in capsys.readouterr().err
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


@pytest.mark.parametrize("argv, message", [
    (["--duration", 2], "duration must be finite and >= 3 s"),
    (["--duration", "nan"], "duration must be"),
    (["--duration", "inf"], "duration must be"),
    (["--fps", 500], "fps must be in [10, 120]"),
    (["--noise", "nan"], "noise amplitude must be finite and >= 0"),
    (["--noise", "inf"], "noise amplitude must be finite and >= 0"),
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
