"""Command-line entry point: synth, extract, train, predict, evaluate,
rank-features, balance.

Every command writes a config echo (<output>.config.json) recording its
resolved parameters; re-running with --config <echo> reproduces the
outputs byte for byte. Exit codes: 0 success, 1 partial data failure,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .classifier import TrainConfig, load_model, predict_proba, save_model, train
from .descriptors import FEATURE_NAMES_110, FEATURE_SCHEMA_VERSION, fragment_features
from .evaluation import cross_validate, get_task, remap_task, render_confusion
from .features_io import (read_features_csv, write_features_csv,
                          write_ranking_csv)
from .skeleton import (DatasetManifest, ManifestEntry, SkeletonError,
                       balance_dataset, load_manifest, load_sequence,
                       save_manifest, save_sequence, slice_fragments,
                       with_tier)
from .stats import rank_features
from .synth import N_REGIMES, RegimeSpec, generate

ECHO_SUFFIX = ".config.json"

# Keeps per-sequence seeds disjoint across regimes in cmd_synth.
_SYNTH_SEED_STRIDE = 1_000_000

_DEFAULTS: dict[str, dict] = {
    "synth": {
        "out_dir": None, "per_regime": 10, "duration": 5.0, "fps": 30.0,
        "noise": 0.005, "blend": 0.0, "seed": 0,
    },
    "extract": {
        "manifest": None, "out": None, "length": 5.0, "stride": 5.0,
        "workers": 1,
    },
    "train": {
        "features": None, "out": None, "task": "four_way", "l2": 1.0,
        "max_iters": 1000, "grad_tol": 1e-6,
    },
    "predict": {
        "model": None, "features": None, "out": None, "task": None,
    },
    "evaluate": {
        "features": None, "out": None, "task": "four_way", "k": 5,
        "l2": 1.0, "max_iters": 1000, "grad_tol": 1e-6, "seed": 0,
    },
    "rank-features": {
        "features": None, "out": None, "task": "four_way",
    },
    "balance": {
        "manifest": None, "out": None, "per_class": None, "seed": 0,
    },
}

_REQUIRED: dict[str, tuple[str, ...]] = {
    "synth": ("out_dir",),
    "extract": ("manifest", "out"),
    "train": ("features", "out"),
    "predict": ("model", "features", "out"),
    "evaluate": ("features", "out"),
    "rank-features": ("features", "out"),
    "balance": ("manifest", "out", "per_class"),
}


class UsageError(ValueError):
    """A configuration problem the user must fix (exit code 2)."""


def _resolve_params(subcommand: str, args: argparse.Namespace) -> dict:
    """Merge defaults, --config echo values, and explicit flags (in that order)."""
    params = dict(_DEFAULTS[subcommand])
    if args.config is not None:
        try:
            echo = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}") from exc
        if echo.get("subcommand") != subcommand:
            raise UsageError(
                f"config {args.config} is for {echo.get('subcommand')!r}, "
                f"not {subcommand!r}"
            )
        for key, value in echo.get("params", {}).items():
            if key in params:
                params[key] = value
    for key in params:
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            params[key] = value
    missing = [k for k in _REQUIRED[subcommand] if params[k] is None]
    if missing:
        raise UsageError(
            f"{subcommand}: missing required option(s): "
            + ", ".join(f"--{m.replace('_', '-')}" for m in missing)
        )
    return params


def _write_echo(output_path: Path, subcommand: str, params: dict) -> None:
    echo = {
        "tool": "labankit",
        "version": __version__,
        "feature_schema_version": FEATURE_SCHEMA_VERSION,
        "subcommand": subcommand,
        "params": params,
    }
    echo_path = output_path.with_name(output_path.name + ECHO_SUFFIX)
    echo_path.write_text(json.dumps(echo, indent=1) + "\n", encoding="utf-8")


def _canonical_features(table):
    """Align a feature table to the canonical 110-column schema."""
    try:
        return table.aligned_to(FEATURE_NAMES_110)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_synth(params: dict) -> int:
    out_dir = Path(params["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for regime in range(N_REGIMES):
        for i in range(int(params["per_regime"])):
            seed = int(params["seed"]) + regime * _SYNTH_SEED_STRIDE + i
            spec = RegimeSpec(
                regime=regime,
                duration_s=float(params["duration"]),
                fps=float(params["fps"]),
                noise_amp=float(params["noise"]),
                seed=seed,
                blend=float(params["blend"]),
            )
            source_id = f"r{regime}_{i:04d}"
            seq = generate(spec, source_id=source_id)
            file_path = out_dir / f"{source_id}.json"
            save_sequence(seq, file_path)
            entries.append(ManifestEntry(path=file_path, source_id=source_id,
                                         tier=regime))
    manifest_path = out_dir / "manifest.jsonl"
    save_manifest(DatasetManifest(tuple(entries)), manifest_path)
    _write_echo(manifest_path, "synth", params)
    print(f"wrote {len(entries)} sequences and {manifest_path}")
    return 0


def _extract_one(entry, length: float, stride: float):
    seq = with_tier(load_sequence(entry.path), entry.tier)
    return [(entry.source_id, fragment.start_frame, fragment.tier,
             fragment_features(fragment))
            for fragment in slice_fragments(seq, length_s=length, stride_s=stride)]


def cmd_extract(params: dict) -> int:
    manifest = load_manifest(params["manifest"])
    out = Path(params["out"])
    length = float(params["length"])
    stride = float(params["stride"])
    workers = int(params["workers"])

    if not manifest.entries:
        write_features_csv(out, FEATURE_NAMES_110, [])
        _write_echo(out, "extract", params)
        print("warning: empty manifest, wrote header-only CSV", file=sys.stderr)
        return 0

    def job(entry):
        try:
            return entry, _extract_one(entry, length, stride), None
        except (SkeletonError, ValueError, OSError) as exc:
            return entry, None, str(exc)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(job, manifest.entries))
    else:
        results = [job(entry) for entry in manifest.entries]

    failures = [(entry, message) for entry, _, message in results if message]
    all_rows = [row for _, rows, _ in results if rows for row in rows]
    write_features_csv(out, FEATURE_NAMES_110, all_rows)
    _write_echo(out, "extract", params)

    short = [str(entry.path) for entry, rows, _ in results if rows == []]
    if short:
        print(f"warning: {len(short)} file(s) shorter than one {length:g} s "
              f"fragment gave no rows: {', '.join(short)}", file=sys.stderr)

    if failures:
        log_path = out.with_name(out.name + ".errors.log")
        with open(log_path, "w", encoding="utf-8") as fh:
            for entry, message in failures:
                fh.write(f"{entry.path}\t{message}\n")
                print(f"error: {entry.path}: {message}", file=sys.stderr)
        print(f"{len(failures)} file(s) failed; see {log_path}", file=sys.stderr)
        return 1
    print(f"wrote {len(all_rows)} fragment rows to {out}")
    return 0


def _train_config(params: dict) -> TrainConfig:
    return TrainConfig(
        l2_lambda=float(params["l2"]),
        max_iters=int(params["max_iters"]),
        grad_tol=float(params["grad_tol"]),
    )


def cmd_train(params: dict) -> int:
    table = read_features_csv(params["features"])
    if len(table) == 0:
        raise UsageError("feature table has no rows")
    X = _canonical_features(table)
    task = get_task(params["task"])
    labels, mask = remap_task(table.tiers, task)
    try:
        model = train(X[mask], labels, _train_config(params),
                      feature_names=FEATURE_NAMES_110, task=task.kind)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out = Path(params["out"])
    save_model(model, out)
    _write_echo(out, "train", params)
    print(f"trained {task.kind} model on {labels.size} rows -> {out}")
    return 0


def cmd_predict(params: dict) -> int:
    model = load_model(params["model"])
    if params["task"] is not None and params["task"] != model.task:
        raise UsageError(
            f"model was trained for task {model.task!r}, not {params['task']!r}"
        )
    table = read_features_csv(params["features"])
    try:
        X = table.aligned_to(model.feature_names)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    out = Path(params["out"])
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "source_id", "start_frame", "tier", "predicted_class",
            *(f"prob_{c}" for c in range(model.class_count)),
        ])
        if len(table):
            probs = predict_proba(model, X)
            classes = np.argmax(probs, axis=1)
            for i in range(len(table)):
                writer.writerow([
                    table.source_ids[i], table.start_frames[i], table.tiers[i],
                    int(classes[i]),
                    *(f"{p:.9g}" for p in probs[i]),
                ])
    _write_echo(out, "predict", params)
    print(f"wrote {len(table)} predictions to {out}")
    return 0


def cmd_evaluate(params: dict) -> int:
    table = read_features_csv(params["features"])
    if len(table) == 0:
        raise UsageError("feature table has no rows")
    X = _canonical_features(table)
    task = get_task(params["task"])
    try:
        report = cross_validate(X, table.tiers, task, k=int(params["k"]),
                                config=_train_config(params), seed=int(params["seed"]),
                                feature_names=FEATURE_NAMES_110)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out = Path(params["out"])
    out.write_text(json.dumps(report.to_dict(), indent=1) + "\n", encoding="utf-8")
    _write_echo(out, "evaluate", params)
    print(render_confusion(report))
    return 0


def cmd_rank_features(params: dict) -> int:
    table = read_features_csv(params["features"])
    if len(table) == 0:
        raise UsageError("feature table has no rows")
    task = get_task(params["task"])
    labels, mask = remap_task(table.tiers, task)
    try:
        ranking = rank_features(table.values[mask], labels, table.names)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out = Path(params["out"])
    write_ranking_csv(out, ranking)
    _write_echo(out, "rank-features", params)
    print(f"wrote {len(ranking)}-feature ranking to {out}")
    return 0


def cmd_balance(params: dict) -> int:
    manifest = load_manifest(params["manifest"])
    try:
        balanced = balance_dataset(manifest, int(params["per_class"]),
                                   int(params["seed"]))
    except (SkeletonError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    out = Path(params["out"])
    save_manifest(balanced, out)
    _write_echo(out, "balance", params)
    print(f"wrote balanced manifest ({len(balanced)} entries) to {out}")
    return 0


_HANDLERS = {
    "synth": cmd_synth,
    "extract": cmd_extract,
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "rank-features": cmd_rank_features,
    "balance": cmd_balance,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labankit",
        description="Laban Movement Analysis descriptors and ordinal motion "
                    "classification for SMPL skeleton trajectories.",
    )
    parser.add_argument("--version", action="version", version=f"labankit {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="config echo JSON to re-run from")
        return p

    p = add("synth", "generate a synthetic four-regime skeleton dataset")
    p.add_argument("--out-dir", dest="out_dir", help="output directory")
    p.add_argument("--per-regime", dest="per_regime", type=int,
                   help="sequences per regime (default 10)")
    p.add_argument("--duration", type=float, help="sequence length in seconds (default 5)")
    p.add_argument("--fps", type=float, help="frame rate (default 30)")
    p.add_argument("--noise", type=float, help="position jitter std in meters (default 0.005)")
    p.add_argument("--blend", type=float,
                   help="adjacent-regime overlap half-width in [0, 1) (default 0)")
    p.add_argument("--seed", type=int, help="base seed (default 0)")

    p = add("extract", "compute 110-dim fragment features from a manifest")
    p.add_argument("--manifest", help="JSON-lines manifest of skeleton files")
    p.add_argument("--out", help="output feature CSV")
    p.add_argument("--length", type=float, help="fragment length in seconds (default 5)")
    p.add_argument("--stride", type=float, help="fragment stride in seconds (default 5)")
    p.add_argument("--workers", type=int, help="parallel file workers (default 1)")

    p = add("train", "train a logistic-regression model on a feature CSV")
    p.add_argument("--features", help="input feature CSV")
    p.add_argument("--out", help="output model JSON")
    p.add_argument("--task", choices=["four_way", "three_way", "binary"])
    p.add_argument("--l2", type=float, help="L2 weight penalty (default 1.0)")
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--grad-tol", dest="grad_tol", type=float)

    p = add("predict", "predict classes and probabilities for feature rows")
    p.add_argument("--model", help="model JSON from train")
    p.add_argument("--features", help="input feature CSV")
    p.add_argument("--out", help="output prediction CSV")
    p.add_argument("--task", choices=["four_way", "three_way", "binary"],
                   help="guard: must match the model's task")

    p = add("evaluate", "stratified k-fold cross-validation report")
    p.add_argument("--features", help="input feature CSV")
    p.add_argument("--out", help="output report JSON")
    p.add_argument("--task", choices=["four_way", "three_way", "binary"])
    p.add_argument("--k", type=int, help="fold count (default 5)")
    p.add_argument("--l2", type=float)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--grad-tol", dest="grad_tol", type=float)
    p.add_argument("--seed", type=int)

    p = add("rank-features", "Kruskal-Wallis feature ranking for a task")
    p.add_argument("--features", help="input feature CSV")
    p.add_argument("--out", help="output ranking CSV")
    p.add_argument("--task", choices=["four_way", "three_way", "binary"])

    p = add("balance", "seeded per-tier subsampling of a manifest")
    p.add_argument("--manifest", help="input manifest")
    p.add_argument("--out", help="output manifest")
    p.add_argument("--per-class", dest="per_class", type=int,
                   help="entries to keep per tier")
    p.add_argument("--seed", type=int)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        params = _resolve_params(args.subcommand, args)
        return _HANDLERS[args.subcommand](params)
    except (ValueError, OSError) as exc:  # UsageError, SkeletonError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
