"""Command-line entry point: synth, extract, train, predict, evaluate,
rank-features, balance.

Every command writes a config echo (<output>.config.json) recording its
resolved parameters; re-running with --config <echo> reproduces the
outputs byte for byte. Exit codes: 0 success, 1 partial data failure,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import cache, partial
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .classifier import TrainConfig, load_model, predict_proba, save_model, train
from .descriptors import FEATURE_NAMES_110, FEATURE_SCHEMA_VERSION, fragment_features
from .evaluation import TASKS, cross_validate, get_task, remap_task, render_confusion
from .features_io import (read_features_csv, write_features_csv,
                          write_predictions_csv, write_ranking_csv)
from .skeleton import (MIN_FRAGMENT_SECONDS, SKELETON_SUFFIX, DatasetManifest,
                       ManifestEntry, balance_dataset, load_manifest, load_sequence,
                       save_manifest, save_sequence, slice_fragments)
from .stats import rank_features
from .synth import N_REGIMES, RegimeSpec, generate

ECHO_SUFFIX = ".config.json"

# Keeps per-sequence seeds disjoint across regimes in cmd_synth.
_SYNTH_SEED_STRIDE = 1_000_000

_REQUIRED = object()
_BOUNDS = {">=": operator.ge, ">": operator.gt}


class _Option(NamedTuple):
    """One subcommand option; its flag is --key with "_" written "-".

    default is _REQUIRED, None (optional, unset) or the value used when
    neither the config echo nor a flag sets one. bound is (">=" or ">", limit).
    """
    key: str
    type: type
    default: object
    help: str
    choices: object = None
    bound: tuple | None = None


_FEATURES = _Option("features", str, _REQUIRED, "input feature CSV")
_TASK = _Option("task", str, "four_way", "classification task", TASKS)
_SOLVER = (
    _Option("l2", float, 1.0, "L2 weight penalty", bound=(">=", 0)),
    _Option("max_iters", int, 1000, "Newton iteration cap", bound=(">=", 1)),
    _Option("grad_tol", float, 1e-6, "gradient max-norm stopping tolerance",
            bound=(">", 0)),
)

# Subcommand -> (help, options). Option order is the config echo key order.
_COMMANDS: dict[str, tuple[str, tuple[_Option, ...]]] = {
    "synth": ("generate a synthetic four-regime skeleton dataset", (
        _Option("out_dir", str, _REQUIRED, "output directory"),
        _Option("per_regime", int, 10, "sequences per regime", bound=(">=", 1)),
        _Option("duration", float, 5.0, "sequence length in seconds"),
        _Option("fps", float, 30.0, "frame rate"),
        _Option("noise", float, 0.005, "position jitter std in meters"),
        _Option("blend", float, 0.0, "adjacent-regime overlap half-width in [0, 1)"),
        _Option("seed", int, 0, "base seed"),
    )),
    "extract": ("compute 110-dim fragment features from a manifest", (
        _Option("manifest", str, _REQUIRED, "JSON-lines manifest of skeleton files"),
        _Option("out", str, _REQUIRED, "output feature CSV"),
        _Option("length", float, 5.0, "fragment length in seconds",
                bound=(">=", MIN_FRAGMENT_SECONDS)),
        _Option("stride", float, 5.0, "fragment stride in seconds", bound=(">", 0)),
        _Option("workers", int, 1, "parallel file workers, at most one per file "
                "and usable CPU", bound=(">=", 1)),
    )),
    "train": ("train a logistic-regression model on a feature CSV", (
        _FEATURES,
        _Option("out", str, _REQUIRED, "output model JSON"),
        _TASK, *_SOLVER,
    )),
    "predict": ("predict classes and probabilities for feature rows", (
        _Option("model", str, _REQUIRED, "model JSON from train"),
        _FEATURES,
        _Option("out", str, _REQUIRED, "output prediction CSV"),
        _Option("task", str, None, "guard: must match the model's task", TASKS),
    )),
    "evaluate": ("stratified k-fold cross-validation report", (
        _FEATURES,
        _Option("out", str, _REQUIRED, "output report JSON"),
        _TASK,
        _Option("k", int, 5, "fold count", bound=(">=", 2)),
        *_SOLVER,
        _Option("seed", int, 0, "fold assignment seed"),
    )),
    "rank-features": ("Kruskal-Wallis feature ranking for a task", (
        _FEATURES,
        _Option("out", str, _REQUIRED, "output ranking CSV"),
        _TASK,
    )),
    "balance": ("seeded per-tier subsampling of a manifest", (
        _Option("manifest", str, _REQUIRED, "input manifest"),
        _Option("out", str, _REQUIRED, "output manifest"),
        _Option("per_class", int, _REQUIRED, "entries to keep per tier",
                bound=(">=", 1)),
        _Option("seed", int, 0, "subsampling seed"),
    )),
}


class UsageError(ValueError):
    """A configuration problem the user must fix (exit code 2)."""


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _config_value(option: _Option, value, where: str):
    """A config echo value converted to the option's type, or a UsageError."""
    if value is None and (option.default is None or option.default is _REQUIRED):
        return None
    if (option.type is float and type(value) is int
            and abs(value) <= sys.float_info.max):  # a larger int would overflow
        value = float(value)
    if type(value) is not option.type:  # JSON gives exact types; bool is no int
        raise UsageError(f"{where} must be {option.type.__name__}, got {value!r}")
    if option.choices is not None and value not in option.choices:
        raise UsageError(f"{where} must be one of {list(option.choices)}, got {value!r}")
    return value


def _read_config(path: str, subcommand: str, options) -> dict:
    """The params of a config echo that belong to the subcommand's options."""
    try:
        echo = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    params = echo.get("params", {}) if isinstance(echo, dict) else None
    if not isinstance(params, dict):
        raise UsageError(f"config {path}: expected a JSON object with a params object")
    if echo.get("subcommand") != subcommand:
        raise UsageError(f"config {path} is for {echo.get('subcommand')!r}, "
                         f"not {subcommand!r}")
    return {o.key: _config_value(o, params[o.key], f"config {path}: {o.key!r}")
            for o in options if o.key in params}


def _resolve_params(subcommand: str, args: argparse.Namespace) -> dict:
    """Defaults < --config echo values < flags; then check required flags, that
    float values are finite, and bounds."""
    options = _COMMANDS[subcommand][1]
    params = {o.key: None if o.default is _REQUIRED else o.default for o in options}
    if args.config is not None:
        params.update(_read_config(args.config, subcommand, options))
    for o in options:
        if getattr(args, o.key) is not None:
            params[o.key] = getattr(args, o.key)
    missing = [_flag(o.key) for o in options
               if o.default is _REQUIRED and params[o.key] is None]
    if missing:
        raise UsageError(f"{subcommand}: missing required option(s): "
                         + ", ".join(missing))
    for o in options:
        if o.type is float and not math.isfinite(params[o.key]):
            raise UsageError(f"{_flag(o.key)} must be finite, got {params[o.key]}")
        if o.bound and not _BOUNDS[o.bound[0]](params[o.key], o.bound[1]):
            raise UsageError(f"{_flag(o.key)} must be {o.bound[0]} {o.bound[1]}, "
                             f"got {params[o.key]}")
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


def cmd_synth(params: dict) -> int:
    # Every spec is checked before the output directory is created.
    specs = {f"r{regime}_{i:04d}": RegimeSpec(
                 regime=regime, duration_s=params["duration"], fps=params["fps"],
                 noise_amp=params["noise"], blend=params["blend"],
                 seed=params["seed"] + regime * _SYNTH_SEED_STRIDE + i)
             for regime in range(N_REGIMES) for i in range(params["per_regime"])}
    out_dir = Path(params["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for source_id, spec in specs.items():
        file_path = out_dir / f"{source_id}{SKELETON_SUFFIX}"
        save_sequence(generate(spec, source_id=source_id), file_path)
        entries.append(ManifestEntry(path=file_path, source_id=source_id,
                                     tier=spec.regime))
    manifest_path = out_dir / "manifest.jsonl"
    save_manifest(DatasetManifest(tuple(entries)), manifest_path)
    _write_echo(manifest_path, "synth", params)
    print(f"wrote {len(entries)} sequences and {manifest_path}")
    return 0


def _extract_one(entry, length: float, stride: float):
    """(entry, fragment rows, None), or (entry, None, message) if the file
    fails; the message does not repeat the file's path."""
    try:
        seq = load_sequence(entry.path)
        if seq.tier is not None and seq.tier != entry.tier:
            raise ValueError(f"file tier {seq.tier} differs from manifest "
                             f"tier {entry.tier}")
        fragments = slice_fragments(seq, length_s=length, stride_s=stride)
        if not fragments:
            return entry, [], None
        starts = [start for start, _ in fragments]
        vectors = fragment_features(seq.positions, seq.fps, starts, len(fragments[0][1]))
        return entry, [(entry.source_id, start, entry.tier, vector)
                       for start, vector in zip(starts, vectors)], None
    except (ValueError, OSError) as exc:
        return entry, None, str(exc).removeprefix(f"{entry.path}: ")


def cmd_extract(params: dict) -> int:
    manifest = load_manifest(params["manifest"])
    out = Path(params["out"])
    job = partial(_extract_one, length=params["length"], stride=params["stride"])
    # More threads than files or usable CPUs would only wait; the echo keeps
    # the requested count.
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(params["workers"], len(manifest.entries), cpus)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(job, manifest.entries))
    else:
        results = [job(entry) for entry in manifest.entries]

    failures = [(entry, message) for entry, _, message in results if message]
    all_rows = [row for _, rows, _ in results if rows for row in rows]
    write_features_csv(out, FEATURE_NAMES_110, all_rows)
    _write_echo(out, "extract", params)

    if not manifest.entries:
        print("warning: empty manifest, wrote header-only CSV", file=sys.stderr)
    short = [str(entry.path) for entry, rows, _ in results if rows == []]
    if short:
        print(f"warning: {len(short)} file(s) shorter than one {params['length']:g} s "
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
    return TrainConfig(l2_lambda=params["l2"], max_iters=params["max_iters"],
                       grad_tol=params["grad_tol"])


def _read_nonempty_table(path: str):
    table = read_features_csv(path)
    if len(table) == 0:
        raise UsageError(f"{path}: feature table has no rows")
    return table


def cmd_train(params: dict) -> int:
    table = _read_nonempty_table(params["features"])
    X = table.aligned_to(FEATURE_NAMES_110)
    task = get_task(params["task"])
    labels, mask = remap_task(table.tiers, task)
    model = train(X[mask], labels, _train_config(params),
                  feature_names=FEATURE_NAMES_110, task=task.kind)
    out = Path(params["out"])
    save_model(model, out)
    _write_echo(out, "train", params)
    print(f"trained {task.kind} model on {labels.size} rows -> {out}")
    return 0


def cmd_predict(params: dict) -> int:
    model = load_model(params["model"])
    if params["task"] is not None and params["task"] != model.task:
        raise UsageError(f"model was trained for task {model.task!r}, "
                         f"not {params['task']!r}")
    table = read_features_csv(params["features"])
    probs = predict_proba(model, table.aligned_to(model.feature_names))
    out = Path(params["out"])
    write_predictions_csv(out, table, probs)
    _write_echo(out, "predict", params)
    print(f"wrote {len(table)} predictions to {out}")
    return 0


def cmd_evaluate(params: dict) -> int:
    table = _read_nonempty_table(params["features"])
    X = table.aligned_to(FEATURE_NAMES_110)
    report = cross_validate(X, table.tiers, get_task(params["task"]), k=params["k"],
                            config=_train_config(params), seed=params["seed"])
    out = Path(params["out"])
    out.write_text(json.dumps(report.to_dict(), indent=1) + "\n", encoding="utf-8")
    _write_echo(out, "evaluate", params)
    print(render_confusion(report))
    return 0


def cmd_rank_features(params: dict) -> int:
    table = _read_nonempty_table(params["features"])
    labels, mask = remap_task(table.tiers, get_task(params["task"]))
    ranking = rank_features(table.values[mask], labels, table.names)
    out = Path(params["out"])
    write_ranking_csv(out, ranking)
    _write_echo(out, "rank-features", params)
    print(f"wrote {len(ranking)}-feature ranking to {out}")
    return 0


def cmd_balance(params: dict) -> int:
    balanced = balance_dataset(load_manifest(params["manifest"]),
                               params["per_class"], params["seed"])
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


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it
    unchanged, and building it costs milliseconds."""
    parser = argparse.ArgumentParser(
        prog="labankit",
        description="Laban Movement Analysis descriptors and ordinal motion "
                    "classification for SMPL skeleton trajectories.",
    )
    parser.add_argument("--version", action="version", version=f"labankit {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="config echo JSON to re-run from")
        for o in options:
            note = ("required" if o.default is _REQUIRED
                    else None if o.default is None else f"default {o.default}")
            p.add_argument(_flag(o.key), type=o.type, choices=o.choices,
                           help=f"{o.help} ({note})" if note else o.help)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        params = _resolve_params(args.subcommand, args)
        return _HANDLERS[args.subcommand](params)
    except (ValueError, OSError) as exc:  # UsageError, SkeletonError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
