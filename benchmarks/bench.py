"""Stage-level benchmark of the labankit pipeline.

Run from the repository root:

    python3 benchmarks/bench.py --workload gate --seed 1 --seconds 55 --trace 0

Every stage goes through the public entry point labankit.cli.main(argv),
in this one process, against the source tree in ./src. A pass runs
synth, then extract (serial), extract (--workers = affinity cores) and
evaluate / rank-features / train / predict, the workload's `repeats`
times; it checks every output and hashes it. Passes repeat on the same
inputs until --seconds have elapsed. Each stage group is timed between
two runs of a fixed reference workload and reported in calibrated
seconds (see Reference); each metric is a median over the run's
samples. With --trace 1 the passes alternate traced and untraced, and
the per-layer metrics come from the traced ones (see spans.py). The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A full record of the run
(environment, per-pass times, output digests, spans) is written to
.bench_out/. See benchmarks/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"

TASKS = ("four_way", "three_way", "binary")
TASK_TIERS = {"four_way": (0, 1, 2, 3), "three_way": (0, 2, 3), "binary": (0, 1, 2, 3)}
FRAGMENT_S = 5.0
FOLDS = 5
SETUP_REPEATS = 3
# Seconds the reference workload takes at the reference speed: about its
# median inside runs on the 2-core VM where the first numbers were recorded.
REFERENCE_S = 0.02
# Keeps the synthetic sequence seeds of different workload seeds disjoint
# (cli.synth adds the sequence index, which stays below this).
SYNTH_SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    per_regime: int
    duration_s: float
    fps: float
    blend: float
    stride_s: float
    l2_values: tuple[float, ...]
    accuracy_floors: tuple[tuple[str, float], ...] = ()
    repeats: int = 1

    @property
    def files(self) -> int:
        return 4 * self.per_regime

    @property
    def fragments_per_file(self) -> int:
        frames = round(self.duration_s * self.fps)
        length = round(FRAGMENT_S * self.fps)
        stride = max(1, round(self.stride_s * self.fps))
        return max(0, (frames - length) // stride + 1)

    @property
    def rows(self) -> int:
        return self.files * self.fragments_per_file


# Sizes are cut from the ROADMAP gate scale (200 per regime) and from an
# 8 x 60 s dense set; per-file and per-row costs are unchanged. A shared
# machine switches between fast and slow spells of milliseconds to
# minutes, so a stage call that takes seconds is a different mix of
# spells each time.
# Short calls, many to a run, whose median skips the slow spells, make
# the steadiest metrics; see README.md.
WORKLOADS = {
    # One 5 s fragment per 5 s file: skeleton JSON I/O dominates. Its synth
    # call takes three times its extract call, so the other groups run
    # three times per synth and every stage gets a similar sample count.
    "gate": Workload("gate", per_regime=10, duration_s=5.0, fps=30.0, blend=0.0,
                     stride_s=5.0, l2_values=(1.0,),
                     accuracy_floors=(("four_way", 0.90), ("three_way", 0.92),
                                      ("binary", 0.95)),
                     repeats=3),
    # Long 60 fps files cut at a 0.5 s stride: every frame feeds ~10
    # fragments, descriptors dominate extract and the L2 sweep makes the
    # Newton solver the bulk of the model stage.
    "dense": Workload("dense", per_regime=1, duration_s=15.0, fps=60.0, blend=0.6,
                      stride_s=0.5, l2_values=(0.01, 0.1, 1.0, 10.0)),
}


def setup_workload(w: Workload) -> Workload:
    """The toy pass run during set-up: every stage, five 5 s files per tier
    at 30 fps, which pays lazy imports and first calls before timing."""
    return replace(w, name=f"{w.name}-setup", per_regime=5, duration_s=5.0,
                   fps=30.0, stride_s=5.0, l2_values=(1.0,), accuracy_floors=(),
                   repeats=1)


class Reference:
    """A fixed workload that measures how fast the machine runs right now.

    A shared machine switches between fast and slow spells that last from
    milliseconds to minutes, so the same stage call can take twice as long
    from one moment to the next. Each stage group is timed between two runs
    of this workload, and its seconds are scaled by REFERENCE_S over their
    mean: a slow spell that covers the group and its references cancels.
    The workload mixes the kinds of work the pipeline does: the pure-Python
    JSON encoder that json.dump uses, the C JSON decoder and numpy pairwise
    distances. It calls no labankit code, so a library change leaves it
    unchanged.
    """

    def __init__(self):
        # Imported here, after main() has limited BLAS to one thread.
        import numpy as np
        self._np = np
        self._positions = np.random.default_rng(0).standard_normal((60, 24, 3))
        self._payload = {"frames": self._positions.tolist()}
        self()  # the first run pays one-time costs

    def __call__(self) -> float:
        """Run the workload once and return its seconds."""
        start = perf_counter()
        buf = io.StringIO()
        json.dump(self._payload, buf, separators=(",", ":"))
        json.loads(buf.getvalue())
        for _ in range(3):
            d = self._positions[:, :, None, :] - self._positions[:, None, :, :]
            self._np.sqrt((d * d).sum(-1)).max(axis=(1, 2)).std()
        return perf_counter() - start


class CheckFailed(Exception):
    """An output that is missing, malformed or wrong."""


def load_library(root: Path):
    """Import labankit.cli from root/src, never from an installed copy."""
    src = root / "src"
    if not (src / "labankit" / "__init__.py").is_file():
        raise FileNotFoundError(f"no labankit source tree under {src}")
    sys.path.insert(0, str(src))
    import labankit.cli as cli
    if Path(cli.__file__).resolve().parent != (src / "labankit").resolve():
        raise ImportError(f"labankit was imported from {cli.__file__}, not {src}")
    return cli


# ---------------------------------------------------------------------------
# Output checks and digests (outside every timed region)


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise CheckFailed(f"{path}: empty file")
    return rows[0], rows[1:]


def _finite_floats(cells, where):
    try:
        values = [float(c) for c in cells]
    except ValueError as exc:
        raise CheckFailed(f"{where}: {exc}") from None
    if not all(math.isfinite(v) for v in values):
        raise CheckFailed(f"{where}: non-finite value")
    return values


class Checker:
    """Checks one pass's outputs, relative to the pass directory (cwd)."""

    def __init__(self, w: Workload, feature_names):
        self.w = w
        self.header = ["source_id", "start_frame", "tier", *feature_names]
        self.tiers = None

    def synth(self, argv):
        lines = Path("data/manifest.jsonl").read_text(encoding="utf-8").splitlines()
        if len(lines) != self.w.files:
            raise CheckFailed(f"manifest lists {len(lines)} files, expected {self.w.files}")
        for line in lines:
            if not (Path("data") / json.loads(line)["path"]).is_file():
                raise CheckFailed(f"manifest entry {line} has no file")
        return {"data": _digest(sorted(Path("data").iterdir()))}

    def extract(self, argv):
        out = Path(argv[argv.index("--out") + 1])
        header, rows = _read_csv(out)
        if header != self.header:
            raise CheckFailed(f"{out}: header is not the 110 canonical columns")
        if len(rows) != self.w.rows:
            raise CheckFailed(f"{out}: {len(rows)} rows, expected {self.w.rows}")
        for i, row in enumerate(rows, start=2):
            if len(row) != len(header):
                raise CheckFailed(f"{out}:{i}: {len(row)} cells")
            _finite_floats(row[3:], f"{out}:{i}")
        self.tiers = [int(row[2]) for row in rows]
        return _digests(out)

    def extract_par(self, argv):
        digests = self.extract(argv)
        if Path("features_par.csv").read_bytes() != Path("features.csv").read_bytes():
            raise CheckFailed("features_par.csv differs from the serial features.csv")
        return digests

    def evaluate(self, argv):
        out = Path(argv[argv.index("--out") + 1])
        task = argv[argv.index("--task") + 1]
        report = json.loads(out.read_text(encoding="utf-8"))
        expected = sum(t in TASK_TIERS[task] for t in self.tiers)
        if report["n_rows"] != expected or len(report["predictions"]) != expected:
            raise CheckFailed(f"{out}: {report['n_rows']} rows, expected {expected}")
        accuracy = report["accuracy"]
        if not 0.0 <= accuracy <= 1.0:
            raise CheckFailed(f"{out}: accuracy {accuracy} outside [0, 1]")
        floor = dict(self.w.accuracy_floors).get(task)
        if floor is not None and float(argv[argv.index("--l2") + 1]) == 1.0 \
                and accuracy < floor:
            raise CheckFailed(f"{out}: {task} accuracy {accuracy:.4f} below {floor}")
        return _digests(out)

    def rank_features(self, argv):
        out = Path("ranking.csv")
        header, rows = _read_csv(out)
        if header != ["rank", "feature", "H"] or len(rows) != len(self.header) - 3:
            raise CheckFailed(f"{out}: expected {len(self.header) - 3} ranked features")
        if sorted(r[1] for r in rows) != sorted(self.header[3:]):
            raise CheckFailed(f"{out}: ranked names are not the feature columns")
        if min(_finite_floats([r[2] for r in rows], str(out))) < 0:
            raise CheckFailed(f"{out}: negative H")
        return _digests(out)

    def train(self, argv):
        out = Path("model.json")
        model = json.loads(out.read_text(encoding="utf-8"))
        weights = model["weights"]
        if len(weights) != 4 or any(len(row) != len(self.header) - 3 for row in weights):
            raise CheckFailed(f"{out}: weights are not 4 x {len(self.header) - 3}")
        _finite_floats([v for row in weights for v in row] + model["biases"], str(out))
        return _digests(out)

    def predict(self, argv):
        out = Path("predictions.csv")
        header, rows = _read_csv(out)
        if len(rows) != self.w.rows:
            raise CheckFailed(f"{out}: {len(rows)} rows, expected {self.w.rows}")
        for i, row in enumerate(rows, start=2):
            probs = _finite_floats(row[4:], f"{out}:{i}")
            if len(probs) != 4 or abs(sum(probs) - 1.0) > 1e-6 \
                    or int(row[3]) != probs.index(max(probs)):
                raise CheckFailed(f"{out}:{i}: bad probabilities or class")
        return _digests(out)


def _digests(out: Path) -> dict:
    echo = out.with_name(out.name + ".config.json")
    return {out.name: _digest([out]), echo.name: _digest([echo])}


# ---------------------------------------------------------------------------
# Passes


def stage_plan(w: Workload, seed: int, workers: int):
    """One pass as (group, [(stage, argv), ...]) in order: synth, then the
    extract, extract_par and model groups in turn, w.repeats times. All
    paths are relative to the pass dir."""
    extract = ["extract", "--manifest", "data/manifest.jsonl",
               "--length", repr(FRAGMENT_S), "--stride", repr(w.stride_s)]
    model = [
        ("evaluate", ["evaluate", "--features", "features.csv", "--task", task,
                      "--k", str(FOLDS), "--l2", repr(l2), "--seed", str(seed),
                      "--out", f"eval_{task}_l2_{l2!r}.json"])
        for l2 in w.l2_values for task in TASKS
    ]
    model += [
        ("rank_features", ["rank-features", "--features", "features.csv",
                           "--task", "binary", "--out", "ranking.csv"]),
        ("train", ["train", "--features", "features.csv", "--task", "four_way",
                   "--out", "model.json"]),
        ("predict", ["predict", "--model", "model.json", "--features", "features.csv",
                     "--out", "predictions.csv"]),
    ]
    return [
        ("synth", [("synth", [
            "synth", "--out-dir", "data", "--per-regime", str(w.per_regime),
            "--duration", repr(w.duration_s), "--fps", repr(w.fps),
            "--blend", repr(w.blend), "--seed", str(seed * SYNTH_SEED_STRIDE)])]),
        *[("extract", [("extract", [*extract, "--out", "features.csv"])]),
          ("extract_par", [("extract_par", [*extract, "--out", "features_par.csv",
                                            "--workers", str(workers)])]),
          ("model", model)] * w.repeats,
    ]


class Bench:
    """One benchmark run: its counts of stage calls, failures and digests."""

    def __init__(self, cli, workdir: Path, seed: int, workers: int):
        self.cli = cli
        self.workdir = workdir
        self.seed = seed
        self.workers = workers
        self.attempted = 0
        self.failures = []
        self.digests = {}
        self.reference = Reference()

    def run_pass(self, w: Workload, tracer=None) -> dict:
        """Run one pass in a fresh directory. Returns, per stage group, the
        wall seconds and the calibrated seconds of each time the group ran,
        and the seconds of every reference run."""
        pass_dir = self.workdir / w.name
        shutil.rmtree(pass_dir, ignore_errors=True)
        pass_dir.mkdir(parents=True)
        checker = Checker(w, self.cli.FEATURE_NAMES_110)
        times = {"wall": {}, "calibrated": {}, "reference": [self.reference()]}
        cwd = os.getcwd()
        os.chdir(pass_dir)
        try:
            for group, calls in stage_plan(w, self.seed, self.workers):
                seconds = sum(self._call(stage, argv, checker, w.name, tracer)
                              for stage, argv in calls)
                times["reference"].append(self.reference())
                speed = REFERENCE_S / statistics.fmean(times["reference"][-2:])
                times["wall"].setdefault(group, []).append(seconds)
                times["calibrated"].setdefault(group, []).append(seconds * speed)
        finally:
            os.chdir(cwd)
            shutil.rmtree(pass_dir, ignore_errors=True)
        return times

    def _call(self, stage, argv, checker, label, tracer) -> float:
        self.attempted += 1
        span = tracer.stage(f"cli.{stage}") if tracer else contextlib.nullcontext()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    with span:
                        code = self.cli.main(argv)
                finally:
                    elapsed = perf_counter() - start
            if code != 0:
                raise CheckFailed(f"exit code {code}")
            for name, digest in getattr(checker, stage)(argv).items():
                key = f"{label}/{name}"
                if self.digests.setdefault(key, digest) != digest:
                    raise CheckFailed(f"{name} differs from the first pass")
        except CheckFailed as exc:
            self.fail(argv, str(exc))
        except Exception:  # a crash in the library is a failed stage call
            self.fail(argv, traceback.format_exc())
        return elapsed

    def fail(self, argv, message):
        self.failures.append({"argv": argv, "error": message})
        print(f"FAILED {' '.join(argv)}: {message}", file=sys.stderr)


GROUPS = ("synth", "extract", "extract_par", "model")
# The pipeline as a user runs it once; extract_par is the same extract
# run on a thread pool.
PIPELINE = ("synth", "extract", "model")


def _stage_metrics(passes, kind="calibrated") -> dict:
    """Stage metrics of one kind of seconds: each stage is the median over
    every time its group ran, total_s the median over passes of the sum of
    the pass's PIPELINE group means."""
    times = [p[kind] for p in passes]
    metrics = {f"{g}_s": statistics.median(s for t in times for s in t[g])
               for g in GROUPS}
    metrics["total_s"] = statistics.median(
        sum(statistics.fmean(t[g]) for g in PIPELINE) for t in times)
    return metrics


def run(w: Workload, seed: int, seconds: float, trace: bool, cli, metric_units):
    """Set up, measure for `seconds`, and return the result and the run record."""
    workdir = WORK_DIR / f"{w.name}-{seed}-{os.getpid()}"
    bench = Bench(cli, workdir, seed, len(os.sched_getaffinity(0)))
    tracer = None
    try:
        toy = setup_workload(w)
        setup = [bench.run_pass(toy) for _ in range(SETUP_REPEATS)]

        untraced, traced, layer_runs = [], [], []
        if trace:
            tracer = Tracer()
        start = perf_counter()
        # A pass starts only if it should end within `seconds`, judged by
        # the slowest pass so far. Traced passes alternate with untraced
        # ones, starting traced, and there are at least two so that their
        # counts can be compared.
        longest = 0.0
        while (perf_counter() - start + longest <= seconds or not untraced
               or (trace and len(traced) < 2)):
            pass_start = perf_counter()
            if trace and len(traced) <= len(untraced):
                tracer.run = len(traced)
                tracer.install()
                try:
                    traced.append(bench.run_pass(w, tracer))
                finally:
                    tracer.restore()
                layer_runs.append(tracer.layer_values(tracer.run))
            else:
                untraced.append(bench.run_pass(w))
            longest = max(longest, perf_counter() - pass_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = _stage_metrics(untraced)
    # Set-up time is every stage call of a set-up pass, extract_par too.
    e2e["setup_s"] = statistics.median(
        sum(sum(times) for times in p["calibrated"].values()) for p in setup)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {"setup_passes": setup, "passes": untraced, "traced_passes": traced,
              "layers": layer_runs, "digests": bench.digests,
              "failures": bench.failures}
    if trace:
        values, mismatched = layer_metrics(layer_runs, _stage_metrics(untraced, "wall"),
                                           _stage_metrics(traced, "wall"))
        values["reference.s"] = statistics.median(
            s for p in untraced for s in p["reference"])
        if mismatched:
            bench.fail(["trace"], f"counts differ between traced passes: {mismatched}")
        record["spans"] = tracer.spans
    else:
        values = e2e
    missing = sorted(set(metric_units) - set(values))
    if missing:
        bench.fail(["metrics"], f"not measured: {missing}")
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in metric_units.items()}
    failed = len(bench.failures)
    result = {"correct": failed == 0, "attempted": bench.attempted,
              "failed": failed, "metrics": metrics}
    return result, record


def layer_metrics(layer_runs, untraced, traced):
    """Per-layer metrics from traced passes; times are medians over them.
    untraced and traced are the wall-second stage metrics of each kind of
    pass, so that every per-layer time is in wall seconds.

    Returns the metrics and the names of counts that differ between passes.
    """
    names = sorted(set().union(*layer_runs))
    values = {}
    mismatched = []
    for name in names:
        series = [run.get(name, 0) for run in layer_runs]
        if name.endswith((".s", "_s")):
            values[name] = statistics.median(series)
        else:
            values[name] = series[0]
            if any(v != series[0] for v in series):
                mismatched.append(name)
    fits = values.get("classifier.train.calls", 0)
    values["classifier.objective_evals_per_fit"] = (
        values.get("classifier.loss_and_gradient.calls", 0) / fits if fits else 0.0)
    values["cli.extract_par.base_extract_s"] = untraced["extract_s"]
    values["cli.extract_par.base_extract_par_s"] = untraced["extract_par_s"]
    values["cli.extract_par.speedup"] = untraced["extract_s"] / untraced["extract_par_s"]
    values["trace.untraced_total_s"] = untraced["total_s"]
    values["trace.overhead_s"] = traced["total_s"] - untraced["total_s"]
    return values, mismatched


# ---------------------------------------------------------------------------
# Environment record


def git_commit(root: Path):
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, args) -> dict:
    import numpy
    sources = sorted((root / "src" / "labankit").glob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(root),
        "source_sha256": _digest(sources),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def metric_units(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    # One BLAS thread: the process then computes on at most as many threads
    # as the extract pool has workers.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        cli = load_library(ROOT)
    except (OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = environment(ROOT, args)
    result, record = run(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), cli, metric_units(bool(args.trace)))
    record = {"environment": env, "result": result, **record}
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (OUT_DIR / name).write_text(json.dumps(record), encoding="utf-8")

    print("environment " + json.dumps(env))
    print(f"passes: {len(record['passes'])} untraced, {len(record['traced_passes'])} traced")
    for key, digest in sorted(record["digests"].items()):
        print(f"sha256 {digest} {key}")
    for name, metric in result["metrics"].items():
        print(f"{name:48s} {metric['value']!r:>24} {metric['unit']}")
    if record["passes"]:
        wall = _stage_metrics(record["passes"], "wall")
        print("wall seconds, uncalibrated: " + " ".join(
            f"{name}={value:.4f}" for name, value in wall.items()))
    print(f"failed_frac {result['failed'] / result['attempted']!r} "
          f"({result['failed']} of {result['attempted']} stage calls)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
