"""In-memory span tracing of labankit, installed from outside the library.

A traced pass replaces module attributes (the names each caller looks up)
with wrappers that record a span per call: id, parent span id, name,
start, end and the pass ("run") it belongs to. Nothing in the library
changes; restore() puts every original back.

Self time of a span is its duration minus the union of its children's
intervals, so the overlapping spans of extract's worker threads are not
subtracted twice.
"""

from __future__ import annotations

import importlib
import os
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


def _file_bytes(arg_index):
    """Counter: size of the file named by positional argument arg_index."""
    def count(name, args, result):
        return {f"{name}.bytes": os.path.getsize(args[arg_index])}
    return count


def _rows_read(name, args, result):
    return {f"{name}.rows": len(result)}


def _rows_written(name, args, result):
    return {f"{name}.rows": len(args[2]), f"{name}.bytes": os.path.getsize(args[0])}


def _fragments(name, args, result):
    return {"skeleton.fragments": len(result)}


# (module, attribute, span name, counter). A counter maps (span name,
# arguments, result) to increments of named counts. The attribute is
# patched in the module that calls it: cli imports most names directly, so
# cli's copy is the one that must be wrapped. classifier.train is reached
# through both cli and evaluation; predict_proba through cli and through
# classifier.predict.
LAYER_TARGETS = (
    ("labankit.cli", "generate", "synth.generate", None),
    ("labankit.cli", "save_sequence", "skeleton.save_sequence", _file_bytes(1)),
    ("labankit.cli", "load_sequence", "skeleton.load_sequence", _file_bytes(0)),
    ("labankit.cli", "slice_fragments", "skeleton.slice_fragments", _fragments),
    ("labankit.cli", "fragment_features", "descriptors.fragment_features", None),
    ("labankit.descriptors", "frame_matrix", "descriptors.frame_matrix", None),
    ("labankit.descriptors", "differentiate", "descriptors.differentiate", None),
    ("labankit.descriptors", "windowed_directness",
     "descriptors.windowed_directness", None),
    ("labankit.descriptors", "aggregate", "descriptors.aggregate", None),
    ("labankit.cli", "write_features_csv", "features_io.write_features_csv",
     _rows_written),
    ("labankit.cli", "read_features_csv", "features_io.read_features_csv", _rows_read),
    ("labankit.cli", "rank_features", "stats.rank_features", None),
    ("labankit.stats", "kruskal_wallis", "stats.kruskal_wallis", None),
    ("labankit.cli", "train", "classifier.train", None),
    ("labankit.evaluation", "train", "classifier.train", None),
    ("labankit.classifier", "loss_and_gradient", "classifier.loss_and_gradient", None),
    ("labankit.cli", "predict_proba", "classifier.predict_proba", None),
    ("labankit.classifier", "predict_proba", "classifier.predict_proba", None),
    ("labankit.cli", "cross_validate", "evaluation.cross_validate", None),
)


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1
        self._root = None
        self._patches = []
        self.run = 0
        self.spans = []      # (id, parent, name, start, end, run)
        self.counters = defaultdict(Counter)   # run -> counter name -> value

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        # A worker thread starts with an empty stack; its spans belong to
        # the stage span open on the thread that started the pool.
        parent = stack[-1] if stack else self._root
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, parent, name, start, end):
        self._stack().pop()
        with self._lock:
            self.spans.append((span_id, parent, name, start, end, self.run))

    @contextmanager
    def stage(self, name):
        """A top-level span opened by the benchmark around one CLI call."""
        span_id, parent = self._open()
        self._root = span_id
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._root = None
            self._close(span_id, parent, name, start, end)

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            span_id, parent = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._close(span_id, parent, name, start, end)
            if count is not None:
                self.add(count(name, args, result))
            return result
        return traced

    def add(self, increments):
        with self._lock:
            self.counters[self.run].update(increments)

    def install(self, targets=LAYER_TARGETS):
        for module_name, attr, name, count in targets:
            owner = importlib.import_module(module_name)
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, count))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_values(self, run):
        """Per-name inclusive time, self time and call count, plus counters."""
        spans = [s for s in self.spans if s[5] == run]
        children = defaultdict(list)
        for span_id, parent, _, start, end, _ in spans:
            if parent is not None:
                children[parent].append((start, end))
        values = Counter()
        for span_id, _, name, start, end, _ in spans:
            duration = end - start
            values[f"{name}.s"] += duration
            values[f"{name}.self_s"] += duration - _covered(children[span_id], start, end)
            values[f"{name}.calls"] += 1
        values.update(self.counters[run])
        return dict(values)


def _covered(intervals, start, end):
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
