"""In-memory span tracing of the study suite's layers, for the traced run.

The traced run wraps the public functions of each layer of ``repro`` from
here, at every name a caller binds (``from x import f`` copies included),
so no program code changes.  Spans are kept in memory and written once,
as JSON, when the suite exits.  The untraced runs of the benchmark never
import this module into the suite process, so they carry no wrappers.

Run as a script it is the traced suite process itself::

    python suitebench/spans.py SPANS.json -- OUTPUT_DIR [summary args ...]

which imports ``repro.studies.summary`` (timing the import), installs the
wrappers, runs ``summary.main`` with the remaining arguments, and writes
``{"import_s": ..., "spans": [[name, start, end, parent], ...],
"counts": {...}}`` to ``SPANS.json``.  Spans recorded in forked pool
workers stay in those workers and are not written: per-layer numbers
cover the suite's parent process.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

#: Cache stores under ``--cache-dir``; each gets its own metric series.
CACHE_STORES = ("arrays", "evaluations", "traces", "clouds", "costs")
CACHE_SERIES = ("load_s", "store_s", "hits", "misses", "hit_ratio", "stored_bytes")

#: Module-level functions wrapped, as (module, attribute, span name).
FUNCTION_TARGETS = (
    ("repro.nvsim.characterize", "characterize", "nvsim"),
    ("repro.nvsim.characterize", "warm_lanes", "nvsim"),
    ("repro.nvsim.characterize", "all_organizations", "nvsim"),
    ("repro.traffic.graph", "synthetic_social_graph", "traffic.graph"),
    ("repro.traffic.graph", "bfs_access_counts", "traffic.graph"),
    ("repro.traffic.graph", "pagerank_access_counts", "traffic.graph"),
    ("repro.traffic.graph", "sssp_access_counts", "traffic.graph"),
    ("repro.dnn.proxies", "trained_proxy", "dnn.train"),
    ("repro.faults.injection", "accuracy_under_faults", "faults.inject"),
    ("repro.faults.injection", "inject_trials", "faults.inject"),
    ("repro.cachesim.llc", "simulate_llc_traffic", "cachesim.simulate"),
    ("repro.core.metrics", "evaluate_many", "core.evaluate"),
    ("repro.core.metrics", "evaluation_rows", "core.evaluate"),
    ("repro.runtime.fingerprint", "point_fingerprint", "runtime.fingerprint"),
    ("repro.runtime.fingerprint", "evaluation_fingerprint", "runtime.fingerprint"),
    ("repro.runtime.fingerprint", "trace_fingerprint", "runtime.fingerprint"),
    ("repro.runtime.fingerprint", "canonical_json", "runtime.fingerprint"),
    ("repro.runtime.executor", "characterize_points", "runtime.executor.characterize_points"),
    ("repro.runtime.executor", "evaluate_blocks", "runtime.executor.evaluate_blocks"),
    ("repro.runtime.resilience", "run_resilient", "runtime.resilience"),
    ("repro.runtime.shard", "study_fingerprint", "runtime.shard"),
    ("repro.viz.report", "study_report", "viz.report"),
)

#: Methods wrapped on their class, as (module, class, method, span name).
METHOD_TARGETS = (
    ("repro.runtime.schedule", "CostLedger", "observe", "runtime.schedule"),
    ("repro.runtime.schedule", "CostLedger", "observations", "runtime.schedule"),
    ("repro.runtime.schedule", "CostLedger", "costs_for", "runtime.schedule"),
    ("repro.runtime.schedule", "CostLedger", "model", "runtime.schedule"),
    ("repro.runtime.shard", "RunManifest", "write", "runtime.shard"),
    ("repro.results.table", "ResultTable", "to_csv", "results.write"),
    ("repro.results.table", "ResultTable", "to_markdown", "results.write"),
)

#: Layers reported as ``<layer>.calls`` (outermost spans) and ``<layer>.s``.
CALLS_AND_SECONDS = (
    "nvsim",
    "traffic.graph",
    "faults.inject",
    "cachesim.simulate",
    "core.evaluate",
    "runtime.fingerprint",
)
#: Layers that also report self time, ``<layer>.self_s``.
WITH_SELF_TIME = (
    "runtime.executor.characterize_points",
    "runtime.executor.evaluate_blocks",
    "runtime.resilience",
)
#: Layers reported as ``<layer>.s`` only.
SECONDS_ONLY = (
    "dnn.train",
    "runtime.schedule",
    "runtime.shard",
    "results.write",
    "viz.report",
)


class SpanRecorder:
    """Spans ``[name, start, end, parent]`` and named counts, in memory.

    ``parent`` is the index of the enclosing span on the same thread, or
    -1.  Times come from ``clock`` (``time.perf_counter`` by default).
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, self.clock(), None, stack[-1] if stack else -1])
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.spans[index][2] = self.clock()

    def active(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        stack = self._local.__dict__.get("stack", ())
        return any(self.spans[index][0] == name for index in stack)

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n


def _covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children may nest or overlap each other (spans from threads); the
    covered part is the union of their intervals clipped to the parent.
    """
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(start, end, children[index])
        for index, (name, start, end, parent) in enumerate(spans)
    ]


def _outermost(spans) -> list[bool]:
    """Whether each span has no ancestor of the same name."""
    flags = []
    for name, _start, _end, parent in spans:
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        flags.append(parent < 0)
    return flags


def per_layer_names(studies) -> list[str]:
    """Every per-layer metric name the traced run reports, in order."""
    names = ["import.s"]
    names += [f"studies.{study}.s" for study in studies]
    for layer in CALLS_AND_SECONDS:
        names += [f"{layer}.calls", f"{layer}.s"]
    names.append("core.evaluate.rows")
    for layer in WITH_SELF_TIME:
        names += [f"{layer}.calls", f"{layer}.s", f"{layer}.self_s"]
    names += [f"{layer}.s" for layer in SECONDS_ONLY]
    for store in CACHE_STORES:
        names += [f"runtime.cache.{store}.{series}" for series in CACHE_SERIES]
    return names


def layer_metrics(trace: dict, studies) -> dict[str, float]:
    """Aggregate one traced run's spans into the per-layer metrics."""
    spans, counts = trace["spans"], trace["counts"]
    outer = _outermost(spans)
    own = self_times(spans)
    calls, seconds, self_s = Counter(), Counter(), Counter()
    for (name, start, end, _parent), is_outer, own_s in zip(spans, outer, own):
        self_s[name] += own_s
        if is_outer:
            calls[name] += 1
            seconds[name] += end - start
    metrics = {"import.s": trace["import_s"]}
    for study in studies:
        metrics[f"studies.{study}.s"] = seconds[f"studies.{study}"]
    for layer in CALLS_AND_SECONDS:
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.s"] = seconds[layer]
    metrics["core.evaluate.rows"] = counts.get("core.evaluate.rows", 0)
    for layer in WITH_SELF_TIME:
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.s"] = seconds[layer]
        metrics[f"{layer}.self_s"] = self_s[layer]
    for layer in SECONDS_ONLY:
        metrics[f"{layer}.s"] = seconds[layer]
    for store in CACHE_STORES:
        prefix = f"runtime.cache.{store}"
        hits = counts.get(f"{prefix}.hits", 0)
        misses = counts.get(f"{prefix}.misses", 0)
        metrics[f"{prefix}.load_s"] = seconds[f"{prefix}.load"]
        metrics[f"{prefix}.store_s"] = seconds[f"{prefix}.store"]
        metrics[f"{prefix}.hits"] = hits
        metrics[f"{prefix}.misses"] = misses
        metrics[f"{prefix}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        metrics[f"{prefix}.stored_bytes"] = counts.get(f"{prefix}.stored_bytes", 0)
    return metrics


# --- wrappers ---------------------------------------------------------------


def _timed(recorder: SpanRecorder, original, name: str):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        outermost = not recorder.active(name)
        with recorder.span(name):
            result = original(*args, **kwargs)
        if name == "core.evaluate" and outermost:
            recorder.count("core.evaluate.rows", len(result))
        return result

    return wrapper


def _timed_study(recorder: SpanRecorder, original):
    @functools.wraps(original)
    def run(self, *args, **kwargs):
        with recorder.span(f"studies.{self.name}"):
            return original(self, *args, **kwargs)

    return run


def _timed_cache_load(recorder: SpanRecorder, original):
    @functools.wraps(original)
    def load(self, fingerprint, *args, **kwargs):
        prefix = f"runtime.cache.{self.root.name}"
        hits, misses = self.hits, self.misses
        with recorder.span(f"{prefix}.load"):
            result = original(self, fingerprint, *args, **kwargs)
        recorder.count(f"{prefix}.hits", self.hits - hits)
        recorder.count(f"{prefix}.misses", self.misses - misses)
        return result

    return load


def _timed_cache_store(recorder: SpanRecorder, original):
    @functools.wraps(original)
    def store(self, fingerprint, *args, **kwargs):
        prefix = f"runtime.cache.{self.root.name}"
        with recorder.span(f"{prefix}.store"):
            result = original(self, fingerprint, *args, **kwargs)
        try:
            recorder.count(f"{prefix}.stored_bytes", self.path_for(fingerprint).stat().st_size)
        except OSError:
            pass
        return result

    return store


def install(recorder: SpanRecorder):
    """Wrap every layer target; returns a function that restores them all.

    A module-level function is replaced at every binding of it in a loaded
    ``repro`` module, found by identity, so callers that imported it by
    name call the wrapper too.  Methods are replaced on their class.
    """
    replaced: list[tuple[object, str, object]] = []

    def replace(owner, attribute, wrapper):
        replaced.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)

    for module, attribute, _name in FUNCTION_TARGETS:
        importlib.import_module(module)
    modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "repro"]
    for module, attribute, name in FUNCTION_TARGETS:
        original = getattr(sys.modules[module], attribute)
        wrapper = _timed(recorder, original, name)
        for loaded in modules:
            for bound, value in list(vars(loaded).items()):
                if value is original:
                    replace(loaded, bound, wrapper)
    for module, cls_name, method, name in METHOD_TARGETS:
        cls = getattr(importlib.import_module(module), cls_name)
        replace(cls, method, _timed(recorder, cls.__dict__[method], name))
    study_spec = importlib.import_module("repro.studies.pipeline").StudySpec
    replace(study_spec, "run", _timed_study(recorder, study_spec.__dict__["run"]))
    cache = importlib.import_module("repro.runtime.cache").JsonObjectCache
    replace(cache, "load", _timed_cache_load(recorder, cache.__dict__["load"]))
    replace(cache, "store", _timed_cache_store(recorder, cache.__dict__["store"]))

    def restore() -> None:
        for owner, attribute, original in reversed(replaced):
            setattr(owner, attribute, original)
        replaced.clear()

    return restore


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: spans.py SPANS.json -- OUTPUT_DIR [summary args ...]", file=sys.stderr)
        return 2
    spans_path, suite_args = Path(argv[0]), argv[2:]
    start = time.perf_counter()
    summary = importlib.import_module("repro.studies.summary")
    import_s = time.perf_counter() - start
    recorder = SpanRecorder()
    restore = install(recorder)
    try:
        code = summary.main(suite_args)
    finally:
        restore()
    trace = {"import_s": import_s, "spans": recorder.spans, "counts": dict(recorder.counts)}
    spans_path.write_text(json.dumps(trace))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
