"""Tests of the study-suite benchmark itself (not of the program it measures).

Run with ``PYTHONPATH=src python -m pytest suitebench -q``.  None of them
runs the suite: the gate and the run loop are driven with fake outputs.
"""

from __future__ import annotations

import importlib
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run as bench  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# --- self time ---------------------------------------------------------------


def test_self_time_of_nested_spans():
    trace = [
        ["study", 0.0, 10.0, -1],
        ["executor", 1.0, 7.0, 0],
        ["nvsim", 2.0, 4.0, 1],
        ["nvsim", 5.0, 6.0, 1],
        ["write", 8.0, 9.5, 0],
    ]
    assert spans.self_times(trace) == pytest.approx([2.5, 3.0, 2.0, 1.0, 1.5])


def test_self_time_counts_overlapping_children_once():
    trace = [
        ["parent", 0.0, 10.0, -1],
        ["a", 1.0, 5.0, 0],
        ["b", 3.0, 7.0, 0],  # overlaps a: together they cover 1..7
        ["c", 6.5, 12.0, 0],  # runs past the parent's end: clipped at 10
        ["d", 2.0, 3.0, 1],
    ]
    assert spans.self_times(trace) == pytest.approx([1.0, 3.0, 4.0, 5.5, 1.0])


def test_layer_metrics_count_outermost_calls_and_self_time():
    trace = {
        "import_s": 0.5,
        "spans": [
            ["studies.fig08_graph", 0.0, 4.0, -1],
            ["runtime.resilience", 0.0, 3.0, 0],
            ["nvsim", 0.5, 2.5, 1],
            ["nvsim", 1.0, 2.0, 2],  # nested in nvsim: not a separate call
            ["runtime.cache.arrays.load", 3.0, 3.25, 0],
        ],
        "counts": {"runtime.cache.arrays.hits": 3, "runtime.cache.arrays.misses": 1},
    }
    metrics = spans.layer_metrics(trace, ["fig08_graph"])
    assert metrics["import.s"] == 0.5
    assert metrics["studies.fig08_graph.s"] == 4.0
    assert metrics["nvsim.calls"] == 1 and metrics["nvsim.s"] == 2.0
    assert metrics["runtime.resilience.self_s"] == pytest.approx(1.0)
    assert metrics["runtime.cache.arrays.load_s"] == 0.25
    assert metrics["runtime.cache.arrays.hit_ratio"] == 0.75
    assert metrics["runtime.cache.costs.hit_ratio"] == 0.0
    assert set(metrics) == set(spans.per_layer_names(["fig08_graph"]))


# --- wrappers ----------------------------------------------------------------


def _bindings() -> dict:
    state = {}
    for name, module in sorted(sys.modules.items()):
        if name.split(".")[0] == "repro":
            state.update({(name, k): v for k, v in vars(module).items()})
    for module, cls, method, _name in spans.METHOD_TARGETS:
        state[(module, cls, method)] = vars(getattr(sys.modules[module], cls))[method]
    for module, cls, method in (
        ("repro.studies.pipeline", "StudySpec", "run"),
        ("repro.runtime.cache", "JsonObjectCache", "load"),
        ("repro.runtime.cache", "JsonObjectCache", "store"),
    ):
        state[(module, cls, method)] = vars(getattr(sys.modules[module], cls))[method]
    return state


def test_install_then_restore_leaves_every_binding_identical():
    importlib.import_module("repro.studies.summary")
    for module, _attribute, _name in spans.FUNCTION_TARGETS:
        importlib.import_module(module)
    before = _bindings()
    executor = sys.modules["repro.runtime.executor"]
    original = executor.warm_lanes
    restore = spans.install(spans.SpanRecorder())
    try:
        # Wrapped at the name the executor binds, not only where defined.
        assert executor.warm_lanes is not original
        assert executor.warm_lanes.__wrapped__ is original
    finally:
        restore()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_wrapped_layer_records_spans_and_cache_counts(tmp_path):
    cache_module = importlib.import_module("repro.runtime.cache")
    recorder = spans.SpanRecorder()
    restore = spans.install(recorder)
    try:
        store = cache_module.EvaluationCache(tmp_path / "evaluations")
        assert store.load("ab" * 32) is None
        store.store("ab" * 32, [{"x": 1}])
        assert store.load("ab" * 32) == [{"x": 1}]
    finally:
        restore()
    names = [span[0] for span in recorder.spans]
    assert names.count("runtime.cache.evaluations.load") == 2
    assert recorder.counts["runtime.cache.evaluations.hits"] == 1
    assert recorder.counts["runtime.cache.evaluations.misses"] == 1
    assert recorder.counts["runtime.cache.evaluations.stored_bytes"] > 0


# --- names -------------------------------------------------------------------


def test_every_metric_and_workload_name_is_well_formed():
    names = list(bench.WORKLOADS) + [n for n, _ in bench.END_TO_END]
    names += list(bench.per_layer_units())
    assert all(NAME.fullmatch(name) for name in names), [
        n for n in names if not NAME.fullmatch(n)
    ]
    assert len(names) == len(set(names))


def test_benchmark_json_lists_exactly_the_emitted_names():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert all(w["why"] == bench.WORKLOADS[w["name"]].why for w in spec["workloads"])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_units()
    assert spec["paths"] == [HERE.name]


# --- correctness gate and seed -----------------------------------------------


def _fake_suite_output(out: Path, seed: int, poisoned: int = 0, fresh: int = 1) -> None:
    (out / "results").mkdir(parents=True)
    entries = []
    for study in bench.STUDIES:
        (out / "results" / f"{study}.csv").write_text(f"study,seed\n{study},{seed}\n")
        telemetry = {"completed": fresh, "poisoned": poisoned}
        entries.append({"name": study, "status": "ok", "telemetry": telemetry})
    manifest = {"suite": list(bench.STUDIES), "entries": entries}
    (out / "manifest.json").write_text(json.dumps(manifest))


def _suite_run(out: Path, exit_code: int = 0) -> bench.SuiteRun:
    return bench.SuiteRun(1.0, 1.0, 100.0, exit_code, out, manifest=bench.load_manifest(out))


def test_gate_passes_identical_outputs(tmp_path):
    _fake_suite_output(tmp_path, seed=7)
    run = _suite_run(tmp_path)
    assert bench.gate(run, bench.csv_digests(tmp_path)) == []


def test_corrupted_csv_fails_the_gate(tmp_path):
    _fake_suite_output(tmp_path, seed=7)
    reference = bench.csv_digests(tmp_path)
    csv = tmp_path / "results" / "fig13_mlc.csv"
    csv.write_bytes(csv.read_bytes().replace(b"7", b"8"))
    assert bench.gate(_suite_run(tmp_path), reference) == [
        "fig13_mlc: CSV differs from the no-cache reference"
    ]


def test_gate_fails_poisoned_points_exit_code_and_warm_fresh_work(tmp_path):
    _fake_suite_output(tmp_path / "poisoned", seed=7, poisoned=2)
    reference = bench.csv_digests(tmp_path / "poisoned")
    assert len(bench.gate(_suite_run(tmp_path / "poisoned"), reference)) == len(bench.STUDIES)
    _fake_suite_output(tmp_path / "ok", seed=7)
    failed_exit = bench.gate(_suite_run(tmp_path / "ok", exit_code=1), reference)
    assert len(failed_exit) == len(bench.STUDIES)
    warm = bench.gate(_suite_run(tmp_path / "ok"), reference, expect_warm=True)
    assert len(warm) == len(bench.STUDIES) and "fresh work" in warm[0]
    _fake_suite_output(tmp_path / "warm", seed=7, fresh=0)
    assert bench.gate(_suite_run(tmp_path / "warm"), reference, True, {"a": 1}, {"a": 1}) == []
    changed = bench.gate(_suite_run(tmp_path / "warm"), reference, True, {"a": 1}, {"a": 2})
    assert "changed the cache file set" in changed[0]


def test_seed_reaches_the_suite_command(tmp_path, monkeypatch):
    args = bench.suite_args(tmp_path, 4242, 2, tmp_path / "cache")
    assert args[args.index("--seed") + 1] == "4242"
    seeds = []

    def fake_run_suite(out, seed, workers, cache_dir, traced=False):
        seeds.append(seed)
        _fake_suite_output(out, seed, fresh=int(cache_dir is None or out.name.startswith("fill")))
        return _suite_run(out)

    monkeypatch.setattr(bench, "run_suite", fake_run_suite)
    monkeypatch.setattr(bench.subprocess, "run", lambda *a, **k: _Done())
    result = bench.benchmark(bench.WORKLOADS["suite-warm"], 4242, 0, False, tmp_path)
    assert seeds and set(seeds) == {4242}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == bench.MIN_RUNS * len(bench.STUDIES)
    assert list(result["metrics"]) == [name for name, _ in bench.END_TO_END]


class _Done:
    returncode = 0
    stderr = b""


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "SRC", tmp_path / "src")
    assert bench.main(["--workload", "suite-nocache", "--seed", "1"]) == 2
    assert capsys.readouterr().out == ""
