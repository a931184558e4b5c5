"""End-to-end benchmark of the NVMExplorer study suite.

Each measured run is one fresh ``python -m repro.studies.summary``
subprocess over all registered studies, which is what a user of the suite
pays: interpreter start, imports, every study, the CSV and report writes
and the manifest.  Run from the root of a checkout::

    python3 suitebench/run.py --workload suite-warm --seed 3 --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the human-readable report goes
to standard error.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced runs with traced runs (see ``spans.py``)
and reports the per-layer metrics.  ``README.md`` next to this file gives
the reasons for each workload and metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".suitebench"

#: The registered studies, in registry order.  A run that produces any
#: other set fails the correctness gate.
STUDIES = (
    "fig03_array_targets",
    "fig05_dnn_arrays",
    "fig06_dnn_continuous",
    "fig06_dnn_intermittent",
    "fig08_graph",
    "fig09_spec_llc",
    "fig10_llc_arrays",
    "fig11_bg_fefet",
    "fig12_area_efficiency",
    "fig13_mlc",
    "fig14_writebuffer",
    "ext_retention",
    "ext_hierarchy",
    "ext_synthetic_llc",
)

#: One BLAS/OpenMP thread in every suite process.  With the default,
#: OpenBLAS runs two threads on the tiny matmuls of fig13_mlc's proxy
#: training: CPU time runs 10-20% above wall time, fig13_mlc swings
#: between 0.4 and 1.5 s, and suite-workers2 would run more threads than
#: the two cores it is given.  The same value is used on every commit.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3
#: At least this many measured suite runs (of each kind, when traced).
MIN_RUNS = 3
#: A suite subprocess still running after this long is killed.
SUITE_TIMEOUT_S = 60.0

#: Integer telemetry counters summed over the manifest's studies.
TELEMETRY_COUNTERS = (
    "completed",
    "cached",
    "evaluated",
    "eval_cached",
    "trace_simulated",
    "trace_cached",
    "batched",
    "retried",
    "failed",
    "poisoned",
    "eval_poisoned",
    "corrupt",
    "eval_corrupt",
    "trace_corrupt",
)


@dataclass(frozen=True)
class Workload:
    name: str
    cache: str  # "none", "cold" (empty cache each run) or "warm" (filled in set-up)
    workers: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "suite-nocache",
            "none",
            1,
            "no cache, one worker: the model layers do all the work and the cache layer none, "
            "so a cache change should not move it",
        ),
        Workload(
            "suite-cold",
            "cold",
            1,
            "empty cache each run: the model work of suite-nocache plus every cache store",
        ),
        Workload(
            "suite-warm",
            "warm",
            1,
            "cache filled in set-up: fingerprints, cache loads and row materialization; "
            "nvsim and cachesim do ~no work, so a model change should not move it",
        ),
        Workload(
            "suite-workers2",
            "none",
            2,
            "no cache, two pool workers: the only workload that runs the process-pool fan-out",
        ),
    )
}

#: End-to-end metrics reported with ``--trace 0``: (name, unit).
END_TO_END = (
    ("suite_s", "s"),
    ("suite_cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Run-level metrics that can be 0, reported with the per-layer metrics.
RUN_LEVEL = (("cache_mb", "MB"), ("cache_files", "count"), ("fail_ratio", "ratio"))


def layer_names() -> list[str]:
    """The per-layer metrics taken from each traced run."""
    return spans.per_layer_names(STUDIES) + [f"telemetry.{c}" for c in TELEMETRY_COUNTERS]


def per_layer_units() -> dict[str, str]:
    """Every metric reported with ``--trace 1``, with its unit."""
    units = {name: _unit(name) for name in layer_names()}
    units["trace.overhead_s"] = "s"
    units.update(RUN_LEVEL)
    return units


def _unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(".hit_ratio"):
        return "ratio"
    if name.endswith(".stored_bytes"):
        return "B"
    return "count"


# --- one suite subprocess ----------------------------------------------------


@dataclass
class SuiteRun:
    """Outcome and cost of one suite subprocess."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    out: Path
    trace: dict | None = None
    manifest: dict = field(default_factory=dict)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONHOME")}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def suite_args(out: Path, seed: int, workers: int, cache_dir: Path | None) -> list[str]:
    """Arguments of ``repro.studies.summary`` for one run."""
    args = [str(out), "--seed", str(seed), "--workers", str(workers)]
    if cache_dir is not None:
        args += ["--cache-dir", str(cache_dir)]
    return args


def run_suite(
    out: Path, seed: int, workers: int, cache_dir: Path | None, traced: bool = False
) -> SuiteRun:
    """Run the suite once in a fresh interpreter; time it from spawn to exit.

    CPU time and peak RSS come from ``wait4``, so they cover the suite
    process and every child it waited for (pool workers included).
    """
    args = suite_args(out, seed, workers, cache_dir)
    spans_file = out.with_name(out.name + ".spans.json")
    if traced:
        cmd = [sys.executable, str(HERE / "spans.py"), str(spans_file), "--", *args]
    else:
        cmd = [sys.executable, "-m", "repro.studies.summary", *args]
    log = out.with_name(out.name + ".log")
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=sink, stderr=sink)
        watchdog = threading.Timer(SUITE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    trace = None
    if traced and proc.returncode == 0:
        trace = json.loads(spans_file.read_text())
    return SuiteRun(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=proc.returncode,
        out=out,
        trace=trace,
        manifest=load_manifest(out),
    )


# --- correctness gate --------------------------------------------------------


def csv_digests(out: Path) -> dict[str, str]:
    """sha256 of every result CSV under a suite output directory."""
    return {
        path.stem: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((out / "results").glob("*.csv"))
    }


def load_manifest(out: Path) -> dict:
    try:
        return json.loads((out / "manifest.json").read_text())
    except (OSError, ValueError):
        return {}


def telemetry_totals(manifest: dict) -> dict[str, int]:
    totals = dict.fromkeys(TELEMETRY_COUNTERS, 0)
    for entry in manifest.get("entries", ()):
        for counter in TELEMETRY_COUNTERS:
            totals[counter] += int((entry.get("telemetry") or {}).get(counter, 0))
    return totals


def snapshot(cache_dir: Path | None) -> dict[str, int]:
    """Relative path -> size of every file under a cache directory."""
    if cache_dir is None or not cache_dir.exists():
        return {}
    return {
        str(path.relative_to(cache_dir)): path.stat().st_size
        for path in sorted(cache_dir.rglob("*"))
        if path.is_file()
    }


def gate(
    run: SuiteRun,
    reference: dict[str, str],
    expect_warm: bool = False,
    cache_before: dict[str, int] | None = None,
    cache_after: dict[str, int] | None = None,
) -> list[str]:
    """The studies of ``run`` that fail a correctness check, with the reason.

    A study passes when it finished ``ok`` with no poisoned point and its
    CSV is byte-identical to the no-cache reference for the same seed.  A
    failure of the whole run (non-zero exit, wrong study set, fresh work
    on a warm cache, a changed cache file set) fails every study.
    """
    manifest = run.manifest
    entries = {e.get("name"): e for e in manifest.get("entries", ())}
    problem = None
    if run.exit_code != 0:
        problem = f"exit code {run.exit_code}"
    elif tuple(manifest.get("suite", ())) != STUDIES:
        problem = f"suite {manifest.get('suite')} is not the registered studies"
    elif expect_warm and _fresh_work(manifest):
        problem = f"warm run did fresh work ({_fresh_work(manifest)} items)"
    elif expect_warm and cache_before != cache_after:
        problem = "warm run changed the cache file set"
    if problem is not None:
        return [f"{study}: {problem}" for study in STUDIES]
    digests = csv_digests(run.out)
    failures = []
    for study in STUDIES:
        entry = entries.get(study, {})
        counters = entry.get("telemetry") or {}
        if entry.get("status") != "ok":
            failures.append(f"{study}: status {entry.get('status')!r}")
        elif counters.get("poisoned", 0) or counters.get("eval_poisoned", 0):
            failures.append(f"{study}: poisoned points")
        elif digests.get(study) is None or digests.get(study) != reference.get(study):
            failures.append(f"{study}: CSV differs from the no-cache reference")
    return failures


def _fresh_work(manifest: dict) -> int:
    totals = telemetry_totals(manifest)
    return totals["completed"] + totals["evaluated"] + totals["trace_simulated"]


# --- one benchmark run -------------------------------------------------------


def _dir_size(path: Path | None) -> tuple[float, int]:
    sizes = snapshot(path).values()
    return sum(sizes) / 1e6, len(sizes)


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


@dataclass
class Tally:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, failures: list[str]) -> None:
        self.attempted += len(STUDIES)
        self.failures += failures


def benchmark(workload: Workload, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    """Set up, check against a reference, measure; the result JSON object."""
    checks = Tally()  # set-up and reference runs: must pass, not counted
    cache_dir = None
    setup_times, fills = [], []
    for rep in range(SETUP_REPEATS):
        start = time.perf_counter()
        if workload.cache == "warm":
            cache_dir = _fresh(work / f"cache{rep}")
            fills.append(run_suite(_fresh(work / f"fill{rep}"), seed, 1, cache_dir))
        else:
            probe = subprocess.run(
                [sys.executable, "-c", "import repro.studies.summary"],
                cwd=ROOT,
                env=child_env(),
                capture_output=True,
                timeout=SUITE_TIMEOUT_S,
            )
            if probe.returncode != 0:
                checks.failures.append(f"set-up: import failed: {probe.stderr[-500:]!r}")
        setup_times.append(time.perf_counter() - start)
    reference_run = run_suite(_fresh(work / "reference"), seed, 1, None)
    reference = csv_digests(reference_run.out)
    checks.failures += gate(reference_run, reference)
    for fill in fills:
        checks.failures += gate(fill, reference)
    cache_before = snapshot(cache_dir)

    tally = Tally()
    plain, traced_runs, cache_sizes = [], [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while (
        len(plain) < MIN_RUNS
        or (traced and len(traced_runs) < MIN_RUNS)
        or time.perf_counter() < deadline
    ):
        with_trace = traced and index % 2 == 1
        index += 1
        if workload.cache == "cold":
            cache_dir = _fresh(work / "cold-cache")
        run = run_suite(_fresh(work / "out"), seed, workload.workers, cache_dir, with_trace)
        cache_after = snapshot(cache_dir)
        tally.add(
            gate(
                run,
                reference,
                expect_warm=workload.cache == "warm",
                cache_before=cache_before,
                cache_after=cache_after,
            )
        )
        cache_sizes.append(_dir_size(cache_dir))
        (traced_runs if with_trace else plain).append(run)

    failed = len(tally.failures)
    run_level = {
        "cache_mb": statistics.median(mb for mb, _ in cache_sizes),
        "cache_files": statistics.median(n for _, n in cache_sizes),
        "fail_ratio": failed / tally.attempted,
    }
    if traced:
        metrics = _per_layer(traced_runs, plain)
        metrics.update(run_level)
        units = per_layer_units()
    else:
        metrics = {
            "suite_s": statistics.median(r.wall_s for r in plain),
            "suite_cpu_s": statistics.median(r.cpu_s for r in plain),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(r.rss_mb for r in plain),
        }
        units = dict(END_TO_END)
    runs = f"{len(plain)} untraced and {len(traced_runs)} traced suite runs, "
    runs += f"{tally.attempted - failed}/{tally.attempted} study checks pass"
    _report(
        workload,
        seed,
        runs,
        {**metrics, **run_level},
        {**units, **dict(RUN_LEVEL)},
        checks.failures + tally.failures,
    )
    return {
        "correct": not checks.failures and not tally.failures,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def _per_layer(traced_runs: list[SuiteRun], plain: list[SuiteRun]) -> dict[str, float]:
    """Median of each per-layer metric over the traced runs that completed."""
    samples = [
        {
            **spans.layer_metrics(run.trace, STUDIES),
            **{f"telemetry.{k}": v for k, v in telemetry_totals(run.manifest).items()},
        }
        for run in traced_runs
        if run.trace is not None
    ]
    metrics = {
        name: statistics.median(sample[name] for sample in samples) if samples else 0
        for name in layer_names()
    }
    metrics["trace.overhead_s"] = statistics.median(r.wall_s for r in traced_runs) - (
        statistics.median(r.wall_s for r in plain)
    )
    return metrics


def _report(workload: Workload, seed: int, runs: str, values: dict, units: dict, failures):
    """Every reported metric with its unit, and each failed check, on stderr."""
    threads = " ".join(f"{k}={v}" for k, v in THREAD_ENV.items())
    lines = [f"workload {workload.name} (seed {seed}, workers {workload.workers}, {threads})"]
    lines.append(f"  {runs}")
    lines += [f"  {name:48s} {values[name]:>14.6g} {unit}" for name, unit in units.items()]
    lines += [f"  FAILED {failure}" for failure in failures]
    print("\n".join(lines), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end study-suite benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "studies" / "summary.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        result = benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
