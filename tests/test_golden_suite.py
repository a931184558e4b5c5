"""Golden digests of the full study suite.

Every CSV and report that ``python -m repro.studies.summary`` writes is
pinned by sha256 in ``tests/golden/suite_digests.json``, at two seeds.
Each seed is run as a fresh subprocess in four modes: no cache, a cold
cache, the same cache warm (``--expect-warm``) and ``--workers 2``.

* Cross-mode parity is always asserted: at each seed, every mode writes
  the same bytes for every file.
* The absolute pins are asserted when the host's numpy version and
  machine match the ones recorded with the pins.  Another numpy wheel
  may round differently, so on a mismatch only that comparison is
  skipped.

Pytest never writes the pins.  To re-pin, run::

    PYTHONPATH=src python tests/test_golden_suite.py --update

and name every moved study in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy
import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PINS_PATH = Path(__file__).resolve().parent / "golden" / "suite_digests.json"

SEEDS = (5, 7)

#: A suite subprocess still running after this long fails the test.
SUITE_TIMEOUT_S = 300

#: One BLAS/OpenMP thread per suite process, as in ``suitebench``.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _run_suite(out: Path, seed: int, *extra: str) -> dict[str, str]:
    """Run the suite once in a fresh process; sha256 of every artifact."""
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}
    cmd = [sys.executable, "-m", "repro.studies.summary", str(out),
           "--seed", str(seed), *extra]
    result = subprocess.run(cmd, env=env, capture_output=True, text=True,
                            timeout=SUITE_TIMEOUT_S)
    assert result.returncode == 0, (
        f"{' '.join(cmd[1:])} exited {result.returncode}\n"
        f"{result.stdout}\n{result.stderr}"
    )
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for sub in ("results", "reports")
        for path in sorted((out / sub).iterdir())
    }


def run_modes(seed: int, work: Path) -> dict[str, dict[str, str]]:
    """Digests of every artifact, per mode, for one seed."""
    cache = str(work / "cache")
    return {
        "no-cache": _run_suite(work / "no-cache", seed),
        "cold": _run_suite(work / "cold", seed, "--cache-dir", cache),
        "warm": _run_suite(work / "warm", seed, "--cache-dir", cache,
                           "--expect-warm"),
        "workers-2": _run_suite(work / "workers-2", seed, "--workers", "2"),
    }


def mode_mismatches(by_mode: dict[str, dict[str, str]]) -> list[str]:
    """Files whose bytes differ from the no-cache run, as ``mode: file``."""
    reference = by_mode["no-cache"]
    problems = []
    for mode, digests in by_mode.items():
        for name in sorted(set(reference) | set(digests)):
            if digests.get(name) != reference.get(name):
                problems.append(f"{mode}: {name}")
    return problems


def _host() -> dict[str, str]:
    return {"numpy": numpy.__version__, "machine": platform.machine()}


@pytest.fixture(scope="module")
def suite_runs(tmp_path_factory):
    """Lazily run each seed's four modes once per module."""
    runs: dict[int, dict[str, dict[str, str]]] = {}

    def get(seed: int) -> dict[str, dict[str, str]]:
        if seed not in runs:
            runs[seed] = run_modes(seed, tmp_path_factory.mktemp(f"seed{seed}"))
        return runs[seed]

    return get


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_PATH.read_text())


def test_pins_cover_every_study(pins):
    from repro.studies.pipeline import REGISTRY

    expected = {f"results/{name}.csv" for name in REGISTRY}
    expected |= {f"reports/{name}.md" for name in REGISTRY}
    assert sorted(pins["seeds"]) == [str(seed) for seed in SEEDS]
    for seed, digests in pins["seeds"].items():
        assert set(digests) == expected, seed


@pytest.mark.parametrize("seed", SEEDS)
def test_modes_write_identical_bytes(suite_runs, seed):
    assert mode_mismatches(suite_runs(seed)) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_digests_match_pins(suite_runs, pins, seed):
    host = _host()
    recorded = {key: pins[key] for key in host}
    if recorded != host:
        pytest.skip(
            f"pins recorded with numpy {recorded['numpy']} on "
            f"{recorded['machine']}; this host has numpy {host['numpy']} "
            f"on {host['machine']}"
        )
    digests = suite_runs(seed)["no-cache"]
    pinned = pins["seeds"][str(seed)]
    moved = sorted(
        name for name in set(pinned) | set(digests)
        if pinned.get(name) != digests.get(name)
    )
    assert moved == [], f"seed {seed}: artifacts differ from the pins"


def _update() -> int:
    seeds = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            work = Path(tmp) / f"seed{seed}"
            by_mode = run_modes(seed, work)
            problems = mode_mismatches(by_mode)
            if problems:
                print(f"seed {seed}: modes disagree, not re-pinning:",
                      *problems, sep="\n  ", file=sys.stderr)
                return 1
            seeds[str(seed)] = by_mode["no-cache"]
    PINS_PATH.parent.mkdir(parents=True, exist_ok=True)
    PINS_PATH.write_text(
        json.dumps({**_host(), "seeds": seeds}, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {PINS_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        print(f"usage: python {Path(__file__).name} --update", file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(_update())
