"""Fault-tolerant execution: retries, pool recovery, chaos injection.

Covers the resilience layer (PR 7) from the bottom up: error
classification, retry-policy arithmetic, the deterministic chaos
harness, :func:`run_resilient` in serial and pool modes (including
worker-crash recovery and the deadline watchdog), and the end-to-end
behaviour of a characterization sweep under injected faults — poisoned
points, quarantined cache entries, and the heal-on-recompute cycle.
"""

from __future__ import annotations

import os
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import (
    CharacterizationError,
    ConfigError,
    PoisonedPointError,
    TransientError,
)
from repro.nvsim.result import OptimizationTarget
from repro.runtime import (
    CharacterizationCache,
    SweepPoint,
    SweepTelemetry,
    characterize_points,
)
from repro.runtime import chaos as chaos_module
from repro.runtime.chaos import ChaosInjectedError, ChaosOptions, parse_chaos_spec
from repro.runtime.resilience import (
    RetryPolicy,
    classify_error,
    run_resilient,
)
from repro.units import mb

#: A fast policy for tests that exercise retry logic, not backoff waits.
FAST = RetryPolicy(max_attempts=3, backoff_s=0.0, max_backoff_s=0.0)


@pytest.fixture(autouse=True)
def _reset_corruption_ledger():
    """Chaos corrupts each fingerprint at most once per *process*; tests
    must not inherit another test's ledger."""
    chaos_module._CORRUPTED.clear()
    yield
    chaos_module._CORRUPTED.clear()


def make_point(cell, capacity=mb(1)):
    return SweepPoint(
        cell=cell,
        capacity_bytes=capacity,
        node_nm=22,
        target=OptimizationTarget.READ_EDP,
        access_bits=64,
        bits_per_cell=1,
    )


# --- module-level (picklable) task bodies for pool-mode tests -------------


def _double(item):
    return item * 2


def _kill_once(item):
    """SIGKILL this worker the first time the victim item comes through.

    ``item`` is ``(sentinel_path, value)``; the sentinel file makes the
    crash happen exactly once across retries and pool rebuilds.
    """
    sentinel, value = item
    if value == "victim" and not os.path.exists(sentinel):
        with open(sentinel, "w") as handle:
            handle.write("crashed")
        os.kill(os.getpid(), 9)
    return value


def _mark_and_sleep(item):
    """Leave a marker file showing this task ran, then take a while."""
    marker_dir, value = item
    with open(os.path.join(marker_dir, f"ran-{value}"), "w"):
        pass
    time.sleep(0.2)
    return value


def _stall_once(item):
    """Hang far past any deadline the first time the sleepy item runs."""
    sentinel, value = item
    if value == "sleepy" and not os.path.exists(sentinel):
        with open(sentinel, "w") as handle:
            handle.write("stalled")
        time.sleep(60)
    return value


class TestClassifyError:
    def test_transient_kinds(self):
        assert classify_error(TransientError("x")) == "transient"
        assert classify_error(ChaosInjectedError("x")) == "transient"
        assert classify_error(PoisonedPointError("x")) == "transient"
        assert classify_error(BrokenProcessPool("pool died")) == "transient"
        assert classify_error(TimeoutError()) == "transient"

    def test_deterministic_kinds(self):
        assert classify_error(CharacterizationError("no org")) == "deterministic"
        assert classify_error(ValueError("bug")) == "deterministic"
        assert classify_error(ConfigError("bad flag")) == "deterministic"


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_s=0.1, multiplier=2.0, max_backoff_s=1.0)
        first = policy.backoff_for("point-a", 1)
        assert first == policy.backoff_for("point-a", 1)
        # base 0.1 plus at most 50% jitter
        assert 0.1 <= first <= 0.15
        # attempt 2 doubles the base
        assert 0.2 <= policy.backoff_for("point-a", 2) <= 0.3
        # the cap wins even with jitter applied
        assert policy.backoff_for("point-a", 10) <= 1.0

    def test_jitter_desynchronizes_keys(self):
        policy = RetryPolicy(backoff_s=0.1)
        delays = {policy.backoff_for(f"point-{i}", 1) for i in range(8)}
        assert len(delays) > 1

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_s=-1.0)
        with pytest.raises(ConfigError):
            RetryPolicy(deadline_s=0)

    def test_from_mapping_round_trip_and_unknown_keys(self):
        policy = RetryPolicy.from_mapping({"max_attempts": 5, "backoff_s": 0.01})
        assert policy.max_attempts == 5
        assert RetryPolicy.from_mapping(policy.to_dict()) == policy
        with pytest.raises(ConfigError, match="unknown retry option"):
            RetryPolicy.from_mapping({"max_attempt": 5})


class TestChaosSpec:
    def test_off_and_empty_disable(self):
        assert parse_chaos_spec("off") is None
        assert parse_chaos_spec("") is None
        assert parse_chaos_spec("  OFF  ") is None

    def test_aliases_and_field_names(self):
        options = parse_chaos_spec(
            "seed=7,worker_kill=0.5,poison=0.25,stall_s=1.5,corrupt_mode=bitflip"
        )
        assert options == ChaosOptions(
            seed=7, worker_kill_rate=0.5, poison_rate=0.25,
            stall_s=1.5, corrupt_mode="bitflip",
        )
        assert parse_chaos_spec("worker_error_rate=0.1").worker_error_rate == 0.1

    def test_bad_specs_rejected(self):
        with pytest.raises(ConfigError, match="unknown chaos spec key"):
            parse_chaos_spec("worker_crash=0.5")
        with pytest.raises(ConfigError, match="not key=value"):
            parse_chaos_spec("poison")
        with pytest.raises(ConfigError, match="must be a number"):
            parse_chaos_spec("poison=lots")
        with pytest.raises(ConfigError, match=r"in \[0, 1\]"):
            parse_chaos_spec("poison=1.5")
        with pytest.raises(ConfigError, match="seed must be an int"):
            parse_chaos_spec("seed=x")

    def test_options_validation_and_enabled(self):
        assert not ChaosOptions().enabled
        assert ChaosOptions(poison_rate=0.01).enabled
        with pytest.raises(ConfigError):
            ChaosOptions(corrupt_mode="scramble")
        with pytest.raises(ConfigError, match="unknown chaos option"):
            ChaosOptions.from_mapping({"kill_rate": 0.5})


class TestChaosInjection:
    def test_decisions_are_deterministic(self):
        grid = [(f"fp-{i}", attempt) for i in range(10) for attempt in range(3)]

        def fired(options):
            hits = set()
            for key, attempt in grid:
                try:
                    options.worker_fault(key, attempt, in_pool=False)
                except ChaosInjectedError:
                    hits.add((key, attempt))
            return hits

        first = fired(ChaosOptions(seed=3, worker_error_rate=0.5))
        assert first == fired(ChaosOptions(seed=3, worker_error_rate=0.5))
        assert 0 < len(first) < len(grid)  # neither all nor nothing

    def test_poison_fires_on_every_attempt(self):
        options = ChaosOptions(seed=1, poison_rate=1.0)
        for attempt in range(4):
            with pytest.raises(ChaosInjectedError):
                options.worker_fault("fp-a", attempt, in_pool=False)

    def test_serial_kill_downgraded_to_error(self):
        options = ChaosOptions(seed=1, worker_kill_rate=1.0)
        with pytest.raises(ChaosInjectedError, match="serial downgrade"):
            options.worker_fault("fp-a", 0, in_pool=False)
        # still alive — the kill was not delivered

    def test_corrupt_file_truncates_once_per_fingerprint(self, tmp_path):
        target = tmp_path / "entry.json"
        target.write_bytes(b'{"schema": "x", "result": [1, 2, 3]}')
        original = target.read_bytes()
        options = ChaosOptions(seed=2, cache_corrupt_rate=1.0)
        assert options.maybe_corrupt_file(target, "fp-a") is True
        assert len(target.read_bytes()) == len(original) // 2
        # once per process: the second pass leaves the file alone
        target.write_bytes(original)
        assert options.maybe_corrupt_file(target, "fp-a") is False
        assert target.read_bytes() == original

    def test_corrupt_file_bitflip_preserves_length(self, tmp_path):
        target = tmp_path / "entry.json"
        original = b'{"schema": "x", "result": [1, 2, 3]}'
        target.write_bytes(original)
        options = ChaosOptions(
            seed=2, cache_corrupt_rate=1.0, corrupt_mode="bitflip"
        )
        assert options.maybe_corrupt_file(target, "fp-b") is True
        damaged = target.read_bytes()
        assert len(damaged) == len(original)
        assert damaged != original


class TestRunResilientSerial:
    def test_all_ok(self):
        outcomes = run_resilient([("a", 1), ("b", 2)], _double, workers=1)
        assert {k: o.value for k, o in outcomes.items()} == {"a": 2, "b": 4}
        assert all(o.ok and o.attempts == 1 for o in outcomes.values())

    def test_transient_failure_retries_to_success(self):
        calls = {"n": 0}

        def flaky(item):
            calls["n"] += 1
            if calls["n"] == 1:
                raise TransientError("blip")
            return item

        retries = []
        outcomes = run_resilient(
            [("a", "value")], flaky, workers=1, policy=FAST,
            on_retry=lambda key, attempt, error: retries.append((key, attempt, error)),
        )
        assert outcomes["a"].ok
        assert outcomes["a"].attempts == 2
        assert retries == [("a", 1, "blip")]

    def test_exhausted_retries_poison_the_task(self):
        def doomed(item):
            raise TransientError("always down")

        outcomes = run_resilient([("a", 1)], doomed, workers=1, policy=FAST)
        assert outcomes["a"].status == "poisoned"
        assert outcomes["a"].attempts == FAST.max_attempts
        assert "always down" in outcomes["a"].error

    def test_deterministic_failure_never_retries(self):
        calls = {"n": 0}

        def broken(item):
            calls["n"] += 1
            raise CharacterizationError("no feasible organization")

        outcomes = run_resilient([("a", 1)], broken, workers=1, policy=FAST)
        assert outcomes["a"].status == "failed"
        assert outcomes["a"].attempts == 1
        assert calls["n"] == 1

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            run_resilient([("a", 1), ("a", 2)], _double, workers=1)

    def test_on_outcome_exception_aborts(self):
        ran = []

        def record(item):
            ran.append(item)
            return item

        def abort(outcome):
            raise RuntimeError("stop the sweep")

        with pytest.raises(RuntimeError, match="stop the sweep"):
            run_resilient(
                [("a", 1), ("b", 2)], record, workers=1, on_outcome=abort
            )
        assert ran == [1]

    def test_outcomes_arrive_in_task_order(self):
        seen = []
        run_resilient(
            [(f"k{i}", i) for i in range(5)], _double, workers=1,
            on_outcome=lambda outcome: seen.append(outcome.key),
        )
        assert seen == [f"k{i}" for i in range(5)]


class TestRunResilientPool:
    def test_all_ok_across_workers(self):
        tasks = [(f"k{i}", i) for i in range(12)]
        # Multi-task chunks complete in any order; every outcome must
        # still land on its own task's key.
        for chunksize in (None, 5):
            outcomes = run_resilient(
                tasks, _double, workers=3, policy=FAST, chunksize=chunksize
            )
            assert {k: o.value for k, o in outcomes.items()} == {
                f"k{i}": i * 2 for i in range(12)
            }

    def test_on_outcome_exception_cancels_outstanding_work(self, tmp_path):
        tasks = [(f"k{i}", (str(tmp_path), i)) for i in range(20)]

        def abort(outcome):
            raise RuntimeError("stop the sweep")

        with pytest.raises(RuntimeError, match="stop the sweep"):
            run_resilient(
                tasks, _mark_and_sleep, workers=2, chunksize=1, policy=FAST,
                on_outcome=abort,
            )
        # Calls already handed to a worker may still finish; everything
        # queued behind them must have been cancelled.
        time.sleep(1.0)
        assert len(list(tmp_path.glob("ran-*"))) < len(tasks) // 2

    def test_worker_crash_rebuilds_pool_and_recovers(self, tmp_path):
        sentinel = str(tmp_path / "crashed-once")
        tasks = [(f"k{i}", (sentinel, f"k{i}")) for i in range(6)]
        tasks.append(("victim", (sentinel, "victim")))
        policy = RetryPolicy(max_attempts=3, backoff_s=0.01)
        outcomes = run_resilient(tasks, _kill_once, workers=2, policy=policy)
        assert len(outcomes) == 7
        assert all(o.ok for o in outcomes.values())
        # the crash charged the victim (at least) one transient attempt
        assert outcomes["victim"].attempts >= 2
        assert outcomes["victim"].value == "victim"

    def test_deadline_watchdog_kills_stuck_worker(self, tmp_path):
        sentinel = str(tmp_path / "stalled-once")
        tasks = [(f"k{i}", (sentinel, f"k{i}")) for i in range(3)]
        tasks.append(("sleepy", (sentinel, "sleepy")))
        policy = RetryPolicy(max_attempts=3, backoff_s=0.01, deadline_s=0.5)
        retries = []
        start = time.monotonic()
        outcomes = run_resilient(
            tasks, _stall_once, workers=2, policy=policy,
            on_retry=lambda key, attempt, error: retries.append((key, error)),
        )
        elapsed = time.monotonic() - start
        assert all(o.ok for o in outcomes.values())
        assert outcomes["sleepy"].attempts >= 2
        assert any("deadline" in error for key, error in retries if key == "sleepy")
        # the watchdog cut the 60s stall down to roughly the deadline
        assert elapsed < 30

    def test_pool_poisons_after_exhausted_retries(self):
        chaos = ChaosOptions(seed=4, poison_rate=1.0)
        tasks = [(f"k{i}", i) for i in range(4)]
        outcomes = run_resilient(
            tasks, _double, workers=2, policy=FAST, chaos=chaos
        )
        assert all(o.status == "poisoned" for o in outcomes.values())
        assert all(o.attempts == FAST.max_attempts for o in outcomes.values())


class TestChaosEndToEnd:
    def test_poisoned_points_skipped_and_counted(self, stt_optimistic):
        points = [make_point(stt_optimistic, capacity=mb(c)) for c in (1, 2)]
        telemetry = SweepTelemetry()
        results = characterize_points(
            points, on_error="skip", telemetry=telemetry,
            retry=FAST, chaos=ChaosOptions(seed=9, poison_rate=1.0),
        )
        assert results == [None, None]
        assert telemetry.poisoned == 2
        assert telemetry.retried == 2 * (FAST.max_attempts - 1)
        assert len(telemetry.poisoned_failures) == 2
        assert telemetry.fresh_work == 0
        assert telemetry.total == 2  # poisoned points still count

    def test_poisoned_point_raises_under_on_error_raise(self, stt_optimistic):
        with pytest.raises(PoisonedPointError, match="poisoned after"):
            characterize_points(
                [make_point(stt_optimistic)], on_error="raise",
                retry=FAST, chaos=ChaosOptions(seed=9, poison_rate=1.0),
            )

    def test_transient_faults_retry_to_completion(self, stt_optimistic):
        # error rate low enough that three attempts virtually always win;
        # determinism makes "virtually" into "exactly, for this seed".
        telemetry = SweepTelemetry()
        results = characterize_points(
            [make_point(stt_optimistic, capacity=mb(c)) for c in (1, 2, 4)],
            on_error="skip", telemetry=telemetry,
            retry=RetryPolicy(max_attempts=5, backoff_s=0.0, max_backoff_s=0.0),
            chaos=ChaosOptions(seed=11, worker_error_rate=0.4),
        )
        assert all(r is not None for r in results)
        assert telemetry.completed == 3
        assert telemetry.poisoned == 0

    def test_cache_corruption_quarantined_and_healed(self, tmp_path, stt_optimistic):
        point = make_point(stt_optimistic)
        clean = CharacterizationCache(tmp_path)
        characterize_points([point], cache=clean)
        assert clean.stores == 1

        # chaos corrupts the entry just before the load reads it
        hostile = CharacterizationCache(
            tmp_path, chaos=ChaosOptions(seed=5, cache_corrupt_rate=1.0)
        )
        telemetry = SweepTelemetry()
        results = characterize_points([point], cache=hostile, telemetry=telemetry)
        assert results[0] is not None
        assert telemetry.corrupt == 1
        assert telemetry.completed == 1  # recomputed, not served corrupt
        assert hostile.stats()["corrupt"] == 1
        assert hostile.stats()["quarantined"] == 1
        damaged = list(hostile.quarantine_dir().iterdir())
        assert len(damaged) == 1

        # the recompute re-stored a clean entry; with the corruption
        # ledger marking this fingerprint spent, the next run is warm
        warm = SweepTelemetry()
        characterize_points([point], cache=hostile, telemetry=warm)
        assert warm.cached == 1
        assert warm.corrupt == 0
