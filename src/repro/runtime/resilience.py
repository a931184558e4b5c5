"""Fault-tolerant task execution: retries, pool recovery, watchdog.

This module is the single place that knows how to keep a sweep alive on
imperfect infrastructure.  :func:`run_resilient` drives a set of keyed
tasks to one of three terminal states each:

``ok``
    The task produced a value.
``failed``
    The task raised a *deterministic* error (:class:`~repro.errors.ReproError`
    that is not transient) — retrying the same inputs would reproduce the
    same failure, so it fails immediately.
``poisoned``
    The task kept raising *transient* errors (worker crashes, injected
    chaos faults, deadline timeouts) until its retry budget ran out.
    The captured exception rides along so manifests can quarantine the
    point with its cause.

Recovery machinery, all bounded and deterministic:

- ``BrokenProcessPool`` rebuilds the pool and re-dispatches only the
  chunks that were in flight; each such chunk is re-queued as singleton
  units charged one transient attempt (the innocent neighbours of the
  crashed point succeed on retry, the culprit exhausts its budget).
- A per-point wall-clock deadline (``RetryPolicy.deadline_s``) is
  enforced by a watchdog: overdue workers are killed, the pool is
  respawned, and the overdue point is charged a transient attempt.
  Deadlines force ``chunksize=1`` and a sliding submission window so a
  submitted future is genuinely running.
- Retry backoff is exponential with deterministic jitter derived from
  ``(key, attempt)`` — reproducible, yet de-synchronized across points.

Every rebuild charges at least one task an attempt and attempts are
bounded, so the loop terminates even under a 100% crash rate.
"""

from __future__ import annotations

import hashlib
import math
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import ConfigError, ReproError, TransientError
from .chaos import ChaosOptions

__all__ = [
    "RetryPolicy",
    "TaskOutcome",
    "classify_error",
    "run_resilient",
]

# Watchdog poll cadence while futures are in flight with deadlines or
# cooling tasks pending.
_TICK_S = 0.05
# Slack added to the per-point deadline before declaring a worker stuck,
# covering pool dispatch overhead.
_DEADLINE_GRACE_S = 0.25


def classify_error(error: BaseException) -> str:
    """Classify an exception as ``"transient"`` or ``"deterministic"``.

    Transient: :class:`TransientError` (includes chaos injections) and
    broken-pool/timeout infrastructure faults.  Everything else raised
    by the model layer is deterministic — same inputs, same failure.
    """

    if isinstance(error, TransientError):
        return "transient"
    if isinstance(error, (BrokenProcessPool, TimeoutError)):
        return "transient"
    return "deterministic"


@dataclass(frozen=True)
class RetryPolicy:
    """How transient failures are retried.

    ``max_attempts`` counts total tries per task (1 disables retries).
    Backoff for attempt *n* (1-based retry index) is
    ``backoff_s * multiplier**(n-1)`` capped at ``max_backoff_s``, plus
    up to 50% deterministic jitter keyed by ``(task key, attempt)``.
    ``deadline_s`` is the per-point wall-clock budget enforced by the
    watchdog (pool mode only; ``None`` disables it).
    """

    max_attempts: int = 3
    backoff_s: float = 0.05
    multiplier: float = 2.0
    max_backoff_s: float = 2.0
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.max_attempts, int) or isinstance(self.max_attempts, bool):
            raise ConfigError(f"retry max_attempts must be an int, got {self.max_attempts!r}")
        if self.max_attempts < 1:
            raise ConfigError(f"retry max_attempts must be >= 1, got {self.max_attempts}")
        for name in ("backoff_s", "multiplier", "max_backoff_s"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"retry {name} must be a number, got {value!r}")
            if float(value) < 0:
                raise ConfigError(f"retry {name} must be >= 0, got {value!r}")
        if self.deadline_s is not None:
            if not isinstance(self.deadline_s, (int, float)) or isinstance(
                self.deadline_s, bool
            ):
                raise ConfigError(f"retry deadline_s must be a number, got {self.deadline_s!r}")
            if float(self.deadline_s) <= 0:
                raise ConfigError(f"retry deadline_s must be > 0, got {self.deadline_s!r}")

    def backoff_for(self, key: str, attempt: int) -> float:
        """Deterministic backoff before retry ``attempt`` (1-based) of ``key``."""

        if attempt < 1:
            return 0.0
        base = min(
            float(self.backoff_s) * float(self.multiplier) ** (attempt - 1),
            float(self.max_backoff_s),
        )
        digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
        jitter = int.from_bytes(digest[:8], "big") / 2**64
        return min(base * (1.0 + 0.5 * jitter), float(self.max_backoff_s))

    def to_dict(self) -> Dict[str, object]:
        return {field.name: getattr(self, field.name) for field in fields(self)}

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, object]) -> "RetryPolicy":
        if not isinstance(mapping, Mapping):
            raise ConfigError(f"retry section must be a mapping, got {mapping!r}")
        known = {field.name for field in fields(cls)}
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise ConfigError(
                f"unknown retry option(s) {unknown}; known options: {sorted(known)}"
            )
        return cls(**dict(mapping))


@dataclass
class TaskOutcome:
    """Terminal state of one keyed task."""

    key: str
    status: str  # "ok" | "failed" | "poisoned"
    value: Any = None
    error: str = ""
    attempts: int = 1
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


# One pending execution of a task at a given attempt.
_Entry = Tuple[str, int, Any]  # (key, attempt, item)


def _run_task_chunk(
    payload: Tuple[Callable[[Any], Any], Optional[ChaosOptions], bool, List[_Entry]],
) -> List[Tuple[str, str, Any, float]]:
    """Worker-side chunk runner.

    Returns one record per entry: ``(key, status, value_or_error, duration_s)``
    with status ``"ok"`` / ``"transient"`` / ``"deterministic"``.  Errors
    outside :class:`ReproError` propagate (programming bugs should crash
    loudly, exactly as they did before the resilience layer existed).
    """

    fn, chaos, in_pool, entries = payload
    records: List[Tuple[str, str, Any, float]] = []
    for key, attempt, item in entries:
        start = time.perf_counter()
        try:
            if chaos is not None:
                # Items that roll poison per member (batched
                # characterization) opt out of the group-key roll so the
                # poisoned set matches the unbatched execution exactly.
                chaos.worker_fault(
                    key,
                    attempt,
                    in_pool=in_pool,
                    poison=not getattr(item, "chaos_poison_inline", False),
                )
            value = fn(item)
        except TransientError as exc:
            records.append((key, "transient", str(exc), time.perf_counter() - start))
        except ReproError as exc:
            records.append((key, "deterministic", str(exc), time.perf_counter() - start))
        else:
            records.append((key, "ok", value, time.perf_counter() - start))
    return records


def _chunk_entries(entries: List[_Entry], chunksize: int) -> List[List[_Entry]]:
    return [entries[i : i + chunksize] for i in range(0, len(entries), chunksize)]


def run_resilient(
    tasks: Sequence[Tuple[str, Any]],
    fn: Callable[[Any], Any],
    *,
    workers: int = 1,
    policy: Optional[RetryPolicy] = None,
    chaos: Optional[ChaosOptions] = None,
    chunksize: Optional[int] = None,
    on_outcome: Optional[Callable[[TaskOutcome], None]] = None,
    on_retry: Optional[Callable[[str, int, str], None]] = None,
) -> Dict[str, TaskOutcome]:
    """Run keyed tasks to terminal outcomes, surviving infrastructure faults.

    ``tasks`` is a sequence of unique ``(key, item)`` pairs; ``fn`` must be
    picklable when ``workers > 1``.  ``on_outcome`` is invoked once per
    task in completion order — if it raises, outstanding work is cancelled
    and the exception propagates (this is how ``on_error="raise"`` keeps
    its abort-the-sweep semantics).  ``on_retry(key, next_attempt, error)``
    fires before each backoff sleep.  ``chunksize`` defaults to
    ``ceil(len(tasks) / (4 * workers))``: four chunks per worker, so a
    slow chunk does not leave the rest of the pool idle at the tail.

    Returns ``{key: TaskOutcome}`` for every task.
    """

    policy = policy or RetryPolicy()
    keys = [key for key, _ in tasks]
    if len(set(keys)) != len(keys):
        raise ValueError("run_resilient task keys must be unique")
    items = dict(tasks)
    outcomes: Dict[str, TaskOutcome] = {}

    def finalize(outcome: TaskOutcome) -> None:
        outcomes[outcome.key] = outcome
        if on_outcome is not None:
            on_outcome(outcome)

    if workers <= 1 or len(tasks) <= 1:
        _run_serial(tasks, fn, policy, chaos, finalize, on_retry)
        return outcomes

    _run_pool(tasks, fn, workers, policy, chaos, chunksize, items, finalize, on_retry)
    return outcomes


def _run_serial(
    tasks: Sequence[Tuple[str, Any]],
    fn: Callable[[Any], Any],
    policy: RetryPolicy,
    chaos: Optional[ChaosOptions],
    finalize: Callable[[TaskOutcome], None],
    on_retry: Optional[Callable[[str, int, str], None]],
) -> None:
    for key, item in tasks:
        attempt = 0
        while True:
            records = _run_task_chunk((fn, chaos, False, [(key, attempt, item)]))
            _, status, payload, duration = records[0]
            if status == "ok":
                finalize(TaskOutcome(key, "ok", value=payload, attempts=attempt + 1,
                                     duration_s=duration))
                break
            if status == "deterministic":
                finalize(TaskOutcome(key, "failed", error=payload, attempts=attempt + 1,
                                     duration_s=duration))
                break
            attempt += 1
            if attempt >= policy.max_attempts:
                finalize(TaskOutcome(key, "poisoned", error=payload, attempts=attempt,
                                     duration_s=duration))
                break
            if on_retry is not None:
                on_retry(key, attempt, payload)
            delay = policy.backoff_for(key, attempt)
            if delay > 0:
                time.sleep(delay)


def _run_pool(
    tasks: Sequence[Tuple[str, Any]],
    fn: Callable[[Any], Any],
    workers: int,
    policy: RetryPolicy,
    chaos: Optional[ChaosOptions],
    chunksize: Optional[int],
    items: Dict[str, Any],
    finalize: Callable[[TaskOutcome], None],
    on_retry: Optional[Callable[[str, int, str], None]],
) -> None:
    # Deadlines require chunksize=1 plus a submission window capped at
    # the worker count: only then is a submitted future guaranteed to be
    # *running*, which is what makes wall-clock accounting meaningful.
    if policy.deadline_s is not None:
        effective_chunksize = 1
        max_inflight: Optional[int] = workers
    else:
        effective_chunksize = chunksize or math.ceil(len(tasks) / (4 * workers))
        max_inflight = None

    ready: deque[List[_Entry]] = deque(
        _chunk_entries([(key, 0, item) for key, item in tasks], effective_chunksize)
    )
    cooling: List[Tuple[float, List[_Entry]]] = []  # (ready_at, unit)
    inflight: Dict[Future, Tuple[List[_Entry], float]] = {}
    pool = ProcessPoolExecutor(max_workers=workers)

    def requeue_transient(entry: _Entry, error: str, duration: float) -> None:
        """Charge one transient attempt; poison on budget exhaustion."""

        key, attempt, item = entry
        next_attempt = attempt + 1
        if next_attempt >= policy.max_attempts:
            finalize(TaskOutcome(key, "poisoned", error=error, attempts=next_attempt,
                                 duration_s=duration))
            return
        if on_retry is not None:
            on_retry(key, next_attempt, error)
        ready_at = time.monotonic() + policy.backoff_for(key, next_attempt)
        cooling.append((ready_at, [(key, next_attempt, item)]))

    def handle_records(records: List[Tuple[str, str, Any, float]]) -> None:
        for key, status, payload, duration in records:
            attempt = attempts_now.get(key, 0)
            if status == "ok":
                finalize(TaskOutcome(key, "ok", value=payload, attempts=attempt + 1,
                                     duration_s=duration))
            elif status == "deterministic":
                finalize(TaskOutcome(key, "failed", error=payload, attempts=attempt + 1,
                                     duration_s=duration))
            else:
                requeue_transient((key, attempt, items[key]), payload, duration)

    # Current attempt index per key, for records coming back from workers
    # (records carry only the key; the attempt lives parent-side).
    attempts_now: Dict[str, int] = {key: 0 for key, _ in tasks}

    def note_attempts(unit: List[_Entry]) -> None:
        for key, attempt, _ in unit:
            attempts_now[key] = attempt

    def rebuild_pool() -> ProcessPoolExecutor:
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        return ProcessPoolExecutor(max_workers=workers)

    try:
        while ready or cooling or inflight:
            now = time.monotonic()
            if cooling:
                still_cooling = []
                for ready_at, unit in cooling:
                    if ready_at <= now:
                        ready.append(unit)
                    else:
                        still_cooling.append((ready_at, unit))
                cooling[:] = still_cooling
            while ready and (max_inflight is None or len(inflight) < max_inflight):
                unit = ready.popleft()
                note_attempts(unit)
                future = pool.submit(_run_task_chunk, (fn, chaos, True, unit))
                inflight[future] = (unit, time.monotonic())
            if not inflight:
                if cooling:
                    time.sleep(max(0.0, min(at for at, _ in cooling) - time.monotonic()))
                continue

            timeout = _TICK_S if (cooling or policy.deadline_s is not None) else None
            done, _ = futures_wait(set(inflight), timeout=timeout,
                                   return_when=FIRST_COMPLETED)
            broken = False
            for future in done:
                unit, _submitted = inflight.pop(future)
                try:
                    records = future.result()
                except BrokenProcessPool as exc:
                    broken = True
                    for entry in unit:
                        requeue_transient(entry, f"worker process died: {exc}", 0.0)
                    continue
                handle_records(records)

            now = time.monotonic()
            overdue: List[Future] = []
            if policy.deadline_s is not None:
                budget = float(policy.deadline_s) + _DEADLINE_GRACE_S
                overdue = [
                    future
                    for future, (unit, submitted) in inflight.items()
                    if now - submitted > budget * max(1, len(unit))
                ]
            if overdue:
                # Watchdog: the stuck worker won't yield the GIL back to
                # us via the future, so kill the pool's processes and
                # respawn.  Only the overdue points are charged a
                # transient attempt; innocent in-flight neighbours are
                # re-queued at their current attempt.
                for process in list(getattr(pool, "_processes", {}).values()):
                    try:
                        process.kill()
                    except Exception:
                        pass
                broken = True
                overdue_set = set(overdue)
                for future, (unit, _submitted) in list(inflight.items()):
                    if future in overdue_set:
                        for entry in unit:
                            requeue_transient(
                                entry,
                                f"point exceeded deadline of {policy.deadline_s}s",
                                float(policy.deadline_s or 0.0),
                            )
                    else:
                        for entry in unit:
                            ready.append([entry])
                inflight.clear()
            elif broken:
                # The pool is broken: every remaining future is dead.
                # Try to salvage results that completed before the break,
                # then charge the rest a transient attempt as singletons
                # (the culprit exhausts its budget; neighbours recover).
                for future, (unit, _submitted) in list(inflight.items()):
                    salvaged = False
                    if future.done():
                        try:
                            handle_records(future.result())
                            salvaged = True
                        except Exception:
                            salvaged = False
                    if not salvaged:
                        for entry in unit:
                            requeue_transient(entry, "worker process died mid-flight", 0.0)
                inflight.clear()
            if broken:
                pool = rebuild_pool()
    except BaseException:
        for future in inflight:
            future.cancel()
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        raise
    else:
        pool.shutdown(wait=True)
