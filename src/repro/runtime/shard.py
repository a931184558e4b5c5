"""Deterministic work sharding and per-shard run manifests.

The study suite is embarrassingly parallel across *studies*, so the
cheapest way to scale it beyond one host is a deterministic partitioning
plan: every host computes the same plan from the same inputs and picks
its ``--shard-index`` slice — no coordinator, no queue.
:func:`plan_shard` splits an ordered suite of study names into
``shard_count`` near-equal slices.  Assignment is computed on the
*sorted* names, so it is stable under registry reordering; the returned
selection preserves the caller's (registry) order so per-shard output
matches the single-host run's ordering.

A study is the smallest unit of work that is split: its sweep points
take milliseconds each, far less than dispatching and merging them on
another host would cost.

Each shard records what it did in a :class:`RunManifest` written next to
its outputs (``manifest.json``): one :class:`ManifestEntry` per study
with status, row count, telemetry counters, artifact paths, and the
study's content fingerprint (:func:`study_fingerprint` — parameters ×
cache schema tags × an mtime-independent source digest × the host's
numpy version and machine).  Manifests
serve two consumers:

* :func:`merge_manifests` combines per-shard manifests into the
  single-suite view, verifying that no study was dropped, duplicated,
  or planned against a different suite/schema — the CI merge job.
* The incremental summary compares a previous manifest entry's
  fingerprint against the current one and skips studies whose artifacts
  are already up to date.
"""

from __future__ import annotations

import hashlib
import json
import platform
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from repro.errors import ReproError
from repro.runtime.cache import atomic_write_bytes, atomic_write_text
from repro.runtime.fingerprint import (
    DERIVED_SCHEMA_TAG,
    SCHEMA_TAG,
    STUDY_SCHEMA_TAG,
    TRACE_SCHEMA_TAG,
    canonical_json,
    fingerprint_payload,
)

#: Version tag of the manifest payload format.  Bump on incompatible
#: changes so stale manifests are ignored instead of misread.
MANIFEST_SCHEMA = "shard-manifest-v3"

#: File name a shard's manifest is written under, next to its outputs.
MANIFEST_FILENAME = "manifest.json"

#: Statuses a manifest entry can record.
STATUS_OK = "ok"
STATUS_CACHED = "cached"
STATUS_FAILED = "failed"


class ShardError(ReproError):
    """A shard plan or manifest merge is inconsistent."""


def schema_tags() -> dict[str, str]:
    """The active schema tag of every persistent cache layer.

    Recorded in manifests (and usable as a CI cache key): any bump
    invalidates both the on-disk caches and incremental skips.
    """
    return {
        "arrays": SCHEMA_TAG,
        "traces": TRACE_SCHEMA_TAG,
        "derived": DERIVED_SCHEMA_TAG,
        "studies": STUDY_SCHEMA_TAG,
    }


# --- shard planning -------------------------------------------------------


@dataclass(frozen=True)
class ShardPlan:
    """One host's slice of a deterministic suite partition."""

    shard_index: int
    shard_count: int
    suite: tuple[str, ...]  # the full suite, in caller (registry) order
    selected: tuple[str, ...]  # this shard's slice, in suite order

    @property
    def is_whole_suite(self) -> bool:
        return self.shard_count == 1


def _validate_shard(shard_index: int, shard_count: int) -> None:
    if shard_count < 1:
        raise ShardError(f"shard_count must be >= 1, got {shard_count}")
    if not 0 <= shard_index < shard_count:
        raise ShardError(
            f"shard_index must be in [0, {shard_count}), got {shard_index}"
        )


def shard_assignments(names: Iterable[str], shard_count: int) -> dict[str, int]:
    """Deterministic study -> shard assignment.

    Names are assigned round-robin over their *sorted* order, so the
    assignment depends only on the set of names and ``shard_count`` —
    never on registry iteration order — and shard sizes differ by at
    most one.
    """
    _validate_shard(0, shard_count)
    ordered = sorted(set(names))
    return {name: i % shard_count for i, name in enumerate(ordered)}


def plan_shard(
    suite: Sequence[str], shard_index: int = 0, shard_count: int = 1
) -> ShardPlan:
    """This shard's slice of ``suite`` (study names, registry order)."""
    _validate_shard(shard_index, shard_count)
    names = list(suite)
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ShardError(f"suite contains duplicate studies: {', '.join(dupes)}")
    assignment = shard_assignments(names, shard_count)
    selected = tuple(n for n in names if assignment[n] == shard_index)
    return ShardPlan(
        shard_index=shard_index,
        shard_count=shard_count,
        suite=tuple(names),
        selected=selected,
    )


# --- study fingerprints (incremental skip keys) ---------------------------


@lru_cache(maxsize=1)
def source_digest() -> str:
    """Content hash of every ``repro`` source file.

    mtime-independent: only file *contents* (and relative paths)
    participate, so a fresh checkout of the same revision digests
    identically on every host.  Any source change invalidates every
    incremental skip — conservative, but never wrong.
    """
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(path.relative_to(package_root).as_posix().encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()


def host_environment() -> dict[str, str]:
    """The host's numpy version and machine architecture.

    A study's rows depend on them beyond the source: trained DNN-proxy
    weights and random streams can differ across numpy releases and
    architectures, so a stored study from another numpy or machine must
    not be served (``tests/test_golden_suite.py`` pins its absolute
    digests against the same pair).
    """
    return {"numpy": np.__version__, "machine": platform.machine()}


def study_fingerprint(
    spec,
    overrides: Optional[Mapping[str, Any]] = None,
    seed: Optional[int] = None,
) -> str:
    """Stable content key for one configured study run.

    Everything that can change the study's artifacts participates: the
    spec's identity and effective parameters, the report options, the
    runtime seed override, every cache schema tag, the source digest,
    and the host's numpy version and machine (:func:`host_environment`).
    Matching fingerprints mean a re-run would reproduce the existing
    artifacts, so the incremental summary may skip it and the
    ``studies/`` store may serve its rows.
    """
    params = {**dict(spec.params), **dict(overrides or {})}
    try:
        payload = {
            "study": spec.name,
            "figure": spec.figure,
            "description": spec.description,
            "params": json.loads(canonical_json(params)),
            "report": dict(spec.report),
            "seed": seed,
            "schema_tags": schema_tags(),
            "source": source_digest(),
            "environment": host_environment(),
        }
    except TypeError as exc:
        raise ShardError(
            f"study {spec.name!r} has non-JSON-able parameters: {exc}"
        ) from exc
    return fingerprint_payload(payload)


# --- run manifests --------------------------------------------------------


@dataclass(frozen=True)
class ManifestEntry:
    """One study's outcome as recorded in a shard manifest."""

    name: str
    status: str  # STATUS_OK | STATUS_CACHED | STATUS_FAILED
    fingerprint: str = ""
    rows: int = 0
    elapsed_s: float = 0.0
    error: str = ""
    artifacts: Mapping[str, str] = field(default_factory=dict)  # kind -> relpath
    telemetry: Mapping[str, int] = field(default_factory=dict)  # counter -> value

    def __post_init__(self) -> None:
        if self.status not in (STATUS_OK, STATUS_CACHED, STATUS_FAILED):
            raise ShardError(
                f"entry {self.name!r}: unknown status {self.status!r}"
            )

    @property
    def ok(self) -> bool:
        return self.status in (STATUS_OK, STATUS_CACHED)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "status": self.status,
            "fingerprint": self.fingerprint,
            "rows": int(self.rows),
            "elapsed_s": float(self.elapsed_s),
            "error": self.error,
            "artifacts": dict(self.artifacts),
            # Counts stay integers; the *_wall_s accumulators are
            # fractional seconds and must survive the round trip.
            "telemetry": {
                k: (float(v) if str(k).endswith("_wall_s") else int(v))
                for k, v in self.telemetry.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ManifestEntry":
        try:
            return cls(
                name=str(payload["name"]),
                status=str(payload["status"]),
                fingerprint=str(payload.get("fingerprint", "")),
                rows=int(payload.get("rows", 0)),
                elapsed_s=float(payload.get("elapsed_s", 0.0)),
                error=str(payload.get("error", "")),
                artifacts=dict(payload.get("artifacts", {})),
                telemetry=dict(payload.get("telemetry", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ShardError(f"malformed manifest entry: {exc}") from exc


@dataclass(frozen=True)
class RunManifest:
    """What one shard (or a merged suite) ran, and where the outputs are.

    ``entries`` describe exactly the studies this run targeted — the
    merge step's unit of accounting.  ``retained`` carries forward
    entries from earlier runs into the same output directory whose
    studies this run did *not* target (e.g. a later ``--only`` subset),
    so their incremental state survives; merging ignores them.
    """

    shard_index: int
    shard_count: int
    suite: tuple[str, ...]  # every study the partitioned run targeted
    entries: tuple[ManifestEntry, ...]  # this shard's studies, suite order
    tags: Mapping[str, str] = field(default_factory=schema_tags)
    merged_from: tuple[int, ...] = ()  # shard indices a merge combined
    retained: tuple[ManifestEntry, ...] = ()  # prior runs' other studies

    def __post_init__(self) -> None:
        _validate_shard(self.shard_index, self.shard_count)

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.entries)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(entry.name for entry in self.entries)

    def entry_for(self, name: str) -> Optional[ManifestEntry]:
        for entry in self.entries:
            if entry.name == name:
                return entry
        return None

    def lookup(self, name: str) -> Optional[ManifestEntry]:
        """This run's entry for ``name``, or a retained prior one."""
        entry = self.entry_for(name)
        if entry is not None:
            return entry
        for entry in self.retained:
            if entry.name == name:
                return entry
        return None

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": MANIFEST_SCHEMA,
            "shard_index": self.shard_index,
            "shard_count": self.shard_count,
            "suite": list(self.suite),
            "schema_tags": dict(self.tags),
            "merged_from": list(self.merged_from),
            "entries": [entry.to_dict() for entry in self.entries],
            "retained": [entry.to_dict() for entry in self.retained],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunManifest":
        if not isinstance(payload, Mapping):
            raise ShardError("manifest root must be an object")
        if payload.get("schema") != MANIFEST_SCHEMA:
            raise ShardError(
                f"manifest schema {payload.get('schema')!r} is not "
                f"{MANIFEST_SCHEMA!r} (regenerate the shard outputs)"
            )
        try:
            return cls(
                shard_index=int(payload["shard_index"]),
                shard_count=int(payload["shard_count"]),
                suite=tuple(str(n) for n in payload["suite"]),
                entries=tuple(
                    ManifestEntry.from_dict(e) for e in payload["entries"]
                ),
                tags=dict(payload.get("schema_tags", {})),
                merged_from=tuple(int(i) for i in payload.get("merged_from", ())),
                retained=tuple(
                    ManifestEntry.from_dict(e) for e in payload.get("retained", ())
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ShardError(f"malformed manifest: {exc}") from exc

    # --- persistence ------------------------------------------------------

    @staticmethod
    def path_in(directory: Union[str, Path]) -> Path:
        return Path(directory) / MANIFEST_FILENAME

    def write(self, directory: Union[str, Path]) -> Path:
        """Persist atomically (unique temp + rename): an interrupted run
        never leaves a truncated manifest that would discard incremental
        state, and a failed write leaves no temp file behind."""
        path = self.path_in(directory)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            path, json.dumps(self.to_dict(), indent=2, sort_keys=True)
        )
        return path

    @classmethod
    def load(cls, source: Union[str, Path]) -> "RunManifest":
        """Read a manifest from a file, or from a shard output directory."""
        path = Path(source)
        if path.is_dir():
            path = cls.path_in(path)
        try:
            payload = json.loads(path.read_text())
        except OSError as exc:
            raise ShardError(f"cannot read manifest {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ShardError(f"{path}: invalid manifest JSON ({exc})") from exc
        return cls.from_dict(payload)

    @classmethod
    def try_load(cls, directory: Union[str, Path]) -> Optional["RunManifest"]:
        """The directory's manifest, or ``None`` when absent or unusable.

        The incremental summary uses this: a missing or stale manifest
        simply means nothing can be skipped.
        """
        if not cls.path_in(directory).exists():
            return None
        try:
            return cls.load(directory)
        except ShardError:
            return None


def merge_manifests(manifests: Sequence[RunManifest]) -> RunManifest:
    """Combine per-shard manifests into the single-suite manifest.

    Verifies the shards describe one coherent partitioned run: identical
    suite and schema tags, one manifest per shard index with none
    missing, and every suite study appearing exactly once across all
    shards.  Entries are returned in suite order, so the merged table
    matches a single-host run's ordering.
    """
    if not manifests:
        raise ShardError("no manifests to merge")
    first = manifests[0]
    suite = first.suite
    for manifest in manifests[1:]:
        if manifest.suite != suite:
            raise ShardError(
                "manifests disagree on the suite: "
                f"{list(suite)} vs {list(manifest.suite)}"
            )
        if dict(manifest.tags) != dict(first.tags):
            raise ShardError(
                "manifests disagree on cache schema tags: "
                f"{dict(first.tags)} vs {dict(manifest.tags)}"
            )
        if manifest.shard_count != first.shard_count:
            raise ShardError(
                f"manifests disagree on shard_count: "
                f"{first.shard_count} vs {manifest.shard_count}"
            )
    indices = [m.shard_index for m in manifests]
    if len(set(indices)) != len(indices):
        dupes = sorted({i for i in indices if indices.count(i) > 1})
        raise ShardError(f"duplicate shard manifests for indices {dupes}")
    missing = sorted(set(range(first.shard_count)) - set(indices))
    if missing:
        raise ShardError(f"missing shard manifests for indices {missing}")

    merged_entries: dict[str, ManifestEntry] = {}
    for manifest in manifests:
        for entry in manifest.entries:
            if entry.name not in suite:
                raise ShardError(
                    f"study {entry.name!r} is not part of the planned suite"
                )
            if entry.name in merged_entries:
                raise ShardError(
                    f"study {entry.name!r} was run by more than one shard"
                )
            merged_entries[entry.name] = entry

    dropped = [name for name in suite if name not in merged_entries]
    if dropped:
        raise ShardError(f"studies dropped by every shard: {', '.join(dropped)}")

    return RunManifest(
        shard_index=0,
        shard_count=1,
        suite=suite,
        entries=tuple(merged_entries[name] for name in suite),
        tags=dict(first.tags),
        merged_from=tuple(sorted(indices)),
    )


def collect_artifacts(
    manifest: RunManifest,
    source_dir: Union[str, Path],
    target_dir: Union[str, Path],
) -> None:
    """Copy one shard's artifacts under ``target_dir``.

    Artifact paths are recorded relative to a shard's output directory,
    so they keep meaning the same thing under the merge target.  A
    recorded artifact missing on disk is an error (the shard upload was
    incomplete).
    """
    source = Path(source_dir)
    target = Path(target_dir)
    for entry in manifest.entries:
        for relpath in entry.artifacts.values():
            src = source / relpath
            if not src.exists():
                raise ShardError(
                    f"study {entry.name!r}: artifact {relpath} missing from {source}"
                )
            dst = target / relpath
            dst.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(dst, src.read_bytes())
