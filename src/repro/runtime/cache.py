"""Persistent, content-addressed result caches.

One JSON file per cached result, addressed by a stable content
fingerprint (:mod:`repro.runtime.fingerprint`) and fanned out over 256
two-hex-digit subdirectories so large sweeps don't produce a single
enormous directory.  Writes are atomic (temp file + ``os.replace``), so a
run interrupted mid-store never leaves a truncated entry and a re-run
resumes from whatever completed.

Invalidation is by schema tag: the tag participates in the fingerprint,
so bumping it makes every old entry unreachable.  Each entry file is one
JSON header line ``{"schema", "fingerprint", "sha256"}``, a newline, then
the JSON body of the result (:func:`encode_entry`).  The header's
tag is re-checked on load, guarding against entries copied across
versions, and its ``sha256`` covers the body bytes exactly, so a load
verifies an entry by hashing the bytes it read before parsing them
(:func:`decode_entry`).

Four stores share this machinery:

* :class:`CharacterizationCache` — array characterizations, keyed by
  :func:`~repro.runtime.fingerprint.point_fingerprint`;
* :class:`LLCTraceCache` — regenerated LLC traffic traces, keyed by
  :func:`~repro.runtime.fingerprint.trace_fingerprint`, so repeated LLC
  and write-buffer study runs skip cache simulation entirely;
* :class:`DerivedCache` — expensive deterministic study inputs (graph
  BFS access counts, trained DNN-proxy weights), so a warm run neither
  builds the synthetic social graphs nor retrains the fig13 proxy;
* :class:`StudyCache` — one whole study's result rows, keyed by
  :func:`~repro.runtime.shard.study_fingerprint`, so a repeated study
  run (summary, ``run-study`` or the service) skips its builder.
"""

from __future__ import annotations

import base64
import hashlib
import itertools
import json
import os
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Optional, Union

import numpy as np

from repro.errors import ReproError
from repro.nvsim.result import ArrayCharacterization
from repro.runtime.fingerprint import (
    DERIVED_SCHEMA_TAG,
    SCHEMA_TAG,
    STUDY_SCHEMA_TAG,
    TRACE_SCHEMA_TAG,
    fingerprint_payload,
)

if TYPE_CHECKING:
    from repro.runtime.chaos import ChaosOptions

#: Subdirectory (inside a cache root) where entries that fail integrity
#: verification are preserved for post-mortem instead of being deleted
#: or silently overwritten.  The name is deliberately longer than the
#: two-hex-digit fan-out dirs so ``??/*.json`` globs never see it.
QUARANTINE_SUBDIR = "quarantine"

#: Process-wide monotonic suffix so concurrent stores of the *same*
#: fingerprint from different threads never collide on one temp name.
_TMP_COUNTER = itertools.count()


def _tmp_path_for(path: Path) -> Path:
    """A unique sibling temp path for one atomic write.

    pid + thread id + a process-wide counter make the name unique across
    processes, across threads, and across repeated stores from the same
    thread.  The ``.tmp.`` infix keeps temp files invisible to the
    ``*.json`` entry globs; :meth:`JsonObjectCache.clear` sweeps up any
    leaked by a run that died between write and rename.
    """
    return path.parent / (
        f"{path.name}.tmp.{os.getpid()}"
        f".{threading.get_ident()}.{next(_TMP_COUNTER)}"
    )


def atomic_write_text(path: Path, text: str, encoding: str = "utf-8") -> None:
    """Write ``text`` to ``path`` via a unique temp file + ``os.replace``.

    The shared primitive behind every durable artifact outside the JSON
    caches (warm stamps, copied shard artifacts, lint pins): a reader or
    crash-recovery pass never observes a truncated file, only the old
    content or the new.
    """
    tmp = _tmp_path_for(path)
    try:
        tmp.write_text(text, encoding=encoding)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Byte-payload twin of :func:`atomic_write_text`."""
    tmp = _tmp_path_for(path)
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_json(path: Path, payload: Any, **dumps_kwargs: Any) -> None:
    """Serialize ``payload`` and atomically write it to ``path``."""
    atomic_write_text(path, json.dumps(payload, **dumps_kwargs))


#: Keys of an entry file's header line.
_HEADER_KEYS = frozenset({"schema", "fingerprint", "sha256"})


class CorruptEntry(ValueError):
    """An entry file failed integrity verification; the message says why."""


class LegacyEntry(Exception):
    """An entry file in the old format: one JSON object carrying ``result``."""


def encode_entry(schema_tag: str, fingerprint: str, result: Any) -> bytes:
    """The bytes of one entry file: header line, newline, result body.

    The body keeps the result's key order (no sorting), so rows served
    from cache produce CSVs byte-identical to freshly computed ones
    (column order is taken from row insertion order).
    """
    body = json.dumps(result).encode("utf-8")
    header = json.dumps({
        "schema": schema_tag,
        "fingerprint": fingerprint,
        "sha256": hashlib.sha256(body).hexdigest(),
    })
    return header.encode("utf-8") + b"\n" + body


def _json_object(data: bytes) -> Optional[dict]:
    """``data`` parsed as one JSON object, or ``None``."""
    try:
        value = json.loads(data)
    except ValueError:  # also UnicodeDecodeError
        return None
    return value if isinstance(value, dict) else None


def decode_entry(data: bytes, fingerprint: str) -> tuple[str, bytes]:
    """Verify one entry file; returns its ``(schema tag, body bytes)``.

    The body is hashed, not parsed: the caller parses it only once it is
    known to be intact.  Raises :class:`LegacyEntry` when ``data`` parses
    whole as one JSON object carrying ``result`` (the format before
    header lines), and :class:`CorruptEntry` for anything else malformed:
    no header line, a recorded fingerprint other than ``fingerprint``,
    or body bytes whose hash differs from the header's.
    """
    head, newline, body = data.partition(b"\n")
    header = _json_object(head)
    if header is None or not newline or not _HEADER_KEYS <= header.keys():
        whole = header if not newline else _json_object(data)
        if whole is not None and "result" in whole:
            raise LegacyEntry()
        raise CorruptEntry(
            "invalid JSON header" if header is None else "malformed header")
    if header["fingerprint"] != fingerprint:
        raise CorruptEntry("fingerprint mismatch")
    if header["sha256"] != hashlib.sha256(body).hexdigest():
        raise CorruptEntry("checksum mismatch")
    return header["schema"], body


class JsonObjectCache:
    """On-disk store of JSON-able results keyed by content fingerprint.

    Subclasses define the payload format via :meth:`_encode` /
    :meth:`_decode`; everything else (layout, atomicity, schema checks,
    hit/miss/store accounting) is shared.
    """

    def __init__(
        self,
        root: Union[str, Path],
        schema_tag: str,
        chaos: Optional["ChaosOptions"] = None,
    ) -> None:
        self.root = Path(root)
        self.schema_tag = schema_tag
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Entries that failed integrity verification on load (bad JSON,
        #: checksum/fingerprint mismatch, undecodable payload).  Counted
        #: separately from misses: a miss is expected cold-cache
        #: behaviour, corruption is an infrastructure fault.
        self.corrupt = 0
        #: Corrupt entries successfully moved to the quarantine dir.
        self.quarantined = 0
        #: Optional fault injector (tests / chaos runs) — corrupts the
        #: on-disk entry just before a load reads it.
        self.chaos = chaos
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ReproError(f"cannot create cache directory {self.root}: {exc}") from exc

    # --- payload format (subclass responsibility) -------------------------

    def _encode(self, result) -> Any:
        """JSON-able rendering of one result."""
        raise NotImplementedError

    def _decode(self, payload):
        """Inverse of :meth:`_encode`; may raise on malformed payloads."""
        raise NotImplementedError

    # --- addressing -------------------------------------------------------

    def path_for(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    # --- operations -------------------------------------------------------

    def quarantine_dir(self) -> Path:
        return self.root / QUARANTINE_SUBDIR

    def _quarantine(self, fingerprint: str, path: Path, reason: str) -> None:
        """Move a corrupt entry aside — never silently overwritten in place.

        The damaged file is preserved under ``quarantine/`` for
        post-mortem (``nvmexplorer fsck`` reports the backlog); the next
        store then writes a fresh entry at the original address.
        """
        self.corrupt += 1
        qdir = self.quarantine_dir()
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            dest = qdir / path.name
            if dest.exists():  # keep every damaged copy — suffix, don't clobber
                dest = qdir / f"{path.name}.{next(_TMP_COUNTER)}"
            os.replace(path, dest)
        except OSError:
            return
        self.quarantined += 1

    def load(self, fingerprint: str):
        """The cached result, or ``None`` on miss or corruption.

        A missing file, a schema-tag mismatch or an old-format entry
        (:class:`LegacyEntry`; the next store overwrites it) is an
        ordinary miss.  An entry that fails integrity verification — no
        header line, a checksum or fingerprint mismatch, or a body the
        decoder rejects — counts in ``corrupt`` (not ``misses``) and is
        moved to ``quarantine/`` so the next store cannot silently paper
        over it.
        """
        path = self.path_for(fingerprint)
        if self.chaos is not None:
            self.chaos.maybe_corrupt_file(path, fingerprint)
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            schema, body = decode_entry(data, fingerprint)
        except LegacyEntry:
            self.misses += 1
            return None
        except CorruptEntry as exc:
            self._quarantine(fingerprint, path, str(exc))
            return None
        if schema != self.schema_tag:
            self.misses += 1
            return None
        try:
            result = self._decode(json.loads(body))
        except (ReproError, KeyError, TypeError, ValueError):
            self._quarantine(fingerprint, path, "payload failed to decode")
            return None
        self.hits += 1
        return result

    def store(self, fingerprint: str, result) -> None:
        """Persist one result atomically, with a body checksum."""
        path = self.path_for(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(
            path, encode_entry(self.schema_tag, fingerprint, self._encode(result)))
        self.stores += 1

    def __contains__(self, fingerprint: str) -> bool:
        """Whether an entry *file* exists (any schema version, unvalidated).

        Use :meth:`load` to know whether the entry is actually usable.
        """
        return self.path_for(fingerprint).exists()

    def fingerprints(self) -> Iterator[str]:
        """Every fingerprint currently stored (any schema version)."""
        for entry in sorted(self.root.glob("??/*.json")):
            yield entry.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.fingerprints())

    def clear(self) -> int:
        """Delete every entry; returns the number removed.

        Also sweeps up stale ``*.tmp.*`` files left by runs that died
        between writing a temp file and renaming it into place (those
        never count as entries — they are invisible to loads and globs).
        """
        removed = 0
        for entry in sorted(self.root.glob("??/*.json")):
            entry.unlink(missing_ok=True)
            removed += 1
        for stale in sorted(self.root.glob("??/*.tmp.*")):
            stale.unlink(missing_ok=True)
        return removed

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "quarantined": self.quarantined,
        }


class CharacterizationCache(JsonObjectCache):
    """On-disk store of :class:`ArrayCharacterization` keyed by fingerprint."""

    def __init__(
        self,
        root: Union[str, Path],
        schema_tag: str = SCHEMA_TAG,
        chaos: Optional["ChaosOptions"] = None,
    ) -> None:
        super().__init__(root, schema_tag, chaos=chaos)

    def _encode(self, result: ArrayCharacterization) -> Any:
        return result.to_dict()

    def _decode(self, payload) -> ArrayCharacterization:
        return ArrayCharacterization.from_dict(payload)

    def load(self, fingerprint: str) -> Optional[ArrayCharacterization]:
        return super().load(fingerprint)


class StudyCache(JsonObjectCache):
    """On-disk store of whole studies' result rows.

    One entry holds every row of one study's table, in table order and
    with each row's key order, so a table rebuilt from it writes the
    same CSV and report bytes as a fresh run.  Rows are already
    JSON-shaped, so encode/decode only validate the structure.
    """

    def __init__(
        self,
        root: Union[str, Path],
        schema_tag: str = STUDY_SCHEMA_TAG,
        chaos: Optional["ChaosOptions"] = None,
    ) -> None:
        super().__init__(root, schema_tag, chaos=chaos)

    def _encode(self, result) -> Any:
        return list(result)

    def _decode(self, payload) -> list[dict]:
        if not isinstance(payload, list) or not all(
            isinstance(row, dict) for row in payload
        ):
            raise ValueError("study payload must be a list of row objects")
        return payload


#: The row-list store under its former name, which
#: ``suitebench/test_suitebench.py`` still uses.
EvaluationCache = StudyCache


class LLCTraceCache(JsonObjectCache):
    """On-disk store of regenerated LLC traces keyed by fingerprint."""

    def __init__(
        self,
        root: Union[str, Path],
        schema_tag: str = TRACE_SCHEMA_TAG,
        chaos: Optional["ChaosOptions"] = None,
    ) -> None:
        super().__init__(root, schema_tag, chaos=chaos)

    def _encode(self, result) -> Any:
        return result.to_dict()

    def _decode(self, payload):
        # Imported lazily: repro.cachesim.llc consumes this cache, so a
        # module-level import would be circular.
        from repro.cachesim.llc import LLCTrace

        return LLCTrace.from_dict(payload)


def _array_to_json(array: np.ndarray) -> dict[str, Any]:
    """An exact JSON rendering of one array: dtype, shape, raw bytes."""
    return {
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def _array_from_json(payload: Mapping[str, Any]) -> np.ndarray:
    data = base64.b64decode(payload["data"], validate=True)
    array = np.frombuffer(data, dtype=np.dtype(payload["dtype"]))
    return array.reshape(payload["shape"]).copy()


class DerivedCache(JsonObjectCache):
    """On-disk store of expensive deterministic study inputs.

    Two kinds of entry, each keyed (:meth:`key`) by everything that
    determines it:

    * ``bfs-counts`` — the :class:`~repro.traffic.graph.AccessCounts` of
      one BFS over one synthetic social graph, so a warm run does not
      build the graph;
    * ``proxy-layers`` — the trained ``(weight, bias)`` arrays of one
      DNN proxy's dense layers (:func:`repro.dnn.proxies.trained_proxy`),
      stored bit-exactly, so a warm run does not retrain it.
    """

    def __init__(
        self,
        root: Union[str, Path],
        schema_tag: str = DERIVED_SCHEMA_TAG,
        chaos: Optional["ChaosOptions"] = None,
    ) -> None:
        super().__init__(root, schema_tag, chaos=chaos)

    def key(self, kind: str, params: Mapping[str, Any]) -> str:
        """Stable content key for one ``kind`` of entry with ``params``."""
        return fingerprint_payload({"kind": kind, "schema": self.schema_tag, **params})

    def _encode(self, result) -> Any:
        # Imported lazily: the graph module's callers pass this store in.
        from repro.traffic.graph import AccessCounts

        if isinstance(result, AccessCounts):
            return {
                "kind": "bfs-counts",
                "reads": result.reads,
                "writes": result.writes,
                "edges_traversed": result.edges_traversed,
            }
        return {
            "kind": "proxy-layers",
            "layers": [[_array_to_json(w), _array_to_json(b)] for w, b in result],
        }

    def _decode(self, payload):
        from repro.traffic.graph import AccessCounts

        kind = payload["kind"]
        if kind == "bfs-counts":
            return AccessCounts(
                int(payload["reads"]),
                int(payload["writes"]),
                int(payload["edges_traversed"]),
            )
        if kind == "proxy-layers":
            return [
                (_array_from_json(w), _array_from_json(b))
                for w, b in payload["layers"]
            ]
        raise ValueError(f"unknown derived entry kind {kind!r}")


def derived_cache(runtime) -> Optional[DerivedCache]:
    """The derived-input store for one :class:`RuntimeOptions`, or ``None``.

    Lives under ``<cache_dir>/derived`` next to the other stores; returns
    ``None`` when the runtime is absent or keeps no persistent cache, and
    callers then fall back to their in-process memo alone.
    """
    if runtime is None or runtime.cache_dir is None:
        return None
    from repro.runtime.options import DERIVED_CACHE_SUBDIR

    return DerivedCache(
        Path(runtime.cache_dir) / DERIVED_CACHE_SUBDIR,
        chaos=runtime.chaos,
    )


def study_cache(runtime) -> Optional[StudyCache]:
    """The whole-study store for one :class:`RuntimeOptions`, or ``None``.

    Lives under ``<cache_dir>/studies``; ``None`` when the runtime keeps
    no persistent cache.
    """
    if runtime.cache_dir is None:
        return None
    from repro.runtime.options import STUDY_CACHE_SUBDIR

    return StudyCache(
        Path(runtime.cache_dir) / STUDY_CACHE_SUBDIR,
        chaos=runtime.chaos,
    )
