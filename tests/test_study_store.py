"""The ``studies/`` store: whole studies reused from the cache directory."""

from __future__ import annotations

import platform
from dataclasses import replace

import numpy as np

from repro.runtime.cache import StudyCache, study_cache
from repro.runtime.chaos import ChaosOptions
from repro.runtime.fsck import fsck_cache_dir
from repro.runtime.options import RuntimeOptions
from repro.runtime.resilience import RetryPolicy
from repro.runtime.shard import study_fingerprint
from repro.runtime.telemetry import SweepTelemetry
from repro.studies.pipeline import REGISTRY, StudyRequest
from repro.units import mb

SPEC = REGISTRY["fig05_dnn_arrays"]
SMALL = {"capacity_bytes": mb(1)}


def _fill(tmp_path):
    runtime = RuntimeOptions(cache_dir=tmp_path / "cache")
    return runtime, SPEC.run(runtime, **SMALL)


def test_study_cache_follows_the_runtime(tmp_path):
    assert study_cache(RuntimeOptions()) is None
    store = study_cache(RuntimeOptions(cache_dir=tmp_path))
    assert isinstance(store, StudyCache)
    assert store.root == tmp_path / "studies"


def test_hit_does_no_fresh_work_and_returns_the_fill_table(tmp_path):
    runtime, fill = _fill(tmp_path)
    assert fill.telemetry.fresh_work > 0
    store = study_cache(runtime)
    assert list(store.fingerprints()) == [
        study_fingerprint(SPEC, overrides=SMALL, seed=None)]

    hit = SPEC.run(runtime, **SMALL)
    assert hit.ok and hit.status == "ok"
    assert hit.telemetry.fresh_work == 0
    assert hit.telemetry.counters() == SweepTelemetry().counters()
    assert list(hit.table) == list(fill.table)
    # Column order survives too, so the CSV bytes match.
    assert hit.table.to_csv() == fill.table.to_csv()
    # The service's request path keys and hits the same entry.
    served = StudyRequest(spec=SPEC, params=SMALL).run(runtime)
    assert served.telemetry.fresh_work == 0
    assert list(served.table) == list(fill.table)
    assert len(store) == 1


def test_changed_override_or_seed_is_a_miss(tmp_path):
    runtime, _ = _fill(tmp_path)
    other_params = SPEC.run(runtime, capacity_bytes=mb(2))
    assert other_params.telemetry.completed > 0
    other_seed = SPEC.run(replace(runtime, seed=7), **SMALL)
    # A miss rebuilds the study; its characterizations come from arrays/.
    assert other_seed.telemetry.cached > 0
    assert other_seed.telemetry.completed == 0
    assert len(study_cache(runtime)) == 3


def test_other_numpy_or_machine_is_a_miss(tmp_path, monkeypatch):
    # Stored rows from another numpy release or architecture may differ
    # from what this host computes, so they must not be served.
    runtime, _ = _fill(tmp_path)
    with monkeypatch.context() as patch:
        patch.setattr(np, "__version__", "0.0.0-other")
        other_numpy = SPEC.run(runtime, **SMALL)
    assert other_numpy.telemetry.cached > 0  # rebuilt from arrays/
    with monkeypatch.context() as patch:
        patch.setattr(platform, "machine", lambda: "other-machine")
        other_machine = SPEC.run(runtime, **SMALL)
    assert other_machine.telemetry.cached > 0
    assert len(study_cache(runtime)) == 3
    # Back on this host's numpy and machine, the fill entry still hits.
    home = SPEC.run(runtime, **SMALL)
    assert home.telemetry.counters() == SweepTelemetry().counters()


def test_poisoned_outcome_is_not_stored(tmp_path):
    runtime = RuntimeOptions(
        cache_dir=tmp_path / "cache",
        on_error="skip",
        retry=RetryPolicy(max_attempts=1, backoff_s=0.0),
        chaos=ChaosOptions(seed=3, poison_rate=1.0),
    )
    poisoned = SPEC.run(runtime, **SMALL)
    assert poisoned.ok and poisoned.poisoned > 0
    assert len(study_cache(runtime)) == 0
    healed = SPEC.run(replace(runtime, chaos=None), **SMALL)
    assert healed.poisoned == 0
    assert healed.telemetry.completed > 0
    assert len(study_cache(runtime)) == 1


def test_corrupt_entry_is_quarantined_counted_and_recomputed(tmp_path):
    runtime, fill = _fill(tmp_path)
    store = study_cache(runtime)
    (fingerprint,) = store.fingerprints()
    path = store.path_for(fingerprint)
    damaged = path.read_bytes()[:-20]
    path.write_bytes(damaged)

    rerun = SPEC.run(runtime, **SMALL)
    assert rerun.ok
    assert rerun.telemetry.corrupt == 1
    assert rerun.telemetry.counters()["corrupt"] == 1  # manifest counter
    assert rerun.telemetry.fresh_work == 0  # rebuilt from arrays/
    assert rerun.telemetry.cached > 0
    assert list(rerun.table) == list(fill.table)
    assert (store.quarantine_dir() / path.name).read_bytes() == damaged
    # The rebuilt study was stored again: the next run is a clean hit.
    again = SPEC.run(runtime, **SMALL)
    assert again.telemetry.corrupt == 0
    assert again.telemetry.cached == 0


def test_fsck_audits_the_study_store(tmp_path):
    runtime, _ = _fill(tmp_path)
    reports = {r.root.name: r for r in fsck_cache_dir(runtime.cache_dir)}
    assert set(reports) == {"arrays", "studies"}
    assert reports["studies"].clean and reports["studies"].ok == 1

    store = study_cache(runtime)
    (fingerprint,) = store.fingerprints()
    path = store.path_for(fingerprint)
    path.write_bytes(path.read_bytes()[:-5])
    damaged = {r.root.name: r for r in fsck_cache_dir(runtime.cache_dir)}
    assert damaged["studies"].corrupt == 1
    assert not path.exists()
    assert all(r.clean for r in fsck_cache_dir(runtime.cache_dir))
