"""Shard planner, run manifests, and manifest merging."""

import json
import os
import random

import pytest

from repro.runtime.fingerprint import fingerprint_payload
from repro.runtime.shard import (
    MANIFEST_FILENAME,
    STATUS_CACHED,
    STATUS_FAILED,
    STATUS_OK,
    ManifestEntry,
    RunManifest,
    ShardError,
    ShardPlan,
    collect_artifacts,
    merge_manifests,
    plan_shard,
    schema_tags,
    shard_assignments,
    source_digest,
    study_fingerprint,
)
from repro.studies.pipeline import REGISTRY

SUITE = tuple(REGISTRY)


# --- planner --------------------------------------------------------------


@pytest.mark.parametrize("shard_count", [1, 2, 3, 4, 5])
def test_every_study_assigned_exactly_once(shard_count):
    plans = [plan_shard(SUITE, i, shard_count) for i in range(shard_count)]
    seen = [name for plan in plans for name in plan.selected]
    assert sorted(seen) == sorted(SUITE)
    assert len(seen) == len(set(seen))


@pytest.mark.parametrize("shard_count", [1, 2, 3, 4, 5])
def test_shard_sizes_balanced(shard_count):
    sizes = [len(plan_shard(SUITE, i, shard_count).selected) for i in range(shard_count)]
    assert max(sizes) - min(sizes) <= 1


def test_assignment_stable_under_registry_reordering():
    reference = shard_assignments(SUITE, 3)
    for seed in range(5):
        shuffled = list(SUITE)
        random.Random(seed).shuffle(shuffled)
        assert shard_assignments(shuffled, 3) == reference
        for i in range(3):
            assert set(plan_shard(shuffled, i, 3).selected) == {
                name for name, shard in reference.items() if shard == i
            }


def test_selection_preserves_suite_order():
    plan = plan_shard(SUITE, 1, 3)
    positions = [SUITE.index(name) for name in plan.selected]
    assert positions == sorted(positions)
    assert plan.suite == SUITE


def test_single_shard_is_whole_suite():
    plan = plan_shard(SUITE, 0, 1)
    assert plan.is_whole_suite
    assert plan.selected == SUITE


def test_invalid_shard_parameters_rejected():
    with pytest.raises(ShardError, match="shard_count"):
        plan_shard(SUITE, 0, 0)
    with pytest.raises(ShardError, match="shard_index"):
        plan_shard(SUITE, 3, 3)
    with pytest.raises(ShardError, match="shard_index"):
        plan_shard(SUITE, -1, 2)
    with pytest.raises(ShardError, match="duplicate"):
        plan_shard(["a", "b", "a"], 0, 2)


# --- study fingerprints ---------------------------------------------------


def test_study_fingerprint_stable_and_sensitive():
    spec = REGISTRY["fig09_spec_llc"]
    base = study_fingerprint(spec)
    assert base == study_fingerprint(spec)
    assert study_fingerprint(spec, overrides={"n_accesses": 7}) != base
    assert study_fingerprint(spec, seed=1) != base
    assert study_fingerprint(REGISTRY["fig14_writebuffer"]) != base


def test_source_digest_is_stable_hex():
    digest = source_digest()
    assert digest == source_digest()
    assert len(digest) == 64
    int(digest, 16)


def test_schema_tags_cover_every_cache_layer():
    assert set(schema_tags()) == {"arrays", "traces", "derived", "studies"}


# --- manifests ------------------------------------------------------------


def _entry(name, status=STATUS_OK, **kwargs):
    defaults = {
        "fingerprint": fingerprint_payload({"study": name}),
        "rows": 5,
        "elapsed_s": 0.1,
        "artifacts": {"csv": f"results/{name}.csv"},
        "telemetry": {"completed": 3, "evaluated": 2},
    }
    defaults.update(kwargs)
    return ManifestEntry(name=name, status=status, **defaults)


def _manifest(entries, shard_index=0, shard_count=1, suite=None, **kwargs):
    return RunManifest(
        shard_index=shard_index,
        shard_count=shard_count,
        suite=tuple(suite if suite is not None else (e.name for e in entries)),
        entries=tuple(entries),
        **kwargs,
    )


def test_manifest_roundtrip(tmp_path):
    manifest = _manifest([_entry("a"), _entry("b", status=STATUS_FAILED, error="boom")])
    path = manifest.write(tmp_path)
    assert path.name == MANIFEST_FILENAME
    loaded = RunManifest.load(tmp_path)
    assert loaded == manifest
    assert RunManifest.load(path) == manifest
    assert not loaded.ok
    assert loaded.entry_for("a") == manifest.entries[0]
    assert loaded.entry_for("zzz") is None


def test_manifest_try_load_tolerates_missing_and_corrupt(tmp_path):
    assert RunManifest.try_load(tmp_path) is None
    (tmp_path / MANIFEST_FILENAME).write_text("{not json")
    assert RunManifest.try_load(tmp_path) is None
    (tmp_path / MANIFEST_FILENAME).write_text(json.dumps({"schema": "other-v9"}))
    assert RunManifest.try_load(tmp_path) is None


def test_manifest_rejects_wrong_schema():
    with pytest.raises(ShardError, match="schema"):
        RunManifest.from_dict({"schema": "nope"})
    # A v2 manifest may carry sections this format no longer reads; it
    # must be rejected, not loaded with that data silently dropped.
    v2 = {**_manifest([_entry("a")]).to_dict(), "schema": "shard-manifest-v2"}
    with pytest.raises(ShardError, match="shard-manifest-v2"):
        RunManifest.from_dict(v2)


def test_manifest_write_failure_leaves_no_temp_file(tmp_path, monkeypatch):
    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        _manifest([_entry("a")]).write(tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_entry_rejects_unknown_status():
    with pytest.raises(ShardError, match="status"):
        ManifestEntry(name="a", status="great")


def test_cached_entries_count_as_ok():
    assert _entry("a", status=STATUS_CACHED).ok
    assert not _entry("a", status=STATUS_FAILED).ok


def test_retained_entries_roundtrip_and_lookup(tmp_path):
    manifest = _manifest([_entry("a")], suite=("a",), retained=(_entry("z"),))
    manifest.write(tmp_path)
    loaded = RunManifest.load(tmp_path)
    assert loaded.retained == manifest.retained
    assert loaded.entry_for("z") is None  # not part of this run
    assert loaded.lookup("z") == manifest.retained[0]
    assert loaded.lookup("a") == manifest.entries[0]
    assert loaded.lookup("missing") is None


# --- merging --------------------------------------------------------------


def _shard_manifests(names=("a", "b", "c", "d", "e"), shard_count=3):
    shards = []
    for i in range(shard_count):
        plan = plan_shard(names, i, shard_count)
        shards.append(
            _manifest(
                [_entry(n) for n in plan.selected],
                shard_index=i,
                shard_count=shard_count,
                suite=names,
            )
        )
    return shards


def test_merge_combines_all_shards_in_suite_order():
    shards = _shard_manifests()
    merged = merge_manifests(shards)
    assert merged.names == ("a", "b", "c", "d", "e")
    assert merged.shard_count == 1
    assert merged.merged_from == (0, 1, 2)
    assert merged.ok


def test_merge_detects_duplicate_study():
    shards = _shard_manifests()
    dup = shards[1].entries[0]
    shards[0] = _manifest(
        list(shards[0].entries) + [dup],
        shard_index=0,
        shard_count=3,
        suite=shards[0].suite,
    )
    with pytest.raises(ShardError, match="more than one shard"):
        merge_manifests(shards)


def test_merge_detects_dropped_study():
    shards = _shard_manifests()
    shards[2] = _manifest(
        shards[2].entries[:-1],
        shard_index=2,
        shard_count=3,
        suite=shards[2].suite,
    )
    with pytest.raises(ShardError, match="dropped"):
        merge_manifests(shards)


def test_merge_detects_missing_shard():
    shards = _shard_manifests()
    with pytest.raises(ShardError, match="missing shard"):
        merge_manifests(shards[:2])


def test_merge_detects_duplicate_shard_index():
    shards = _shard_manifests()
    with pytest.raises(ShardError, match="duplicate shard"):
        merge_manifests([shards[0], shards[0], shards[1]])


def test_merge_detects_suite_mismatch():
    shards = _shard_manifests()
    other = _manifest(
        shards[1].entries, shard_index=1, shard_count=3, suite=("a", "b", "x", "d", "e")
    )
    with pytest.raises(ShardError, match="suite"):
        merge_manifests([shards[0], other, shards[2]])


def test_merge_detects_schema_tag_mismatch():
    shards = _shard_manifests()
    stale = _manifest(
        shards[1].entries,
        shard_index=1,
        shard_count=3,
        suite=shards[1].suite,
        tags={"arrays": "array-cache-v0"},
    )
    with pytest.raises(ShardError, match="schema tags"):
        merge_manifests([shards[0], stale, shards[2]])


def test_merge_detects_shard_count_mismatch():
    shards = _shard_manifests()
    odd = _manifest(
        shards[1].entries, shard_index=1, shard_count=4, suite=shards[1].suite
    )
    with pytest.raises(ShardError, match="shard_count"):
        merge_manifests([shards[0], odd, shards[2]])


def test_merge_rejects_unplanned_study():
    shards = _shard_manifests()
    rogue = _manifest(
        list(shards[0].entries) + [_entry("zzz")],
        shard_index=0,
        shard_count=3,
        suite=shards[0].suite,
    )
    with pytest.raises(ShardError, match="not part of the planned suite"):
        merge_manifests([rogue, shards[1], shards[2]])


def test_merge_nothing_rejected():
    with pytest.raises(ShardError, match="no manifests"):
        merge_manifests([])


# --- artifact collection --------------------------------------------------


def test_collect_artifacts_copies_files(tmp_path):
    source = tmp_path / "shard0"
    target = tmp_path / "merged"
    (source / "results").mkdir(parents=True)
    (source / "results" / "a.csv").write_text("x,y\n1,2\n")
    manifest = _manifest([_entry("a", artifacts={"csv": "results/a.csv"})])
    collect_artifacts(manifest, source, target)
    assert (target / "results" / "a.csv").read_text() == "x,y\n1,2\n"


def test_collect_artifacts_missing_file_rejected(tmp_path):
    manifest = _manifest([_entry("a", artifacts={"csv": "results/a.csv"})])
    with pytest.raises(ShardError, match="missing"):
        collect_artifacts(manifest, tmp_path / "nope", tmp_path / "merged")


def test_shard_plan_is_frozen():
    plan = plan_shard(SUITE, 0, 2)
    assert isinstance(plan, ShardPlan)
    with pytest.raises(AttributeError):
        plan.shard_index = 5
