"""The derived-input store: persisted BFS counts and trained proxy weights."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.dnn import proxies
from repro.dnn.proxies import trained_proxy
from repro.runtime import RuntimeOptions
from repro.runtime.cache import DerivedCache, derived_cache, encode_entry
from repro.runtime.fsck import fsck_cache_dir
from repro.studies.graph_study import graph_study
from repro.studies.mlc_study import mlc_study
from repro.studies.writebuffer_study import writebuffer_study
from repro.traffic import graph
from repro.traffic.graph import AccessCounts
from repro.units import mb

SRC = Path(__file__).resolve().parents[1] / "src"

STUDIES = {
    "graph": lambda runtime: graph_study(points_per_axis=2, runtime=runtime),
    "writebuffer": lambda runtime: writebuffer_study(runtime=runtime),
    "mlc": lambda runtime: mlc_study(capacities=(mb(8),), trials=1, runtime=runtime),
}


def _clear_in_process_memos():
    for memo in (graph.facebook_bfs_traffic, graph.wikipedia_bfs_traffic,
                 graph.synthetic_social_graph, trained_proxy):
        memo.cache_clear()


def _refuse(*args, **kwargs):
    raise AssertionError("recomputed an input the derived store holds")


@pytest.fixture(scope="module")
def filled(tmp_path_factory):
    """A cache dir filled by one cold run of each study, and its tables."""
    runtime = RuntimeOptions(cache_dir=tmp_path_factory.mktemp("cache"))
    return runtime, {name: list(run(runtime)) for name, run in STUDIES.items()}


def test_derived_cache_follows_the_runtime(tmp_path):
    assert derived_cache(None) is None
    assert derived_cache(RuntimeOptions()) is None
    store = derived_cache(RuntimeOptions(cache_dir=tmp_path))
    assert store.root == tmp_path / "derived"


def test_bfs_counts_roundtrip_and_keys(tmp_path):
    store = DerivedCache(tmp_path)
    key = store.key("bfs-counts", {"n_vertices": 10, "seed": 1})
    assert key != store.key("bfs-counts", {"n_vertices": 10, "seed": 2})
    assert key != DerivedCache(tmp_path, schema_tag="other").key(
        "bfs-counts", {"n_vertices": 10, "seed": 1})
    store.store(key, AccessCounts(reads=5, writes=2, edges_traversed=4))
    assert DerivedCache(tmp_path).load(key) == AccessCounts(5, 2, 4)


def test_unknown_entry_kind_is_quarantined(tmp_path):
    store = DerivedCache(tmp_path)
    path = store.path_for("ab" * 32)
    path.parent.mkdir(parents=True)
    path.write_bytes(encode_entry(store.schema_tag, "ab" * 32, {"kind": "mystery"}))
    assert store.load("ab" * 32) is None
    assert store.corrupt == 1


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_warm_studies_read_inputs_from_the_store(filled, monkeypatch, name):
    runtime, cold = filled
    _clear_in_process_memos()
    monkeypatch.setattr(graph, "synthetic_social_graph", _refuse)
    monkeypatch.setattr(proxies, "_train", _refuse)
    assert list(STUDIES[name](runtime)) == cold[name]


def test_warm_store_fills_and_audits_clean(filled):
    runtime, _ = filled
    store = derived_cache(runtime)
    # Two BFS graphs (Facebook, Wikipedia) and one proxy.
    assert len(store) == 3
    reports = fsck_cache_dir(runtime.cache_dir)
    assert "derived" in [report.root.name for report in reports]
    assert all(report.clean and report.legacy == 0 for report in reports)


def test_stored_proxy_is_bit_identical_to_the_trained_one(filled, monkeypatch):
    runtime, _ = filled
    trained = proxies._train("resnet18", proxies._PROXY_SHAPES["resnet18"])
    monkeypatch.setattr(proxies, "_train", _refuse)
    loaded = trained_proxy("resnet18", derived_cache(runtime))
    assert loaded is not trained
    pairs = list(zip(trained.network.dense_layers, loaded.network.dense_layers,
                     strict=True))
    assert len(pairs) == 3
    for fresh, restored in pairs:
        assert np.array_equal(fresh.weight, restored.weight)
        assert np.array_equal(fresh.bias, restored.bias)
        assert restored.weight.dtype == fresh.weight.dtype
        assert restored.bias.dtype == fresh.bias.dtype
    assert loaded.baseline_accuracy == trained.baseline_accuracy


def test_warm_graph_studies_never_import_networkx(tmp_path):
    # Neither the cold run that builds the graphs nor the warm run that
    # reads their BFS counts back may load networkx.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    args = ["--only", "fig08_graph,fig14_writebuffer",
            "--cache-dir", str(tmp_path / "cache")]
    for out, extra in (("cold", []), ("warm", ["--expect-warm"])):
        script = textwrap.dedent(f"""
            import sys
            from repro.studies import summary
            code = summary.main({[str(tmp_path / out), *args, *extra]!r})
            assert code == 0, code
            assert "networkx" not in sys.modules, "{out} run imported networkx"
        """)
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
