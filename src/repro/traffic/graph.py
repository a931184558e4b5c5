"""Graph-processing workloads: kernels over synthetic social networks.

The paper extracts graph traffic two ways: generic bandwidth envelopes
(:mod:`repro.traffic.generic`) and breadth-first search over SNAP's Facebook
and Wikipedia graphs running on a Graphicionado-style accelerator with an
8 MB scratchpad.  SNAP datasets are not shipped offline, so this module
builds synthetic scale-free graphs with matching vertex/edge scale
(preferential attachment gives the heavy-tailed degree distribution social
networks have), executes the kernels for real with access counting, and
converts the counts into scratchpad traffic at the accelerator's throughput
(see DESIGN.md, "Substitutions").

networkx is imported only when a graph is built: the BFS counts behind the
Figure 8 points persist in the derived store
(:class:`~repro.runtime.cache.DerivedCache`), so a warm run never loads it.
"""

from __future__ import annotations

import importlib.metadata
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, Optional

from repro.errors import TrafficError
from repro.traffic.base import TrafficPattern

if TYPE_CHECKING:
    import networkx as nx

    from repro.runtime.cache import DerivedCache

#: Scratchpad access granularity (one vertex property record).
GRAPH_ACCESS_BYTES = 8
#: Edge throughput of the Graphicionado-style compute stream, edges/second.
ACCELERATOR_EDGES_PER_SECOND = 2e9


@dataclass(frozen=True)
class AccessCounts:
    """Memory accesses a kernel issued against the vertex-property store."""

    reads: int
    writes: int
    edges_traversed: int

    def __add__(self, other: "AccessCounts") -> "AccessCounts":
        return AccessCounts(
            self.reads + other.reads,
            self.writes + other.writes,
            self.edges_traversed + other.edges_traversed,
        )


#: (vertices, attachment degree) of the SNAP stand-ins.
FACEBOOK_SCALE = (4039, 22)
WIKIPEDIA_SCALE = (7115, 15)


@lru_cache(maxsize=8)
def synthetic_social_graph(n_vertices: int, attachment: int, seed: int = 7) -> nx.Graph:
    """A scale-free graph standing in for a SNAP social network."""
    import networkx as nx

    if n_vertices <= attachment:
        raise TrafficError("graph needs more vertices than the attachment degree")
    return nx.barabasi_albert_graph(n_vertices, attachment, seed=seed)


def facebook_like_graph() -> nx.Graph:
    """~4k vertices / ~88k edges, the scale of SNAP's ego-Facebook."""
    return synthetic_social_graph(*FACEBOOK_SCALE)


def wikipedia_like_graph() -> nx.Graph:
    """~7k vertices / ~100k edges, the scale of SNAP's wiki-Vote."""
    return synthetic_social_graph(*WIKIPEDIA_SCALE)


# --- kernels with access counting ------------------------------------------


def bfs_access_counts(graph: nx.Graph, source: int = 0) -> AccessCounts:
    """Run breadth-first search and count vertex-property accesses.

    Per Graphicionado's dataflow: each traversed edge reads the destination
    vertex property; each newly-visited vertex writes its depth; frontier
    management reads each frontier vertex once.
    """
    visited = {source}
    frontier = [source]
    reads = writes = edges = 0
    writes += 1  # source depth
    while frontier:
        next_frontier = []
        for u in frontier:
            reads += 1  # frontier vertex record
            for v in graph.neighbors(u):
                edges += 1
                reads += 1  # destination property check
                if v not in visited:
                    visited.add(v)
                    writes += 1  # depth update
                    next_frontier.append(v)
        frontier = next_frontier
    return AccessCounts(reads=reads, writes=writes, edges_traversed=edges)


def pagerank_access_counts(
    graph: nx.Graph, iterations: int = 10, damping: float = 0.85
) -> AccessCounts:
    """Run power-iteration PageRank and count vertex-property accesses."""
    if not 0.0 < damping < 1.0:
        raise TrafficError("damping must be in (0, 1)")
    n = graph.number_of_nodes()
    rank = {v: 1.0 / n for v in graph.nodes}
    reads = writes = edges = 0
    for _ in range(iterations):
        new_rank = {}
        for v in graph.nodes:
            acc = 0.0
            for u in graph.neighbors(v):
                edges += 1
                reads += 1  # neighbor rank
                degree = graph.degree(u)
                acc += rank[u] / max(1, degree)
            new_rank[v] = (1.0 - damping) / n + damping * acc
            writes += 1  # rank update
        rank = new_rank
    return AccessCounts(reads=reads, writes=writes, edges_traversed=edges)


def sssp_access_counts(graph: nx.Graph, source: int = 0) -> AccessCounts:
    """Bellman-Ford-style SSSP (unit weights) with access counting."""
    INF = float("inf")
    dist = {v: INF for v in graph.nodes}
    dist[source] = 0.0
    reads = writes = edges = 0
    writes += 1
    active = {source}
    while active:
        next_active = set()
        for u in active:
            reads += 1
            for v in graph.neighbors(u):
                edges += 1
                reads += 1
                if dist[u] + 1.0 < dist[v]:
                    dist[v] = dist[u] + 1.0
                    writes += 1
                    next_active.add(v)
        active = next_active
    return AccessCounts(reads=reads, writes=writes, edges_traversed=edges)


# --- traffic extraction ------------------------------------------------------


def kernel_traffic(
    name: str,
    counts: AccessCounts,
    edges_per_second: float = ACCELERATOR_EDGES_PER_SECOND,
    access_bytes: int = GRAPH_ACCESS_BYTES,
) -> TrafficPattern:
    """Convert kernel access counts into scratchpad traffic rates.

    The accelerator streams ``edges_per_second``; the kernel's runtime is
    ``edges_traversed / edges_per_second`` and its accesses spread across it.
    """
    if counts.edges_traversed <= 0:
        raise TrafficError(f"{name}: kernel traversed no edges")
    duration = counts.edges_traversed / edges_per_second
    return TrafficPattern.from_totals(
        name=name,
        total_reads=counts.reads,
        total_writes=counts.writes,
        duration=duration,
        access_bytes=access_bytes,
        reads_per_task=counts.reads,
        writes_per_task=counts.writes,
        metadata={"kind": "graph-kernel"},
    )


@lru_cache(maxsize=1)
def _networkx_version() -> str:
    """The installed networkx version, read without importing networkx."""
    return importlib.metadata.version("networkx")


def _bfs_counts(
    scale: tuple[int, int],
    store: Optional[DerivedCache],
    seed: int = 7,
    source: int = 0,
) -> AccessCounts:
    """BFS access counts over one synthetic graph, via ``store`` if given."""
    if store is None:
        return bfs_access_counts(synthetic_social_graph(*scale, seed), source)
    n_vertices, attachment = scale
    key = store.key("bfs-counts", {
        "n_vertices": n_vertices,
        "attachment": attachment,
        "seed": seed,
        "source": source,
        "networkx": _networkx_version(),
    })
    counts = store.load(key)
    if counts is None:
        counts = bfs_access_counts(synthetic_social_graph(*scale, seed), source)
        store.store(key, counts)
    return counts


@lru_cache(maxsize=4)
def facebook_bfs_traffic(store: Optional[DerivedCache] = None) -> TrafficPattern:
    """BFS over the Facebook-scale graph (a Figure 8 'pink point').

    Memoized in-process per ``store``; with a derived store
    (:func:`repro.runtime.cache.derived_cache`) the BFS counts also
    persist across runs.
    """
    return kernel_traffic("Facebook-Graph-BFS", _bfs_counts(FACEBOOK_SCALE, store))


@lru_cache(maxsize=4)
def wikipedia_bfs_traffic(store: Optional[DerivedCache] = None) -> TrafficPattern:
    """BFS over the Wikipedia-scale graph (a Figure 8 'pink point').

    Memoized and persisted like :func:`facebook_bfs_traffic`.
    """
    return kernel_traffic("Wikipedia-BFS", _bfs_counts(WIKIPEDIA_SCALE, store))


def graph_kernel_suite() -> Iterator[TrafficPattern]:
    """BFS / PageRank / SSSP over both synthetic graphs."""
    for label, graph in (
        ("facebook", facebook_like_graph()),
        ("wikipedia", wikipedia_like_graph()),
    ):
        yield kernel_traffic(f"{label}-bfs", bfs_access_counts(graph))
        yield kernel_traffic(f"{label}-pagerank", pagerank_access_counts(graph, iterations=3))
        yield kernel_traffic(f"{label}-sssp", sssp_access_counts(graph))
