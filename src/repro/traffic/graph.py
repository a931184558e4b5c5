"""Graph-processing workloads: kernels over synthetic social networks.

The paper extracts graph traffic two ways: generic bandwidth envelopes
(:mod:`repro.traffic.generic`) and breadth-first search over SNAP's Facebook
and Wikipedia graphs running on a Graphicionado-style accelerator with an
8 MB scratchpad.  SNAP datasets are not shipped offline, so this module
builds synthetic scale-free graphs with matching vertex/edge scale
(preferential attachment gives the heavy-tailed degree distribution social
networks have), executes the kernels for real with access counting, and
converts the counts into scratchpad traffic at the accelerator's throughput
(see README.md, "Substitutions").

The Barabási–Albert generator is in-repo and makes exactly the random draws
of ``networkx.barabasi_albert_graph`` (networkx 3.x), so every vertex's
neighbour order -- and hence every kernel count -- matches it; networkx is
only the test suite's parity oracle.  Graphs are immutable
:class:`SocialGraph` adjacency tuples, safe to share from the in-process
memo.  The BFS counts behind the Figure 8 points also persist in the
derived store (:class:`~repro.runtime.cache.DerivedCache`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, Optional

from repro.errors import TrafficError
from repro.traffic.base import TrafficPattern

if TYPE_CHECKING:
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


@dataclass(frozen=True)
class SocialGraph:
    """An immutable undirected graph on vertices ``0 .. n-1``.

    ``adjacency[u]`` is the tuple of ``u``'s neighbours in edge-insertion
    order.  The accessors mirror the ``networkx.Graph`` methods of the
    same names.
    """

    adjacency: tuple[tuple[int, ...], ...]

    @property
    def nodes(self) -> range:
        return range(len(self.adjacency))

    def neighbors(self, u: int) -> tuple[int, ...]:
        return self.adjacency[u]

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])

    def number_of_nodes(self) -> int:
        return len(self.adjacency)

    def number_of_edges(self) -> int:
        return sum(map(len, self.adjacency)) // 2


def _barabasi_albert_adjacency(
    n_vertices: int, attachment: int, seed: int
) -> tuple[tuple[int, ...], ...]:
    """Preferential-attachment adjacency, draw for draw as networkx 3.x.

    Starts from the star on ``attachment + 1`` vertices (hub 0).  Each new
    vertex draws ``attachment`` distinct targets with
    ``random.Random(seed).choice`` over the list holding every vertex once
    per incident edge, and links to them in the iteration order of the
    ``set`` that collected them.  ``choice(seq)`` is inlined as what it
    runs: ``seq[r]`` for the first ``r = getrandbits(len(seq).bit_length())``
    below ``len(seq)``, which consumes the generator identically.
    """
    m = attachment
    getrandbits = random.Random(seed).getrandbits
    adjacency: list[list[int]] = [[] for _ in range(n_vertices)]
    adjacency[0].extend(range(1, m + 1))
    for spoke in range(1, m + 1):
        adjacency[spoke].append(0)
    repeated = [0] * m + list(range(1, m + 1))
    for source in range(m + 1, n_vertices):
        n = len(repeated)
        bits = n.bit_length()
        targets: set[int] = set()
        while len(targets) < m:
            r = getrandbits(bits)
            while r >= n:
                r = getrandbits(bits)
            targets.add(repeated[r])
        adjacency[source].extend(targets)
        for target in targets:
            adjacency[target].append(source)
        repeated.extend(targets)
        repeated.extend([source] * m)
    return tuple(map(tuple, adjacency))


@lru_cache(maxsize=8)
def synthetic_social_graph(n_vertices: int, attachment: int, seed: int = 7) -> SocialGraph:
    """A scale-free graph standing in for a SNAP social network."""
    if attachment < 1:
        raise TrafficError("attachment degree must be at least 1")
    if n_vertices <= attachment:
        raise TrafficError("graph needs more vertices than the attachment degree")
    return SocialGraph(_barabasi_albert_adjacency(n_vertices, attachment, seed))


def facebook_like_graph() -> SocialGraph:
    """~4k vertices / ~88k edges, the scale of SNAP's ego-Facebook."""
    return synthetic_social_graph(*FACEBOOK_SCALE)


def wikipedia_like_graph() -> SocialGraph:
    """~7k vertices / ~100k edges, the scale of SNAP's wiki-Vote."""
    return synthetic_social_graph(*WIKIPEDIA_SCALE)


# --- kernels with access counting ------------------------------------------


def _check_source(graph: SocialGraph, source: int) -> None:
    if not 0 <= source < graph.number_of_nodes():
        raise TrafficError(f"source vertex {source} is not in the graph")


def bfs_access_counts(graph: SocialGraph, source: int = 0) -> AccessCounts:
    """Run breadth-first search and count vertex-property accesses.

    Per Graphicionado's dataflow: each traversed edge reads the destination
    vertex property; each newly-visited vertex writes its depth; frontier
    management reads each frontier vertex once.
    """
    _check_source(graph, source)
    adjacency = graph.adjacency
    visited = bytearray(len(adjacency))
    visited[source] = 1
    frontier = [source]
    reads = edges = 0
    writes = 1  # source depth
    while frontier:
        next_frontier = []
        for u in frontier:
            neighbours = adjacency[u]
            reads += 1 + len(neighbours)  # frontier record + destination checks
            edges += len(neighbours)
            for v in neighbours:
                if not visited[v]:
                    visited[v] = 1
                    next_frontier.append(v)
        writes += len(next_frontier)  # depth updates
        frontier = next_frontier
    return AccessCounts(reads=reads, writes=writes, edges_traversed=edges)


def pagerank_access_counts(
    graph: SocialGraph, iterations: int = 10, damping: float = 0.85
) -> AccessCounts:
    """Run power-iteration PageRank and count vertex-property accesses."""
    if not 0.0 < damping < 1.0:
        raise TrafficError("damping must be in (0, 1)")
    adjacency = graph.adjacency
    n = len(adjacency)
    degree = [max(1, len(neighbours)) for neighbours in adjacency]
    rank = [1.0 / n] * n
    reads = writes = edges = 0
    for _ in range(iterations):
        new_rank = []
        for neighbours in adjacency:
            acc = 0.0
            for u in neighbours:
                acc += rank[u] / degree[u]
            new_rank.append((1.0 - damping) / n + damping * acc)
            reads += len(neighbours)  # neighbour ranks
            edges += len(neighbours)
        writes += n  # rank updates
        rank = new_rank
    return AccessCounts(reads=reads, writes=writes, edges_traversed=edges)


def sssp_access_counts(graph: SocialGraph, source: int = 0) -> AccessCounts:
    """Bellman-Ford-style SSSP (unit weights) with access counting."""
    _check_source(graph, source)
    adjacency = graph.adjacency
    dist = [float("inf")] * len(adjacency)
    dist[source] = 0.0
    reads = edges = 0
    writes = 1
    active = {source}
    while active:
        next_active = set()
        for u in active:
            neighbours = adjacency[u]
            reads += 1 + len(neighbours)
            edges += len(neighbours)
            candidate = dist[u] + 1.0
            for v in neighbours:
                if candidate < dist[v]:
                    dist[v] = candidate
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
