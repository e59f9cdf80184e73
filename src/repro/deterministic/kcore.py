"""Deterministic k-core decomposition.

A *k-core* is a maximal subgraph in which every vertex has degree at least
``k``.  The k-core decomposition assigns each vertex its *core number*: the
largest ``k`` such that the vertex belongs to a k-core.  In the nucleus
framework this is the ``(1, 2)``-nucleus (r-cliques are vertices, s-cliques
are edges).

The implementation is the classic Batagelj–Zaveršnik peeling with a bucket
queue, running in ``O(|V| + |E|)`` time.  It is the certain-graph reference
the tests compare the probabilistic (k, η)-core baseline against.
"""

from __future__ import annotations

from repro.exceptions import InvalidParameterError
from repro.graph.probabilistic_graph import ProbabilisticGraph, Vertex

__all__ = ["core_decomposition", "k_core_subgraph", "degeneracy"]


def core_decomposition(graph: ProbabilisticGraph) -> dict[Vertex, int]:
    """Return the core number of every vertex of the deterministic backbone.

    Uses bucket-based peeling: repeatedly remove a vertex of minimum residual
    degree; its core number is the peel level at removal time.
    """
    degrees = {v: graph.degree(v) for v in graph.vertices()}
    if not degrees:
        return {}
    max_degree = max(degrees.values())
    buckets: list[set[Vertex]] = [set() for _ in range(max_degree + 1)]
    for v, d in degrees.items():
        buckets[d].add(v)

    core: dict[Vertex, int] = {}
    removed: set[Vertex] = set()
    current_level = 0
    remaining = len(degrees)
    while remaining:
        while current_level <= max_degree and not buckets[current_level]:
            current_level += 1
        # peeling can re-add vertices to lower buckets, so rewind if needed
        lower = min(
            (d for d in range(current_level) if buckets[d]), default=current_level
        )
        current_level = lower
        v = buckets[current_level].pop()
        core[v] = current_level
        removed.add(v)
        remaining -= 1
        for w in graph.neighbors(v):
            if w in removed:
                continue
            old = degrees[w]
            if old > current_level:
                buckets[old].discard(w)
                degrees[w] = old - 1
                buckets[old - 1].add(w)
    return core


def k_core_subgraph(graph: ProbabilisticGraph, k: int) -> ProbabilisticGraph:
    """Return the (possibly empty) maximal subgraph with minimum degree ``k``.

    Raises
    ------
    InvalidParameterError
        If ``k`` is negative.
    """
    if k < 0:
        raise InvalidParameterError(f"k must be non-negative, got {k}")
    core = core_decomposition(graph)
    keep = [v for v, c in core.items() if c >= k]
    return graph.subgraph(keep)


def degeneracy(graph: ProbabilisticGraph) -> int:
    """Return the degeneracy of the graph (the maximum core number)."""
    core = core_decomposition(graph)
    return max(core.values(), default=0)
