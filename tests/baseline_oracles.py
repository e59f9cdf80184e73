"""Dict-heap reference loops for the (k, η)-core and (k, γ)-truss baselines.

These are the library's former implementations of
:func:`repro.baselines.probabilistic_core_decomposition` and
:func:`repro.baselines.probabilistic_truss_decomposition`, kept verbatim:
a :class:`~repro.peeling.LazyMinHeap` over labels and edges with one
scalar ``max_k`` call per repair.  ``tests/test_baseline_parity.py`` pins
the array peel engine to them.
"""

from __future__ import annotations

from repro.core.approximations import DynamicProgrammingEstimator, SupportEstimator
from repro.core.support_dp import NO_VALID_K
from repro.exceptions import InvalidParameterError
from repro.graph.probabilistic_graph import (
    Edge,
    ProbabilisticGraph,
    Vertex,
    canonical_edge,
)
from repro.peeling import LazyMinHeap


def probabilistic_core_decomposition(
    graph: ProbabilisticGraph,
    eta: float,
    estimator: SupportEstimator | None = None,
) -> dict[Vertex, int]:
    """Return the (k, η)-core number of every vertex.

    Vertices are peeled in non-decreasing order of residual η-degree; the
    core number of a vertex is the peel level at its removal (clamped to be
    monotone along the peel order).
    """
    if not 0.0 <= eta <= 1.0:
        raise InvalidParameterError(f"eta must be in [0, 1], got {eta}")
    estimator = estimator or DynamicProgrammingEstimator()

    alive_neighbors: dict[Vertex, dict[Vertex, float]] = {
        v: dict(graph.neighbor_probabilities(v)) for v in graph.vertices()
    }
    kappa = {
        v: max(0, estimator.max_k(1.0, list(nbrs.values()), eta))
        for v, nbrs in alive_neighbors.items()
    }
    heap = LazyMinHeap((score, v) for v, score in kappa.items())

    core: dict[Vertex, int] = {}
    processed: set[Vertex] = set()
    current_level = 0

    def current(v: Vertex) -> int | None:
        return None if v in processed else kappa[v]

    while (entry := heap.pop(current)) is not None:
        _, v = entry
        current_level = max(current_level, kappa[v])
        core[v] = current_level
        processed.add(v)
        for w in list(alive_neighbors[v]):
            if w in processed:
                continue
            alive_neighbors[w].pop(v, None)
            if kappa[w] > current_level:
                recomputed = max(
                    0, estimator.max_k(1.0, list(alive_neighbors[w].values()), eta)
                )
                kappa[w] = max(recomputed, current_level)
                heap.push(kappa[w], w)
    return core


def probabilistic_truss_decomposition(
    graph: ProbabilisticGraph,
    gamma: float,
    estimator: SupportEstimator | None = None,
) -> dict[Edge, int]:
    """Return the local (k, γ)-truss number of every edge.

    An edge whose own existence probability is below γ receives the sentinel
    ``-1`` (it cannot belong to any (k, γ)-truss, not even at ``k = 0``).
    """
    if not 0.0 <= gamma <= 1.0:
        raise InvalidParameterError(f"gamma must be in [0, 1], got {gamma}")
    estimator = estimator or DynamicProgrammingEstimator()

    edge_probability: dict[Edge, float] = {}
    # For each edge, map each common neighbor w to the wedge probability
    # p(u, w) * p(v, w); the dict is mutated as neighbors are peeled away.
    alive_wedges: dict[Edge, dict] = {}
    for u, v, p in graph.edges():
        edge = canonical_edge(u, v)
        edge_probability[edge] = p
        alive_wedges[edge] = {
            w: graph.edge_probability(u, w) * graph.edge_probability(v, w)
            for w in graph.common_neighbors(u, v)
        }

    kappa = {
        edge: estimator.max_k(edge_probability[edge], list(wedge.values()), gamma)
        for edge, wedge in alive_wedges.items()
    }
    heap = LazyMinHeap((score, edge) for edge, score in kappa.items())

    adjacency: dict = {v: set(graph.neighbors(v)) for v in graph.vertices()}
    truss: dict[Edge, int] = {}
    processed: set[Edge] = set()
    current_level = NO_VALID_K

    def current(edge: Edge) -> int | None:
        return None if edge in processed else kappa[edge]

    while (entry := heap.pop(current)) is not None:
        _, edge = entry
        current_level = max(current_level, kappa[edge])
        truss[edge] = current_level
        processed.add(edge)

        u, v = edge
        adjacency[u].discard(v)
        adjacency[v].discard(u)
        for w in list(alive_wedges[edge]):
            for other in (canonical_edge(u, w), canonical_edge(v, w)):
                if other in processed or other not in alive_wedges:
                    continue
                removed_endpoint = v if other == canonical_edge(u, w) else u
                alive_wedges[other].pop(removed_endpoint, None)
                if kappa[other] > current_level:
                    recomputed = estimator.max_k(
                        edge_probability[other],
                        list(alive_wedges[other].values()),
                        gamma,
                    )
                    kappa[other] = max(recomputed, current_level)
                    heap.push(kappa[other], other)
    return truss
