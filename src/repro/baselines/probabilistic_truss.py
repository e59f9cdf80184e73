"""Probabilistic local (k, γ)-truss decomposition (Huang, Lu, Lakshmanan, SIGMOD 2016).

The local (k, γ)-truss is the probabilistic generalisation of the k-truss
used by the paper as its second comparison baseline (Table 3): a maximal
subgraph in which every edge is contained in at least ``k`` triangles with
probability at least ``γ``.

For an edge ``e = (u, v)`` with common neighbors ``w_1, …, w_c``, the
``i``-th potential triangle materialises when the two edges ``(u, w_i)`` and
``(v, w_i)`` both exist — an event of probability
``p(u, w_i) · p(v, w_i)``, independent across distinct ``w_i`` because the
edge sets are disjoint.  Conditioning on the edge ``e`` itself existing, the
triangle count is again Poisson-binomial, so the same support machinery used
for triangles carries over with the edge probability playing the role of the
container probability.

The decomposition peels edges of minimum probabilistic support and updates
the affected edges.  It is the (2, 3) member of the (r, s) family and runs
on the same array peel engine as the nucleus, over an edge ⇄ triangle
incidence built from the CSR triangle enumeration.
"""

from __future__ import annotations

import numpy as np

from repro.core.approximations import DynamicProgrammingEstimator, SupportEstimator
from repro.core.batch import PeelIncidence, batched_initial_kappas
from repro.core.peel import EstimatorKappaRepair, peel_kappa_scores
from repro.core.support_dp import NO_VALID_K
from repro.deterministic.cliques import triangle_arrays_csr
from repro.exceptions import InvalidParameterError
from repro.graph.csr import CSRProbabilisticGraph
from repro.graph.probabilistic_graph import Edge, ProbabilisticGraph, canonical_edge

__all__ = [
    "edge_triangle_probabilities",
    "probabilistic_truss_decomposition",
    "k_gamma_truss_subgraph",
    "max_truss_score",
]


def edge_triangle_probabilities(graph: ProbabilisticGraph, u, v) -> tuple[float, list[float]]:
    """Return ``(p(u, v), [Pr(triangle via w) for each common neighbor w])``."""
    edge_probability = graph.edge_probability(u, v)
    wedge_probabilities = [
        graph.edge_probability(u, w) * graph.edge_probability(v, w)
        for w in graph.common_neighbors(u, v)
    ]
    return edge_probability, wedge_probabilities


def _edge_triangle_incidence(csr: CSRProbabilisticGraph) -> PeelIncidence:
    """Return the (2, 3) edge ⇄ triangle incidence of ``csr``.

    Rows are the undirected edges ``u < v`` in lexicographic order, with
    container probability ``p(u, v)``; an edge's postings are its triangles
    ordered by the third vertex ``w``, with pair value ``p(u, w)·p(v, w)``.
    """
    n = csr.num_vertices
    edge_u, edge_v, p = csr.undirected_edge_arrays()
    u, v, w = triangle_arrays_csr(csr)
    edge_keys = edge_u * n + edge_v
    e_uv = np.searchsorted(edge_keys, u * n + v)
    e_uw = np.searchsorted(edge_keys, u * n + w)
    e_vw = np.searchsorted(edge_keys, v * n + w)
    rows = np.concatenate([e_uv, e_uw, e_vw])
    third = np.concatenate([w, v, u])
    values = np.concatenate([p[e_uw] * p[e_vw], p[e_uv] * p[e_vw], p[e_uv] * p[e_uw]])
    order = np.lexsort((third, rows))
    # rank[j] is where pre-sort pair j lands in the sorted pair arrays.
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size, dtype=np.int64)
    indptr = np.zeros(edge_u.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=edge_u.size), out=indptr[1:])
    return PeelIncidence(
        row_probabilities=p,
        indptr=indptr,
        values=values[order],
        columns=np.tile(np.arange(u.size, dtype=np.int64), 3)[order],
        column_rows=np.stack([e_uv, e_uw, e_vw], axis=1),
        column_positions=rank.reshape(3, u.size).T.copy(),
    )


def probabilistic_truss_decomposition(
    graph: ProbabilisticGraph,
    gamma: float,
    estimator: SupportEstimator | None = None,
) -> dict[Edge, int]:
    """Return the local (k, γ)-truss number of every edge.

    Edges are peeled in non-decreasing order of residual support on the
    shared peel engine (:func:`repro.core.peel.peel_kappa_scores`).  An edge
    whose own existence probability is below γ receives the sentinel ``-1``
    (it cannot belong to any (k, γ)-truss, not even at ``k = 0``).

    >>> from repro.graph.generators import clique_graph
    >>> truss = probabilistic_truss_decomposition(clique_graph(4, probability=1.0), 0.5)
    >>> sorted(truss.values())
    [2, 2, 2, 2, 2, 2]
    """
    if not 0.0 <= gamma <= 1.0:
        raise InvalidParameterError(f"gamma must be in [0, 1], got {gamma}")
    estimator = estimator or DynamicProgrammingEstimator()
    csr = graph.to_csr()
    incidence = _edge_triangle_incidence(csr)
    kappas = batched_initial_kappas(incidence, gamma, estimator)
    repair = EstimatorKappaRepair(estimator, incidence.row_probabilities, gamma)
    scores = peel_kappa_scores(incidence, kappas, repair)
    labels = csr.vertex_labels
    edge_u, edge_v, _ = csr.undirected_edge_arrays()
    return {
        canonical_edge(labels[a], labels[b]): score
        for a, b, score in zip(edge_u.tolist(), edge_v.tolist(), scores.tolist())
    }


def k_gamma_truss_subgraph(
    graph: ProbabilisticGraph,
    k: int,
    gamma: float,
    truss_numbers: dict[Edge, int] | None = None,
) -> ProbabilisticGraph:
    """Return the subgraph of edges with (k, γ)-truss number at least ``k``."""
    if k < 0:
        raise InvalidParameterError(f"k must be non-negative, got {k}")
    if truss_numbers is None:
        truss_numbers = probabilistic_truss_decomposition(graph, gamma)
    keep = [edge for edge, score in truss_numbers.items() if score >= k]
    return graph.edge_subgraph(keep)


def max_truss_score(graph: ProbabilisticGraph, gamma: float) -> int:
    """Return the maximum (k, γ)-truss number over all edges (−1 for an edgeless graph)."""
    truss = probabilistic_truss_decomposition(graph, gamma)
    return max(truss.values(), default=NO_VALID_K)
