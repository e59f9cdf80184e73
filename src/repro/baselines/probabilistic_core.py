"""Probabilistic (k, η)-core decomposition (Bonchi et al., KDD 2014).

The (k, η)-core is the probabilistic generalisation of the k-core used by
the paper as a comparison baseline (Table 3): a maximal subgraph in which
every vertex has at least ``k`` neighbors *within the subgraph* with
probability at least ``η``.

For a vertex ``v`` with incident edge probabilities ``p_1, …, p_d``, the
number of materialised neighbors is a Poisson-binomial variable, so the
``η``-degree of ``v`` — the largest ``k`` with ``Pr[deg(v) ≥ k] ≥ η`` — is
computed with the same dynamic program used for triangle supports.  The
decomposition peels vertices of minimum η-degree, recomputing the η-degrees
of their neighbors from the surviving incident edges.  It is the (1, 2)
member of the (r, s) family and runs on the same array peel engine as the
nucleus, over the vertex ⇄ edge incidence of the CSR adjacency.
"""

from __future__ import annotations

import numpy as np

from repro.core.approximations import DynamicProgrammingEstimator, SupportEstimator
from repro.core.batch import PeelIncidence, batched_initial_kappas
from repro.core.peel import EstimatorKappaRepair, peel_kappa_scores
from repro.exceptions import InvalidParameterError
from repro.graph.csr import CSRProbabilisticGraph
from repro.graph.probabilistic_graph import ProbabilisticGraph, Vertex

__all__ = [
    "eta_degrees",
    "probabilistic_core_decomposition",
    "k_eta_core_subgraph",
    "max_core_score",
]


def _vertex_edge_incidence(csr: CSRProbabilisticGraph) -> PeelIncidence:
    """Return the (1, 2) vertex ⇄ edge incidence of ``csr``.

    This is the CSR adjacency itself: a vertex's postings are its adjacency
    slots (pair value = edge probability), every undirected edge owns its
    two slots, and the container probability of a vertex is 1.
    """
    n = csr.num_vertices
    owners = csr.directed_edge_owners()
    keys = owners * n + csr.indices
    reverse = np.searchsorted(keys, csr.indices * n + owners)
    upper = np.flatnonzero(csr.indices > owners)
    edge_of_slot = np.empty(keys.size, dtype=np.int64)
    edge_of_slot[upper] = np.arange(upper.size)
    edge_of_slot[reverse[upper]] = edge_of_slot[upper]
    return PeelIncidence(
        row_probabilities=np.ones(n),
        indptr=csr.indptr,
        values=csr.probabilities,
        columns=edge_of_slot,
        column_rows=np.stack([owners[upper], csr.indices[upper]], axis=1),
        column_positions=np.stack([upper, reverse[upper]], axis=1),
    )


def _initial_degrees(
    graph: ProbabilisticGraph, eta: float, estimator: SupportEstimator
) -> tuple[list[Vertex], PeelIncidence, np.ndarray]:
    """Validate ``eta`` and return ``(labels, incidence, η-degrees)``."""
    if not 0.0 <= eta <= 1.0:
        raise InvalidParameterError(f"eta must be in [0, 1], got {eta}")
    csr = graph.to_csr()
    incidence = _vertex_edge_incidence(csr)
    degrees = np.maximum(batched_initial_kappas(incidence, eta, estimator), 0)
    return csr.vertex_labels, incidence, degrees


def eta_degrees(
    graph: ProbabilisticGraph,
    eta: float,
    estimator: SupportEstimator | None = None,
) -> dict[Vertex, int]:
    """Return the η-degree of every vertex.

    The η-degree of ``v`` is the largest ``k`` such that at least ``k`` of the
    incident edges exist simultaneously with probability at least ``η``; it
    is 0 when even one neighbor cannot be guaranteed at level η.  These are
    the initial scores the core peel starts from.
    """
    labels, _, degrees = _initial_degrees(
        graph, eta, estimator or DynamicProgrammingEstimator()
    )
    return dict(zip(labels, degrees.tolist()))


def probabilistic_core_decomposition(
    graph: ProbabilisticGraph,
    eta: float,
    estimator: SupportEstimator | None = None,
) -> dict[Vertex, int]:
    """Return the (k, η)-core number of every vertex.

    Vertices are peeled in non-decreasing order of residual η-degree on the
    shared peel engine (:func:`repro.core.peel.peel_kappa_scores`); the core
    number of a vertex is the peel level at its removal (clamped to be
    monotone along the peel order).

    >>> from repro.graph.generators import clique_graph
    >>> core = probabilistic_core_decomposition(clique_graph(4, probability=1.0), 0.5)
    >>> sorted(core.values())
    [3, 3, 3, 3]
    """
    estimator = estimator or DynamicProgrammingEstimator()
    labels, incidence, degrees = _initial_degrees(graph, eta, estimator)
    repair = EstimatorKappaRepair(estimator, incidence.row_probabilities, eta)
    scores = peel_kappa_scores(incidence, degrees, repair)
    return dict(zip(labels, scores.tolist()))


def k_eta_core_subgraph(
    graph: ProbabilisticGraph,
    k: int,
    eta: float,
    core_numbers: dict[Vertex, int] | None = None,
) -> ProbabilisticGraph:
    """Return the subgraph induced by vertices with (k, η)-core number at least ``k``."""
    if k < 0:
        raise InvalidParameterError(f"k must be non-negative, got {k}")
    if core_numbers is None:
        core_numbers = probabilistic_core_decomposition(graph, eta)
    keep = [v for v, score in core_numbers.items() if score >= k]
    return graph.subgraph(keep)


def max_core_score(graph: ProbabilisticGraph, eta: float) -> int:
    """Return the maximum (k, η)-core number over all vertices."""
    core = probabilistic_core_decomposition(graph, eta)
    return max(core.values(), default=0)
