"""Local probabilistic nucleus decomposition (ℓ-NuDecomp, Algorithm 1).

The local model asks, for every triangle ``△`` of a candidate subgraph, that
``Pr(X_{H,△,ℓ} ≥ k) ≥ θ`` — the triangle is contained in at least ``k``
4-cliques with probability at least ``θ``, triangles judged independently of
one another.  The paper proves this decomposition is computable in polynomial
time and gives a peeling algorithm driven by per-triangle κ-scores.

The implementation below follows Algorithm 1:

1. index all triangles and 4-cliques once
   (:func:`repro.deterministic.cliques.triangle_clique_index`);
2. initialise each triangle's κ-score as the largest ``k`` whose threshold
   condition holds, using a pluggable support estimator — exact dynamic
   programming (``DP`` in the paper) or the §5.3 statistical approximations
   (``AP``);
3. repeatedly "peel" an unprocessed triangle with minimum κ; its nucleus
   score ν is the current peel level; every 4-clique through it dies and the
   κ-scores of the affected triangles are recomputed from their surviving
   cliques;
4. return the scores wrapped in a :class:`LocalNucleusDecomposition`, from
   which the maximal ℓ-(k, θ)-nuclei can be extracted for any ``k``.

Two backends implement the same algorithm.  ``backend="dict"`` is the
reference path: canonical-tuple state, a :class:`~repro.peeling.LazyMinHeap`
peel, scalar estimator calls — the parity oracle every optimisation is pinned
against.  ``backend="csr"`` never materialises triangle or 4-clique objects
at all: :mod:`repro.core.batch` builds the flat incidence arrays and the
vectorized initial κ-scores, and :mod:`repro.core.peel` runs the
level-synchronous peel over those arrays, translating back to canonical label space only once,
for the final score dictionary.

Triangles whose own existence probability is below θ receive the sentinel
score ``-1`` and are peeled first; they cannot belong to any nucleus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.approximations import DynamicProgrammingEstimator, SupportEstimator
from repro.core.batch import (
    CSRTriangleIndex,
    batched_initial_kappas,
    build_triangle_extension_index,
)
from repro.core.hybrid import HybridEstimator
from repro.core.options import BACKENDS, EngineOptions
from repro.core.peel import EstimatorKappaRepair, peel_kappa_scores
from repro.core.result import LocalNucleusDecomposition
from repro.core.support_dp import NO_VALID_K
from repro.deterministic.cliques import (
    FourClique,
    Triangle,
    canonical_triangle,
    triangle_clique_index,
)
from repro.exceptions import InvalidParameterError
from repro.graph.csr import CSRProbabilisticGraph
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.peeling import LazyMinHeap

__all__ = [
    "BACKENDS",
    "local_nucleus_decomposition",
    "triangle_existence_probability",
    "clique_extension_probability",
]


def resolve_local_options(
    theta: float, estimator: SupportEstimator | None
) -> SupportEstimator:
    """Validate ``theta`` and resolve the default support estimator.

    Shared by :func:`local_nucleus_decomposition` and the no-detour index
    builder (:func:`repro.index.builders.build_local_index`'s CSR path) so
    parameter validation and the default oracle cannot drift apart.
    """
    if not 0.0 <= theta <= 1.0:
        raise InvalidParameterError(f"theta must be in [0, 1], got {theta}")
    return DynamicProgrammingEstimator() if estimator is None else estimator


def local_engine(
    graph: ProbabilisticGraph | CSRProbabilisticGraph, backend: str, kernel: str
) -> EngineOptions:
    """Validate the local driver's ``backend`` / ``kernel`` keywords.

    A :class:`~repro.graph.csr.CSRProbabilisticGraph` input runs the array
    engine whatever backend it names, so with a compiled kernel it counts
    as ``backend="csr"``.
    """
    if backend == "dict" and kernel != "numpy" and isinstance(graph, CSRProbabilisticGraph):
        backend = "csr"
    return EngineOptions(backend=backend, kernel=kernel)


def triangle_existence_probability(graph: ProbabilisticGraph, triangle: Triangle) -> float:
    """Return ``Pr(△)``: the product of the triangle's three edge probabilities."""
    u, v, w = triangle
    return (
        graph.edge_probability(u, v)
        * graph.edge_probability(u, w)
        * graph.edge_probability(v, w)
    )


def clique_extension_probability(
    graph: ProbabilisticGraph, triangle: Triangle, clique: FourClique
) -> float:
    """Return ``Pr(E_i)`` for the 4-clique ``clique`` containing ``triangle``.

    ``Pr(E_i)`` is the probability that the three edges connecting the
    completing vertex ``z`` (the vertex of the clique outside the triangle)
    to the triangle's vertices all exist.
    """
    extra = [vertex for vertex in clique if vertex not in triangle]
    if len(extra) != 1:
        raise InvalidParameterError(
            f"clique {clique!r} does not extend triangle {triangle!r}"
        )
    z = extra[0]
    u, v, w = triangle
    return (
        graph.edge_probability(u, z)
        * graph.edge_probability(v, z)
        * graph.edge_probability(w, z)
    )


@dataclass
class _TriangleState:
    """Mutable per-triangle bookkeeping used by the dict peeling loop."""

    probability: float
    kappa: int
    alive_cliques: dict[FourClique, float]
    processed: bool = False


def _build_states(
    graph: ProbabilisticGraph,
    theta: float,
    estimator: SupportEstimator,
) -> tuple[dict[Triangle, _TriangleState], dict[FourClique, list[Triangle]]]:
    """Index the graph and compute the initial κ-score of every triangle."""
    by_triangle, by_clique = triangle_clique_index(graph)
    states: dict[Triangle, _TriangleState] = {}
    for triangle, cliques in by_triangle.items():
        probability = triangle_existence_probability(graph, triangle)
        alive = {
            clique: clique_extension_probability(graph, triangle, clique)
            for clique in cliques
        }
        kappa = estimator.max_k(probability, list(alive.values()), theta)
        states[triangle] = _TriangleState(
            probability=probability, kappa=kappa, alive_cliques=alive
        )
    return states, by_clique


def _peel_states(
    states: dict[Triangle, _TriangleState],
    by_clique: dict[FourClique, list[Triangle]],
    estimator: SupportEstimator,
    theta: float,
) -> dict[Triangle, int]:
    """Run Algorithm 1's peel over dict-backed triangle states.

    This is the reference loop — a :class:`~repro.peeling.LazyMinHeap` over
    ``(κ, triangle)`` entries with clamped level assignment — against which
    the array-native engine (:mod:`repro.core.peel`) is pinned.
    """
    alive_cliques: set[FourClique] = set(by_clique)
    heap = LazyMinHeap((state.kappa, triangle) for triangle, state in states.items())

    def current(triangle: Triangle) -> int | None:
        state = states[triangle]
        return None if state.processed else state.kappa

    scores: dict[Triangle, int] = {}
    current_level = NO_VALID_K

    while (entry := heap.pop(current)) is not None:
        _, triangle = entry
        state = states[triangle]
        current_level = max(current_level, state.kappa)
        scores[triangle] = current_level
        state.processed = True

        # Every 4-clique through the peeled triangle ceases to exist; update
        # the κ-scores of the surviving triangles it supported.
        for clique in list(state.alive_cliques):
            if clique not in alive_cliques:
                continue
            alive_cliques.remove(clique)
            for other in by_clique[clique]:
                if other == triangle:
                    continue
                other_state = states[other]
                if other_state.processed:
                    continue
                other_state.alive_cliques.pop(clique, None)
                if other_state.kappa > current_level:
                    recomputed = estimator.max_k(
                        other_state.probability,
                        list(other_state.alive_cliques.values()),
                        theta,
                    )
                    other_state.kappa = max(recomputed, current_level)
                    heap.push(other_state.kappa, other)
    return scores


def _csr_engine_arrays(
    csr: CSRProbabilisticGraph,
    theta: float,
    estimator: SupportEstimator,
    kernel: str = "numpy",
) -> tuple[CSRTriangleIndex, np.ndarray]:
    """Run the array-native CSR pipeline: index → batched κ-init → peel.

    Returns the flat triangle index and the per-triangle ν scores (``int64``,
    parallel to ``index.triangles``).  No label-space structures are built;
    :func:`repro.index.builders.build_local_index` snapshots these arrays
    into a :class:`~repro.index.NucleusIndex` directly.
    """
    index = build_triangle_extension_index(csr)
    kappas = batched_initial_kappas(index, theta, estimator)
    repair = EstimatorKappaRepair(estimator, index.triangle_probabilities, theta)
    return index, peel_kappa_scores(index, kappas, repair, kernel=kernel)


def _label_space_scores(
    csr: CSRProbabilisticGraph,
    index: CSRTriangleIndex,
    scores: np.ndarray,
) -> dict[Triangle, int]:
    """Translate engine row scores to canonical label-space triangles.

    One pass, run *after* the peel completes — the only point where the CSR
    backend touches vertex labels.
    """
    labels = csr.vertex_labels
    # When the label order agrees with plain sorting (the common case:
    # homogeneous comparable labels), ascending-id tuples map straight to
    # canonical tuples and the per-triangle canonicalisation can be skipped.
    try:
        plainly_sorted = all(labels[i] <= labels[i + 1] for i in range(len(labels) - 1))
    except TypeError:
        plainly_sorted = False
    result: dict[Triangle, int] = {}
    for (u, v, w), score in zip(index.triangles, scores.tolist()):
        lu, lv, lw = labels[u], labels[v], labels[w]
        triangle = (lu, lv, lw) if plainly_sorted else canonical_triangle(lu, lv, lw)
        result[triangle] = score
    return result


def local_nucleus_decomposition(
    graph: ProbabilisticGraph | CSRProbabilisticGraph,
    theta: float,
    estimator: SupportEstimator | None = None,
    backend: str = "dict",
    kernel: str = "numpy",
) -> LocalNucleusDecomposition:
    """Compute the local probabilistic nucleus decomposition of ``graph``.

    Parameters
    ----------
    graph:
        The probabilistic graph to decompose.  A
        :class:`~repro.graph.csr.CSRProbabilisticGraph` is also accepted and
        implies ``backend="csr"``.
    theta:
        Probability threshold ``θ ∈ [0, 1]`` of Definition 5.
    estimator:
        Support oracle used to evaluate κ-scores.  Defaults to exact dynamic
        programming (the paper's ``DP`` algorithm); pass a
        :class:`~repro.core.hybrid.HybridEstimator` to obtain the paper's
        ``AP`` algorithm, or any single approximation from
        :mod:`repro.core.approximations`.
    backend:
        ``"dict"`` (default) walks the dict-of-dicts graph exactly as the
        seed implementation did and peels with a lazy min-heap; ``"csr"``
        compiles the graph to the array-backed CSR engine, initialises all
        κ-scores in vectorized batches (:mod:`repro.core.batch`), and peels
        with the flat array engine (:mod:`repro.core.peel`) without
        materialising any triangle or 4-clique objects.  Both backends
        produce identical decompositions; ``"csr"`` is markedly faster on
        graphs with many triangles.
    kernel:
        ``"numpy"`` (default) or ``"numba"`` — forwarded to the CSR peel
        engine (see :func:`repro.core.peel.peel_kappa_scores`).  Requires
        ``backend="csr"``; falls back to the numpy loop (with a one-time
        warning) when numba is not installed.

    Returns
    -------
    LocalNucleusDecomposition
        Per-triangle nucleus scores plus nuclei extraction helpers.

    Notes
    -----
    Both peel loops clamp assigned scores to the current peel level, which
    keeps the ν values monotone along the peel order — the same argument used
    for deterministic generalized-core peeling (Batagelj–Zaveršnik) that the
    paper invokes.  Because the repaired κ of a triangle depends only on its
    surviving clique set (and removing cliques never raises the exact tail),
    the final scores do not depend on which minimum-κ triangle is peeled
    first, so the heap-based loop and the level-synchronous rounds agree
    exactly.
    """
    local_engine(graph, backend, kernel)
    estimator = resolve_local_options(theta, estimator)

    if isinstance(graph, CSRProbabilisticGraph):
        csr, graph = graph, graph.to_probabilistic()
    elif backend == "csr":
        csr = graph.to_csr()
    else:
        csr = None

    if csr is not None:
        index, engine_scores = _csr_engine_arrays(csr, theta, estimator, kernel=kernel)
        scores = _label_space_scores(csr, index, engine_scores)
    else:
        states, by_clique = _build_states(graph, theta, estimator)
        scores = _peel_states(states, by_clique, estimator, theta)

    selections = (
        dict(estimator.selection_counts)
        if isinstance(estimator, HybridEstimator)
        else None
    )
    return LocalNucleusDecomposition(
        graph=graph,
        theta=theta,
        scores=scores,
        estimator_name=estimator.name,
        estimator_selections=selections,
    )
