"""Global probabilistic nucleus decomposition (g-NuDecomp, Algorithm 2).

The global model is the strictest of the three: a candidate subgraph ``H`` is
a g-(k, θ)-nucleus when, for every triangle ``△`` of ``H``, the probability
that a sampled possible world of ``H`` both contains ``△`` and *is itself a
deterministic k-nucleus* reaches θ.  Computing this exactly is #P-hard
(Theorem 4.1), so the paper's Algorithm 2 combines two ideas:

* **search-space pruning** — every g-(k, θ)-nucleus is contained in an
  ℓ-(k, θ)-nucleus, so candidates are grown only inside the union ``C`` of
  local nuclei;
* **Monte-Carlo verification** — the per-triangle probabilities are estimated
  from ``n`` sampled worlds with Hoeffding-controlled error (ε = δ = 0.1,
  n = 200 in the paper's experiments).

The candidate for a triangle is the closure of its 4-cliques inside ``C``
under the rule "every triangle of the candidate must be covered by at least
``k`` 4-cliques of the candidate"; closures that cannot be completed within
``C`` are still sampled and simply fail verification, matching the paper's
"approximate solution" remark.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

import numpy as np

from repro.core.approximations import SupportEstimator
from repro.core.local import local_nucleus_decomposition
from repro.core.options import EngineOptions
from repro.core.result import LocalNucleusDecomposition, ProbabilisticNucleus
from repro.deterministic.cliques import (
    FourClique,
    Triangle,
    enumerate_triangles,
    triangle_clique_index,
    triangles_of_clique,
)
from repro.deterministic.nucleus import is_k_nucleus
from repro.exceptions import InvalidParameterError
from repro.graph.possible_worlds import sample_world
from repro.graph.probabilistic_graph import Edge, ProbabilisticGraph, canonical_edge
from repro.sampling.adaptive import AdaptiveSettings, adaptive_global_verify
from repro.sampling.monte_carlo import hoeffding_sample_size
from repro.sampling.partitioned import partitioned_global_decision
from repro.sampling.sharding import _require_positive_int
from repro.sampling.world_matrix import (
    CandidateWorldIndex,
    WorldShardPool,
    count_needed,
    decide_global_counts,
)

__all__ = ["global_nucleus_decomposition", "candidate_closure", "union_of_nuclei"]


def union_of_nuclei(nuclei: Sequence[ProbabilisticNucleus]) -> ProbabilisticGraph:
    """Return the edge-union of a collection of nuclei as one probabilistic graph."""
    union = ProbabilisticGraph()
    for nucleus in nuclei:
        for u, v, p in nucleus.subgraph.edges():
            if not union.has_edge(u, v):
                union.add_edge(u, v, p)
    return union


def candidate_closure(
    candidate_graph: ProbabilisticGraph,
    seed_triangle: Triangle,
    k: int,
    by_triangle: dict[Triangle, list[FourClique]],
    max_rounds: int | None = None,
) -> set[FourClique]:
    """Grow the candidate 4-clique set for ``seed_triangle`` (Algorithm 2, lines 5–7).

    Starting from every 4-clique of ``candidate_graph`` that contains the
    seed triangle, repeatedly add, for any triangle of the current candidate
    covered by fewer than ``k`` candidate 4-cliques, all 4-cliques of
    ``candidate_graph`` containing that triangle.  The closure stops when all
    triangles are sufficiently covered or when no further clique can be
    added (in which case the candidate will fail Monte-Carlo verification).

    Returns the final set of 4-cliques (possibly empty when the seed triangle
    lies in no 4-clique of the candidate graph).
    """
    if k < 0:
        raise InvalidParameterError(f"k must be non-negative, got {k}")
    chosen: set[FourClique] = set(by_triangle.get(seed_triangle, ()))
    if not chosen:
        return chosen

    # Coverage is kept incrementally.  It only grows, so a triangle is
    # deficient at a round start only if it was deficient when first seen —
    # and once expanded, all its cliques are chosen.  Each round therefore
    # needs to look only at the triangles first covered in the round before.
    coverage: dict[Triangle, int] = {}
    fresh: list[Triangle] = []

    def cover(clique: FourClique) -> None:
        for triangle in triangles_of_clique(clique):
            count = coverage.get(triangle, 0)
            if count == 0:
                fresh.append(triangle)
            coverage[triangle] = count + 1

    for clique in chosen:
        cover(clique)
    rounds = 0
    while True:
        rounds += 1
        if max_rounds is not None and rounds > max_rounds:
            break
        deficient = [t for t in fresh if coverage[t] < k]
        fresh = []
        added = False
        for triangle in deficient:
            for clique in by_triangle.get(triangle, ()):
                if clique not in chosen:
                    chosen.add(clique)
                    cover(clique)
                    added = True
        if not added:
            break
    return chosen


def _cliques_to_subgraph(
    graph: ProbabilisticGraph, cliques: set[FourClique]
) -> ProbabilisticGraph:
    edges: set[Edge] = set()
    for clique in cliques:
        a, b, c, d = clique
        for x, y in ((a, b), (a, c), (a, d), (b, c), (b, d), (c, d)):
            edges.add(canonical_edge(x, y))
    return graph.edge_subgraph(edges)


def _world_contains_triangle(world: ProbabilisticGraph, triangle: Triangle) -> bool:
    u, v, w = triangle
    return world.has_edge(u, v) and world.has_edge(u, w) and world.has_edge(v, w)


def _verify_candidate_dict(
    subgraph: ProbabilisticGraph,
    k: int,
    theta: float,
    n_samples: int,
    rng: random.Random,
) -> tuple[bool, list[Triangle]]:
    """Reference Monte-Carlo verification: one dict world at a time."""
    triangles = list(enumerate_triangles(subgraph))
    if not triangles:
        return False, triangles

    worlds = [sample_world(subgraph, rng=rng) for _ in range(n_samples)]
    nucleus_worlds = [world for world in worlds if is_k_nucleus(world, k)]

    for triangle in triangles:
        hits = sum(
            1 for world in nucleus_worlds
            if _world_contains_triangle(world, triangle)
        )
        if hits / n_samples < theta:
            return False, triangles
    return True, triangles


def _verify_candidate_matrix(
    subgraph: ProbabilisticGraph,
    k: int,
    theta: float,
    n_samples: int,
    rng: np.random.Generator,
    pool: WorldShardPool | None,
    kernel: str = "numpy",
    partitions: int = 1,
) -> tuple[bool, list[Triangle]]:
    """World-matrix Monte-Carlo verification: all worlds in one batch.

    Samples the candidate's ``(n_samples, n_edges)`` boolean world matrix
    with a single RNG call and thresholds the per-triangle counts through
    :func:`repro.sampling.world_matrix.decide_global_counts`, which rejects
    as soon as an exact upper bound puts some triangle below ``θ·n``.
    Sampling comes first, so the RNG stream — and with it every later
    candidate's worlds — is the same whether or not a bound fires.  With
    ``partitions > 1`` the matrix is never materialized: the candidate's
    edge range is sampled one partition block at a time
    (:func:`repro.sampling.partitioned.partitioned_global_decision`), bounding
    peak memory by a single block.
    """
    index = CandidateWorldIndex.from_graph(subgraph)
    triangles = index.triangle_labels()
    if not triangles:
        return False, triangles

    # The fewest nucleus-worlds that pass ``count / n_samples >= theta``,
    # found with that very float test.  ``count / n_samples`` grows with the
    # count, so every count from ``need`` on passes: "not rejected" is the
    # exact θ decision.
    need = count_needed(np.arange(n_samples + 1) / n_samples >= theta)
    if partitions > 1:
        _, rejected = partitioned_global_decision(
            index, n_samples, k, need,
            rng=rng, partitions=partitions, pool=pool, kernel=kernel, exact_counts=False,
        )
    else:
        worlds = index.sample(n_samples, rng=rng)
        _, rejected = decide_global_counts(
            index, worlds, k, need, pool=pool, kernel=kernel, exact_counts=False
        )
    return not rejected, triangles


def _verify_candidate_adaptive(
    subgraph: ProbabilisticGraph,
    k: int,
    theta: float,
    settings: AdaptiveSettings,
    rng: np.random.Generator,
    pool: WorldShardPool | None,
    kernel: str = "numpy",
) -> tuple[bool, list[Triangle]]:
    """Sequential Monte-Carlo verification with confidence-driven stopping.

    Same decision semantics as :func:`_verify_candidate_matrix`, but worlds
    are drawn in geometric chunks and the candidate stops as soon as the
    anytime-valid bounds of :mod:`repro.sampling.adaptive` settle the
    θ-threshold decision.
    """
    index = CandidateWorldIndex.from_graph(subgraph)
    triangles = index.triangle_labels()
    if not triangles:
        return False, triangles

    passes, _ = adaptive_global_verify(
        index, k, theta, settings, rng=rng, pool=pool, kernel=kernel
    )
    return passes, triangles


def global_nucleus_decomposition(
    graph: ProbabilisticGraph,
    k: int,
    theta: float,
    epsilon: float = 0.1,
    delta: float = 0.1,
    n_samples: int | None = None,
    estimator: SupportEstimator | None = None,
    local_result: LocalNucleusDecomposition | None = None,
    rng: "random.Random | np.random.Generator | None" = None,
    seed: int | None = None,
    **engine,
) -> list[ProbabilisticNucleus]:
    """Find (approximate) g-(k, θ)-nuclei of ``graph`` via Algorithm 2.

    Parameters
    ----------
    graph:
        The probabilistic graph.
    k:
        Required 4-clique support of every triangle.
    theta:
        Probability threshold of Definition 5.
    epsilon, delta, n_samples:
        Monte-Carlo accuracy controls; ``n_samples`` defaults to the
        Hoeffding bound ``⌈ln(2/δ)/(2ε²)⌉``.
    estimator:
        Support oracle forwarded to the local decomposition used for pruning.
    local_result:
        A pre-computed local decomposition of ``graph`` at the same θ, reused
        to avoid recomputing the pruning step.
    rng, seed:
        Source of randomness for the world sampling.  Runs are reproducible
        for a fixed ``seed`` (or a seeded ``rng``) on both backends.
    **engine:
        The engine knobs (``backend``, ``kernel``, ``sampling`` and its
        adaptive settings, ``n_jobs``, ``partitions``) of
        :class:`~repro.core.options.EngineOptions`.  They pick how the local
        pruning runs and how each candidate is verified — one dict world at
        a time, one world matrix, a sequential test, or partition blocks —
        never what a g-(k, θ)-nucleus is.

    Returns
    -------
    list[ProbabilisticNucleus]
        The verified candidates, deduplicated by edge set, with
        ``mode="global"``.
    """
    if k < 0:
        raise InvalidParameterError(f"k must be non-negative, got {k}")
    if not 0.0 <= theta <= 1.0:
        raise InvalidParameterError(f"theta must be in [0, 1], got {theta}")
    engine = EngineOptions(**engine)
    if n_samples is None:
        n_samples = hoeffding_sample_size(epsilon, delta)
    _require_positive_int("n_samples", n_samples)
    engine_rng = engine.rng(rng, seed)
    adaptive = engine.adaptive(n_samples)
    kernel = engine.resolved_kernel

    if local_result is None:
        local_result = local_nucleus_decomposition(
            graph, theta, estimator=estimator, backend=engine.backend, kernel=kernel
        )
    local_nuclei = local_result.nuclei(k)
    if not local_nuclei:
        return []
    candidate_graph = union_of_nuclei(local_nuclei)
    by_triangle, _ = triangle_clique_index(candidate_graph)

    solutions: list[ProbabilisticNucleus] = []
    seen_candidates: set[frozenset[FourClique]] = set()
    seen_solutions: set[frozenset[Edge]] = set()

    pool = WorldShardPool(engine.n_jobs) if engine.n_jobs > 1 else None
    try:
        for seed_triangle in by_triangle:
            cliques = candidate_closure(candidate_graph, seed_triangle, k, by_triangle)
            if not cliques:
                continue
            candidate_key = frozenset(cliques)
            if candidate_key in seen_candidates:
                continue
            seen_candidates.add(candidate_key)

            subgraph = _cliques_to_subgraph(graph, cliques)
            if adaptive is not None:
                all_pass, triangles = _verify_candidate_adaptive(
                    subgraph, k, theta, adaptive, engine_rng, pool, kernel=kernel
                )
            elif engine.backend == "csr":
                all_pass, triangles = _verify_candidate_matrix(
                    subgraph, k, theta, n_samples, engine_rng, pool,
                    kernel=kernel, partitions=engine.partitions,
                )
            else:
                all_pass, triangles = _verify_candidate_dict(
                    subgraph, k, theta, n_samples, engine_rng
                )
            if not all_pass:
                continue

            edge_key = frozenset(canonical_edge(u, v) for u, v, _ in subgraph.edges())
            if edge_key in seen_solutions:
                continue
            seen_solutions.add(edge_key)
            solutions.append(
                ProbabilisticNucleus(
                    k=k,
                    theta=theta,
                    mode="global",
                    subgraph=subgraph,
                    triangles=frozenset(triangles),
                )
            )
    finally:
        if pool is not None:
            pool.close()
    return _keep_maximal(solutions)


def _keep_maximal(solutions: list[ProbabilisticNucleus]) -> list[ProbabilisticNucleus]:
    """Drop verified candidates whose triangle set is strictly contained in another.

    Definition 5 asks for *maximal* subgraphs; because Algorithm 2 grows one
    candidate per seed triangle, the same dense region is often reported
    several times at different extents.  Keeping only the set-maximal
    candidates matches the definition and removes the redundancy.
    """
    maximal: list[ProbabilisticNucleus] = []
    for candidate in solutions:
        if any(
            candidate.triangles < other.triangles
            for other in solutions
            if other is not candidate
        ):
            continue
        maximal.append(candidate)
    return maximal
