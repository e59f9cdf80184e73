"""Weakly-global probabilistic nucleus decomposition (w-NuDecomp, Algorithm 3).

The weakly-global model relaxes the global one: a possible world counts for a
triangle when it merely *contains* a deterministic k-nucleus that includes
the triangle (rather than being one in its entirety).  Computing the
decomposition exactly is NP-hard (Theorem 4.2, reduction from k-clique), so
Algorithm 3 approximates it:

1. every w-(k, θ)-nucleus is an ℓ-(k, θ)-nucleus, so each local nucleus is
   used as a candidate;
2. ``n`` possible worlds of the candidate are sampled;
3. each world is decomposed with the *deterministic* nucleus algorithm; a
   triangle's global score counts the worlds in which it belongs to some
   deterministic k-nucleus;
4. the triangles whose estimated probability reaches θ are grouped into
   4-clique-connected components, which are reported as the weakly-global
   nuclei.
"""

from __future__ import annotations

import random

import numpy as np

from repro.core.approximations import SupportEstimator
from repro.core.local import local_nucleus_decomposition
from repro.core.options import EngineOptions
from repro.core.result import LocalNucleusDecomposition, ProbabilisticNucleus
from repro.deterministic.cliques import (
    Triangle,
    triangle_clique_index,
    triangle_connected_components,
)
from repro.deterministic.nucleus import (
    k_nucleus_triangle_groups,
    nucleus_decomposition,
    triangles_to_edge_subgraph,
)
from repro.exceptions import InvalidParameterError
from repro.graph.possible_worlds import sample_world
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.sampling.adaptive import AdaptiveSettings, adaptive_weak_scores
from repro.sampling.monte_carlo import hoeffding_sample_size
from repro.sampling.partitioned import partitioned_weak_counts
from repro.sampling.sharding import _require_positive_int
from repro.sampling.world_matrix import (
    CandidateWorldIndex,
    WorldShardPool,
    weak_membership_counts,
)

__all__ = [
    "weak_nucleus_decomposition",
    "triangle_weak_scores",
    "triangle_weak_scores_matrix",
]


def triangle_weak_scores(
    candidate: ProbabilisticGraph,
    k: int,
    n_samples: int,
    rng: random.Random,
) -> dict[Triangle, float]:
    """Estimate ``Pr(X_{H,△,w} ≥ k)`` for every triangle of a candidate subgraph.

    Samples ``n_samples`` possible worlds of ``candidate``; in each world the
    deterministic nucleus decomposition identifies the triangles belonging to
    some k-nucleus, and each such triangle's counter is incremented
    (Algorithm 3, lines 5–9).  The returned dictionary maps every triangle of
    the candidate (not just the ones that ever scored) to its estimate.
    """
    if n_samples <= 0:
        raise InvalidParameterError(f"n_samples must be positive, got {n_samples}")
    by_triangle, _ = triangle_clique_index(candidate)
    counts: dict[Triangle, int] = {t: 0 for t in by_triangle}

    for _ in range(n_samples):
        world = sample_world(candidate, rng=rng)
        world_scores = nucleus_decomposition(world)
        groups = k_nucleus_triangle_groups(world, k, nucleusness=world_scores)
        for group in groups:
            for triangle in group:
                if triangle in counts:
                    counts[triangle] += 1
    return {t: c / n_samples for t, c in counts.items()}


def triangle_weak_scores_matrix(
    candidate: ProbabilisticGraph,
    k: int,
    n_samples: int,
    rng: "np.random.Generator | random.Random | None" = None,
    seed: int | None = None,
    pool: WorldShardPool | None = None,
    kernel: str = "numpy",
    partitions: int = 1,
) -> dict[Triangle, float]:
    """World-matrix counterpart of :func:`triangle_weak_scores`.

    Samples all ``n_samples`` worlds of ``candidate`` at once as a boolean
    edge matrix and counts per-triangle k-nucleus membership batch-wise
    (:func:`repro.sampling.world_matrix.weak_membership_counts`), optionally
    sharding the matrix across a :class:`WorldShardPool`.  The per-world
    membership rule is identical to the dict path; only the sampled stream
    differs (numpy bits instead of ``random.Random`` bits), so the two
    estimators agree in distribution.  ``kernel="numba"`` runs the compiled
    per-world peel (:mod:`repro.kernels.worlds`); ``partitions > 1`` samples
    the candidate's edge range one partition block at a time
    (:func:`repro.sampling.partitioned.partitioned_weak_counts`) so the
    worlds matrix is never materialized.
    """
    if n_samples <= 0:
        raise InvalidParameterError(f"n_samples must be positive, got {n_samples}")
    index = CandidateWorldIndex.from_graph(candidate)
    if partitions > 1:
        counts = partitioned_weak_counts(
            index, n_samples, k, rng=rng, seed=seed,
            partitions=partitions, pool=pool, kernel=kernel,
        )
    else:
        worlds = index.sample(n_samples, rng=rng, seed=seed)
        counts = weak_membership_counts(index, worlds, k, pool=pool, kernel=kernel)
    return {
        triangle: count / n_samples
        for triangle, count in zip(index.triangle_labels(), counts.tolist())
    }


def _qualifying_triangles_adaptive(
    candidate: ProbabilisticGraph,
    k: int,
    theta: float,
    settings: AdaptiveSettings,
    rng: "np.random.Generator",
    pool: WorldShardPool | None = None,
    kernel: str = "numpy",
) -> tuple[dict[Triangle, float], set[Triangle]]:
    """Sequential counterpart of the score-then-threshold step of Algorithm 3.

    Returns ``(scores, qualifying)`` where ``qualifying`` is decided by the
    anytime-valid confidence bounds of
    :func:`repro.sampling.adaptive.adaptive_weak_scores` rather than by
    thresholding the point estimates, so easy candidates stop after a few
    chunks.
    """
    index = CandidateWorldIndex.from_graph(candidate)
    estimates, qualifying, _ = adaptive_weak_scores(
        index, k, theta, settings, rng=rng, pool=pool, kernel=kernel
    )
    labels = index.triangle_labels()
    scores = dict(zip(labels, estimates.tolist()))
    chosen = {label for label, keep in zip(labels, qualifying.tolist()) if keep}
    return scores, chosen


def weak_nucleus_decomposition(
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
    """Find (approximate) w-(k, θ)-nuclei of ``graph`` via Algorithm 3.

    Parameters mirror
    :func:`repro.core.global_nucleus.global_nucleus_decomposition`; the
    returned nuclei carry ``mode="weakly-global"``.  The ``**engine`` knobs
    of :class:`~repro.core.options.EngineOptions` pick the Monte-Carlo
    scorer of each candidate: one dict world at a time
    (:func:`triangle_weak_scores`), one world matrix
    (:func:`triangle_weak_scores_matrix`, optionally sharded or partitioned),
    or the sequential test of :mod:`repro.sampling.adaptive`, which keeps
    drawing chunks until every triangle's θ decision is settled.
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
    candidates = local_result.nuclei(k)

    solutions: list[ProbabilisticNucleus] = []
    pool = WorldShardPool(engine.n_jobs) if engine.n_jobs > 1 else None
    try:
        for candidate in candidates:
            subgraph = candidate.subgraph
            if adaptive is not None:
                scores, qualifying = _qualifying_triangles_adaptive(
                    subgraph, k, theta, adaptive, engine_rng, pool=pool, kernel=kernel
                )
            elif engine.backend == "csr":
                scores = triangle_weak_scores_matrix(
                    subgraph, k, n_samples, rng=engine_rng, pool=pool,
                    kernel=kernel, partitions=engine.partitions,
                )
                qualifying = {t for t, score in scores.items() if score >= theta}
            else:
                scores = triangle_weak_scores(subgraph, k, n_samples, engine_rng)
                qualifying = {t for t, score in scores.items() if score >= theta}
            if not qualifying:
                continue
            by_triangle, by_clique = triangle_clique_index(subgraph)
            allowed = {
                clique
                for clique, members in by_clique.items()
                if all(t in qualifying for t in members)
            }
            covered = {
                t for t in qualifying
                if any(c in allowed for c in by_triangle.get(t, ()))
            }
            if not covered:
                continue
            components = triangle_connected_components(covered, by_triangle, allowed)
            for component in components:
                solutions.append(
                    ProbabilisticNucleus(
                        k=k,
                        theta=theta,
                        mode="weakly-global",
                        subgraph=triangles_to_edge_subgraph(graph, component),
                        triangles=frozenset(component),
                    )
                )
    finally:
        if pool is not None:
            pool.close()
    return solutions
