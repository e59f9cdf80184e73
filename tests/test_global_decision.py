"""Decision-aware global verification: exact bounds, unchanged decisions.

Global verification only needs one yes/no answer per candidate — does every
triangle reach ``θ·n`` nucleus-worlds? — so
:func:`repro.sampling.world_matrix.decide_global_counts` rejects as soon as
an exact upper bound settles it.  Pinned here:

* **differential** — over ER and bundled-dataset candidates × k × θ
  (including θ exactly at a triangle's estimate, the tie case), the bounded
  decision equals ``np.all(global_triangle_counts(...) / n >= θ)`` — those
  counts themselves checked against the per-world nucleus mask — the
  counts it returns on a pass are the exact counts (lower bounds when only
  the decision is asked for), and the bounds it returns on a reject are
  upper bounds; likewise for the fixed-sampling verifier, the partitioned
  sampler, the compiled kernel (interpreted) and a shard pool;
* **adaptive parity** — ``adaptive_global_verify`` returns the same
  ``(passes, AdaptiveOutcome)`` as the sequential test run on exact counts
  at the same seed;
* **closure** — the incremental ``candidate_closure`` returns the clique
  set of the recompute-every-round reference;
* **regression pin** — the flickr point of the benchmark's global-cliff
  workload runs at most 200 connectivity checks (7,362 when every count was
  computed) and finds the same nucleus.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from graph_factories import bundled_graph, small_er_graph
from repro.core.global_nucleus import (
    _cliques_to_subgraph,
    _verify_candidate_matrix,
    candidate_closure,
    global_nucleus_decomposition,
    union_of_nuclei,
)
from repro.core.local import local_nucleus_decomposition
from repro.deterministic.cliques import triangle_clique_index, triangles_of_clique
from repro.experiments.datasets import dataset_spec
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.kernels import force_interpreted
from repro.obs import capture
from repro.obs.metrics import REGISTRY
from repro.sampling.adaptive import (
    AdaptiveOutcome,
    AdaptiveSettings,
    adaptive_global_verify,
    decision_radius,
    stage_delta,
)
from repro.sampling.partitioned import (
    partitioned_global_counts,
    partitioned_global_decision,
)
from repro.sampling.world_matrix import (
    CandidateWorldIndex,
    WorldShardPool,
    count_needed,
    decide_global_counts,
    global_triangle_counts,
    nucleus_world_mask,
    structure_presence,
)

N_WORLDS = 60


def fixed_need(n_worlds: int, theta: float) -> int:
    return count_needed(np.arange(n_worlds + 1) / n_worlds >= theta)


def closure_candidates(graph, k: int, limit: int = 4) -> list[ProbabilisticGraph]:
    """Distinct Algorithm 2 candidates of ``graph`` (closures inside its local nuclei)."""
    nuclei = local_nucleus_decomposition(graph, 0.1, backend="csr").nuclei(k)
    if not nuclei:
        return []
    union = union_of_nuclei(nuclei)
    by_triangle, _ = triangle_clique_index(union)
    seen: set[frozenset] = set()
    found = []
    for seed_triangle in by_triangle:
        cliques = frozenset(candidate_closure(union, seed_triangle, k, by_triangle))
        if cliques and cliques not in seen:
            seen.add(cliques)
            found.append(_cliques_to_subgraph(graph, cliques))
            if len(found) == limit:
                break
    return found


def cliques_sharing_an_edge(probability: float = 0.85) -> ProbabilisticGraph:
    """Two 5-cliques sharing one edge (no triangle): often disconnected worlds."""
    graph = ProbabilisticGraph()
    for members in ((0, 1, 2, 3, 4), (3, 4, 5, 6, 7)):
        for u, v in combinations(members, 2):
            if not graph.has_edge(u, v):
                graph.add_edge(u, v, probability)
    return graph


@pytest.fixture(scope="module")
def candidate_graphs() -> list[ProbabilisticGraph]:
    found = [
        small_er_graph(9, 0.8, seed=seed, probabilities=(0.6, 1.0)) for seed in range(3)
    ]
    found.append(cliques_sharing_an_edge())
    for name in ("krogan", "flickr"):
        graph = bundled_graph(name)
        for k in (1, 2):
            found.extend(closure_candidates(graph, k))
    return found


@pytest.fixture(scope="module")
def candidates(candidate_graphs) -> list[CandidateWorldIndex]:
    indices = [CandidateWorldIndex.from_graph(graph) for graph in candidate_graphs]
    return [index for index in indices if index.num_cliques]


def mask_counts(index: CandidateWorldIndex, worlds: np.ndarray, k: int) -> np.ndarray:
    """Exact counts from the per-world nucleus mask (pinned to ``is_k_nucleus``)."""
    tri_present, _ = structure_presence(index, worlds)
    return tri_present[nucleus_world_mask(index, worlds, k)].sum(axis=0)


def thetas_for(exact: np.ndarray, n_worlds: int) -> list[float]:
    """The sweep's θ grid plus ties: θ exactly at, and just above, an estimate."""
    ties = [c / n_worlds for c in np.unique(exact)[:4].tolist()]
    return [0.0, 0.3, 1.0, *ties, *(np.nextafter(t, 2.0) for t in ties)]


class TestBoundedDecision:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_exact_counts(self, candidates, k):
        rejects = 0
        for case, index in enumerate(candidates):
            worlds = index.sample(N_WORLDS, seed=100 + case)
            exact = global_triangle_counts(index, worlds, k)
            assert np.array_equal(exact, mask_counts(index, worlds, k)), (case, k)
            for theta in thetas_for(exact, N_WORLDS):
                passes = bool(np.all(exact / N_WORLDS >= theta))
                counts, rejected = decide_global_counts(
                    index, worlds, k, fixed_need(N_WORLDS, theta)
                )
                assert rejected == (not passes), (case, k, theta)
                if rejected:
                    rejects += 1
                    assert np.all(counts >= exact), (case, k, theta)
                else:
                    assert np.array_equal(counts, exact), (case, k, theta)
                lower, rejected = decide_global_counts(
                    index, worlds, k, fixed_need(N_WORLDS, theta), exact_counts=False
                )
                assert rejected == (not passes), (case, k, theta)
                if not rejected:
                    assert np.all(lower <= exact), (case, k, theta)
        assert rejects, "the sweep never exercised a rejection"

    @pytest.mark.parametrize("partitions", [1, 3])
    def test_fixed_verifier_matches_exact_threshold(self, candidate_graphs, partitions):
        for case, graph in enumerate(candidate_graphs[::2]):
            index = CandidateWorldIndex.from_graph(graph)
            for k in (1, 2):
                if partitions == 1:
                    exact = global_triangle_counts(index, index.sample(N_WORLDS, seed=case), k)
                else:
                    exact = partitioned_global_counts(
                        index, N_WORLDS, k, seed=case, partitions=partitions
                    )
                for theta in thetas_for(exact, N_WORLDS):
                    passes, _ = _verify_candidate_matrix(
                        graph, k, theta, N_WORLDS, np.random.default_rng(case), None,
                        partitions=partitions,
                    )
                    assert passes == bool(np.all(exact / N_WORLDS >= theta)), (case, k, theta)

    def test_per_triangle_need_matches_exact_counts(self, candidates):
        rng = np.random.default_rng(3)
        for case, index in enumerate(candidates):
            worlds = index.sample(N_WORLDS, seed=case)
            exact = global_triangle_counts(index, worlds, 1)
            for _ in range(5):
                need = rng.integers(0, N_WORLDS // 2, size=index.num_triangles)
                counts, rejected = decide_global_counts(index, worlds, 1, need)
                assert rejected == bool(np.any(exact < need)), case
                if not rejected:
                    assert np.array_equal(counts, exact), case

    @pytest.mark.parametrize("k", [1, 2])
    def test_partitioned_decision_matches_its_counts(self, candidates, k):
        for case, index in enumerate(candidates):
            exact = partitioned_global_counts(index, N_WORLDS, k, seed=case, partitions=3)
            for theta in thetas_for(exact, N_WORLDS):
                counts, rejected = partitioned_global_decision(
                    index, N_WORLDS, k, fixed_need(N_WORLDS, theta), seed=case, partitions=3
                )
                assert rejected == (not np.all(exact / N_WORLDS >= theta)), (case, theta)
                if not rejected:
                    assert np.array_equal(counts, exact), (case, theta)

    def test_compiled_kernel_and_shards_decide_alike(self, candidates):
        picked = candidates[::3]
        with WorldShardPool(2) as pool, force_interpreted():
            for case, index in enumerate(picked):
                worlds = index.sample(N_WORLDS, seed=case)
                exact = global_triangle_counts(index, worlds, 2)
                for theta in thetas_for(exact, N_WORLDS):
                    need = fixed_need(N_WORLDS, theta)
                    reference = decide_global_counts(index, worlds, 2, need)
                    for variant in (
                        decide_global_counts(index, worlds, 2, need, kernel="numba"),
                        decide_global_counts(index, worlds, 2, need, pool=pool),
                    ):
                        assert variant[1] == reference[1], (case, theta)
                        if not variant[1]:
                            assert np.array_equal(variant[0], exact), (case, theta)

    def test_bound_rejects_are_counted_by_stage(self, candidates):
        index = candidates[0]
        worlds = index.sample(N_WORLDS, seed=0)
        with capture(enable=True):
            presence = REGISTRY.counter("repro_sampling_bound_rejects_total", stage="presence")
            before = presence.value
            _, rejected = decide_global_counts(index, worlds, 1, N_WORLDS + 1)
            assert rejected and presence.value == before + 1


def exact_adaptive(index, k, theta, settings, seed):
    """The sequential test of ``adaptive_global_verify`` on exact counts only."""
    generator = np.random.default_rng(seed)
    counts = np.zeros(index.num_triangles, dtype=np.int64)
    drawn = 0
    for stage, chunk in enumerate(settings.schedule(), start=1):
        worlds = index.sample(chunk, rng=generator)
        counts += global_triangle_counts(index, worlds, k)
        drawn += chunk
        means = counts / drawn
        radius = decision_radius(drawn, means, stage_delta(settings.delta, stage))
        if np.any(means + radius < theta):
            return False, AdaptiveOutcome(worlds=drawn, chunks=stage, early_stop=True)
        if np.all(means - radius >= theta):
            return True, AdaptiveOutcome(worlds=drawn, chunks=stage, early_stop=True)
    passes = bool(np.all(counts / drawn >= theta))
    return passes, AdaptiveOutcome(worlds=drawn, chunks=stage, early_stop=False)


class TestAdaptiveParity:
    SETTINGS = (
        AdaptiveSettings(n_worlds_max=120),
        AdaptiveSettings(n_worlds_max=40, chunk_initial=8, confidence=0.5),
    )

    @pytest.mark.parametrize("settings", SETTINGS, ids=["default-chunks", "short-cap"])
    def test_matches_exact_sequential_test(self, candidates, settings):
        endings = set()
        for case, index in enumerate(candidates):
            for k in (1, 2):
                for theta in (0.05, 0.2, 0.35, 0.6):
                    for seed in (case, case + 50):
                        expected = exact_adaptive(index, k, theta, settings, seed)
                        got = adaptive_global_verify(index, k, theta, settings, seed=seed)
                        assert got == expected, (case, k, theta, seed)
                        endings.add((got[0], got[1].early_stop))
        # Every way a sequential test can end was exercised, including the
        # point-estimate reject at the cap.
        assert {(False, True), (False, False)} <= endings


def reference_closure(seed_triangle, k, by_triangle, max_rounds=None):
    """Algorithm 2's closure, recomputing every triangle's coverage each round."""
    chosen = set(by_triangle.get(seed_triangle, ()))
    rounds = 0
    while chosen:
        rounds += 1
        if max_rounds is not None and rounds > max_rounds:
            break
        coverage: dict = {}
        for clique in chosen:
            for triangle in triangles_of_clique(clique):
                coverage[triangle] = coverage.get(triangle, 0) + 1
        added = False
        for triangle in [t for t, c in coverage.items() if c < k]:
            for clique in by_triangle.get(triangle, ()):
                if clique not in chosen:
                    chosen.add(clique)
                    added = True
        if not added:
            break
    return chosen


@pytest.mark.parametrize("name", ["krogan", "flickr", "dblp"])
def test_incremental_closure_matches_reference(name):
    union = union_of_nuclei(
        local_nucleus_decomposition(bundled_graph(name), 0.1, backend="csr").nuclei(1)
    )
    by_triangle, _ = triangle_clique_index(union)
    for k in (1, 2, 3, 5):
        for max_rounds in (None, 1, 2):
            for seed_triangle in list(by_triangle)[::7]:
                assert candidate_closure(
                    union, seed_triangle, k, by_triangle, max_rounds=max_rounds
                ) == reference_closure(seed_triangle, k, by_triangle, max_rounds), (
                    name, k, max_rounds, seed_triangle,
                )


#: The one global nucleus of the flickr point below (edge set, pinned from
#: the exact-count implementation).
FLICKR_NUCLEUS = {
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (0, 9), (0, 10),
    (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 9), (1, 10),
    (2, 3), (2, 4), (2, 5), (2, 6), (2, 8), (2, 9), (2, 10),
    (3, 4), (3, 5), (3, 6), (3, 7), (3, 8), (3, 9), (3, 10),
    (4, 5), (4, 6), (4, 7), (4, 8), (4, 9), (4, 10),
    (5, 6), (5, 7), (5, 8), (5, 9), (5, 10),
    (6, 7), (6, 8), (6, 9), (6, 10), (7, 8), (7, 9), (8, 9), (8, 10),
}


def test_flickr_cliff_runs_few_connectivity_checks():
    graph = dataset_spec("flickr", "tiny").generator_spec.build(seed=37)
    with capture(enable=True):
        checks = REGISTRY.counter("repro_sampling_connectivity_checks_total")
        before = checks.value
        nuclei = global_nucleus_decomposition(graph, k=2, theta=0.3, backend="csr", seed=2)
        ran = checks.value - before
    assert ran <= 200, f"{ran} connectivity checks (exact counting ran 7,362)"
    edge_sets = [{tuple(sorted((u, v))) for u, v, _ in n.subgraph.edges()} for n in nuclei]
    assert edge_sets == [FLICKR_NUCLEUS]
