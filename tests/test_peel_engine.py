"""Tests for the array-native peel engine (repro.core.peel) and its helpers.

Pins the tentpole guarantees: the level-synchronous engine produces exactly
the dict backend's scores on every edge case (empty graph, triangle-free
graph, θ = 1, θ → 0, all-sentinel graphs) and on a dense planted graph
whose levels take many rounds — checked against both the dict reference
loop and the compiled bucket queue run interpreted — the
:class:`KappaRepair` hooks plug interchangeably into the same loop, the
padded row gather of :mod:`repro.core.batch` keeps postings in order, and
the shared :class:`~repro.peeling.LazyMinHeap` implements the
lazy-deletion protocol the dict-backend loops rely on.  A tier-2 sweep
repeats the differential check over the bundled datasets and random
graphs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import (
    NARROW_WIDTH,
    _dp_tails,
    batched_initial_kappas,
    build_triangle_extension_index,
    padded_row_groups,
)
from repro.core.local import (
    BACKENDS,
    _peel_states,
    _TriangleState,
    local_nucleus_decomposition,
)
from repro.core.peel import (
    EstimatorKappaRepair,
    KappaRepair,
    MonteCarloKappaRepair,
    peel_kappa_scores,
)
from repro.core.approximations import DynamicProgrammingEstimator
from repro.core.support_dp import (
    NO_VALID_K,
    max_k_at_threshold,
    support_tail_probabilities,
)
from repro.deterministic.nucleus import nucleus_decomposition
from repro.exceptions import InvalidParameterError
from repro.experiments.datasets import DATASET_NAMES, load_dataset
from repro.graph.generators import clique_graph, planted_nucleus_graph
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.kernels import force_interpreted
from repro.obs import capture as obs_capture
from repro.obs.metrics import REGISTRY as obs_registry
from repro.peeling import LazyMinHeap
from graph_factories import mixed_certainty_graph


def engine_scores(graph: ProbabilisticGraph, theta: float, repair=None) -> dict:
    """Run the engine directly on the flat arrays and map scores to labels."""
    csr = graph.to_csr()
    index = build_triangle_extension_index(csr)
    estimator = DynamicProgrammingEstimator()
    kappas = batched_initial_kappas(index, theta, estimator)
    if repair is None:
        repair = EstimatorKappaRepair(estimator, index.triangle_probabilities, theta)
    scores = peel_kappa_scores(index, kappas, repair)
    labels = csr.vertex_labels
    return {
        (labels[u], labels[v], labels[w]): score
        for (u, v, w), score in zip(index.triangles, scores.tolist())
    }


def reference_scores(graph: ProbabilisticGraph, theta: float) -> dict:
    """Scores of the dict reference loop (lazy min-heap, scalar DP repairs).

    :func:`~repro.core.local._peel_states` runs on states built from the
    engine's own index and initial κ, keyed by triangle row, so both peels
    see every triangle's extension probabilities in completing-vertex
    order; the comparison checks the peel loop alone, not the dict
    backend's own enumeration order, which can move a tail by an ulp.
    """
    csr = graph.to_csr()
    index = build_triangle_extension_index(csr)
    estimator = DynamicProgrammingEstimator()
    kappas = batched_initial_kappas(index, theta, estimator).tolist()
    indptr = index.tri_clique_indptr.tolist()
    cliques = index.tri_cliques.tolist()
    extensions = index.tri_extension_probabilities.tolist()
    states = {
        t: _TriangleState(
            probability=float(index.triangle_probabilities[t]),
            kappa=kappas[t],
            alive_cliques=dict(
                zip(cliques[indptr[t]:indptr[t + 1]], extensions[indptr[t]:indptr[t + 1]])
            ),
        )
        for t in range(index.num_triangles)
    }
    by_clique = dict(enumerate(index.clique_triangles.tolist()))
    scores = _peel_states(states, by_clique, estimator, theta)
    labels = csr.vertex_labels
    return {
        (labels[u], labels[v], labels[w]): scores[t]
        for t, (u, v, w) in enumerate(index.triangles)
    }


def bucket_queue_scores(graph: ProbabilisticGraph, theta: float) -> dict:
    """Scores of the compiled bucket-queue kernel, run interpreted."""
    with force_interpreted():
        return local_nucleus_decomposition(
            graph, theta, backend="csr", kernel="numba"
        ).scores


def with_certain_edges(
    graph: ProbabilisticGraph, share: float, seed: int
) -> ProbabilisticGraph:
    """Copy of ``graph`` with about ``share`` of its edges made certain."""
    rng = np.random.default_rng(seed)
    return ProbabilisticGraph(
        [(u, v, 1.0 if rng.random() < share else p) for u, v, p in graph.edges()]
    )


def planted_dense(certain_share: float) -> ProbabilisticGraph:
    """12 near-cliques of 12 vertices (intra-density 0.95) in sparse noise.

    Supports run up to 9 cliques per triangle and many levels need several
    peel rounds; ``certain_share`` of the edges are made certain so θ = 1
    does not collapse every triangle to the sentinel.
    """
    graph = planted_nucleus_graph(
        num_communities=12,
        community_size=12,
        intra_density=0.95,
        background_vertices=30,
        background_density=0.1,
        bridges_per_community=3,
        seed=5,
    )
    return with_certain_edges(graph, certain_share, seed=5)


@pytest.fixture(scope="module")
def dense_planted_graph() -> ProbabilisticGraph:
    return planted_dense(0.4)


class TestLazyMinHeap:
    def test_pops_in_value_order(self):
        heap = LazyMinHeap([(3, "c"), (1, "a"), (2, "b")])
        values = {"a": 1, "b": 2, "c": 3}
        popped = []
        while (entry := heap.pop(values.get)) is not None:
            popped.append(entry)
        assert popped == [(1, "a"), (2, "b"), (3, "c")]

    def test_stale_entries_are_refreshed(self):
        heap = LazyMinHeap([(5, "x"), (2, "y")])
        values = {"x": 3, "y": 2}  # "x" decreased after insertion
        assert heap.pop(values.get) == (2, "y")
        # The stale (5, "x") entry is re-pushed with the fresh value and
        # returned once it is current.
        assert heap.pop(values.get) == (3, "x")
        assert heap.pop(values.get) is None

    def test_dead_items_are_dropped(self):
        heap = LazyMinHeap([(1, "dead"), (2, "alive")])
        current = lambda item: None if item == "dead" else 2  # noqa: E731
        assert heap.pop(current) == (2, "alive")
        assert not heap

    def test_push_during_drain(self):
        heap = LazyMinHeap([(1, "a")])
        values = {"a": 1, "b": 0}
        assert heap.pop(values.get) == (1, "a")
        heap.push(0, "b")
        assert len(heap) == 1
        assert heap.pop(values.get) == (0, "b")


class TestEngineMatchesDictBackend:
    """The bucket-queue engine reproduces the dict peel exactly."""

    @pytest.mark.parametrize("theta", [0.01, 0.3, 0.7])
    def test_fixture_scores(self, paper_figure1_graph, theta):
        expected = local_nucleus_decomposition(paper_figure1_graph, theta).scores
        assert engine_scores(paper_figure1_graph, theta) == expected

    def test_planted_scores(self, planted_graph):
        expected = local_nucleus_decomposition(planted_graph, 0.2).scores
        assert engine_scores(planted_graph, 0.2) == expected

    def test_scores_are_parallel_to_index_rows(self, four_clique_graph):
        csr = four_clique_graph.to_csr()
        index = build_triangle_extension_index(csr)
        estimator = DynamicProgrammingEstimator()
        kappas = batched_initial_kappas(index, 0.3, estimator)
        repair = EstimatorKappaRepair(estimator, index.triangle_probabilities, 0.3)
        scores = peel_kappa_scores(index, kappas, repair)
        assert scores.shape == (len(index.triangles),)
        assert scores.dtype == np.int64

    def test_rejects_mismatched_kappas(self, four_clique_graph):
        index = build_triangle_extension_index(four_clique_graph.to_csr())
        estimator = DynamicProgrammingEstimator()
        repair = EstimatorKappaRepair(estimator, index.triangle_probabilities, 0.3)
        with pytest.raises(InvalidParameterError):
            peel_kappa_scores(index, np.zeros(99, dtype=np.int64), repair)


class TestEdgeCases:
    """Empty, triangle-free, θ = 1, θ → 0, and all-sentinel inputs."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_graph(self, empty_graph, backend):
        result = local_nucleus_decomposition(empty_graph, 0.5, backend=backend)
        assert result.scores == {}
        assert result.max_score == -1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_triangle_free_graph(self, backend):
        path = ProbabilisticGraph([(0, 1, 0.9), (1, 2, 0.9), (2, 3, 0.9)])
        result = local_nucleus_decomposition(path, 0.2, backend=backend)
        assert result.scores == {}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_theta_one_probabilistic_graph_is_all_sentinel(
        self, four_clique_graph, backend
    ):
        # p = 0.9 edges cannot reach θ = 1, so every triangle gets −1.
        result = local_nucleus_decomposition(four_clique_graph, 1.0, backend=backend)
        assert set(result.scores.values()) == {NO_VALID_K}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_theta_one_certain_graph_keeps_full_support(
        self, five_clique_graph, backend
    ):
        # All-certain edges survive θ = 1; every triangle has support 2.
        result = local_nucleus_decomposition(five_clique_graph, 1.0, backend=backend)
        assert set(result.scores.values()) == {2}

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("theta", [0.0, 1e-12])
    def test_theta_to_zero_reduces_to_deterministic_nucleusness(self, backend, theta):
        # With θ → 0 every κ equals the residual support count, so the peel
        # is exactly the deterministic nucleus decomposition.
        graph = planted_nucleus_graph(
            num_communities=2,
            community_size=5,
            intra_density=1.0,
            background_vertices=6,
            background_density=0.2,
            bridges_per_community=2,
            seed=9,
        )
        result = local_nucleus_decomposition(graph, theta, backend=backend)
        assert result.scores == nucleus_decomposition(graph)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_triangle_sentinel(self, disconnected_graph, backend):
        # Triangle probabilities are 0.9³ ≈ 0.73 and 0.8³ ≈ 0.51, both < 0.8.
        result = local_nucleus_decomposition(disconnected_graph, 0.8, backend=backend)
        assert len(result.scores) == 2
        assert set(result.scores.values()) == {NO_VALID_K}
        assert result.nuclei(0) == []

    def test_backends_agree_on_all_edge_cases(self, empty_graph, disconnected_graph):
        for graph, theta in [
            (empty_graph, 0.4),
            (disconnected_graph, 0.8),
            (clique_graph(4, probability=0.5), 1.0),
            (clique_graph(6, probability=1.0), 0.0),
        ]:
            expected = local_nucleus_decomposition(graph, theta, backend="dict")
            actual = local_nucleus_decomposition(graph, theta, backend="csr")
            assert actual.scores == expected.scores


class TestKappaRepairHooks:
    def test_estimator_repair_name_follows_estimator(self):
        probs = np.asarray([0.5])
        repair = EstimatorKappaRepair(DynamicProgrammingEstimator(), probs, 0.3)
        assert repair.name == "dp"
        assert repair.recompute(0, [1.0, 1.0]) == 2
        assert repair.recompute(0, []) == 0

    def test_monte_carlo_exact_on_certain_extensions(self, five_clique_graph):
        # With all-certain edges the sampled tail is exact, so the MC hook
        # reproduces the DP scores bit for bit.
        expected = local_nucleus_decomposition(five_clique_graph, 0.5).scores
        csr = five_clique_graph.to_csr()
        index = build_triangle_extension_index(csr)
        repair = MonteCarloKappaRepair(
            index.triangle_probabilities, 0.5, n_samples=64, seed=7
        )
        assert engine_scores(five_clique_graph, 0.5, repair=repair) == expected

    def test_monte_carlo_close_to_dp_on_probabilistic_graph(self, planted_graph):
        exact = local_nucleus_decomposition(planted_graph, 0.2).scores
        csr = planted_graph.to_csr()
        index = build_triangle_extension_index(csr)
        repair = MonteCarloKappaRepair(
            index.triangle_probabilities, 0.2, n_samples=4000, seed=11
        )
        approximate = engine_scores(planted_graph, 0.2, repair=repair)
        assert set(approximate) == set(exact)
        for triangle, score in exact.items():
            assert abs(approximate[triangle] - score) <= 1

    def test_monte_carlo_validates_sample_count(self):
        with pytest.raises(InvalidParameterError):
            MonteCarloKappaRepair(np.asarray([0.5]), 0.3, n_samples=0)

    def test_custom_repair_plugs_into_the_loop(self, four_clique_graph):
        class SupportCountRepair(KappaRepair):
            """κ = number of surviving cliques — the θ→0 limit."""

            name = "support-count"

            def recompute(self, triangle, surviving_probabilities):
                return len(surviving_probabilities)

        csr = four_clique_graph.to_csr()
        index = build_triangle_extension_index(csr)
        sizes = np.diff(index.tri_clique_indptr)
        scores = peel_kappa_scores(index, sizes.astype(np.int64), SupportCountRepair())
        assert scores.tolist() == [
            nucleus_decomposition(four_clique_graph)[triangle]
            for triangle in sorted(nucleus_decomposition(four_clique_graph))
        ]


class TestEstimatorRepairValidation:
    @pytest.mark.parametrize("theta", [1.5, -0.1, float("nan")])
    def test_theta_outside_unit_interval_is_rejected(self, four_clique_graph, theta):
        index = build_triangle_extension_index(four_clique_graph.to_csr())
        estimator = DynamicProgrammingEstimator()
        kappas = batched_initial_kappas(index, 0.3, estimator)
        probs = index.triangle_probabilities
        with pytest.raises(InvalidParameterError, match="theta"):
            peel_kappa_scores(index, kappas, EstimatorKappaRepair(estimator, probs, theta))


DENSE_THETAS = [0.0, 1e-12, 0.3, 1.0]


class TestLevelSynchronousPeel:
    """The batched rounds against both references, on multi-round levels."""

    @pytest.mark.parametrize("certain_share, theta", [
        (0.4, 0.0), (0.4, 1e-12), (0.4, 0.3),
        # At θ = 1 the score of a certain triangle rests on the DP's exact
        # certain prefix: Pr[ζ ≥ k] = 1.0 up to its number of certain
        # cliques, however the uncertain cliques' mass rounds.
        (0.4, 1.0), (1.0, 1.0),
    ])
    def test_matches_dict_reference_loop(self, certain_share, theta):
        graph = planted_dense(certain_share)
        assert engine_scores(graph, theta) == reference_scores(graph, theta)

    @pytest.mark.parametrize("theta", DENSE_THETAS)
    def test_matches_interpreted_bucket_queue(self, dense_planted_graph, theta):
        expected = bucket_queue_scores(dense_planted_graph, theta)
        assert engine_scores(dense_planted_graph, theta) == expected

    def test_levels_take_several_rounds(self, dense_planted_graph):
        with obs_capture(enable=True) as sink:
            scores = engine_scores(dense_planted_graph, 0.3)
        (trace,) = [t for t in sink.traces() if t["name"] == "peel"]
        assert trace["attrs"]["queue"] == "rounds"
        assert trace["attrs"]["rounds"] > len(set(scores.values()))

    def test_repairs_counter_counts_rescored_rows(self, dense_planted_graph):
        class CountingRepair(EstimatorKappaRepair):
            rows = 0

            def recompute_rows(self, rows, matrix, alive_counts):
                self.rows += rows.size
                return super().recompute_rows(rows, matrix, alive_counts)

        index = build_triangle_extension_index(dense_planted_graph.to_csr())
        estimator = DynamicProgrammingEstimator()
        kappas = batched_initial_kappas(index, 0.3, estimator)
        repair = CountingRepair(estimator, index.triangle_probabilities, 0.3)
        counter = obs_registry.counter("repro_peel_repairs_total", repair="dp")
        before = counter.value
        with obs_capture(enable=True):
            peel_kappa_scores(index, kappas, repair)
        assert repair.rows > 0
        assert counter.value - before == repair.rows

    def test_custom_unit_drop_repair_uses_default_recompute_rows(
        self, dense_planted_graph
    ):
        class ScalarDPRepair(KappaRepair):
            """The exact DP one row at a time, through the default batch hook."""

            name = "scalar-dp"
            unit_drop = True

            def __init__(self, probabilities, theta):
                self.probabilities = probabilities.tolist()
                self.theta = theta
                self.calls = 0

            def recompute(self, triangle, surviving_probabilities):
                self.calls += 1
                return max_k_at_threshold(
                    self.probabilities[triangle], surviving_probabilities, self.theta
                )

        index = build_triangle_extension_index(dense_planted_graph.to_csr())
        repair = ScalarDPRepair(index.triangle_probabilities, 0.3)
        scores = engine_scores(dense_planted_graph, 0.3, repair=repair)
        assert repair.calls > 0
        assert scores == reference_scores(dense_planted_graph, 0.3)

    def test_unit_drop_support_count_is_deterministic_nucleusness(
        self, dense_planted_graph
    ):
        class SupportCountRepair(KappaRepair):
            name = "support-count"
            unit_drop = True

            def recompute(self, triangle, surviving_probabilities):
                return len(surviving_probabilities)

        csr = dense_planted_graph.to_csr()
        index = build_triangle_extension_index(csr)
        sizes = np.diff(index.tri_clique_indptr)
        scores = peel_kappa_scores(index, sizes, SupportCountRepair())
        labels = csr.vertex_labels
        expected = nucleus_decomposition(dense_planted_graph)
        assert {
            (labels[u], labels[v], labels[w]): score
            for (u, v, w), score in zip(index.triangles, scores.tolist())
        } == expected


class TestPaddedRowGroups:
    def test_survivors_keep_posting_order_then_zeros(self):
        indptr = np.array([0, 3, 3, 5])
        values = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        alive = np.array([True, False, True, True, True])
        ((group, matrix, counts),) = padded_row_groups(
            indptr, values, np.array([2, 0, 1]), alive
        )
        assert group.tolist() == [0, 1, 2]
        assert counts.tolist() == [2, 2, 0]
        assert matrix.tolist() == [[0.4, 0.5], [0.1, 0.3], [0.0, 0.0]]

    def test_width_classes_keep_hub_rows_apart(self):
        widths = [1, NARROW_WIDTH, NARROW_WIDTH + 1, 32, 33, 3]
        indptr = np.concatenate(([0], np.cumsum(widths)))
        values = np.arange(1, indptr[-1] + 1, dtype=np.float64)
        rows = np.arange(len(widths))
        shapes = {
            tuple(rows[group].tolist()): matrix.shape
            for group, matrix, _ in padded_row_groups(indptr, values, rows)
        }
        assert shapes == {(0, 1, 5): (3, 16), (2, 3): (2, 32), (4,): (1, 33)}

    def test_unpadded_groups_have_one_exact_width(self):
        widths = [2, 0, 2, 5]
        indptr = np.concatenate(([0], np.cumsum(widths)))
        values = np.arange(indptr[-1], dtype=np.float64)
        groups = padded_row_groups(indptr, values, np.arange(4), pad=False)
        # Groups come in the order of their first row.
        assert [(g.tolist(), m.tolist(), c.tolist()) for g, m, c in groups] == [
            ([0, 2], [[0.0, 1.0], [2.0, 3.0]], [2, 2]),
            ([1], [[]], [0]),
            ([3], [[4.0, 5.0, 6.0, 7.0, 8.0]], [5]),
        ]

    def test_no_rows_yield_nothing(self):
        indptr = np.array([0, 2])
        assert list(padded_row_groups(indptr, np.ones(2), np.array([], dtype=np.int64))) == []


class TestBatchedExactDP:
    """The padded vectorized DP against the scalar Equation-7 recurrence."""

    @staticmethod
    def padded_rows(seed: int):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 12, size=40)
        matrix = np.zeros((counts.size, int(counts.max()) + 3))
        for i, count in enumerate(counts):
            row = rng.uniform(0.0, 1.0, size=count)
            row[rng.random(count) < 0.3] = 1.0
            matrix[i, :count] = row
        return matrix, counts

    @pytest.mark.parametrize("seed", range(5))
    def test_tails_are_bit_identical_to_the_scalar_dp(self, seed):
        matrix, counts = self.padded_rows(seed)
        tails = _dp_tails(matrix)
        for row, count, tail in zip(matrix, counts, tails):
            expected = support_tail_probabilities(row[:count].tolist())
            assert tail[: count + 1].tolist() == expected
            assert not tail[count + 1 :].any()

    @pytest.mark.parametrize("theta", [0.0, 1e-12, 0.3, 1.0])
    def test_recompute_rows_matches_recompute(self, theta):
        matrix, counts = self.padded_rows(7)
        rng = np.random.default_rng(8)
        probabilities = np.where(rng.random(counts.size) < 0.3, 1.0, rng.random(counts.size))
        repair = EstimatorKappaRepair(DynamicProgrammingEstimator(), probabilities, theta)
        rows = np.arange(counts.size)
        expected = [repair.recompute(t, matrix[t, :c].tolist()) for t, c in zip(rows, counts)]
        assert repair.recompute_rows(rows, matrix, counts).tolist() == expected


@pytest.mark.tier2
class TestLevelSynchronousSweep:
    """Differential sweep: bundled datasets and random mixed graphs."""

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_bundled_datasets(self, name):
        graph = load_dataset(name, scale="small")
        for theta in (0.0, 0.01, 0.1, 0.3, 0.5, 0.9):
            scores = engine_scores(graph, theta)
            assert scores == bucket_queue_scores(graph, theta), theta
            assert scores == reference_scores(graph, theta), theta

    @pytest.mark.parametrize("seed", range(150))
    def test_random_mixed_graphs(self, seed):
        graph = mixed_certainty_graph(seed)
        for theta in (0.0, 1e-9, 0.05, 0.3, 0.7, 1.0):
            scores = engine_scores(graph, theta)
            assert scores == bucket_queue_scores(graph, theta), theta
            assert scores == reference_scores(graph, theta), theta
