"""The (k, η)-core and (k, γ)-truss baselines against their dict-heap oracles.

Both baselines run on the array peel engine of :mod:`repro.core.peel`
over (1, 2) and (2, 3) incidences.  ``baseline_oracles`` keeps the
library's former dict-heap loops verbatim; every case here asserts equal
scores: the bundled datasets, the γ sentinel, a §5.3 estimator (which the
engine peels by lazy-heap replay), θ = 1, and a tier-2 sweep over random
mixed-certainty graphs.
"""

from __future__ import annotations

import pytest

import baseline_oracles as oracle
from graph_factories import mixed_certainty_graph
from repro.baselines import (
    eta_degrees,
    probabilistic_core_decomposition,
    probabilistic_truss_decomposition,
)
from repro.core.approximations import DynamicProgrammingEstimator, PoissonEstimator
from repro.core.hybrid import HybridEstimator
from repro.core.support_dp import NO_VALID_K
from repro.exceptions import InvalidParameterError
from repro.experiments.datasets import DATASET_NAMES, load_dataset
from repro.graph.probabilistic_graph import ProbabilisticGraph


def assert_parity(graph: ProbabilisticGraph, theta: float, estimator_cls=None) -> None:
    """Core and truss scores equal the oracle loops' (fresh estimators each)."""

    def fresh():
        return None if estimator_cls is None else estimator_cls()

    assert probabilistic_core_decomposition(
        graph, theta, fresh()
    ) == oracle.probabilistic_core_decomposition(graph, theta, fresh()), ("core", theta)
    assert probabilistic_truss_decomposition(
        graph, theta, fresh()
    ) == oracle.probabilistic_truss_decomposition(graph, theta, fresh()), ("truss", theta)


@pytest.mark.parametrize("name", DATASET_NAMES)
@pytest.mark.parametrize("theta", [0.0, 0.01, 0.3, 1.0])
def test_bundled_datasets(name, theta):
    assert_parity(load_dataset(name, scale="tiny"), theta)


@pytest.mark.parametrize("estimator_cls", [PoissonEstimator, HybridEstimator])
def test_approximate_estimators_replay_the_heap(estimator_cls):
    assert_parity(load_dataset("krogan", scale="tiny"), 0.3, estimator_cls)


def test_gamma_above_an_edge_probability_gives_the_sentinel():
    graph = mixed_certainty_graph(3)
    assert NO_VALID_K in probabilistic_truss_decomposition(graph, 0.5).values()
    assert_parity(graph, 0.5)


@pytest.mark.parametrize("eta", [0.0, 0.3, 1.0])
def test_eta_degrees_are_the_scalar_definition(eta):
    graph = mixed_certainty_graph(7)
    estimator = DynamicProgrammingEstimator()
    expected = {
        v: max(0, estimator.max_k(1.0, list(graph.neighbor_probabilities(v).values()), eta))
        for v in graph.vertices()
    }
    assert eta_degrees(graph, eta) == expected


@pytest.mark.parametrize("value", [-0.1, 1.5, float("nan")])
def test_invalid_thresholds_keep_their_messages(value):
    graph = mixed_certainty_graph(0)
    for run, name in (
        (probabilistic_core_decomposition, "eta"),
        (eta_degrees, "eta"),
        (probabilistic_truss_decomposition, "gamma"),
    ):
        with pytest.raises(InvalidParameterError, match=rf"^{name} must be in \[0, 1\], got"):
            run(graph, value)


def test_labels_and_empty_graphs():
    graph = ProbabilisticGraph([("b", "a", 0.9), ("a", "c", 0.8), ("c", "b", 0.7)])
    graph.add_vertex("lonely")
    assert_parity(graph, 0.3)
    assert probabilistic_core_decomposition(graph, 0.3)["lonely"] == 0
    empty = ProbabilisticGraph()
    assert probabilistic_core_decomposition(empty, 0.5) == {}
    assert probabilistic_truss_decomposition(empty, 0.5) == {}


@pytest.mark.tier2
@pytest.mark.parametrize("seed", range(150))
def test_random_mixed_graphs(seed):
    graph = mixed_certainty_graph(seed)
    for theta in (0.0, 1e-9, 0.05, 0.3, 0.7, 1.0):
        assert_parity(graph, theta)
