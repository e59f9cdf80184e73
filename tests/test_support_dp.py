"""Tests for the exact Poisson-binomial support computation (Equations 6–7)."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.support_dp import (
    NO_VALID_K,
    max_k_at_threshold,
    poisson_binomial_pmf,
    support_tail_probabilities,
    tail_from_pmf,
)
from repro.exceptions import InvalidParameterError

probability_lists = st.lists(st.floats(0.0, 1.0), min_size=0, max_size=12)


def brute_force_pmf(probabilities: list[float]) -> list[float]:
    """Reference pmf computed by enumerating all outcome combinations."""
    n = len(probabilities)
    pmf = [0.0] * (n + 1)
    for outcome in itertools.product((0, 1), repeat=n):
        probability = 1.0
        for bit, p in zip(outcome, probabilities):
            probability *= p if bit else (1.0 - p)
        pmf[sum(outcome)] += probability
    return pmf


class TestPoissonBinomialPmf:
    def test_empty_profile(self):
        assert poisson_binomial_pmf([]) == [1.0]

    def test_single_bernoulli(self):
        assert poisson_binomial_pmf([0.3]) == pytest.approx([0.7, 0.3])

    def test_two_bernoullis(self):
        pmf = poisson_binomial_pmf([0.5, 0.5])
        assert pmf == pytest.approx([0.25, 0.5, 0.25])

    def test_identical_probabilities_match_binomial(self):
        p, n = 0.3, 8
        pmf = poisson_binomial_pmf([p] * n)
        for k in range(n + 1):
            expected = math.comb(n, k) * p ** k * (1 - p) ** (n - k)
            assert pmf[k] == pytest.approx(expected)

    def test_matches_brute_force(self):
        probabilities = [0.1, 0.5, 0.9, 0.33]
        assert poisson_binomial_pmf(probabilities) == pytest.approx(
            brute_force_pmf(probabilities)
        )

    def test_invalid_probability_rejected(self):
        with pytest.raises(InvalidParameterError):
            poisson_binomial_pmf([0.5, 1.5])
        with pytest.raises(InvalidParameterError):
            poisson_binomial_pmf([-0.1])

    @given(probabilities=probability_lists)
    @settings(max_examples=60, deadline=None)
    def test_pmf_sums_to_one(self, probabilities):
        pmf = poisson_binomial_pmf(probabilities)
        assert sum(pmf) == pytest.approx(1.0)
        assert all(value >= 0.0 for value in pmf)

    @given(probabilities=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_pmf_mean_matches_sum_of_probabilities(self, probabilities):
        pmf = poisson_binomial_pmf(probabilities)
        mean = sum(k * p for k, p in enumerate(pmf))
        assert mean == pytest.approx(sum(probabilities), abs=1e-9)


class TestTails:
    def test_tail_from_pmf(self):
        tails = tail_from_pmf([0.25, 0.5, 0.25])
        assert tails == pytest.approx([1.0, 0.75, 0.25])

    def test_support_tail_starts_at_one(self):
        tails = support_tail_probabilities([0.4, 0.6])
        assert tails[0] == pytest.approx(1.0)

    def test_certain_prefix_is_exactly_one(self):
        # Summed in this order the pmf reaches 0.9999999999999999, not 1.
        uncertain = [0.416, 0.896, 0.088, 0.967, 0.512, 0.922, 0.838, 0.969]
        assert support_tail_probabilities(uncertain)[0] == 1.0
        tails = support_tail_probabilities([1.0, *uncertain, 1.0])
        assert tails[:3] == [1.0, 1.0, 1.0]
        assert tails[3] < 1.0

    @given(probabilities=probability_lists)
    @settings(max_examples=60, deadline=None)
    def test_tails_are_monotone_non_increasing(self, probabilities):
        tails = support_tail_probabilities(probabilities)
        assert all(a >= b - 1e-12 for a, b in zip(tails, tails[1:]))
        assert all(0.0 <= t <= 1.0 for t in tails)


class TestMaxKAtThreshold:
    def test_certain_cliques(self):
        # three certain 4-cliques and a certain triangle: kappa = 3 at any theta <= 1
        assert max_k_at_threshold(1.0, [1.0, 1.0, 1.0], 0.9) == 3

    def test_triangle_below_threshold(self):
        assert max_k_at_threshold(0.2, [1.0, 1.0], 0.5) == NO_VALID_K

    def test_zero_theta_gives_full_support(self):
        assert max_k_at_threshold(0.5, [0.5, 0.5], 0.0) == 2

    def test_no_cliques(self):
        assert max_k_at_threshold(0.9, [], 0.5) == 0
        assert max_k_at_threshold(0.4, [], 0.5) == NO_VALID_K

    def test_rounding_cannot_undercut_the_no_clique_score(self):
        # A triangle that qualifies at k = 0 with no cliques still does with
        # some: κ must not rise as cliques die.
        uncertain = [0.416, 0.896, 0.088, 0.967, 0.512, 0.922, 0.838, 0.969]
        assert max_k_at_threshold(0.7, [], 0.7) == 0
        assert max_k_at_threshold(0.7, uncertain, 0.7) == 0

    def test_paper_example1(self):
        """Example 1: triangle (1,3,5) in the 4-clique {1,2,3,5} has
        Pr(X >= 1) = 0.5 >= theta = 0.42."""
        assert max_k_at_threshold(0.5, [1.0], 0.42) == 1
        assert max_k_at_threshold(0.5, [1.0], 0.6) == NO_VALID_K

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            max_k_at_threshold(0.5, [0.5], 1.5)
        with pytest.raises(InvalidParameterError):
            max_k_at_threshold(1.5, [0.5], 0.5)

    @given(
        triangle_probability=st.floats(0.0, 1.0),
        probabilities=probability_lists,
        theta=st.floats(0.0, 1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_definition_of_max_k(self, triangle_probability, probabilities, theta):
        """The returned k is the largest index whose tail clears theta; k+1 must fail."""
        tails = support_tail_probabilities(probabilities)
        k = max_k_at_threshold(triangle_probability, probabilities, theta)
        if k == NO_VALID_K:
            assert triangle_probability * tails[0] < theta
        else:
            assert triangle_probability * tails[k] >= theta
            if k + 1 < len(tails):
                assert triangle_probability * tails[k + 1] < theta

    @given(
        probabilities=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=10),
        theta_low=st.floats(0.01, 0.5),
        theta_high=st.floats(0.5, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_theta(self, probabilities, theta_low, theta_high):
        """Raising theta can only lower (or keep) the achievable k."""
        low = max_k_at_threshold(1.0, probabilities, theta_low)
        high = max_k_at_threshold(1.0, probabilities, theta_high)
        assert high <= low

    @given(probabilities=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_clique_removal(self, probabilities):
        """Removing a supporting 4-clique can lower the achievable k by at most one."""
        theta = 0.3
        full = max_k_at_threshold(1.0, probabilities, theta)
        reduced = max_k_at_threshold(1.0, probabilities[:-1], theta)
        assert reduced <= full
        assert reduced >= full - 1
