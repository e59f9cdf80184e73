"""Array-native peeling engine shared by every probabilistic (r, s) decomposition.

Algorithm 1's peel loop — "repeatedly remove an unprocessed triangle of
minimum κ, kill every 4-clique through it, repair the κ-scores of the
affected triangles" — runs here over flat arrays rather than per-triangle
objects, and the same loop peels every member of the (r, s) family the
library ships:

* the r-clique ⇄ s-clique incidence is a
  :class:`repro.core.batch.PeelIncidence` — integer ids and parallel float
  arrays, no clique tuples, no per-row dicts or dataclasses anywhere in the
  loop.  Its (3, 4) instance :class:`~repro.core.batch.CSRTriangleIndex`
  serves the nucleus; the (k, η)-core (vertices ⇄ edges) and the
  (k, γ)-truss (edges ⇄ triangles) of :mod:`repro.baselines` build the
  (1, 2) and (2, 3) instances;
* for *unit-drop* repairs (the exact DP oracle, whose κ never rises as
  cliques die) the peel is **level-synchronous**: each round removes every
  live triangle at or below the current level at once, kills their live
  4-cliques with array operations, and re-scores all affected triangles in
  one batched :meth:`KappaRepair.recompute_rows` call — for the exact DP
  one padded run of the vectorized Equation-7 kernel of
  :mod:`repro.core.batch`; non-monotone repairs instead replay the
  reference loop's lazy-heap trajectory over integer rows, because their
  scores depend on the exact repair schedule;
* score repair is pluggable through :class:`KappaRepair`:
  :class:`EstimatorKappaRepair` wraps any
  :class:`~repro.core.approximations.SupportEstimator` (exact DP and every
  §5.3 approximation), and :class:`MonteCarloKappaRepair` estimates the
  support tail by sampling — so exact, approximate, and Monte-Carlo
  recomputation all plug into the same loop.

The engine produces exactly the scores of the dict-backed reference loops:
for the exact oracle the peel value of a row is the generalized-core
number of a monotone local score function, independent of the order in
which minimum rows are peeled (so peeling a whole level per round
changes nothing), and zero-probability padding leaves every DP tail
bit-identical; for the approximations the trajectory itself is replicated.
θ = 1 is no exception: the exact DP sets ``Pr[ζ ≥ k]`` to exactly 1.0 up to
the number of certain columns, so a certain row's tail cannot round below
1 and flip across θ as uncertain columns die (``docs/ARCHITECTURE.md``).
The surviving pair values are kept in posting order, the same
(completing-vertex) order as the dict state on the CSR path.
``tests/test_peel_engine.py``, ``tests/test_backend_parity.py`` and
``tests/test_baseline_parity.py`` pin the parity on every fixture,
estimator, and randomized graph sweeps.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from collections.abc import Sequence

import numpy as np

from repro.core.approximations import DynamicProgrammingEstimator, SupportEstimator
from repro.core.batch import (
    CSRTriangleIndex,
    PeelIncidence,
    _dp_tails,
    _max_k_from_tails,
    padded_row_groups,
)
from repro.core.support_dp import NO_VALID_K
from repro.deterministic.cliques import concatenated_rows
from repro.exceptions import InvalidParameterError
from repro.kernels import record_dispatch, resolve_kernel
from repro.obs import config as obs_config
from repro.obs.metrics import REGISTRY as obs_registry
from repro.obs.spans import span
from repro.peeling import LazyMinHeap

__all__ = [
    "KappaRepair",
    "EstimatorKappaRepair",
    "MonteCarloKappaRepair",
    "peel_kappa_scores",
    "repair_kappa_scores",
]


class KappaRepair(ABC):
    """Strategy recomputing a row's κ-score from its surviving columns.

    The peel loop calls :meth:`recompute` whenever a column through an
    unprocessed row dies (a 4-clique through a triangle, for the nucleus);
    implementations see only the row id and the pair values of its
    surviving columns in posting order (for a triangle, the extension
    probabilities in completing-vertex order), and return the repaired κ —
    the largest ``k`` for which the row still satisfies the threshold
    condition, or :data:`~repro.core.support_dp.NO_VALID_K`.
    """

    #: Short identifier used in logs and benchmark reports.
    name: str = "abstract"

    #: Whether one clique death can lower this repair's κ by at most one.
    #: For the *exact* Poisson-binomial tail this always holds — dropping one
    #: Bernoulli variable ``E`` satisfies ``Pr[ζ − E ≥ k] ≥ Pr[ζ ≥ k + 1]``,
    #: so the qualifying ``k`` shrinks by at most one — and, more to the
    #: point, κ never rises as cliques die, which makes the peel scores
    #: independent of the peel order.  The peel engine then runs
    #: level-synchronous rounds with batched repairs (:meth:`recompute_rows`).
    #: The §5.3 approximations do *not* guarantee the property (e.g. the
    #: Poisson tail at rate ``λ − 1`` can undercut the exact unit-drop
    #: bound), so they leave this ``False`` and replay the reference
    #: trajectory with a repair on every death.
    unit_drop: bool = False

    @abstractmethod
    def recompute(self, triangle: int, surviving_probabilities: Sequence[float]) -> int:
        """Return the repaired κ-score of triangle row ``triangle``."""

    def recompute_rows(
        self, rows: np.ndarray, matrix: np.ndarray, alive_counts: np.ndarray
    ) -> np.ndarray:
        """Return the repaired κ-scores of triangle rows ``rows`` at once.

        ``matrix[i, :alive_counts[i]]`` holds the surviving extension
        probabilities of ``rows[i]`` in posting order; the rest of the row
        is zero padding.  The default calls :meth:`recompute` per row.
        """
        recompute = self.recompute
        return np.fromiter(
            (
                recompute(t, values[:count])
                for t, values, count in zip(
                    rows.tolist(), matrix.tolist(), alive_counts.tolist()
                )
            ),
            dtype=np.int64,
            count=rows.size,
        )


class EstimatorKappaRepair(KappaRepair):
    """Repair κ with a :class:`SupportEstimator` (exact DP or any §5.3 approximation).

    This is the hook the decomposition entry points install: it evaluates the
    same ``max_k`` the dict backend calls during its repairs, so the two
    backends score identically.  ``triangle_probabilities`` holds the
    container probability of every row (``Pr(△)`` for the nucleus).  For
    the exact DP, :meth:`recompute_rows` runs the vectorized Equation-7
    kernel of :mod:`repro.core.batch` over the whole batch; its tails are
    bit-identical to the scalar DP's.
    """

    def __init__(
        self,
        estimator: SupportEstimator,
        triangle_probabilities: np.ndarray,
        theta: float,
    ) -> None:
        if not 0.0 <= theta <= 1.0:
            raise InvalidParameterError(f"theta must be in [0, 1], got {theta}")
        self.estimator = estimator
        self.theta = theta
        self.name = estimator.name
        # Only the unmodified exact oracle is known to satisfy unit-drop;
        # subclasses may override max_k arbitrarily, so match the type
        # exactly rather than with isinstance.
        self.unit_drop = type(estimator) is DynamicProgrammingEstimator
        self._probabilities = np.asarray(triangle_probabilities, dtype=np.float64)
        self._triangle_probabilities = self._probabilities.tolist()

    def recompute(self, triangle: int, surviving_probabilities: Sequence[float]) -> int:
        return self.estimator.max_k(
            self._triangle_probabilities[triangle], surviving_probabilities, self.theta
        )

    def recompute_rows(
        self, rows: np.ndarray, matrix: np.ndarray, alive_counts: np.ndarray
    ) -> np.ndarray:
        if not self.unit_drop:
            return super().recompute_rows(rows, matrix, alive_counts)
        # Zero padding is exact (pmf·1.0 + shifted·0.0), so tails up to a
        # row's survivor count match the scalar DP bit for bit and the tails
        # past it are 0 — which qualify only at θ = 0, hence the cap.
        tails = _dp_tails(matrix)
        best = _max_k_from_tails(self._probabilities[rows], tails, self.theta)
        return np.minimum(best, alive_counts)


class MonteCarloKappaRepair(KappaRepair):
    """Repair κ by Monte-Carlo estimation of the support tail.

    Samples ``n_samples`` joint realisations of the surviving extension
    indicators and uses the empirical tail ``#{samples with ≥ k successes}/n``
    in place of the exact Poisson-binomial tail.  With all-certain extension
    probabilities the estimate is exact; otherwise it concentrates around the
    DP answer at the usual Hoeffding rate.  Deterministic for a fixed seed.
    """

    name = "monte-carlo"

    def __init__(
        self,
        triangle_probabilities: np.ndarray,
        theta: float,
        n_samples: int = 200,
        rng: np.random.Generator | None = None,
        seed: int | None = None,
    ) -> None:
        if n_samples <= 0:
            raise InvalidParameterError(f"n_samples must be positive, got {n_samples}")
        self.theta = theta
        self.n_samples = n_samples
        self._triangle_probabilities = triangle_probabilities.tolist()
        self._rng = rng if rng is not None else np.random.default_rng(seed)

    def recompute(self, triangle: int, surviving_probabilities: Sequence[float]) -> int:
        probability = self._triangle_probabilities[triangle]
        count = len(surviving_probabilities)
        if count == 0:
            return 0 if probability >= self.theta else NO_VALID_K
        draws = self._rng.random((self.n_samples, count)) < np.asarray(
            surviving_probabilities
        )
        successes = np.bincount(draws.sum(axis=1), minlength=count + 1)
        tails = np.cumsum(successes[::-1])[::-1] / self.n_samples
        best = NO_VALID_K
        for k in range(count + 1):
            if probability * float(tails[k]) >= self.theta:
                best = k
            else:
                break
        return best


def repair_kappa_scores(
    index: CSRTriangleIndex,
    base_scores: np.ndarray,
    seeds: np.ndarray,
    repair: KappaRepair,
) -> np.ndarray:
    """Repair nucleus scores after a localized change instead of re-peeling.

    ``base_scores`` are the scores of a previous :func:`peel_kappa_scores`
    run mapped onto the rows of (the possibly rebuilt) ``index``; ``seeds``
    are the rows whose κ-inputs changed — newborn triangles, and surviving
    triangles whose triangle probability or 4-clique postings differ from
    the run that produced ``base_scores`` (their ``base_scores`` entries are
    ignored).  Returns the exact score array ``peel_kappa_scores(index,
    initial_kappas, repair)`` would produce, touching only the affected
    region.

    Only *unit-drop* repairs (the exact DP oracle) are supported: their peel
    output is order-independent — triangle ``t``'s score is the largest
    ``k`` such that ``t`` survives in the maximal set ``S_k`` where every
    member's recomputed κ over the cliques staying inside ``S_k`` is ≥ k, a
    greatest fixed point that localized repair can converge to from any
    pointwise upper bound.  The repair runs in two phases:

    1. **Increase closure** — a clean triangle's score can only grow through
       a chain of score increases rooted at a seed: if ``ν_new(t) = k >
       ν_old(t)`` with ``t``'s own inputs unchanged, some 4-clique of ``t``
       has every other member at ``ν_new ≥ k`` and at least one of them is
       a seed or has itself increased past ``k`` (otherwise the same clique
       already certified ``t`` at ``k`` before the change).  The closure
       therefore grows from the seeds along 4-cliques, admitting a member
       ``m`` when ``min`` of the members' initial κ (a static upper bound
       on any new score) exceeds ``base_scores[m]`` — triangles that fail
       that test cannot increase, so everything outside the closure keeps
       ``base_scores`` as a valid upper bound.
    2. **Downward fixed point** — starting from the upper bound ``ν̂`` =
       initial κ on the closure / ``base_scores`` elsewhere, repeatedly
       re-evaluate ``f(t) = max {k ≤ ν̂(t) :`` recompute over the cliques
       whose other members all have ``ν̂ ≥ k`` is ``≥ k}``, lowering ``ν̂``
       and re-queueing affected co-members until nothing moves.  Survivor
       probabilities are gathered in posting-slice order, the same order the
       peel engine sums them, so the floating-point comparisons agree
       bit-for-bit.  The evaluation steps ``k`` down one level at a time —
       the survivor set grows as ``k`` falls, so a failed level cannot be
       skipped — except that once every posting survives, lowering ``k``
       further cannot change the recompute and the result is taken
       directly.

    ``tests/test_incremental.py`` pins equality with the full peel on
    randomized graphs and update batches.
    """
    if not repair.unit_drop:
        raise InvalidParameterError(
            "repair_kappa_scores requires a unit-drop repair (the exact DP "
            f"oracle); got {repair.name!r}, whose scores depend on the full "
            "peel trajectory"
        )
    num_triangles = index.num_triangles
    base_scores = np.asarray(base_scores, dtype=np.int64)
    if base_scores.shape != (num_triangles,):
        raise InvalidParameterError(
            "base_scores must be parallel to index.triangles "
            f"(expected shape ({num_triangles},), got {base_scores.shape})"
        )
    scores = base_scores.copy()
    seeds = np.unique(np.asarray(seeds, dtype=np.int64).reshape(-1))
    if seeds.size == 0:
        return scores
    if seeds[0] < 0 or seeds[-1] >= num_triangles:
        raise InvalidParameterError(
            f"seed rows must lie in [0, {num_triangles}), got "
            f"[{int(seeds[0])}, {int(seeds[-1])}]"
        )

    nu: list[int] = scores.tolist()
    base: list[int] = base_scores.tolist()
    indptr: list[int] = index.tri_clique_indptr.tolist()
    ext: list[float] = index.tri_extension_probabilities.tolist()
    pair_cliques: list[int] = index.tri_cliques.tolist()
    clique_members: list[list[int]] = index.clique_triangles.tolist()
    recompute = repair.recompute

    kappa_init: dict[int, int] = {}

    def init_of(t: int) -> int:
        value = kappa_init.get(t)
        if value is None:
            value = recompute(t, ext[indptr[t]:indptr[t + 1]])
            kappa_init[t] = value
        return value

    # --- phase 1: closure of triangles whose score may have increased ----- #
    in_closure = [False] * num_triangles
    joined: list[int] = []
    for s in seeds.tolist():
        in_closure[s] = True
        joined.append(s)
    stack = list(joined)
    while stack:
        t = stack.pop()
        for p in range(indptr[t], indptr[t + 1]):
            members = clique_members[pair_cliques[p]]
            # min κ_init over all four members bounds the level any member
            # could rise to through this clique.
            bound = min(init_of(x) for x in members)
            for m in members:
                if in_closure[m] or bound <= base[m]:
                    continue
                in_closure[m] = True
                joined.append(m)
                stack.append(m)

    # --- phase 2: greatest fixed point from the upper bound --------------- #
    for t in joined:
        nu[t] = init_of(t)
    in_queue = [False] * num_triangles
    work: deque[int] = deque()

    def enqueue(m: int) -> None:
        if not in_queue[m]:
            in_queue[m] = True
            work.append(m)

    for t in joined:
        enqueue(t)
        for p in range(indptr[t], indptr[t + 1]):
            for m in clique_members[pair_cliques[p]]:
                enqueue(m)

    fixed_point_repairs = 0
    while work:
        t = work.popleft()
        in_queue[t] = False
        k = nu[t]
        if k <= NO_VALID_K:
            continue
        start, stop = indptr[t], indptr[t + 1]
        total = stop - start
        while True:
            survivors = []
            for p in range(start, stop):
                for m in clique_members[pair_cliques[p]]:
                    if m != t and nu[m] < k:
                        break
                else:
                    survivors.append(ext[p])
            fixed_point_repairs += 1
            result = recompute(t, survivors)
            if result >= k:
                break
            if len(survivors) == total:
                # Lowering k cannot add survivors: the recompute is final.
                k = result
                break
            k -= 1
        if k < nu[t]:
            nu[t] = k
            for p in range(start, stop):
                for m in clique_members[pair_cliques[p]]:
                    if m != t and nu[m] > k:
                        enqueue(m)

    scores[:] = nu
    if obs_config._ENABLED:
        counter = obs_registry.counter
        counter(
            "repro_peel_localized_seeds_total",
            "Seed rows handed to repair_kappa_scores (incremental repairs).",
        ).inc(int(seeds.size))
        counter(
            "repro_peel_localized_repairs_total",
            "Repair-hook invocations during localized (incremental) repair.",
        ).inc(len(kappa_init) + fixed_point_repairs)
    return scores


def peel_kappa_scores(
    index: PeelIncidence,
    initial_kappas: np.ndarray,
    repair: KappaRepair,
    kernel: str = "numpy",
) -> np.ndarray:
    """Peel every row of ``index`` and return its score (the nucleus score ν).

    ``kernel="numba"`` dispatches to the compiled loops of
    :mod:`repro.kernels.peel` (which take a
    :class:`~repro.core.batch.CSRTriangleIndex`) when the repair supports
    them: the unit-drop (exact-DP) bucket queue — bit-identical, the
    Poisson-binomial repair stays in Python behind a per-repair callback —
    and the fully-jitted Monte-Carlo lazy heap (distribution-identical;
    numba draws its own variate stream).  Other repairs — the §5.3
    approximated tails, whose scores are trajectory-sensitive — always run
    the reference numpy loop, as does everything when numba is not
    installed.

    When observability is on (``REPRO_OBS``), the run is wrapped in a
    ``"peel"`` span (carrying the number of ``rows``, the resolved
    ``kernel``, the ``queue`` discipline and, for the level-synchronous
    peel, its ``rounds``) and feeds the ``repro_peel_*`` counters — rows
    settled, rows re-scored, and (compiled bucket queue only) unit-drop
    deferrals — with the counts accumulated in loop-local integers so the
    disabled-mode overhead stays within the CI-gated 3% of the
    uninstrumented loop (see ``docs/OBSERVABILITY.md``).

    On numpy, unit-drop repairs (the exact DP) run level-synchronous rounds
    (:func:`_peel_rounds`) and every other repair replays the reference
    loops' lazy-heap trajectory (:func:`_peel_heap`): the §5.3 tails are
    not monotone under column deaths, so their scores depend on the exact
    repair schedule.  Row order stands in for the reference loops'
    canonical tie-breaking under the CSR relabelling.  Either way a score
    is clamped to the running peel level, so levels are monotone along the
    peel order.
    """
    num_rows = index.num_rows
    if initial_kappas.shape != (num_rows,):
        raise InvalidParameterError(
            "initial_kappas must be parallel to the index rows "
            f"(expected shape ({num_rows},), got {initial_kappas.shape})"
        )
    engine = resolve_kernel(kernel)
    if engine == "numba" and not (
        repair.unit_drop or isinstance(repair, MonteCarloKappaRepair)
    ):
        engine = "numpy"
    if not repair.unit_drop:
        queue = "heap"
    else:
        queue = "bucket" if engine == "numba" else "rounds"
    with span(
        "peel",
        rows=num_rows,
        repair=repair.name,
        queue=queue,
        kernel=engine,
    ) as peel_span:
        record_dispatch("peel", engine)
        if num_rows == 0:
            return np.full(0, NO_VALID_K, dtype=np.int64)
        deferrals = 0
        if engine == "numba":
            from repro.kernels import peel as compiled

            run = compiled.peel_unit_drop if repair.unit_drop else compiled.peel_monte_carlo
            scores, repairs, deferrals = run(index, initial_kappas, repair)
        elif repair.unit_drop:
            scores, rounds, repairs = _peel_rounds(index, initial_kappas, repair)
            peel_span.annotate(rounds=rounds)
        else:
            scores, repairs = _peel_heap(index, initial_kappas, repair)
        if obs_config._ENABLED:
            _record_peel_metrics(repair, num_rows, repairs, deferrals)
        return scores


def _record_peel_metrics(repair: KappaRepair, pops: int, repairs: int, deferrals: int) -> None:
    """Fold one peel run's loop-local counts into the metrics registry."""
    counter = obs_registry.counter
    counter(
        "repro_peel_pops_total",
        "Rows settled by the peel (rounds, bucket queue or lazy heap).",
    ).inc(pops)
    counter(
        "repro_peel_repairs_total",
        "Rows re-scored by the repair hook during peeling.",
        repair=repair.name,
    ).inc(repairs)
    counter(
        "repro_peel_deferrals_total",
        "Unit-drop bucket steps of the compiled kernel in place of an eager repair.",
    ).inc(deferrals)


def _peel_rounds(
    index: PeelIncidence,
    initial_kappas: np.ndarray,
    repair: KappaRepair,
) -> tuple[np.ndarray, int, int]:
    """Level-synchronous peel for unit-drop repairs.

    Each round peels the whole frontier — every live row whose κ is at most
    the level ``L`` (the largest minimum κ seen so far) — with score ``L``,
    kills the live columns through it, and re-scores every live row that
    lost a column in one batched repair over its surviving postings (dead
    postings enter the padded rows as probability 0).  Re-scored rows at or
    below ``L`` form the next round's frontier; when none remain the level
    rises to the new minimum κ.  Returns ``(scores, rounds, re-scored
    rows)``.
    """
    indptr = index.indptr
    values = index.values
    pair_columns = index.columns
    column_rows = index.column_rows
    column_positions = index.column_positions
    pair_alive = np.ones(values.size, dtype=bool)
    column_alive = np.ones(index.num_columns, dtype=bool)

    # Peeled rows park at a κ no level reaches, so the minimum over
    # ``kappa`` is the minimum over the live rows.
    peeled = np.iinfo(np.int64).max
    kappa = np.array(initial_kappas, dtype=np.int64)
    scores = np.full(kappa.size, NO_VALID_K, dtype=np.int64)
    level = NO_VALID_K
    remaining = kappa.size
    rounds = repairs = 0
    while remaining:
        level = max(level, int(kappa.min()))
        frontier = np.flatnonzero(kappa <= level)
        while frontier.size:
            rounds += 1
            scores[frontier] = level
            kappa[frontier] = peeled
            remaining -= frontier.size
            columns, _ = concatenated_rows(indptr, pair_columns, frontier)
            columns = columns[column_alive[columns]]
            if columns.size == 0:
                break
            column_alive[columns] = False
            pair_alive[column_positions[columns].ravel()] = False
            # Sorting keeps a round O(its columns), not O(all rows).
            members = np.sort(column_rows[columns].ravel())
            affected = members[np.concatenate(([True], members[1:] != members[:-1]))]
            affected = affected[kappa[affected] != peeled]
            if affected.size == 0:
                break
            repairs += affected.size
            repaired = np.empty(affected.size, dtype=np.int64)
            for group, matrix, counts in padded_row_groups(
                indptr, values, affected, pair_alive
            ):
                repaired[group] = repair.recompute_rows(affected[group], matrix, counts)
            kappa[affected] = repaired
            frontier = affected[repaired <= level]
    return scores, rounds, repairs


def _peel_heap(
    index: PeelIncidence,
    initial_kappas: np.ndarray,
    repair: KappaRepair,
) -> tuple[np.ndarray, int]:
    """Lazy-heap replay of the reference trajectory; returns ``(scores, repairs)``."""
    num_rows = index.num_rows
    kappa: list[int] = initial_kappas.tolist()
    indptr: list[int] = index.indptr.tolist()
    pair_values: list[float] = index.values.tolist()
    pair_alive: list[bool] = [True] * len(pair_values)
    column_rows: list[list[int]] = index.column_rows.tolist()
    column_positions: list[list[int]] = index.column_positions.tolist()
    pair_columns: list[int] = index.columns.tolist()

    def surviving_of(m: int) -> list[float]:
        return [pair_values[p] for p in range(indptr[m], indptr[m + 1]) if pair_alive[p]]

    out: list[int] = [NO_VALID_K] * num_rows
    recompute = repair.recompute
    repairs = 0
    heap = LazyMinHeap((kappa[t], t) for t in range(num_rows))
    processed = [False] * num_rows

    def current(m: int) -> int | None:
        return None if processed[m] else kappa[m]

    level = NO_VALID_K
    while (entry := heap.pop(current)) is not None:
        _, t = entry
        if kappa[t] > level:
            level = kappa[t]
        out[t] = level
        processed[t] = True
        for j in range(indptr[t], indptr[t + 1]):
            if not pair_alive[j]:
                continue
            c = pair_columns[j]
            for pair_position in column_positions[c]:
                pair_alive[pair_position] = False
            for m in column_rows[c]:
                if m == t or processed[m]:
                    continue
                if kappa[m] > level:
                    repairs += 1
                    new = recompute(m, surviving_of(m))
                    if new < level:
                        new = level
                    kappa[m] = new
                    heap.push(new, m)
    return np.asarray(out, dtype=np.int64), repairs
