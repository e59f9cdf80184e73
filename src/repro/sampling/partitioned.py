"""Partitioned Monte-Carlo verification: never materialize the worlds matrix.

The monolithic engine samples the full ``(n_worlds, num_edges)`` boolean
matrix before verifying anything — on a ``scale=large`` graph with hundreds
of thousands of edges and a few thousand worlds that single allocation
exceeds per-process memory long before the verification itself would.  This
module runs the same estimators over *edge partitions* (the contiguous
column ranges of :mod:`repro.graph.partition`), keeping only:

* one ``(n_worlds, partition_width)`` sample block at a time, and
* the ``(n_worlds, num_triangles)`` / ``(n_worlds, num_cliques)`` structure
  presence matrices, which are candidate-sized, not graph-sized.

Per-partition sampling is replayable: partition ``p`` draws from
``np.random.SeedSequence(entropy=root_seed, spawn_key=(p,))``, so its block
is a pure function of ``(root_seed, p)`` — independent of worker count, and
re-drawable for the second (edge-coverage) pass of the global estimator
without storing the first pass.  The estimates are **stream-parity exact**:
assembling the same blocks into one matrix and running the monolithic
counters on it yields bit-identical counts (``tests/test_partition.py`` pins
this), though the stream differs from what ``index.sample`` would draw for
the same seed.

The weak estimator reduces to presence matrices, so it dispatches to either
weak counting kernel (``kernel="numpy"|"numba"``).  The global estimator's
remaining per-world work (edge coverage, support, connectivity) is already
vectorized over candidate-sized arrays; its coverage pass always runs the
numpy path regardless of ``kernel``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.graph.partition import partition_edge_ranges
from repro.kernels import record_dispatch, resolve_kernel
from repro.obs import config as obs_config
from repro.obs.metrics import REGISTRY as obs_registry
from repro.sampling.sharding import _require_positive_int
from repro.sampling.world_matrix import (
    CandidateWorldIndex,
    _bounded_counts,
    _weak_counts_from_presence,
    as_numpy_generator,
)

__all__ = [
    "partitioned_global_counts",
    "partitioned_global_decision",
    "partitioned_weak_counts",
]


def _root_seed(rng, seed) -> int:
    """One 63-bit root seed drawn from the caller's RNG (or ``seed``)."""
    return int(as_numpy_generator(rng, seed).integers(0, 2**63 - 1))


def _block_rng(root_seed: int, partition: int) -> np.random.Generator:
    """The replayable per-partition generator (worker-count invariant)."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=root_seed, spawn_key=(partition,))
    )


def _sample_block(
    index: CandidateWorldIndex, n_worlds: int, start: int, stop: int, root_seed: int, p: int
) -> np.ndarray:
    """Sample the world columns ``start:stop`` for all ``n_worlds`` worlds."""
    rng = _block_rng(root_seed, p)
    probabilities = np.asarray(index.edge_probabilities[start:stop], dtype=np.float64)
    return rng.random((n_worlds, stop - start)) < probabilities[None, :]


def _presence_shard(payload) -> tuple[np.ndarray, np.ndarray]:
    """Per-partition presence contribution (AND-mask over structures).

    Returns ``(tri_mask, clique_mask)`` — ``True`` wherever this partition's
    columns do not refute the structure, so the driver's elementwise AND over
    all partitions equals the monolithic ``structure_presence``.
    """
    index, n_worlds, start, stop, root_seed, p = payload
    block = _sample_block(index, n_worlds, start, stop, root_seed, p)
    tri_mask = np.ones((n_worlds, index.num_triangles), dtype=bool)
    for slot in range(3):
        columns = index.triangle_edges[:, slot]
        selected = (columns >= start) & (columns < stop)
        if selected.any():
            tri_mask[:, selected] &= block[:, columns[selected] - start]
    clique_mask = np.ones((n_worlds, index.num_cliques), dtype=bool)
    for slot in range(6):
        columns = index.clique_edges[:, slot]
        selected = (columns >= start) & (columns < stop)
        if selected.any():
            clique_mask[:, selected] &= block[:, columns[selected] - start]
    return tri_mask, clique_mask


def _coverage_shard(payload) -> np.ndarray:
    """Per-partition edge-coverage violations (global condition 1).

    Re-draws the identical sample block from ``(root_seed, p)`` and flags
    every world with a present edge in ``start:stop`` that no present
    4-clique covers.
    """
    index, n_worlds, start, stop, root_seed, p, clique_present = payload
    block = _sample_block(index, n_worlds, start, stop, root_seed, p)
    covered = np.zeros((stop - start, n_worlds), dtype=bool)
    for slot in range(6):
        columns = index.clique_edges[:, slot]
        selected = np.flatnonzero((columns >= start) & (columns < stop))
        if selected.size:
            # Several cliques can share an edge column: accumulate with
            # ``logical_or.at`` — fancy-indexed ``|=`` would keep only the
            # last clique's presence per duplicated column.
            np.logical_or.at(
                covered, columns[selected] - start, clique_present[:, selected].T
            )
    return (block & ~covered.T).any(axis=1)


def _resolve_partition_run(index, n_worlds, k, rng, seed, partitions):
    """Shared validation + planning for both partitioned estimators."""
    if not isinstance(index, CandidateWorldIndex):
        raise InvalidParameterError(
            f"index must be a CandidateWorldIndex, got {type(index).__name__}"
        )
    _require_positive_int("n_worlds", n_worlds)
    _require_positive_int("partitions", partitions)
    if k < 0:
        raise InvalidParameterError(f"k must be non-negative, got {k}")
    ranges = partition_edge_ranges(index.num_edges, partitions) if index.num_edges else ()
    root_seed = _root_seed(rng, seed)
    if obs_config._ENABLED:
        obs_registry.counter(
            "repro_sampling_worlds_total",
            "Possible worlds drawn by the world-matrix sampler.",
        ).inc(n_worlds)
        obs_registry.counter(
            "repro_sampling_partitions_total",
            "Edge partitions sampled by the partitioned verifier.",
        ).inc(len(ranges))
    return ranges, root_seed


def _map_payloads(pool, function, payloads):
    """Run shard payloads on the pool when one is given, inline otherwise."""
    if pool is not None and len(payloads) > 1:
        return pool.map(function, payloads)
    return [function(payload) for payload in payloads]


def _partitioned_presence(
    index, n_worlds, ranges, root_seed, pool
) -> tuple[np.ndarray, np.ndarray]:
    """Accumulate structure presence over partitions (AND of shard masks)."""
    tri_present = np.ones((n_worlds, index.num_triangles), dtype=bool)
    clique_present = np.ones((n_worlds, index.num_cliques), dtype=bool)
    payloads = [
        (index, n_worlds, start, stop, root_seed, p)
        for p, (start, stop) in enumerate(ranges)
    ]
    for tri_mask, clique_mask in _map_payloads(pool, _presence_shard, payloads):
        tri_present &= tri_mask
        clique_present &= clique_mask
    return tri_present, clique_present


def partitioned_global_counts(
    index: CandidateWorldIndex,
    n_worlds: int,
    k: int,
    rng=None,
    seed: int | None = None,
    partitions: int = 2,
    pool=None,
    kernel: str = "numpy",
) -> np.ndarray:
    """Per-triangle k-nucleus-world counts without the full worlds matrix.

    The partitioned equivalent of ``index.sample(n_worlds)`` followed by
    :func:`repro.sampling.world_matrix.global_triangle_counts`: same
    estimator, same nucleus predicates, peak memory bounded by one partition
    block plus the candidate-sized presence matrices.  ``pool`` (a
    :class:`~repro.sampling.world_matrix.WorldShardPool`) fans the partition
    blocks across worker processes; results are identical with or without
    it.  ``kernel`` is accepted for interface symmetry and validated, but
    the global coverage/connectivity stage always runs the vectorized numpy
    path — there is no worlds matrix for the per-world kernel to walk.
    """
    counts, _ = partitioned_global_decision(
        index,
        n_worlds,
        k,
        0,
        rng=rng,
        seed=seed,
        partitions=partitions,
        pool=pool,
        kernel=kernel,
    )
    return counts


def partitioned_global_decision(
    index: CandidateWorldIndex,
    n_worlds: int,
    k: int,
    need,
    rng=None,
    seed: int | None = None,
    partitions: int = 2,
    pool=None,
    kernel: str = "numpy",
    exact_counts: bool = True,
) -> tuple[np.ndarray, bool]:
    """The θ decision of :func:`partitioned_global_counts` (``(counts, rejected)``).

    Runs the bound stages of
    :func:`repro.sampling.world_matrix.decide_global_counts` (including its
    ``exact_counts`` switch) over the partitioned presence matrices: a
    candidate the presence bound rejects never pays for the second
    (edge-coverage) pass over the blocks.  The root seed is drawn first
    either way, so the caller's RNG stream does not depend on the decision.
    """
    resolve_kernel(kernel)
    ranges, root_seed = _resolve_partition_run(index, n_worlds, k, rng, seed, partitions)
    if index.num_triangles == 0 or index.num_cliques == 0 or not ranges:
        counts = np.zeros(index.num_triangles, dtype=np.int64)
        return counts, bool((counts < need).any())
    record_dispatch("verify.global.partitioned", "numpy")
    tri_present, clique_present = _partitioned_presence(
        index, n_worlds, ranges, root_seed, pool
    )

    def filters() -> np.ndarray:
        mask = clique_present.any(axis=1)
        if not mask.any():
            return mask
        # Condition 1: present edges covered by present cliques (second pass
        # over the same replayable blocks).
        payloads = [
            (index, n_worlds, start, stop, root_seed, p, clique_present)
            for p, (start, stop) in enumerate(ranges)
        ]
        for bad in _map_payloads(pool, _coverage_shard, payloads):
            mask &= ~bad
        # Condition 2: structural triangles supported by >= k present
        # cliques.  Scatter-add over the (candidate-sized) clique membership
        # lists instead of the dense clique/triangle incidence matmul.
        support_t = np.zeros((index.num_triangles, n_worlds), dtype=np.int64)
        clique_counts_t = clique_present.T.astype(np.int64)
        for slot in range(4):
            np.add.at(support_t, index.clique_triangles[:, slot], clique_counts_t)
        support = support_t.T
        mask &= ~((support >= 1) & (support < k)).any(axis=1)
        return mask

    return _bounded_counts(
        index, tri_present, clique_present, filters, need, exact_counts=exact_counts
    )


def partitioned_weak_counts(
    index: CandidateWorldIndex,
    n_worlds: int,
    k: int,
    rng=None,
    seed: int | None = None,
    partitions: int = 2,
    pool=None,
    kernel: str = "numpy",
) -> np.ndarray:
    """Per-triangle weak-membership counts without the full worlds matrix.

    The weak estimator only ever consumes structure presence, so after the
    partitioned presence pass it hands off to the same counting loop as the
    monolithic path — ``kernel="numba"`` selects the compiled per-world peel
    of :mod:`repro.kernels.worlds`, bit-identical for the same presence.
    """
    kernel = resolve_kernel(kernel)
    ranges, root_seed = _resolve_partition_run(index, n_worlds, k, rng, seed, partitions)
    if index.num_triangles == 0 or not ranges:
        return np.zeros(index.num_triangles, dtype=np.int64)
    record_dispatch("verify.weak.partitioned", kernel)
    tri_present, clique_present = _partitioned_presence(
        index, n_worlds, ranges, root_seed, pool
    )
    if kernel == "numba":
        from repro.kernels.worlds import weak_counts_from_presence

        return weak_counts_from_presence(index, tri_present, clique_present, k)
    return _weak_counts_from_presence(index, tri_present, clique_present, k)
