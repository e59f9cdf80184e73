"""Compiled world-verification kernels (see :mod:`repro.sampling.world_matrix`).

The numpy verification path materializes dense ``(num_cliques, num_edges)``
and ``(num_cliques, num_triangles)`` incidence matrices and checks the
nucleus predicates by matmul — fast for small candidates, but the
densification dominates memory and time once candidates grow.  These kernels
evaluate the same predicates world-by-world over the flat index arrays, with
no incidence matrices and no intermediate ``(n_worlds, …)`` products:

* :func:`global_counts` — per world: 4-clique presence (six edge probes),
  edge coverage, structural-triangle support ≥ k, and 4-clique connectivity
  (union-find with path halving), then one count per present triangle.
  **Bit-identical** to ``_global_counts_impl`` for the same worlds matrix.
* :func:`weak_counts_from_presence` — per world: the nucleusness peel over
  the projected structure and the k-nucleus qualification/coverage rules.
  Consumes *presence* matrices rather than raw worlds so the monolithic and
  the partitioned (:mod:`repro.sampling.partitioned`) paths share it.
  Bit-identical to ``_weak_counts_impl`` for the same presence.

Both replicate the reference trajectories exactly (the weak peel pops the
encoded key ``support · T + t``, the strict total order of the reference
``(support, t)`` heap entries), so the counts match element-wise whether the
bodies run compiled or interpreted.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.kernels import active_jit, record_compile
from repro.kernels._heap import build_heap

__all__ = ["global_counts", "weak_counts_from_presence"]


def _build(jit):
    """Build the world-verification kernel set, optionally compiled."""
    heap_push, heap_pop = build_heap(jit)

    def uf_find(parent, x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def global_kernel(worlds, triangle_edges, clique_edges, clique_triangles, k, counts):
        n_worlds, n_edges = worlds.shape
        num_triangles = triangle_edges.shape[0]
        num_cliques = clique_edges.shape[0]
        clique_present = np.empty(num_cliques, dtype=np.bool_)
        covered = np.empty(n_edges, dtype=np.bool_)
        support = np.empty(num_triangles, dtype=np.int64)
        parent = np.empty(num_triangles, dtype=np.int64)
        for i in range(n_worlds):
            # 4-clique presence: all six edges in the world.
            any_clique = False
            for c in range(num_cliques):
                ok = True
                for s in range(6):
                    if not worlds[i, clique_edges[c, s]]:
                        ok = False
                        break
                clique_present[c] = ok
                if ok:
                    any_clique = True
            if not any_clique:
                continue
            # Condition 1: every present edge lies in a present clique.
            for e in range(n_edges):
                covered[e] = False
            for c in range(num_cliques):
                if clique_present[c]:
                    for s in range(6):
                        covered[clique_edges[c, s]] = True
            bad = False
            for e in range(n_edges):
                if worlds[i, e] and not covered[e]:
                    bad = True
                    break
            if bad:
                continue
            # Condition 2: structural triangles supported by >= k cliques.
            for t in range(num_triangles):
                support[t] = 0
            for c in range(num_cliques):
                if clique_present[c]:
                    for s in range(4):
                        support[clique_triangles[c, s]] += 1
            for t in range(num_triangles):
                if 0 < support[t] < k:
                    bad = True
                    break
            if bad:
                continue
            # Condition 3: structural triangles 4-clique-connected.
            for t in range(num_triangles):
                parent[t] = t
            for c in range(num_cliques):
                if clique_present[c]:
                    r0 = uf_find(parent, clique_triangles[c, 0])
                    for s in range(1, 4):
                        r = uf_find(parent, clique_triangles[c, s])
                        if r != r0:
                            if r < r0:
                                parent[r0] = r
                                r0 = r
                            else:
                                parent[r] = r0
            root = -1
            for t in range(num_triangles):
                if support[t] > 0:
                    r = uf_find(parent, t)
                    if root < 0:
                        root = r
                    elif r != root:
                        bad = True
                        break
            if bad:
                continue
            # The world is a k-nucleus: count its present triangles.
            for t in range(num_triangles):
                if (
                    worlds[i, triangle_edges[t, 0]]
                    and worlds[i, triangle_edges[t, 1]]
                    and worlds[i, triangle_edges[t, 2]]
                ):
                    counts[t] += 1

    def weak_kernel(tri_present, clique_present, indptr, indices, clique_members, k, counts):
        n_worlds = tri_present.shape[0]
        num_triangles = tri_present.shape[1]
        num_cliques = clique_present.shape[1]
        support = np.empty(num_triangles, dtype=np.int64)
        nucleusness = np.empty(num_triangles, dtype=np.int64)
        processed = np.empty(num_triangles, dtype=np.bool_)
        clique_alive = np.empty(num_cliques, dtype=np.bool_)
        allowed = np.empty(num_cliques, dtype=np.bool_)
        heap = np.empty(num_triangles + 3 * num_cliques + 1, dtype=np.int64)
        for i in range(n_worlds):
            any_tri = False
            for t in range(num_triangles):
                if tri_present[i, t]:
                    any_tri = True
                    break
            if not any_tri:
                continue
            # Support = number of present cliques through each present triangle.
            for c in range(num_cliques):
                clique_alive[c] = clique_present[i, c]
            for t in range(num_triangles):
                support[t] = 0
                nucleusness[t] = -1
                processed[t] = True
            for c in range(num_cliques):
                if clique_alive[c]:
                    for s in range(4):
                        support[clique_members[c, s]] += 1
            size = 0
            for t in range(num_triangles):
                if tri_present[i, t]:
                    processed[t] = False
                    size = heap_push(heap, size, support[t] * num_triangles + t)
            # Nucleusness peel — the reference lazy-heap trajectory.
            current_level = 0
            while size > 0:
                key, size = heap_pop(heap, size)
                sval = key // num_triangles
                t = key % num_triangles
                if processed[t] or support[t] != sval:
                    continue
                if support[t] > current_level:
                    current_level = support[t]
                nucleusness[t] = current_level
                processed[t] = True
                for p in range(indptr[t], indptr[t + 1]):
                    c = indices[p]
                    if not clique_alive[c]:
                        continue
                    clique_alive[c] = False
                    for s in range(4):
                        other = clique_members[c, s]
                        if other == t or processed[other]:
                            continue
                        if support[other] > current_level:
                            support[other] -= 1
                            size = heap_push(
                                heap, size, support[other] * num_triangles + other
                            )
            # Qualification: cliques whose four members reach nucleusness k.
            any_allowed = False
            for c in range(num_cliques):
                ok = clique_present[i, c]
                if ok:
                    for s in range(4):
                        if nucleusness[clique_members[c, s]] < k:
                            ok = False
                            break
                allowed[c] = ok
                if ok:
                    any_allowed = True
            if not any_allowed:
                continue
            for t in range(num_triangles):
                if tri_present[i, t] and nucleusness[t] >= k:
                    for p in range(indptr[t], indptr[t + 1]):
                        c = indices[p]
                        if clique_present[i, c] and allowed[c]:
                            counts[t] += 1
                            break

    if jit is not None:
        uf_find = jit(uf_find)
        global_kernel = jit(global_kernel)
        weak_kernel = jit(weak_kernel)
    return {"global": global_kernel, "weak": weak_kernel}


_INTERPRETED = _build(None)
_compiled: dict | None = None


def _warmup(kernels) -> None:
    """Trigger compilation on a degenerate one-world, one-triangle input."""
    i8 = np.int64
    kernels["global"](
        np.ones((1, 3), dtype=np.bool_),
        np.array([[0, 1, 2]], dtype=i8),
        np.zeros((0, 6), dtype=i8),
        np.zeros((0, 4), dtype=i8),
        1,
        np.zeros(1, dtype=i8),
    )
    kernels["weak"](
        np.ones((1, 1), dtype=np.bool_),
        np.zeros((1, 0), dtype=np.bool_),
        np.zeros(2, dtype=i8),
        np.zeros(0, dtype=i8),
        np.zeros((0, 4), dtype=i8),
        1,
        np.zeros(1, dtype=i8),
    )


def _kernels() -> dict:
    """The active verification kernel set (compiled when numba is usable)."""
    global _compiled
    jit = active_jit()
    if jit is None:
        return _INTERPRETED
    if _compiled is None:
        start = perf_counter()
        kernels = _build(jit)
        _warmup(kernels)
        record_compile("worlds", perf_counter() - start)
        _compiled = kernels
    return _compiled


def global_counts(index, worlds, k: int) -> np.ndarray:
    """Per-triangle k-nucleus-world counts, bit-identical to the numpy path."""
    counts = np.zeros(index.num_triangles, dtype=np.int64)
    if index.num_triangles == 0 or index.num_cliques == 0 or worlds.shape[0] == 0:
        return counts
    _kernels()["global"](
        np.ascontiguousarray(worlds, dtype=np.bool_),
        np.ascontiguousarray(index.triangle_edges, dtype=np.int64),
        np.ascontiguousarray(index.clique_edges, dtype=np.int64),
        np.ascontiguousarray(index.clique_triangles, dtype=np.int64),
        int(k),
        counts,
    )
    return counts


def weak_counts_from_presence(index, tri_present, clique_present, k: int) -> np.ndarray:
    """Per-triangle weak-membership counts from presence matrices.

    Bit-identical to the numpy ``_weak_counts_from_presence`` for the same
    ``(tri_present, clique_present)`` — which is how both the monolithic and
    the partitioned sampling paths dispatch to it interchangeably.
    """
    counts = np.zeros(index.num_triangles, dtype=np.int64)
    if index.num_triangles == 0 or tri_present.shape[0] == 0:
        return counts
    _kernels()["weak"](
        np.ascontiguousarray(tri_present, dtype=np.bool_),
        np.ascontiguousarray(clique_present, dtype=np.bool_),
        np.ascontiguousarray(index.tri_clique_indptr, dtype=np.int64),
        np.ascontiguousarray(index.tri_clique_indices, dtype=np.int64),
        np.ascontiguousarray(index.clique_triangles, dtype=np.int64),
        int(k),
        counts,
    )
    return counts
