"""What the traced run wraps, and how its spans become per-layer metrics.

Each ``Target`` names a public entry point of a ``repro`` layer; the span it
records is attributed to that layer for self time.  Each metric below sums
span time (or counts spans, or sums a span attribute) per round, optionally
only under given ancestors, so a layer shared by several calls is charged to
the call the metric explains.  DESIGN.md lists the end-to-end metric each
per-layer metric should move.
"""

from __future__ import annotations

from tracer import Target

GLOBAL_ROOTS = ("op.global", "op.global_adaptive")


def _triangle_index_counts(args, kwargs, result) -> dict:
    return {"triangles": result.num_triangles, "four_cliques": result.num_cliques}


def _worlds(args, kwargs, result) -> dict:
    return {"worlds": int(result.shape[0])}


def _passed(args, kwargs, result) -> dict:
    return {"passed": int(bool(result[0]))}


_ENGINE = "repro.query.engine:NucleusQueryEngine."

TARGETS = [
    # entry points of whole calls: their self time is the call's own work
    Target("repro.index.builders:build_index", "index.build", "repro.index"),
    Target("repro.baselines.probabilistic_core:probabilistic_core_decomposition",
           "baselines.core", "repro.baselines"),
    Target("repro.baselines.probabilistic_truss:probabilistic_truss_decomposition",
           "baselines.truss", "repro.baselines"),
    Target("repro.core.global_nucleus:global_nucleus_decomposition",
           "global.decompose", "repro.core.global_nucleus"),
    Target("repro.core.weak_nucleus:weak_nucleus_decomposition",
           "weak.decompose", "repro.core.weak_nucleus"),
    Target("repro.core.local:local_nucleus_decomposition", "decompose.local", "repro.core.local"),
    # repro.graph
    Target("repro.graph.probabilistic_graph:ProbabilisticGraph.to_csr",
           "graph.to_csr", "repro.graph"),
    Target("repro.graph.csr:CSRProbabilisticGraph.with_edge_deltas",
           "update.csr_delta", "repro.graph"),
    # repro.core.batch / repro.core.peel
    Target("repro.core.batch:build_triangle_extension_index", "cliques.enumerate",
           "repro.core.batch", _triangle_index_counts),
    Target("repro.core.batch:batched_initial_kappas", "kappa.init", "repro.core.batch"),
    Target("repro.core.batch:delta_triangle_extension_index", "update.delta_enum",
           "repro.core.batch"),
    Target("repro.core.peel:peel_kappa_scores", "peel", "repro.core.peel"),
    Target("repro.core.peel:repair_kappa_scores", "update.repair", "repro.core.peel"),
    # repro.index
    Target("repro.index.nucleus_index:NucleusIndex.from_triangle_arrays",
           "index.snapshot", "repro.index"),
    Target("repro.index.nucleus_index:NucleusIndex._build", "index.assemble", "repro.index"),
    Target("repro.index.nucleus_index:NucleusIndex.save", "index.save", "repro.index"),
    Target("repro.index.nucleus_index:NucleusIndex.load", "index.load", "repro.index"),
    Target("repro.index.fingerprint:graph_fingerprint", "index.fingerprint", "repro.index"),
    Target("repro.index.incremental:apply_updates", "update.apply", "repro.index.incremental"),
    Target("repro.index.incremental:_reprice_snapshot", "update.reprice",
           "repro.index.incremental"),
    # repro.core.global_nucleus candidate generation
    Target("repro.core.global_nucleus:union_of_nuclei", "global.union",
           "repro.core.global_nucleus"),
    Target("repro.deterministic.cliques:triangle_clique_index", "global.clique_index",
           "repro.deterministic"),
    Target("repro.core.global_nucleus:candidate_closure", "global.closure",
           "repro.core.global_nucleus"),
    Target("repro.core.global_nucleus:_verify_candidate_matrix", "verify.candidate",
           "repro.core.global_nucleus", _passed),
    Target("repro.core.global_nucleus:_verify_candidate_adaptive", "verify.candidate",
           "repro.core.global_nucleus", _passed),
    # repro.sampling
    Target("repro.sampling.world_matrix:CandidateWorldIndex.from_graph", "verify.index",
           "repro.sampling"),
    Target("repro.sampling.world_matrix:CandidateWorldIndex.sample", "verify.sample",
           "repro.sampling", _worlds),
    Target("repro.sampling.world_matrix:structure_presence", "verify.filters",
           "repro.sampling"),
    Target("repro.sampling.world_matrix:nucleus_world_mask", "verify.mask", "repro.sampling"),
    Target("repro.sampling.world_matrix:global_triangle_counts", "verify.counts",
           "repro.sampling"),
    # repro.core.weak_nucleus
    Target("repro.core.weak_nucleus:triangle_weak_scores_matrix", "weak.scores",
           "repro.core.weak_nucleus"),
    Target("repro.deterministic.cliques:triangle_connected_components", "weak.components",
           "repro.deterministic"),
    # repro.serve / repro.query
    Target("repro.serve.service:QueryService.refresh", "serve.refresh", "repro.serve"),
    Target("repro.serve.protocol:validate_request", "serve.validate", "repro.serve"),
    *(
        Target(_ENGINE + method, "query.engine", "repro.query")
        for method in ("max_score", "contains", "smallest_nucleus", "nucleus_of",
                       "nuclei", "top_nuclei", "rank_table")
    ),
]

#: Per-layer metrics read from spans: (metric, unit, kind, span names, under, attr).
#: ``kind`` is "time" (inclusive, nested same-name spans counted once),
#: "self" (minus direct children), "count" (number of spans) or "attr"
#: (sum of a span attribute).  ``under`` keeps only spans with one of these
#: ancestors.  Every value is per round.
SPAN_METRICS = [
    ("graph.to_csr_s", "s", "time", ("graph.to_csr",), None, None),
    ("cliques.enumerate_s", "s", "time", ("cliques.enumerate",), None, None),
    ("cliques.triangles", "count", "attr", ("cliques.enumerate",), None, "triangles"),
    ("cliques.four_cliques", "count", "attr", ("cliques.enumerate",), None, "four_cliques"),
    ("kappa.init_s", "s", "time", ("kappa.init",), None, None),
    ("peel_s", "s", "time", ("peel",), None, None),
    ("index.snapshot_s", "s", "time", ("index.snapshot",), None, None),
    ("baselines.core.init_s", "s", "time", ("probe.core_init",), None, None),
    ("baselines.truss.init_s", "s", "time", ("probe.truss_init",), None, None),
    ("global.local_prune_s", "s", "time", ("decompose.local",), GLOBAL_ROOTS, None),
    ("global.candidates_s", "s", "time",
     ("global.union", "global.clique_index", "global.closure"), GLOBAL_ROOTS, None),
    ("global.closures", "count", "count", ("global.closure",), GLOBAL_ROOTS, None),
    ("global.distinct_candidates", "count", "count", ("verify.candidate",), GLOBAL_ROOTS, None),
    ("verify.index_s", "s", "time", ("verify.index",), GLOBAL_ROOTS, None),
    ("verify.sample_s", "s", "time", ("verify.sample",), GLOBAL_ROOTS, None),
    ("verify.filters_s", "s", "time", ("verify.filters",), GLOBAL_ROOTS, None),
    ("verify.mask_s", "s", "self", ("verify.mask",), GLOBAL_ROOTS, None),
    ("verify.counts_s", "s", "self", ("verify.counts",), GLOBAL_ROOTS, None),
    ("verify.worlds", "count", "attr", ("verify.sample",), GLOBAL_ROOTS, "worlds"),
    ("weak.scores_s", "s", "time", ("weak.scores",), ("op.weak",), None),
    ("weak.components_s", "s", "time", ("weak.components",), ("op.weak",), None),
    ("update.apply_s", "s", "time", ("update.apply",), None, None),
    ("update.csr_delta_s", "s", "time", ("update.csr_delta",), ("update.apply",), None),
    ("update.delta_enum_s", "s", "time", ("update.delta_enum",), ("update.apply",), None),
    ("update.repair_s", "s", "time", ("update.repair",), ("update.apply",), None),
    ("update.fingerprint_s", "s", "time", ("index.fingerprint",), ("update.apply",), None),
    ("update.snapshot_s", "s", "time", ("index.assemble", "update.reprice"),
     ("update.apply",), None),
    ("index.save_s", "s", "time", ("index.save",), None, None),
    ("index.load_s", "s", "time", ("index.load",), None, None),
    ("serve.refresh_s", "s", "time", ("serve.refresh",), None, None),
    ("serve.validate_s", "s", "time", ("serve.validate",), ("op.burst",), None),
    ("query.engine_s", "s", "time", ("query.engine",), ("op.burst",), None),
]

#: Layers whose self time is reported as ``self.<layer>_s``.
LAYERS = (
    "repro.graph", "repro.core.batch", "repro.core.peel", "repro.core.local",
    "repro.index", "repro.index.incremental", "repro.baselines", "repro.core.global_nucleus",
    "repro.deterministic", "repro.sampling", "repro.core.weak_nucleus", "repro.serve",
    "repro.query",
)
