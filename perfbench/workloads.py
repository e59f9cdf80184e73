"""The benchmark's workloads (``peel-hubs`` is run by hand only; see DESIGN.md).

Each workload generates its inputs from the seed (except the parts
DESIGN.md lists as fixed), is set up (timed, several times), then runs
*rounds* until the run's time is spent.  A round makes the workload's three
timed calls and serves bursts of queries from the index the round built.
Outputs are checked outside the timed region; every mismatch counts as a
failed operation.

Why each input is shaped the way it is, and which layer each call stresses,
is written down in ``perfbench/DESIGN.md``.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import os
import random
import statistics
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import repro
from repro.baselines import probabilistic_core, probabilistic_truss
from repro.core.approximations import DynamicProgrammingEstimator
from repro.exceptions import ReproError
from repro.experiments.datasets import dataset_spec
from repro.graph.generators import (
    beta_probability,
    confidence_probability,
    planted_nucleus_graph,
    power_law_cluster_graph,
    uniform_probability,
)
from repro.graph.probabilistic_graph import ProbabilisticGraph
from repro.index import incremental
from repro.index.builders import build_local_index
from repro.query.engine import NucleusQueryEngine
from repro.serve import QueryService
from repro.serve.protocol import execute

THETA = 0.3
#: Generator seed of the fixed topologies: the pokec and flickr analogues'
#: own seeds in ``repro.experiments.datasets``.
POKEC_TOPOLOGY_SEED = 41
FLICKR_GRAPH_SEED = 37
#: global-cliff fixes its Monte-Carlo seed too, since its cost moves with the
#: sampled worlds (DESIGN.md).  2 is the first seed at which both fixed and
#: adaptive sampling find a nucleus, so the pinned nuclei and the adaptive
#: invariants are not checked on empty results.
SAMPLING_SEED = 2

CLIENTS = 16
#: In untraced runs a call shorter than this is repeated, within each round,
#: about this many seconds' worth, so that each of a workload's three calls
#: gets a similar share of the run: the machine's speed drifts over seconds,
#: and a median needs samples spread over the whole run.
REPEAT_SECONDS = 2.5
REPEAT_MAX = 40
#: Request shape of benchmarks/bench_query_service.py: vertices per request
#: cycle through these sizes, and every fourth vertex query is ``contains``,
#: the others ``max_score``.
REQUEST_SIZES = (1, 16, 64, 128)
CONTAINS_EVERY = 4
#: Assumptions, not measured traffic (DESIGN.md): the share of requests that
#: are ``nucleus_of`` and ``top_nuclei`` ("a few" of each), and the Zipf
#: exponent of vertex popularity.
NUCLEUS_OF_SHARE = 0.05
TOP_NUCLEI_SHARE = 0.05
ZIPF_EXPONENT = 1.1
#: Every CHECK_STRIDE-th served answer is recomputed on a direct engine.
CHECK_STRIDE = 16


# --------------------------------------------------------------------------- #
# digests
# --------------------------------------------------------------------------- #
def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def index_digest(index) -> str:
    """Content digest of an index: graph fingerprint plus every array."""
    h = hashlib.sha256(index.fingerprint.encode())
    for name in sorted(index.arrays):
        array = np.ascontiguousarray(index.arrays[name])
        h.update(f"{name}:{array.dtype}:{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()[:16]


def _edge_set(nucleus) -> tuple:
    return tuple(sorted((min(u, v), max(u, v)) for u, v, _ in nucleus.subgraph.edges()))


def nuclei_digest(nuclei) -> str:
    return _digest(sorted(_edge_set(n) for n in nuclei))


def scores_digest(scores: dict) -> str:
    return _digest(sorted(scores.items()))


# --------------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------------- #
def planted_dense_graph(seed: int) -> ProbabilisticGraph:
    return planted_nucleus_graph(
        num_communities=150,
        community_size=16,
        intra_density=0.95,
        background_vertices=3000,
        background_density=0.002,
        bridges_per_community=5,
        probability_model=confidence_probability(mode=0.9, concentration=20.0),
        background_probability_model=beta_probability(alpha=1.2, beta=9.0),
        seed=seed,
    )


def repriced_power_law_graph(num_vertices: int, seed: int) -> ProbabilisticGraph:
    """Fixed pokec-analogue topology, uniform(0, 1] probabilities drawn from ``seed``."""
    topology = power_law_cluster_graph(
        num_vertices, attachment=6, triangle_probability=0.6, seed=POKEC_TOPOLOGY_SEED
    )
    model = uniform_probability(0.0, 1.0)
    rng = random.Random(seed)
    graph = ProbabilisticGraph()
    for v in topology.vertices():
        graph.add_vertex(v)
    for u, v, _ in topology.edges():
        graph.add_edge(u, v, model(rng))
    return graph


# --------------------------------------------------------------------------- #
# query bursts
# --------------------------------------------------------------------------- #
class QueryMix:
    """Seeded request generator: Zipf-skewed vertices, a read-mostly op mix."""

    def __init__(self, index, rng: np.random.Generator) -> None:
        self.rng = rng
        self.labels = list(index.vertex_labels)
        self.levels = list(index.levels) or [0]
        ranks = np.arange(1, len(self.labels) + 1, dtype=float)
        weights = ranks**-ZIPF_EXPONENT
        self.popularity = weights / weights.sum()
        self.order = rng.permutation(len(self.labels))

    def _vertices(self, n: int) -> list:
        n = min(n, len(self.labels))
        picks = self.order[
            self.rng.choice(len(self.labels), size=n, replace=False, p=self.popularity)
        ]
        return [self.labels[i] for i in picks.tolist()]

    def request(self, client: int, i: int) -> dict:
        draw = self.rng.random()
        if draw < NUCLEUS_OF_SHARE:
            k = int(self.levels[self.rng.integers(len(self.levels))])
            return {"op": "nucleus_of", "seeds": self._vertices(1), "k": k}
        if draw < NUCLEUS_OF_SHARE + TOP_NUCLEI_SHARE:
            return {"op": "top_nuclei", "n": 5, "by": "density"}
        vertices = self._vertices(REQUEST_SIZES[(client + i) % len(REQUEST_SIZES)])
        if i % CONTAINS_EVERY == CONTAINS_EVERY - 1:
            k = int(self.levels[self.rng.integers(len(self.levels))])
            return {"op": "contains", "vertices": vertices, "k": k}
        return {"op": "max_score", "vertices": vertices}

    def burst(self, per_client: int) -> list[list[dict]]:
        return [[self.request(c, i) for i in range(per_client)] for c in range(CLIENTS)]


async def _closed_loop(service: QueryService, requests: list[dict], out: list) -> None:
    for request in requests:
        started = time.perf_counter()
        response = await service.submit(request)
        out.append((time.perf_counter() - started, request, response))


async def _burst(service: QueryService, workload: list[list[dict]]):
    results: list[list] = [[] for _ in workload]
    started = time.perf_counter()
    await asyncio.gather(
        *(_closed_loop(service, requests, out) for requests, out in zip(workload, results))
    )
    return time.perf_counter() - started, results


# --------------------------------------------------------------------------- #
# workload base
# --------------------------------------------------------------------------- #
class Workload:
    name = ""
    #: Whether the pinned outputs depend on the seed; otherwise one pin, "*".
    pin_per_seed = True
    #: Names of the three timed calls whose medians are op1/op2/op3.
    calls: tuple[str, str, str]
    #: Timed query bursts per round, and requests per client in each.  The
    #: closed loop settles into different batching patterns from burst to
    #: burst, so the latency figures need many bursts more than long ones.
    bursts_per_round = 4
    queries_per_client = 32
    #: Serve an untimed burst first (see serve).
    warm_serving = True
    #: Whether setup() may run again mid-run (it rebuilds the same state), so
    #: that set-up is also timed between rounds, not only at the start.
    setup_repeatable = True

    def __init__(self, seed: int, workdir: Path, pins: dict, repeat: bool) -> None:
        self.seed = seed
        self.workdir = workdir
        self.pinned = pins.get(str(seed), pins.get("*"))
        self.repeat = repeat
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: dict = {}
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.query_latencies: list[float] = []
        #: p99 latency of each timed burst (update-serve's op3).
        self.burst_p99s: list[float] = []
        self.burst_seconds = 0.0
        #: Time inside timed calls and query bursts, for the tracing overhead.
        self.timed_seconds = 0.0
        self.batches = self.batched = self.cache_hits = self.cache_misses = 0
        self.digests: dict[str, str] = {}
        self.query_rng = np.random.default_rng([seed, 7])
        self.loop = asyncio.new_event_loop()

    def close(self) -> None:
        self.loop.close()

    def start_trace(self, tracer) -> None:
        """Route the following rounds through ``tracer``; call and serving counts restart."""
        self.tracer = tracer
        self.samples.clear()
        self.batches = self.batched = self.cache_hits = self.cache_misses = 0

    # -- bookkeeping ---------------------------------------------------- #
    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def root(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def call(self, name: str, fn):
        """Run one timed user-facing call; failures count, the run goes on."""
        self.attempted += 1
        with self.root(f"op.{name}"):
            started = time.perf_counter()
            try:
                result = fn()
            except Exception:  # a failed call is counted and the run goes on
                self.fail(f"{name}: {traceback.format_exc(limit=-3)}")
                return None
            finally:
                seconds = time.perf_counter() - started
                self.samples[name].append(seconds)
                self.timed_seconds += seconds
        return result

    def repeated(self, name: str, fn):
        """``call`` once per round, or several times for a short call (see REPEAT_SECONDS)."""
        result = self.call(name, fn)
        if self.repeat:
            for _ in range(min(REPEAT_MAX, round(REPEAT_SECONDS / self.samples[name][0])) - 1):
                result = self.call(name, fn)
        return result

    def expect(self, key: str, digest: str) -> None:
        """Same digest every round, and equal to the pin when one exists."""
        first = self.digests.setdefault(key, digest)
        if digest != first:
            self.fail(f"{key}: digest {digest} differs from the first round's {first}")
        pinned = (self.pinned or {}).get(key)
        if pinned is not None and pinned != digest:
            self.fail(f"{key}: digest {digest} differs from pinned {pinned}")

    # -- serving ------------------------------------------------------- #
    def serve(self, service: QueryService, mix: QueryMix) -> None:
        if self.warm_serving:
            # A long-lived index: its lazy per-level structures are built by the
            # first queries; time the steady state, not that one-off cost.  The
            # garbage the round's calls left is collected first, so the bursts
            # do not pay for it at random points.
            self.loop.run_until_complete(_burst(service, mix.burst(self.queries_per_client)))
            gc.collect()
        for _ in range(self.bursts_per_round):
            self.serve_burst(service, mix)

    def serve_burst(self, service: QueryService, mix: QueryMix) -> None:
        workload = mix.burst(self.queries_per_client)
        batcher, cache = service.batcher, service.engine.cache
        batches, batched = batcher.batches_flushed, batcher.requests_batched
        hits, misses = cache.hits, cache.misses
        with self.root("op.burst"):
            seconds, results = self.loop.run_until_complete(_burst(service, workload))
        self.burst_seconds += seconds
        self.timed_seconds += seconds
        self.batches += batcher.batches_flushed - batches
        self.batched += batcher.requests_batched - batched
        self.cache_hits += cache.hits - hits
        self.cache_misses += cache.misses - misses
        latencies = [latency for client in results for latency, _, _ in client]
        self.burst_p99s.append(statistics.quantiles(latencies, n=100)[98])
        self.check_answers(service, results)

    def check_answers(self, service: QueryService, results) -> None:
        index = service.index
        direct = NucleusQueryEngine(index)
        for client in results:
            for latency, request, response in client:
                self.attempted += 1
                self.query_latencies.append(latency)
                if response["ok"] and response["revision"] != index.revision:
                    self.fail(f"query answered by revision {response['revision']}")
                    continue
                if len(self.query_latencies) % CHECK_STRIDE:
                    continue
                try:
                    expected = {"ok": True, "result": execute(direct, request)}
                except ReproError as exc:
                    expected = {"ok": False, "type": type(exc).__name__}
                served = (
                    {"ok": True, "result": response["result"]}
                    if response["ok"]
                    else {"ok": False, "type": response["error"]["type"]}
                )
                if served != expected:
                    self.fail(f"served {served!r} != direct {expected!r} for {request!r}")

    # -- hooks --------------------------------------------------------- #
    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> None:
        raise NotImplementedError

    def check(self) -> None:
        """Final checks, outside every timed region."""

    def op_values(self) -> tuple[float, float, float]:
        return tuple(statistics.median(self.samples[name]) for name in self.calls)


# --------------------------------------------------------------------------- #
# peel-dense / peel-hubs
# --------------------------------------------------------------------------- #
class PeelWorkload(Workload):
    calls = ("nucleus", "core", "truss")

    def make_graph(self) -> ProbabilisticGraph:
        raise NotImplementedError

    def setup(self) -> None:
        self.graph = self.make_graph()

    def round(self) -> None:
        graph = self.graph
        index = self.repeated(
            "nucleus", lambda: repro.build_index(graph, mode="local", theta=THETA, backend="csr")
        )
        core = self.repeated("core", lambda: repro.probabilistic_core_decomposition(graph, THETA))
        truss = self.repeated(
            "truss", lambda: repro.probabilistic_truss_decomposition(graph, THETA)
        )
        if self.tracer is not None:
            self.init_probes()
        if index is not None:
            self.expect("nucleus", index_digest(index))
            self.notes.setdefault("max_score", max(index.levels, default=-1))
            self.notes.setdefault("triangles", index.num_triangles)
            self.serve(QueryService(index), QueryMix(index, self.query_rng))
        if core is not None:
            self.expect("core", scores_digest(core))
        if truss is not None:
            self.expect("truss", scores_digest(truss))

    def init_probes(self) -> None:
        """Time the baselines' initialisation on its own (traced run only).

        Both baselines compute their initial scores inline rather than
        through ``eta_degrees`` / ``edge_triangle_probabilities``, so the
        traced run calls those functions once more, over the same graph, to
        split each baseline's time into initialisation and peel.
        """
        graph, tracer = self.graph, self.tracer
        eta_degrees = getattr(probabilistic_core, "eta_degrees", None)
        wedges_of = getattr(probabilistic_truss, "edge_triangle_probabilities", None)
        if eta_degrees is None or wedges_of is None:
            tracer.absent.append("repro.baselines init functions")
            return
        with tracer.span("probe.core_init", "repro.baselines"):
            eta_degrees(graph, THETA)
        estimator = DynamicProgrammingEstimator()
        with tracer.span("probe.truss_init", "repro.baselines"):
            for u, v, _ in graph.edges():
                p, wedges = wedges_of(graph, u, v)
                estimator.max_k(p, wedges, THETA)


class PeelDense(PeelWorkload):
    name = "peel-dense"

    def make_graph(self) -> ProbabilisticGraph:
        return planted_dense_graph(self.seed)


class PeelHubs(PeelWorkload):
    name = "peel-hubs"

    def make_graph(self) -> ProbabilisticGraph:
        return repriced_power_law_graph(2500, self.seed)


# --------------------------------------------------------------------------- #
# global-cliff
# --------------------------------------------------------------------------- #
WEAK_THETAS = (0.1, 0.3, 0.5)
GLOBAL_K = 2


class GlobalCliff(Workload):
    name = "global-cliff"
    calls = ("global", "global_adaptive", "weak")
    pin_per_seed = False

    def setup(self) -> None:
        graph = dataset_spec("flickr", "tiny").generator_spec.build(seed=FLICKR_GRAPH_SEED)
        self.graph = graph
        self.max_scores = {
            theta: repro.decompose(graph, mode="local", theta=theta, backend="csr").max_score
            for theta in WEAK_THETAS
        }
        local = repro.decompose(graph, mode="local", theta=THETA, backend="csr")
        self.local_edges = {
            edge for nucleus in local.nuclei(GLOBAL_K) for edge in _edge_set(nucleus)
        }
        self.index = repro.build_index(graph, mode="local", theta=THETA, backend="csr")

    def weak_grid(self) -> list:
        return [
            (theta, k, repro.decompose(
                self.graph, mode="weak", k=k, theta=theta, backend="csr", seed=SAMPLING_SEED
            ))
            for theta in WEAK_THETAS
            for k in range(1, self.max_scores[theta] + 1)
        ]

    def round(self) -> None:
        graph, seed = self.graph, SAMPLING_SEED
        fixed = self.repeated(
            "global",
            lambda: repro.decompose(
                graph, mode="global", k=GLOBAL_K, theta=THETA, backend="csr", seed=seed
            ),
        )
        adaptive = self.repeated(
            "global_adaptive",
            lambda: repro.decompose(
                graph, mode="global", k=GLOBAL_K, theta=THETA, backend="csr", seed=seed,
                sampling="adaptive",
            ),
        )
        weak = self.repeated("weak", self.weak_grid)
        if fixed is not None:
            self.expect("global", nuclei_digest(fixed))
        if weak is not None:
            self.expect("weak", _digest([(t, k, nuclei_digest(n)) for t, k, n in weak]))
        if adaptive is not None:
            self.check_adaptive(adaptive, fixed or [])
        self.serve(QueryService(self.index), QueryMix(self.index, self.query_rng))

    def check_adaptive(self, adaptive, fixed) -> None:
        """Adaptive sampling is not bit-reproducible against fixed: check invariants."""
        for nucleus in adaptive:
            if not set(_edge_set(nucleus)) <= self.local_edges:
                self.fail("adaptive nucleus leaves the union of the local nuclei")
            if any(nucleus.triangles < other.triangles for other in adaptive):
                self.fail("adaptive result keeps a non-maximal nucleus")
        fixed_sets = {_edge_set(n) for n in fixed}
        self.notes["adaptive_nuclei"] = len(adaptive)
        self.notes["fixed_nuclei"] = len(fixed)
        self.notes["adaptive_agreeing_with_fixed"] = sum(
            _edge_set(n) in fixed_sets for n in adaptive
        )


# --------------------------------------------------------------------------- #
# update-serve
# --------------------------------------------------------------------------- #
#: Six re-prices per delete/insert pair, as in benchmarks/bench_incremental.py:
#: uncertain-graph probabilities are re-estimated far more often than the
#: topology churns.  One batch is one full cycle.
UPDATE_CYCLE = ("change",) * 6 + ("delete", "insert")


class UpdateServe(Workload):
    name = "update-serve"
    bursts_per_round = 1
    queries_per_client = 16
    # Every revision is new: users pay its cold queries, so they are timed.
    warm_serving = False
    # A second setup() would restart the update stream.
    setup_repeatable = False

    def setup(self) -> None:
        graph = repriced_power_law_graph(20_000, self.seed)
        index = build_local_index(graph, THETA, backend="csr")
        self.store = self.workdir / "index.npz"
        index.save(self.store, compress=False)
        self.index = index
        self.labels = sorted(graph.vertices())
        self.edges = {(min(u, v), max(u, v)): p for u, v, p in graph.edges()}
        self.update_rng = random.Random(self.seed)
        self.service = QueryService(self.store, mmap=True)
        self.mix = QueryMix(index, self.query_rng)

    def next_batch(self) -> list:
        batch = []
        for op in UPDATE_CYCLE:
            if op == "insert":
                while True:
                    u, v = self.update_rng.sample(self.labels, 2)
                    key = (min(u, v), max(u, v))
                    if key not in self.edges:
                        break
                p = round(self.update_rng.uniform(0.2, 1.0), 6)
                self.edges[key] = p
                batch.append(incremental.EdgeUpdate("insert", *key, p))
                continue
            key = list(self.edges)[self.update_rng.randrange(len(self.edges))]
            if op == "delete":
                del self.edges[key]
                batch.append(incremental.EdgeUpdate("delete", *key))
                continue
            p = round(min(1.0, max(0.05, self.edges[key] * self.update_rng.uniform(0.9, 1.1))), 6)
            self.edges[key] = p
            batch.append(incremental.EdgeUpdate("change", *key, p))
        return batch

    def publish(self, batch) -> bool:
        """Apply, save by atomic rename, hot-reload: the freshness path."""
        self.index = incremental.apply_updates(self.index, batch)
        staging = self.workdir / "index.staging.npz"
        self.index.save(staging, compress=False)
        os.replace(staging, self.store)
        return self.service.reload_from(self.store)

    def round(self) -> None:
        batch = self.next_batch()
        if self.call("fresh", lambda: self.publish(batch)) is False:
            self.fail("reload did not swap in the new revision")
        self.serve(self.service, self.mix)

    def check(self) -> None:
        graph = ProbabilisticGraph([(u, v, p) for (u, v), p in self.edges.items()])
        for label in self.labels:
            graph.add_vertex(label)
        rebuilt = build_local_index(graph, THETA, backend="csr")
        self.attempted += 1
        if rebuilt.fingerprint != self.index.fingerprint or index_digest(rebuilt) != index_digest(
            self.index
        ):
            self.fail("final incremental index differs from a rebuild of the final graph")
        self.notes["revisions"] = self.index.revision

    def op_values(self) -> tuple[float, float, float]:
        fresh = sorted(self.samples["fresh"])
        q = statistics.quantiles(fresh, n=10) if len(fresh) > 1 else fresh * 9
        # Each burst's p99 is the stall behind a cold revision's first heavy
        # queries; the median over bursts outvotes a rare machine stall.
        return statistics.median(fresh), q[8], statistics.median(self.burst_p99s)


WORKLOADS = {cls.name: cls for cls in (PeelDense, PeelHubs, GlobalCliff, UpdateServe)}
