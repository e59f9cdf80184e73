"""End-to-end benchmark of the repro library, with an optional traced run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload peel-dense --seed 1 --seconds 33 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing and telemetry off.
``--trace 1`` spends the first half of ``--seconds`` on untraced rounds and
the second half on rounds traced from outside (see ``tracer.py``), and
reports the per-layer metrics, each layer's self time, the untraced
remainder of the benchmark's own calls and the tracing overhead.  Spans are
written to ``perfbench/out/`` when the run ends.

Human-readable lines come first; the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-up is repeated at least SETUP_MIN times and until SETUP_SECONDS have
#: passed, and (where it can be) once more after every untraced round, so the
#: samples span the whole run; setup_s is their median.
SETUP_MIN, SETUP_SECONDS = 3, 2.0

#: What each workload's op1/op2/op3 end-to-end metric measures (DESIGN.md).
CALL_ALIASES = {
    "peel-dense": ("nucleus_s", "core_s", "truss_s"),
    "peel-hubs": ("nucleus_s", "core_s", "truss_s"),
    "global-cliff": ("global_s", "global_adaptive_s", "weak_s"),
    "update-serve": ("fresh_p50_s", "fresh_p90_s", "query_p99_s"),
}


def time_setup(workload, setup: list[float]) -> None:
    gc.collect()
    started = time.perf_counter()
    workload.setup()
    setup.append(time.perf_counter() - started)


def resolved_kernel() -> str:
    """The kernel the library's default ``kernel`` argument resolves to here."""
    from repro.index.builders import build_local_index
    from repro.kernels import resolve_kernel

    parameter = inspect.signature(build_local_index).parameters.get("kernel")
    if parameter is None:
        return "absent"
    return resolve_kernel(parameter.default, warn=False)


def run_rounds(workload, seconds: float, setup: list[float] | None = None) -> list[float]:
    """Run rounds while the time left covers at least half a typical round.

    With ``setup`` given, set-up is timed again after each round (see
    SETUP_MIN).  Returns the timed work (calls plus query bursts) of each round.
    """
    started = time.perf_counter()
    work = []
    while True:
        before = workload.timed_seconds
        workload.round()
        work.append(workload.timed_seconds - before)
        if setup is not None and workload.setup_repeatable:
            time_setup(workload, setup)
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(work) / 2 > seconds:
            return work


def end_to_end_metrics(workload, setup: list[float]) -> dict:
    op1, op2, op3 = workload.op_values()
    latencies = workload.query_latencies
    return {
        "setup_s": (statistics.median(setup), "s"),
        "op1_s": (op1, "s"),
        "op2_s": (op2, "s"),
        "op3_s": (op3, "s"),
        "query_p50_us": (statistics.median(latencies) * 1e6, "us"),
        # p90, not p99: on a warm index the last percent is the shared
        # machine's timer jitter around the 2 ms linger, which swung a p99
        # by 45% between runs.  update-serve's systematic p99 is its op3.
        "query_p90_us": (statistics.quantiles(latencies, n=10)[8] * 1e6, "us"),
        "query_qps": (len(latencies) / workload.burst_seconds, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _counter(snapshot: dict, name: str) -> float:
    return sum(m["value"] for m in snapshot["metrics"] if m["name"] == name)


def per_layer_metrics(workload, tracer, rounds: int, untraced: list[float],
                      traced: list[float], obs_before: dict, obs_after: dict) -> dict:
    from layers import GLOBAL_ROOTS, LAYERS, SPAN_METRICS

    chains = tracer.ancestors()
    own = tracer.self_seconds()
    spans = tracer.spans

    def select(names, under):
        for record, chain, self_time in zip(spans, chains, own):
            if record.name not in names:
                continue
            if under is not None and not any(a in under for a in chain):
                continue
            yield record, chain, self_time

    values: dict[str, float] = {}
    units: dict[str, str] = {}
    for metric, unit, kind, names, under, attr in SPAN_METRICS:
        chosen = list(select(names, under))
        if kind == "time":
            total = sum(r.seconds for r, chain, _ in chosen if not any(a in names for a in chain))
        elif kind == "self":
            total = sum(s for _, _, s in chosen)
        elif kind == "count":
            total = len(chosen)
        else:
            total = sum(r.attrs.get(attr, 0) for r, _, _ in chosen)
        values[metric] = total / rounds
        units[metric] = unit

    for baseline in ("core", "truss"):
        name = f"baselines.{baseline}.peel_s"
        call = sum(workload.samples[baseline]) / rounds
        values[name] = max(0.0, call - values[f"baselines.{baseline}.init_s"])
        units[name] = "s"

    candidates = values["global.distinct_candidates"] * rounds
    passed = sum(r.attrs["passed"] for r, _, _ in select(("verify.candidate",), GLOBAL_ROOTS))
    adaptive = len(list(select(("verify.candidate",), ("op.global_adaptive",))))
    early = _counter(obs_after, "repro_sampling_early_stops_total") - _counter(
        obs_before, "repro_sampling_early_stops_total"
    )
    ratios = {
        "verify.pass_ratio": passed / candidates if candidates else 0.0,
        "verify.worlds_per_candidate": values["verify.worlds"] * rounds / candidates
        if candidates else 0.0,
        "verify.early_stop_ratio": early / adaptive if adaptive else 0.0,
        "query.cache_hit_rate": workload.cache_hits
        / max(1, workload.cache_hits + workload.cache_misses),
    }
    for name, value in ratios.items():
        values[name], units[name] = value, "ratio"
    for name, counter in (("peel.pops", "repro_peel_pops_total"),
                          ("peel.repairs", "repro_peel_repairs_total")):
        values[name] = (_counter(obs_after, counter) - _counter(obs_before, counter)) / rounds
        units[name] = "count"
    values["serve.batches"] = workload.batches / rounds
    values["serve.batch_size_mean"] = workload.batched / max(1, workload.batches)
    units["serve.batches"] = units["serve.batch_size_mean"] = "count"

    by_layer = tracer.self_by_layer("op.")
    for layer in LAYERS:
        name = "self." + layer.removeprefix("repro.") + "_s"
        values[name], units[name] = by_layer.get(layer, 0.0) / rounds, "s"
    # The benchmark's own root spans: what no wrapped entry point accounts for.
    values["trace.untraced_s"] = by_layer.get("bench", 0.0) / rounds
    units["trace.untraced_s"] = "s"
    untraced_work = statistics.median(untraced)
    traced_work = statistics.median(traced)
    values["trace.overhead_s"], units["trace.overhead_s"] = traced_work - untraced_work, "s"
    values["trace.overhead_ratio"] = traced_work / untraced_work - 1
    units["trace.overhead_ratio"] = "ratio"
    return {name: (values[name], units[name]) for name in values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}: run from a checkout", file=sys.stderr)
        return 2
    # The untraced run must see telemetry off, whatever the caller's shell says.
    os.environ.pop("REPRO_OBS", None)
    os.environ.pop("REPRO_OBS_SINK", None)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    import numpy as np
    import repro.obs
    from layers import TARGETS
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    pins = json.loads((HERE / "pins.json").read_text()).get(args.workload, {})
    out_dir = HERE / "out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir, pins, repeat=not args.trace)
    try:
        setup = []
        while len(setup) < SETUP_MIN or sum(setup) < SETUP_SECONDS:
            time_setup(workload, setup)
        if args.trace:
            untraced = run_rounds(workload, args.seconds / 2)
            tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
            repro.obs.configure(enabled=True)
            obs_before = repro.obs.snapshot()
            workload.start_trace(tracer)
            tracer.install(TARGETS)
            try:
                traced = run_rounds(workload, args.seconds / 2)
            finally:
                tracer.uninstall()
            obs_after = repro.obs.snapshot()
            repro.obs.configure(enabled=False)
            tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
            workload.check()
            rounds = len(traced)
            metrics = per_layer_metrics(
                workload, tracer, rounds, untraced, traced, obs_before, obs_after
            )
            absent = tracer.absent
        else:
            rounds = len(run_rounds(workload, args.seconds, setup))
            workload.check()
            metrics = end_to_end_metrics(workload, setup)
            absent = []
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    aliases = dict(zip(("op1_s", "op2_s", "op3_s"), CALL_ALIASES[args.workload]))
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds, {len(setup)} set-ups; "
          f"kernel={resolved_kernel()} "
          f"python={platform.python_version()} "
          f"numpy={np.__version__} nproc={os.cpu_count()}")
    for name, (value, unit) in metrics.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"  {name} = {value:.6g} {unit}{alias}")
    error_rate = workload.failed / max(1, workload.attempted)
    print(f"  error_rate = {error_rate:.6g} ({workload.failed}/{workload.attempted})")
    for key, value in workload.notes.items():
        print(f"  note {key} = {value}")
    if absent:
        print("  absent (wrapped name not found): " + ", ".join(absent))
    for problem in workload.problems:
        print(f"  FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": workload.failed == 0,
                "attempted": workload.attempted,
                "failed": workload.failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
