"""Run every workload over several seeds and record the results as one JSON file.

Run from the root of a checkout::

    python3 perfbench/collect.py --label seed-157d8c9 --seeds 1-10 \\
        --out perfbench/results/seed-157d8c9.json

Each seed is one untraced run per workload (``run.py --trace 0``); one more
traced run per workload (on the first seed) gives the per-layer numbers.
The file records, per workload and end-to-end metric, every run's value, the
median and the quartile spread (``(q3 - q1) / median``, the steadiness figure
the benchmark is held to), plus the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
               str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, check=True, timeout=600)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    print(f"{workload} seed {seed} trace {trace}: {result['wall_s']:.1f} s, "
          f"failed {result['failed']}/{result['attempted']}", flush=True)
    return result


def _summary(runs: list[dict]) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="what was measured, e.g. a commit")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seeds = _seeds(args.seeds)
    sys.path.insert(0, str(HERE.parent / "src"))
    import numpy
    from run import resolved_kernel

    report = {
        "label": args.label,
        "run_seconds": seconds,
        "seeds": seeds,
        "machine": {
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            # Every call leaves ``kernel`` at the library default.
            "kernel": resolved_kernel(),
        },
        "workloads": {},
    }
    for workload in workloads:
        runs = [_run(workload, seed, seconds, 0) for seed in seeds]
        entry = {"runs": runs, "summary": _summary(runs)}
        entry["traced"] = _run(workload, seeds[0], seconds, 1)
        report["workloads"][workload] = entry
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, entry in report["workloads"].items():
        failed = sum(run["failed"] for run in entry["runs"])
        attempted = sum(run["attempted"] for run in entry["runs"])
        print(f"{workload:13s} error_rate     {failed / attempted:.6g} ({failed}/{attempted})")
        for name, row in entry["summary"].items():
            print(f"{workload:13s} {name:14s} median {row['median']:12.6g} {row['unit']:5s} "
                  f"spread {row['spread']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
