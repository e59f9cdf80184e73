"""Write ``pins.json``: output digests of the exact paths, per workload seed.

The benchmark fails a run whose digests differ from the pins, so pins are
regenerated only when a change is meant to alter outputs.  Run from the root
of a checkout::

    python3 perfbench/pin.py --first 0 --count 30

Pinned paths: the local DP index (every array), the core and truss scores
(``peel-*``), and the fixed-sampling global nuclei and weak grid nuclei
(``global-cliff``).  ``update-serve`` needs no pins: it checks itself against
a rebuild of the final graph.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINNED_WORKLOADS = ("peel-dense", "peel-hubs", "global-cliff")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--count", type=int, default=30)
    parser.add_argument("--workloads", nargs="*", default=PINNED_WORKLOADS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    path = HERE / "pins.json"
    pins = json.loads(path.read_text()) if path.exists() else {}
    workdir = HERE / "out" / "pin"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in args.workloads:
            per_seed = WORKLOADS[name].pin_per_seed
            for seed in range(args.first, args.first + args.count) if per_seed else [0]:
                workload = WORKLOADS[name](seed, workdir, {}, repeat=False)
                try:
                    workload.setup()
                    workload.round()
                finally:
                    workload.close()
                if workload.failed:
                    print(f"{name} seed {seed}: {workload.problems}", file=sys.stderr)
                    return 1
                pins[name] = {**pins.get(name, {}), str(seed) if per_seed else "*": workload.digests}
                print(name, seed, workload.digests, flush=True)
                path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
