"""One benchmark process: set up a workload, then run passes of it.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``.  It
prints ``ready <seconds>`` as soon as set-up is done, with the time set-up
took in this fresh process (importing the library and building the
inputs), and then one JSON line with the result.

Modes:

* ``setup``: set up and exit (a set-up time sample);
* ``run``: pass after pass until ``--seconds`` have passed; with
  ``--trace 1`` every second pass is traced, so traced and untraced passes
  alternate under the same conditions, and at least ``TRACED_MIN`` traced
  passes run, so that their counts can be compared with each other;
* ``once``: a single pass, traced when ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time

from layers import WRAPS, layer_metrics, layer_self_time
from tracing import Tracer, install
from workloads import WORKLOADS, direct

READY = "ready"
TRACED_MIN = 2


def one_pass(workload, inputs, rng: random.Random, traced: bool, absent: set) -> dict:
    tracer = Tracer() if traced else None
    installed = install(tracer, WRAPS) if traced else None
    span = tracer.call if traced else direct
    try:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        out = workload.run_pass(inputs, rng, span)
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
    finally:
        if installed is not None:
            installed.restore()
    checks = workload.check(out)
    result = {
        "wall": wall,
        "cpu": cpu,
        "traced": traced,
        "attempted": len(checks),
        "failed": [label for label, ok in checks if not ok],
    }
    if traced:
        absent.update(installed.absent)
        result["layers"] = layer_metrics(tracer)
        result["coverage"] = layer_self_time(tracer) / wall
        result["spans"] = tracer.dump()
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--mode", required=True, choices=("setup", "run", "once"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    workload = WORKLOADS[args.workload]
    start = time.perf_counter()
    inputs = workload.setup()
    print(READY, time.perf_counter() - start, flush=True)
    if args.mode == "setup":
        return 0

    rng = random.Random(args.seed)
    absent: set = set()
    passes = []
    if args.mode == "once":
        passes.append(one_pass(workload, inputs, rng, bool(args.trace), absent))
    else:
        deadline = time.perf_counter() + args.seconds
        least = 2 * TRACED_MIN if args.trace else 1
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(one_pass(workload, inputs, rng, traced, absent))
            if time.perf_counter() >= deadline and len(passes) >= least:
                break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(json.dumps({"passes": passes, "peak_rss_mb": peak, "absent": sorted(absent)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
