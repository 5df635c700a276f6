"""Benchmark of the vtangle census, flype, invariant and series pipelines.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tangle-table --seed 1 --seconds 20 --trace 0

Workloads (single process, single thread, closed loop: a pass starts when
the previous one returned):

* ``tangle-table``: tangle census n = 1..4 split by genus, then
  ``flype_classes`` per (n, genus), checked against Gamma_h and Gamma~_h;
* ``link-table``: link census n = 1..6 twice: with self-energies, checked
  against F_h, and without, with flype classes, checked against pins;
* ``invariants``: ``link_record`` with all built-in groups and the 2-cable
  for every flype-class representative of the link census n = 1..3;
* ``series-rows``: Gamma_h and Gamma~_h for h <= 5 through g^10, each pass
  in a fresh interpreter because the library memoises them.

With ``--trace 0`` the end-to-end metrics are printed: ``wall_s`` and
``cpu_s`` (median of one pass), ``setup_s`` (median time a fresh
interpreter takes to import the library and build the workload's inputs),
``peak_rss_mb``.
With ``--trace 1`` traced and untraced passes alternate and the per-layer
metrics are printed, with the tracing overhead.  The last line of standard
output is the JSON result; a fuller report, with the spans of one traced
pass, is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import READY, TRACED_MIN
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9


def environment() -> dict:
    try:
        import numba  # noqa: F401

        numba_ok = True
    except ImportError:
        numba_ok = False
    return {
        "python": platform.python_version(),
        "numba_importable": numba_ok,
        "VTANGLE_JIT": os.environ.get("VTANGLE_JIT"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def spawn(args: list[str], limit: float) -> tuple[float, dict | None]:
    """Run one worker; return its set-up time and its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        timer = threading.Timer(limit, proc.kill)
        timer.start()
        try:
            first = proc.stdout.readline().split()
            rest = proc.stdout.read().splitlines()
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0 or len(first) != 2 or first[0] != READY:
        raise RuntimeError(f"worker {' '.join(args)} failed (exit code {code})")
    return float(first[1]), json.loads(rest[-1]) if rest else None


def collect(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Setup samples, passes, peak memory and absent trace targets."""
    common = ["--workload", workload, "--seed", str(seed)]
    setup, passes, peaks, absent = [], [], [], set()

    def take(ready: float, result: dict) -> None:
        setup.append(ready)
        passes.extend(result["passes"])
        peaks.append(result["peak_rss_mb"])
        absent.update(result["absent"])

    if workload == "series-rows":
        deadline = time.perf_counter() + seconds
        rep = 0
        while rep < 2 * TRACED_MIN or time.perf_counter() < deadline:
            traced = int(trace and rep % 2)
            args = [*common, "--trace", str(traced), "--mode", "once"]
            take(*spawn(args, limit=120))
            rep += 1
    else:
        # Set-up samples come from fresh processes before and after the
        # timed loop, so a slow spell of the machine does not take them all.
        def setup_only():
            setup.append(spawn([*common, "--mode", "setup"], limit=120)[0])

        for _ in range(SETUP_SAMPLES // 2):
            setup_only()
        args = [*common, "--trace", str(trace), "--mode", "run", "--seconds", str(seconds)]
        take(*spawn(args, limit=seconds + 120))
        for _ in range(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2):
            setup_only()
    return {"setup": setup, "passes": passes, "peak_rss_mb": max(peaks), "absent": sorted(absent)}


def end_to_end(runs: dict) -> dict:
    plain = [p for p in runs["passes"] if not p["traced"]]
    return {
        "wall_s": (statistics.median(p["wall"] for p in plain), "s"),
        "cpu_s": (statistics.median(p["cpu"] for p in plain), "s"),
        "setup_s": (statistics.median(runs["setup"]), "s"),
        "peak_rss_mb": (runs["peak_rss_mb"], "MB"),
    }


def per_layer(runs: dict) -> tuple[dict, list[tuple[str, bool]]]:
    """Layer metrics over the traced passes: median times, exact counts.

    Also returns one check per count and ratio: it must repeat exactly
    from one traced pass to the next, over at least ``TRACED_MIN`` passes.
    """
    traced = [p for p in runs["passes"] if p["traced"]]
    plain = [p for p in runs["passes"] if not p["traced"]]
    out = {}
    checks = [(f"at least {TRACED_MIN} traced passes", len(traced) >= TRACED_MIN)]
    for name, (value, unit) in traced[0]["layers"].items():
        values = [p["layers"][name][0] for p in traced]
        if unit == "s":
            value = statistics.median(values)
        else:
            checks.append((f"{name} repeats across traced passes", len(set(values)) == 1))
        out[name] = (value, unit)
    wall = statistics.median(p["wall"] for p in traced)
    untraced = statistics.median(p["wall"] for p in plain)
    out["trace.wall_s"] = (wall, "s")
    out["trace.untraced_wall_s"] = (untraced, "s")
    out["trace.overhead_frac"] = ((wall - untraced) / untraced, "ratio")
    out["trace.layer_coverage"] = (statistics.median(p["coverage"] for p in traced), "ratio")
    out["trace.absent_targets"] = (len(runs["absent"]), "count")
    return out, checks


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="vtangle benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "vtangle" / "__init__.py").is_file():
        print(f"no vtangle sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runs = collect(args.workload, args.seed, args.seconds, args.trace)
    failed = [label for p in runs["passes"] for label in p["failed"]]
    attempted = sum(p["attempted"] for p in runs["passes"])
    if args.trace:
        metrics, checks = per_layer(runs)
        failed += [label for label, ok in checks if not ok]
        attempted += len(checks)
    else:
        metrics = end_to_end(runs)

    env = environment()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "setup_samples": runs["setup"],
        "passes": [{k: p[k] for k in ("wall", "cpu", "traced")} for p in runs["passes"]],
        "absent_targets": runs["absent"],
        "spans": next((p["spans"] for p in runs["passes"] if p["traced"]), []),
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1))

    print(json.dumps({"env": env}))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"checks_failed_frac = {len(failed) / attempted:.6g} ({len(failed)} of {attempted})")
    for label in failed[:20]:
        print(f"FAILED: {label}")
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
