"""Paired benchmark runs: a base revision against the working tree.

Usage, from the root of a checkout::

    python3 tools/bench_pairs.py --base HEAD --tag 10 --seconds 20 \\
        --workload link-table=6 --workload tangle-table=2

The base revision's committed files are exported with ``git archive`` into
a temporary directory, so the base run sees no stray file of the working
tree and nothing is registered in the repository.  Both trees are
byte-compiled with ``python -m compileall`` before any run: otherwise the
first runs of a tree write its ``.pyc`` files, and ``setup_s`` and
``peak_rss_mb`` measure that.  For each pair the two trees run
``perfbench/run.py --trace 0`` with the same seed, one after the other, in
alternating order (base first in even pairs), so a slow spell of the
machine is shared by both sides.

The result goes to ``BENCH_<tag>.json`` at the root of the checkout, merged
with the workloads already there.  Per workload and end-to-end metric of
``BENCHMARK.json`` it holds the per-pair values, the median and quartiles
of each side, and the number of pairs the working tree won.  The exit code
is 1 when any run reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> list[float]:
    """First and third quartile (inclusive method); one value is its own."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(pairs: list[tuple[float, float]], better: str) -> dict:
    """Summary of ``(base, head)`` values of one metric over the pairs.

    ``wins`` counts the pairs where the head is strictly better, lower or
    higher as ``better`` says; a tie is no win.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher': {better!r}")
    if not pairs:
        raise ValueError("no pairs to summarize")
    base = [b for b, _ in pairs]
    head = [h for _, h in pairs]
    sign = 1 if better == "lower" else -1
    base_med = statistics.median(base)
    head_med = statistics.median(head)
    return {
        "better": better,
        "base": base,
        "head": head,
        "base_median": base_med,
        "base_quartiles": quartiles(base),
        "head_median": head_med,
        "head_quartiles": quartiles(head),
        "change": (head_med - base_med) / base_med if base_med else None,
        "wins": sum(sign * (b - h) > 0 for b, h in pairs),
        "pairs": len(pairs),
    }


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The committed files of ``rev`` under ``dest``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def compile_tree(tree: Path) -> None:
    for sub in ("src", "perfbench"):
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(tree / sub)],
            check=True,
            stdout=subprocess.DEVNULL,
        )


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result of one untraced ``perfbench/run.py`` run in ``tree``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(base: Path, head: Path, workload: str, pairs: int, seed: int, seconds: float):
    """``pairs`` alternating runs of both trees; the per-pair results."""
    out = []
    for i in range(pairs):
        sides = {}
        order = (("base", base), ("head", head)) if i % 2 == 0 else (("head", head), ("base", base))
        for name, tree in order:
            sides[name] = run_once(tree, workload, seed + i, seconds)
        print(workload, "pair", i + 1, {
            name: {m: round(v["value"], 4) for m, v in r["metrics"].items()}
            for name, r in sides.items()
        }, file=sys.stderr, flush=True)
        out.append(sides)
    return out


def report(runs: list[dict], metrics: list[dict]) -> dict:
    """Per-metric summaries and the correctness of every run."""
    summary = {}
    for m in metrics:
        name = m["name"]
        values = [(r["base"]["metrics"][name]["value"], r["head"]["metrics"][name]["value"])
                  for r in runs]
        summary[name] = {"unit": m["unit"], **summarize(values, m["better"])}
    return {
        "metrics": summary,
        "correct": {side: [r[side]["correct"] for r in runs] for side in ("base", "head")},
        "failed": {side: [r[side]["failed"] for r in runs] for side in ("base", "head")},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="paired perfbench runs, base revision vs working tree")
    p.add_argument("--base", required=True, help="git revision to compare against")
    p.add_argument("--tag", required=True, help="suffix of the BENCH_<tag>.json output")
    p.add_argument("--workload", action="append", required=True, metavar="NAME=PAIRS")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair i adds i")
    args = p.parse_args(argv)

    plan = []
    for item in args.workload:
        name, _, count = item.partition("=")
        plan.append((name, int(count or 1)))
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    out_file = ROOT / f"BENCH_{args.tag}.json"
    doc = json.loads(out_file.read_text()) if out_file.is_file() else {"workloads": {}}
    base_rev = git("rev-parse", args.base)
    head_rev = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain"))

    ok = True
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base = Path(tmp)
        export(base_rev, base)
        compile_tree(base)
        compile_tree(ROOT)
        for name, count in plan:
            runs = measure(base, ROOT, name, count, args.seed, args.seconds)
            entry = report(runs, metrics)
            ok &= all(all(v) for v in entry["correct"].values())
            doc["workloads"][name] = {
                "base": base_rev,
                "head": head_rev + ("+working-tree" if dirty else ""),
                "seconds": args.seconds,
                "seeds": [args.seed + i for i in range(count)],
                "python": platform.python_version(),
                "machine": platform.machine(),
                "nproc": len(os.sched_getaffinity(0)),
                **entry,
            }
            out_file.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
