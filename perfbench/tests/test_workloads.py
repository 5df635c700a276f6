"""Reduced-size smoke runs of every workload, and the command's contract."""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads as W
from run import per_layer
from worker import one_pass

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

SMALL = {
    "tangle-table": {"n_max": 3},
    "link-table": {"n_max": 4},
    "invariants": {"n_max": 2},
    "series-rows": {},
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_reduced_workload_passes_its_checks(name):
    w = W.WORKLOADS[name]
    inputs = w.setup(**SMALL[name])
    outputs = [w.run_pass(inputs, random.Random(seed)) for seed in (1, 2)]
    checks = w.check(outputs[0])
    assert checks
    assert [label for label, ok in checks if not ok] == []
    assert outputs[0] == outputs[1]  # the seed only reorders inputs


@pytest.mark.parametrize("name", ["tangle-table", "invariants", "series-rows"])
def test_traced_pass_covers_its_wall_time(name):
    w = W.WORKLOADS[name]
    result = one_pass(w, w.setup(**SMALL[name]), random.Random(0), True, set())
    assert result["failed"] == []
    assert result["coverage"] >= 0.9
    with open(ROOT / "BENCHMARK.json") as f:
        names = {m["name"] for m in json.load(f)["per_layer"]}
    assert set(result["layers"]) <= names


def test_mismatched_output_fails_a_check():
    w = W.WORKLOADS["tangle-table"]
    out = w.run_pass(w.setup(n_max=2), random.Random(0))
    out["classes"][2, 1] += 1
    assert [label for label, ok in w.check(out) if not ok] == ["tangle classes vs Gamma~_h n=2 h=1"]


def test_per_layer_counts_must_repeat_over_two_traced_passes():
    def traced(leaves):
        layers = {"census.enumerate_s": (1.0, "s"), "census.leaves": (leaves, "count")}
        return {"traced": True, "wall": 1.0, "coverage": 1.0, "layers": layers}

    untraced = {"traced": False, "wall": 1.0}

    def failed(*passes):
        runs = {"passes": [untraced, *passes], "absent": []}
        return [label for label, ok in per_layer(runs)[1] if not ok]

    assert failed(traced(7), traced(7)) == []
    assert failed(traced(7), traced(8)) == ["census.leaves repeats across traced passes"]
    assert failed(traced(7)) == ["at least 2 traced passes"]


def _run(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_command_prints_every_declared_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _run(ROOT, "--workload", "series-rows", "--seed", "3", "--seconds", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        want = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "tangle-table", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
