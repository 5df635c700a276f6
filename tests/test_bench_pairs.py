"""The summary of paired benchmark runs in ``tools/bench_pairs.py``."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_summary_of_a_lower_is_better_metric():
    pairs = [(3.0, 2.0), (2.0, 2.5), (4.0, 1.0), (1.0, 1.0), (5.0, 3.0)]
    s = bench_pairs.summarize(pairs, "lower")
    assert s["base"] == [3.0, 2.0, 4.0, 1.0, 5.0]
    assert s["head"] == [2.0, 2.5, 1.0, 1.0, 3.0]
    assert s["base_median"] == 3.0 and s["head_median"] == 2.0
    assert s["base_quartiles"] == [2.0, 4.0]
    assert s["head_quartiles"] == [1.0, 2.5]
    assert s["wins"] == 3  # the tie (1.0, 1.0) is no win
    assert s["pairs"] == 5
    assert s["change"] == pytest.approx(-1 / 3)


def test_summary_of_a_higher_is_better_metric():
    s = bench_pairs.summarize([(1.0, 2.0), (2.0, 1.0), (1.0, 3.0)], "higher")
    assert s["wins"] == 2
    assert s["base_median"] == 1.0 and s["head_median"] == 2.0


def test_summary_of_one_pair_and_bad_input():
    s = bench_pairs.summarize([(2.0, 1.0)], "lower")
    assert s["base_quartiles"] == [2.0, 2.0] and s["head_quartiles"] == [1.0, 1.0]
    assert s["wins"] == 1
    with pytest.raises(ValueError):
        bench_pairs.summarize([(2.0, 1.0)], "faster")
    with pytest.raises(ValueError):
        bench_pairs.summarize([], "lower")
