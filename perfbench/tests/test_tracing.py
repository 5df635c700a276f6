"""Span arithmetic and the name-resolved wrappers."""

import vtangle.census
from vtangle import census, flypes

from layers import WRAPS, layer_metrics
from tracing import Tracer, Wrap, install


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_span_self_time():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def bracket():
        clock.now += 3.0

    def jones():
        clock.now += 1.0
        tr.call("invariants.bracket", bracket)
        clock.now += 2.0

    tr.call("invariants.jones", jones)
    tr.call("invariants.bracket", bracket)

    assert tr.total("invariants.jones") == 6.0
    assert tr.self_time("invariants.jones") == 3.0
    assert tr.total("invariants.bracket") == 6.0
    assert tr.self_time("invariants.bracket") == 6.0
    assert tr.calls("invariants.bracket") == 2
    # Aggregated by (name, parent): one bracket under jones, one at the top.
    assert {(s["name"], s["parent"]) for s in tr.dump()} == {
        ("invariants.jones", None),
        ("invariants.bracket", "invariants.jones"),
        ("invariants.bracket", None),
    }
    assert tr.self_time_under(("invariants.",)) == 9.0


def test_span_closes_when_the_call_raises():
    tr = Tracer()

    def boom():
        raise ValueError("no")

    try:
        tr.call("outer", boom)
    except ValueError:
        pass
    tr.call("after", lambda: None)
    assert ("after", None) in tr.spans


def test_flype_classes_self_time_excludes_wrapped_callees():
    codes = [e.code for e in census.enumerate_diagrams(3, "tangle") if e.genus == 0]
    tr = Tracer()
    installed = install(tr, WRAPS)
    try:
        classes = flypes.flype_classes(codes)
    finally:
        installed.restore()

    callees = sum(tr.total(f"flypes.{s}") for s in ("site_search", "surgery", "canon"))
    assert tr.self_time("flypes.classes") == tr.total("flypes.classes") - callees
    assert {p for (n, p) in tr.spans if n == "flypes.canon"} == {"flypes.classes"}
    m = layer_metrics(tr)
    assert m["flypes.classes"][0] == len(classes) == 4
    assert m["flypes.visits"][0] == len(codes) == 6
    assert m["flypes.applied"][0] == m["flypes.sites"][0] > 0


def test_census_counters():
    tr = Tracer()
    installed = install(tr, WRAPS)
    try:
        entries = list(census.enumerate_diagrams(3, "tangle"))
    finally:
        installed.restore()
    m = layer_metrics(tr)
    assert m["census.emitted"][0] == len(entries) == 82
    assert m["census.leaves"][0] == m["census.canon_calls"][0] >= len(entries)
    assert m["census.accept_ratio"][0] == len(entries) / m["census.leaves"][0]
    assert m["census.enumerate_s"][0] >= m["census.self_s"][0] > 0


def test_absent_targets_are_reported_not_raised():
    original = vtangle.census.canonical_code_stats
    tr = Tracer()
    wraps = (
        Wrap("vtangle.census:_no_such_function", "census.gone"),
        Wrap("vtangle.no_such_module:anything", "nowhere.gone"),
        Wrap("vtangle.census:canonical_code_stats", "census.canon"),
    )
    installed = install(tr, wraps)
    try:
        assert installed.absent == [
            "vtangle.census:_no_such_function",
            "vtangle.no_such_module:anything",
        ]
        assert vtangle.census.canonical_code_stats is not original
        list(census.enumerate_diagrams(2, "link"))
    finally:
        installed.restore()
    assert vtangle.census.canonical_code_stats is original
    assert tr.calls("census.canon") > 0
    assert layer_metrics(tr)["census.canon_calls"][0] == tr.calls("census.canon")
