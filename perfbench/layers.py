"""Which ``vtangle`` functions the traced run wraps, and the per-layer
metrics derived from one traced pass.

Every ``*_s`` metric is the self time of its span (the time not covered by
a wrapped callee), except the layer entry points ``census.enumerate_s``,
``flypes.classes_s`` and ``invariants.record_s``, which are inclusive; their
self time is reported as ``census.self_s``, ``flypes.self_s`` and
``invariants.self_s``.  ``census.self_s`` thus covers leaf generation and
building the diagram objects.
"""

from __future__ import annotations

from tracing import Tracer, Wrap

GROUPS = ("S3", "A4", "A5", "S4", "A5xZ2")

# Span-name prefixes that belong to the library; the benchmark's own slice
# spans ("tangle.n4.h1", ...) are outside them.
LAYER_PREFIXES = ("census.", "flypes.", "invariants.", "laurent.", "series.")


def _add(name: str, amount=lambda args, result: 1):
    def after(tracer: Tracer, args, result) -> None:
        tracer.counts[name] += amount(args, result)

    return after


def _after_classes(tracer: Tracer, args, result) -> None:
    tracer.counts["flypes.classes"] += len(result)
    tracer.counts["flypes.members"] += sum(c.size for c in result)
    biggest = max((c.size for c in result), default=0)
    tracer.counts["flypes.max_class"] = max(tracer.counts["flypes.max_class"], biggest)


WRAPS = (
    Wrap(
        "vtangle.census:enumerate_diagrams",
        "census.enumerate",
        kind="list",
        after=_add("census.emitted", lambda args, result: len(result)),
    ),
    Wrap("vtangle.census:_tangle_leaves", "census.leaves", kind="count_yields"),
    Wrap("vtangle.census:_link_leaves", "census.leaves", kind="count_yields"),
    Wrap("vtangle.census:canonical_code_stats", "census.canon"),
    Wrap("vtangle.census:is_connected", "census.connect"),
    Wrap("vtangle.census:genus", "census.genus"),
    Wrap(
        "vtangle.census:has_self_energy",
        "census.self_energy",
        after=_add("census.self_energy_rejects", lambda args, result: int(bool(result))),
    ),
    Wrap("vtangle.flypes:flype_classes", "flypes.classes", after=_after_classes),
    Wrap(
        "vtangle.flypes:flype_sites",
        "flypes.site_search",
        after=_add("flypes.sites", lambda args, result: len(result)),
    ),
    Wrap("vtangle.flypes:apply_flype", "flypes.surgery"),
    Wrap("vtangle.flypes:canonical_diagram", "flypes.canon"),
    Wrap("vtangle.invariants:link_record", "invariants.record"),
    Wrap(
        "vtangle.invariants:bracket",
        "invariants.bracket",
        # 2^crossings states per call, computed from the input size.
        after=_add("invariants.bracket_states_computed", lambda args, result: 2 ** args[0].n),
    ),
    Wrap("vtangle.invariants:jones", "invariants.jones"),
    Wrap("vtangle.invariants:alexander_canonical", "invariants.alexander"),
    Wrap("vtangle.invariants:determinant_invariant", "invariants.determinant"),
    Wrap("vtangle.invariants:cabled_jones", "invariants.cabled"),
    Wrap(
        "vtangle.invariants:group_morphism_count",
        None,
        span_of=lambda args: f"invariants.morphisms.{args[1].name}",
    ),
    Wrap("vtangle.invariants:det", "laurent.det"),
    # The series functions are memoised and each looks up its upstream
    # stage in the module namespace, so every span's self time is the cost
    # of its own stage: the first call computes it, later ones hit the cache.
    Wrap("vtangle.series:_f_rows", "series.free_energy"),
    Wrap("vtangle.series:alpha_series", "series.alpha"),
    Wrap("vtangle.series:gamma_genus", "series.gamma"),
    Wrap("vtangle.series:g0_series", "series.g0"),
    Wrap("vtangle.series:gamma_tilde", "series.gamma_tilde"),
)

SERIES_STAGES = ("free_energy", "alpha", "gamma", "g0", "gamma_tilde")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as ``name -> (value, unit)``."""
    c = tr.counts
    out: dict[str, tuple[float, str]] = {}

    def secs(name: str, value: float) -> None:
        out[name] = (value, "s")

    def count(name: str, value: int) -> None:
        out[name] = (value, "count")

    secs("census.enumerate_s", tr.total("census.enumerate"))
    secs("census.self_s", tr.self_time("census.enumerate"))
    for stage in ("canon", "connect", "genus", "self_energy"):
        secs(f"census.{stage}_s", tr.self_time(f"census.{stage}"))
    count("census.leaves", c["census.leaves"])
    count("census.canon_calls", tr.calls("census.canon"))
    count("census.self_energy_rejects", c["census.self_energy_rejects"])
    count("census.emitted", c["census.emitted"])
    out["census.accept_ratio"] = (_ratio(c["census.emitted"], c["census.leaves"]), "ratio")

    secs("flypes.classes_s", tr.total("flypes.classes"))
    secs("flypes.site_search_s", tr.self_time("flypes.site_search"))
    secs("flypes.surgery_s", tr.self_time("flypes.surgery"))
    secs("flypes.canon_s", tr.self_time("flypes.canon"))
    secs("flypes.self_s", tr.self_time("flypes.classes"))
    count("flypes.visits", tr.calls("flypes.site_search"))
    count("flypes.sites", c["flypes.sites"])
    count("flypes.applied", tr.calls("flypes.surgery"))
    count("flypes.classes", c["flypes.classes"])
    count("flypes.max_class", c["flypes.max_class"])
    out["flypes.new_ratio"] = (
        _ratio(c["flypes.members"] - c["flypes.classes"], tr.calls("flypes.surgery")),
        "ratio",
    )

    secs("invariants.record_s", tr.total("invariants.record"))
    secs("invariants.self_s", tr.self_time("invariants.record"))
    for stage in ("bracket", "jones", "alexander", "determinant", "cabled"):
        secs(f"invariants.{stage}_s", tr.self_time(f"invariants.{stage}"))
    for group in GROUPS:
        secs(f"invariants.morphisms.{group}_s", tr.self_time(f"invariants.morphisms.{group}"))
    count("invariants.records", tr.calls("invariants.record"))
    count("invariants.bracket_states_computed", c["invariants.bracket_states_computed"])

    secs("laurent.det_s", tr.self_time("laurent.det"))
    count("laurent.det_calls", tr.calls("laurent.det"))

    for stage in SERIES_STAGES:
        secs(f"series.{stage}_s", tr.self_time(f"series.{stage}"))
    return out


def layer_self_time(tr: Tracer) -> float:
    """Self time of every library span, for the coverage of a traced pass."""
    return tr.self_time_under(LAYER_PREFIXES)
