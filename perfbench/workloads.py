"""The four benchmark workloads: inputs, one pass, and its output checks.

A pass is one closed-loop unit of work: the next pass starts when the
previous one returned.  ``span(name, fn, *args)`` runs ``fn`` and, in a
traced pass, records it as a benchmark-level slice span; library
functions are always looked up on their module at call time, so traced
wrappers installed on the module are the ones called.

The seed only sets the order in which inputs are fed in: the codes passed
to ``flype_classes`` and the order of the representatives in
``invariants``.  Every check compares with data pinned in ``reference``, so
a check that passes under every seed also shows that the outputs do not
depend on it.  Only ``invariants`` puts that to the test: ``flype_classes``
sorts the codes it is given, so the seed changes nothing the library sees
in ``tangle-table`` and ``link-table``, and ``series-rows`` does not use it.

Sizes are set so that a 20-second run holds at least three passes on
CPython 3.11 without numba (one pass: tangle-table 1.9 s, link-table 8.5 s,
invariants 1.0 s, series-rows 0.3 s on a 2-core x86-64 VM).  Tangles at
n = 5 (about 41 s a pass) and the link records at n = 4 (about 56 s, two
2-cables with |twist| = 4 taking about 20 s each) do not fit.
"""

from __future__ import annotations

import hashlib
import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import reference as ref

Check = tuple[str, bool]


def direct(name: str, fn, *args, **kwargs):
    """The untraced ``span``: call ``fn`` and nothing else."""
    return fn(*args, **kwargs)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def partition_digest(classes) -> str:
    """Order-free digest of a list of flype classes."""
    return digest("\n".join(sorted("|".join(sorted(c.members)) for c in classes)))


def _census_by_genus(span, mode: str, n: int, no_self_energy: bool):
    from vtangle import census

    entries = span(
        f"{mode}.n{n}" if no_self_energy else f"{mode}.n{n}.with_self_energies",
        lambda: list(census.enumerate_diagrams(n, mode, no_self_energy=no_self_energy)),
    )
    by_genus = defaultdict(list)
    for e in entries:
        by_genus[e.genus].append(e)
    return by_genus


def _table_row(out: dict, span, mode: str, n: int, rng: random.Random) -> None:
    """Self-energy-free census of ``n`` crossings, then flype classes per genus."""
    from vtangle import flypes

    by_genus = _census_by_genus(span, mode, n, True)
    parts = []
    for h in sorted(by_genus):
        codes = [e.code for e in by_genus[h]]
        rng.shuffle(codes)
        cls = span(f"{mode}.n{n}.h{h}", flypes.flype_classes, codes)
        out["counts"][n, h], out["classes"][n, h] = len(codes), len(cls)
        parts.extend(cls)
    out["digests"][n] = partition_digest(parts)


def _row_checks(label: str, got: dict, want: Callable[[int, int], object], n_max: int, h_max: int):
    """One check per (n, genus) where either side is nonzero."""
    out = []
    for n in range(1, n_max + 1):
        for h in range(h_max + 1):
            g, w = got.get((n, h), 0), want(n, h)
            if g or w:
                out.append((f"{label} n={n} h={h}", g == w))
    return out


# -- tangle-table and link-table ---------------------------------------------


def table_setup(n_max: int):
    """The table workloads build no inputs; set-up is the import."""
    import vtangle.census  # noqa: F401
    import vtangle.flypes  # noqa: F401

    return {"n_max": n_max}


def tangle_pass(inputs, rng: random.Random, span=direct):
    out = {"n_max": inputs["n_max"], "counts": {}, "classes": {}, "digests": {}}
    for n in range(1, inputs["n_max"] + 1):
        _table_row(out, span, "tangle", n, rng)
    return out


def tangle_checks(out) -> list[Check]:
    n_max = out["n_max"]
    checks = _row_checks(
        "tangle census vs Gamma_h", out["counts"], lambda n, h: ref.GAMMA_ROWS[h][n], n_max, ref.H_MAX
    )
    checks += _row_checks(
        "tangle classes vs Gamma~_h",
        out["classes"],
        lambda n, h: ref.GAMMA_TILDE_ROWS[h][n],
        n_max,
        ref.H_MAX,
    )
    for n in range(1, n_max + 1):
        checks.append(
            (f"tangle partition n={n} (pin)", out["digests"][n] == ref.TANGLE_PARTITION_PINS[n])
        )
    return checks


def link_pass(inputs, rng: random.Random, span=direct):
    out = {"n_max": inputs["n_max"], "weights": {}, "counts": {}, "classes": {}, "digests": {}}
    for n in range(1, inputs["n_max"] + 1):
        # The first census keeps self-energies: the free-energy weights.
        for h, entries in _census_by_genus(span, "link", n, False).items():
            out["weights"][n, h] = sum(Fraction(1, e.symmetry) for e in entries)
        _table_row(out, span, "link", n, rng)
    return out


def link_checks(out) -> list[Check]:
    n_max = out["n_max"]
    checks = _row_checks(
        "link weights vs F_h", out["weights"], lambda n, h: ref.F_ROWS[h][n], n_max, ref.F_H_MAX
    )
    checks += _row_checks(
        "link census (pin)", out["counts"], lambda n, h: ref.LINK_COUNT_PINS.get((n, h), 0), n_max, ref.F_H_MAX
    )
    checks += _row_checks(
        "link classes (pin)",
        out["classes"],
        lambda n, h: ref.LINK_CLASS_PINS.get((n, h), 0),
        n_max,
        ref.F_H_MAX,
    )
    for n in range(1, n_max + 1):
        checks.append(
            (f"link partition n={n} (pin)", out["digests"][n] == ref.LINK_PARTITION_PINS[n])
        )
    return checks


# -- invariants --------------------------------------------------------------


def invariants_setup(n_max: int = 3):
    """Flype-class representatives of the link census, and the groups."""
    from vtangle import flypes, groups
    import vtangle.invariants  # noqa: F401

    reps = []
    for n in range(1, n_max + 1):
        by_genus = _census_by_genus(direct, "link", n, True)
        for h, entries in sorted(by_genus.items()):
            diagrams = {e.code: e.diagram for e in entries}
            for c in flypes.flype_classes(list(diagrams)):
                reps.append((f"links.n{n}.h{h}", c.representative, diagrams[c.representative]))
    return {"n_max": n_max, "reps": reps, "groups": tuple(groups.builtin_groups().values())}


def record_digest(record) -> str:
    return digest(repr(record.separation_key()))


def invariants_pass(inputs, rng: random.Random, span=direct):
    from vtangle import invariants

    reps = list(inputs["reps"])
    rng.shuffle(reps)
    digests = {}
    for slice_name, code, d in reps:
        record = span(
            slice_name, invariants.link_record, d, inputs["groups"], include_cabled=True
        )
        digests[code] = record_digest(record)
    return {"n_max": inputs["n_max"], "digests": digests}


def invariants_checks(out) -> list[Check]:
    want = {
        code: dig
        for code, dig in ref.RECORD_DIGEST_PINS.items()
        if int(code.split(":")[0]) <= out["n_max"]
    }
    got = out["digests"]
    checks = [("invariant records cover every class (pin)", sorted(got) == sorted(want))]
    for code in sorted(got):
        checks.append((f"separation key {code} (pin)", got[code] == want.get(code)))
    return checks


# -- series-rows -------------------------------------------------------------


def series_setup():
    import vtangle.series  # noqa: F401

    return {}


def series_pass(inputs, rng: random.Random, span=direct):
    """Gamma_h and Gamma~_h for every h <= 5 through g^10."""
    from vtangle import series

    order = range(ref.H_MAX + 1)
    gamma = {h: span(f"gamma.h{h}", series.gamma_genus, h, ref.ORDER) for h in order}
    tilde = {h: span(f"tilde.h{h}", series.gamma_tilde, h, ref.ORDER) for h in order}
    return {
        "gamma": {h: [str(c) for c in gamma[h].coeffs] for h in order},
        "tilde": {h: [str(c) for c in tilde[h].coeffs] for h in order},
    }


def series_checks(out) -> list[Check]:
    checks = []
    for h in range(ref.H_MAX + 1):
        want = [str(c) for c in ref.GAMMA_ROWS[h]]
        checks.append((f"Gamma_{h} row", out["gamma"].get(h) == want))
        want = [str(c) for c in ref.GAMMA_TILDE_ROWS[h]]
        checks.append((f"Gamma~_{h} row", out["tilde"].get(h) == want))
    return checks


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    run_pass: Callable
    check: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tangle-table", partial(table_setup, n_max=4), tangle_pass, tangle_checks),
        Workload("link-table", partial(table_setup, n_max=6), link_pass, link_checks),
        Workload("invariants", invariants_setup, invariants_pass, invariants_checks),
        Workload("series-rows", series_setup, series_pass, series_checks),
    )
}
