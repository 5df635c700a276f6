"""Canonical forms and isomorph-free generation, checked against brute force.

The brute-force oracle minimises over the whole relabelling group, which is
feasible up to a handful of crossings; the rooted-code implementation must
induce the same equivalence classes.  Counting identities pin completeness:
summing |group| / |stabilizer| over the classes must reproduce the raw
number of connected permutations.
"""

import itertools
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import vtangle
from vtangle.census import (
    canonical_diagram,
    canonical_form,
    canonical_form_bruteforce,
    count_table,
    enumerate_diagrams,
    relabelling_elements,
    weighted_link_counts,
)
from vtangle.codes import canonical_code_stats, is_canonical, rooted_code
from vtangle.diagrams import LinkDiagram, TangleDiagram, genus, is_connected
from vtangle.perms import conjugate

# Counts per (crossings, genus) lifted from the acceptance tables; the
# census must reproduce them exactly.
TANGLE_ROWS = {
    1: {0: 1, 1: 1},
    2: {0: 2, 1: 8},
    3: {0: 6, 1: 59, 2: 17},
    4: {0: 22, 1: 420, 2: 456},
}

WEIGHTED_LINKS = {
    (1, 0): Fraction(1),
    (2, 0): Fraction(9, 4),
    (2, 1): Fraction(1, 4),
    (3, 0): Fraction(9),
    (3, 1): Fraction(10, 3),
    (4, 0): Fraction(189, 4),
    (4, 1): Fraction(307, 8),
    (4, 2): Fraction(21, 8),
}


def all_link_diagrams(n):
    for sigma in itertools.permutations(range(2 * n)):
        yield LinkDiagram(n, sigma)


# -- canonical forms ---------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_link_canonical_form_matches_bruteforce_exhaustively(n):
    for d in all_link_diagrams(n):
        assert canonical_form(d) == canonical_form_bruteforce(d)


@settings(max_examples=60)
@given(st.permutations(range(8)))
def test_link_canonical_form_matches_bruteforce_sampled(sigma):
    d = LinkDiagram(4, tuple(sigma))
    assert canonical_form(d) == canonical_form_bruteforce(d)


def test_tangle_canonical_form_partitions_like_bruteforce():
    """The marked canonical code may differ from the group-wide minimum on
    diagrams whose scan stalls, but it must cut the same classes."""
    by_oracle = {}
    for sigma in itertools.permutations(range(6)):
        t = TangleDiagram(3, sigma)
        if not is_connected(t):
            continue
        by_oracle.setdefault(canonical_form_bruteforce(t), set()).add(canonical_form(t))
    assert all(len(codes) == 1 for codes in by_oracle.values())
    seen = [next(iter(codes)) for codes in by_oracle.values()]
    assert len(seen) == len(set(seen))


def test_canonical_form_is_idempotent():
    for sigma in itertools.permutations(range(6)):
        t = TangleDiagram(3, sigma)
        if is_connected(t):
            c = canonical_diagram(t)
            assert isinstance(c, TangleDiagram)
            assert canonical_form(c) == c.sigma
    d = canonical_diagram(LinkDiagram.from_code("4:3 4 1 6 2 7 0 5"))
    assert canonical_form(d) == d.sigma


def test_rooted_code_fixes_its_own_trace():
    d = LinkDiagram.from_code("4:3 4 1 6 2 7 0 5")
    c = canonical_form(d)
    assert rooted_code(c, 0) == c
    assert is_canonical(c)


def test_rooted_code_rejects_marked_roots():
    with pytest.raises(ValueError):
        rooted_code((2, 3, 0, 1), 2, marked=True)


# -- generation --------------------------------------------------------------


def test_stream_is_sorted_and_duplicate_free():
    for mode, n in (("link", 3), ("link", 4), ("tangle", 3)):
        codes = [e.diagram.sigma for e in enumerate_diagrams(n, mode, no_self_energy=False)]
        assert codes == sorted(codes)
        assert len(codes) == len(set(codes))
        assert all(is_canonical(c, marked=mode == "tangle") for c in codes)


def test_entries_are_selfconsistent():
    from vtangle.diagrams import component_count, symmetry_order

    for e in enumerate_diagrams(3, "link", no_self_energy=False):
        assert e.genus == genus(e.diagram)
        assert e.components == component_count(e.diagram)
        assert e.symmetry == symmetry_order(e.diagram)
        assert e.diagram.size % e.symmetry == 0


def test_bad_arguments():
    with pytest.raises(ValueError):
        list(enumerate_diagrams(2, "knot"))
    with pytest.raises(ValueError):
        list(enumerate_diagrams(0, "link"))
    with pytest.raises(TypeError):
        list(enumerate_diagrams(2, "link", False))


def test_generator_invariants_raise(monkeypatch):
    """The leaf checks are exceptions, so they also hold under ``python -O``."""
    monkeypatch.setattr("vtangle.census.is_connected", lambda d: False)
    with pytest.raises(RuntimeError):
        list(enumerate_diagrams(2, "link"))


def test_canonical_code_needs_an_admissible_root():
    with pytest.raises(ValueError):
        canonical_code_stats((1, 0), marked=True)


NO_NUMPY_PROBE = """
import sys
from vtangle.census import enumerate_diagrams

list(enumerate_diagrams(2, "tangle"))
assert "numpy" not in sys.modules, "the census imported numpy"
"""


def test_census_never_imports_numpy():
    src = os.path.dirname(os.path.dirname(vtangle.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_PROBE],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


# -- completeness ------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_weighted_classes_account_for_every_connected_link_permutation(n):
    group = 1
    for k in range(1, n + 1):
        group *= 2 * k
    raw = sum(
        1
        for sigma in itertools.permutations(range(2 * n))
        if is_connected(LinkDiagram(n, sigma))
    )
    weights = sum(
        Fraction(1, e.symmetry)
        for e in enumerate_diagrams(n, "link", no_self_energy=False)
    )
    assert weights * group == raw


@pytest.mark.parametrize("total", [2, 3, 4])
def test_trivial_stabilizers_account_for_every_connected_tangle_permutation(total):
    group = 1
    for k in range(1, total):
        group *= 2 * k
    raw = sum(
        1
        for sigma in itertools.permutations(range(2 * total))
        if is_connected(TangleDiagram(total, sigma))
    )
    classes = sum(1 for _ in enumerate_diagrams(total - 1, "tangle", no_self_energy=False))
    assert classes * group == raw


def test_symmetry_orders_match_explicit_stabilizers():
    for e in enumerate_diagrams(3, "link", no_self_energy=False):
        stab = sum(
            1
            for g in relabelling_elements(6)
            if conjugate(g, e.diagram.sigma) == e.diagram.sigma
        )
        assert stab == e.symmetry


# -- frozen tables -----------------------------------------------------------


@pytest.fixture(scope="module")
def tangle_table():
    return count_table(max(TANGLE_ROWS), "tangle")


@pytest.mark.parametrize("n", sorted(TANGLE_ROWS))
def test_tangle_census_rows(n, tangle_table):
    assert tangle_table.row(n) == TANGLE_ROWS[n]


def test_tangle_census_totals(tangle_table):
    assert [sum(tangle_table.row(k).values()) for k in (1, 2, 3, 4)] == [2, 10, 82, 898]


def test_weighted_link_table():
    assert weighted_link_counts(4) == WEIGHTED_LINKS


def test_planar_self_energy_shortcut():
    """On genus 0 a shared white and black face already forces a cut pair."""
    from vtangle.diagrams import _same_cycle_pairs, has_self_energy

    for n in (1, 2, 3, 4):
        for e in enumerate_diagrams(n, "link", no_self_energy=False):
            if e.genus != 0:
                continue
            quick = any(True for _ in _same_cycle_pairs(e.diagram))
            assert quick == has_self_energy(e.diagram)
