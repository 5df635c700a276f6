"""Checks in the invariants module: exceptions, not ``assert``, and the
two bracket engines against each other."""

import pytest

from vtangle.census import enumerate_diagrams
from vtangle.invariants import (
    _RotationDiagram,
    bracket,
    bracket_by_loop_walk,
    jones_span,
)
from vtangle.laurent import MultiLaurentPoly


def test_jones_span_needs_exponents_agreeing_mod_4():
    assert jones_span(MultiLaurentPoly(("a",), {(-4,): 1, (4,): 1})) == 2
    with pytest.raises(ValueError):
        jones_span(MultiLaurentPoly(("a",), {(0,): 1, (2,): 1}))


def test_rotation_diagram_checks_its_wiring():
    """Only the library builds these, so a bad wiring is an internal error."""
    with pytest.raises(RuntimeError):
        _RotationDiagram(1, {})
    with pytest.raises(RuntimeError):
        _RotationDiagram(1, {(0, s): (0, s) for s in range(4)})


def test_bracket_engines_agree_on_every_small_link():
    """The permutation state sum and the rotation-system loop walk share no
    state-sum code; they must agree on all 1,004 link diagrams with at most
    five crossings, self-energies included."""
    seen = 0
    for n in range(1, 6):
        for e in enumerate_diagrams(n, "link", no_self_energy=False):
            assert bracket(e.diagram) == bracket_by_loop_walk(e.diagram), e.code
            seen += 1
    assert seen == 1004
