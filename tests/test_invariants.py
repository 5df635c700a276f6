"""Checks in the invariants module that are exceptions, not ``assert``."""

import pytest

from vtangle.invariants import _RotationDiagram, jones_span
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
