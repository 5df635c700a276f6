"""Fixtures shared by the test modules."""

import functools

import pytest

from vtangle.census import enumerate_diagrams


@functools.cache
def _census_by_genus(order, mode):
    by_genus = {}
    for e in enumerate_diagrams(order, mode):
        by_genus.setdefault(e.genus, []).append(e)
    return by_genus


@pytest.fixture(scope="session")
def census():
    """``census(order, mode)``: the self-energy-free census entries grouped
    by genus.  Each (order, mode) is enumerated once per session."""
    return _census_by_genus
