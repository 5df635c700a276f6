"""The character-sum oracle for the free energies, checked both ways.

The library takes every F_h from the rooted-map recurrence; the character
sum over S_2n in ``oracles`` is its independent reference.  Here that sum
meets a brute-force scan of S_2n and the column orthogonality of the
character table, the recurrence meets the sum at every genus, and the
free energies meet the hook-character closed forms for the leading
coefficients, which the raw scans in ``oracles`` recompute in turn from
the permutation-pair definition.
"""

import itertools
from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from oracles import (
    brute_force_leading,
    brute_force_next,
    class_size,
    cycle_type,
    domino_characters,
    double_factorial,
    f_min,
    f_next,
    free_energy_coefficients,
    hook_character,
    hook_dimension,
    pairing_sum,
    partitions,
)
from vtangle.series import F_genus, _f_rows

F = Fraction


def test_double_factorial():
    assert [double_factorial(k) for k in (0, 1, 2, 3, 5, 7, 8)] == [
        1, 1, 2, 3, 15, 105, 384]


def test_threshold_values():
    assert [f_min(h) for h in range(1, 6)] == [
        F(1, 4), F(21, 8), F(495, 4), F(225225, 16), F(11904165, 4)]


def test_subleading_values():
    assert [f_next(h) for h in range(1, 5)] == [
        F(10, 3), F(483, 5), F(56628, 7), F(1368653)]


def test_formulas_reject_genus_zero():
    with pytest.raises(ValueError):
        f_min(0)
    with pytest.raises(ValueError):
        f_next(0)


def test_closed_forms_head_the_free_energies():
    # The hook-character sums give the two leading coefficients of each
    # genus row; the library's free energies must reproduce them verbatim.
    for h in range(1, 7):
        f = F_genus(h, 13)
        assert all(f[n] == 0 for n in range(2 * h))
        assert f[2 * h] == f_min(h)
        assert f[2 * h + 1] == f_next(h)


# -- the character sum over S_2n ---------------------------------------------


def test_partitions_are_listed_once_each():
    parts = list(partitions(10))
    assert len(parts) == len(set(parts)) == 42
    assert all(sum(p) == 10 and list(p) == sorted(p, reverse=True) for p in parts)


DOMINO_LEVELS = list(domino_characters(8))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pairing_sum_by_brute_force(n):
    """sum over S_2n of N^(c(sigma) + c(sigma rho)), scanned directly."""
    rho = [i ^ 1 for i in range(2 * n)]
    exponents = Counter(
        len(cycle_type(sigma)) + len(cycle_type([sigma[r] for r in rho]))
        for sigma in itertools.permutations(range(2 * n))
    )
    for big_n in (1, 2, 5, 2**64):
        want = sum(c * big_n**e for e, c in exponents.items())
        assert pairing_sum(DOMINO_LEVELS[n], big_n) == want


@pytest.mark.parametrize("n", range(9))
def test_domino_column_orthogonality(n):
    """sum_lambda chi^lambda(2^n)^2 is the centralizer order 2^n n!."""
    assert sum(chi * chi for chi in DOMINO_LEVELS[n].values()) == 2**n * factorial(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_domino_character_on_hooks(n):
    for s in range(2 * n):
        hook = (2 * n - s,) + (1,) * s
        assert DOMINO_LEVELS[n].get(hook, 0) == hook_character(2 * n, s, (2,) * n)


def test_domino_levels_hold_every_nonzero_character():
    """A shape of 2n has chi(2^n) != 0 exactly when it tiles by dominoes,
    that is, when its 2-quotient has n boxes in all: sum p(a) p(n-a) shapes."""
    p = [sum(1 for _ in partitions(m)) for m in range(9)]
    for n, level in enumerate(DOMINO_LEVELS):
        assert all(sum(shape) == 2 * n for shape in level)
        assert len(level) == sum(p[a] * p[n - a] for a in range(n + 1))


def test_free_energy_rows_cover_every_genus_the_order_allows():
    """The recurrence gives the integer map counts Q_h(0..order) for every
    genus the order allows, and F_h[n] = Q_h(n)/(2n)."""
    rows = _f_rows(5)
    assert len(rows) == 3 and all(len(row) == 6 for row in rows)
    assert rows[0][:3] == (1, 2, 9)
    assert all(type(c) is int for row in rows for c in row)
    assert F_genus(0, 5).coeffs[:3] == (0, 1, F(9, 4))
    with pytest.raises(ValueError):
        _f_rows(-1)


def test_recurrence_equals_the_character_sum():
    """The rooted-map recurrence against the character sum at every genus."""
    for order in (*range(7), 15):
        rows = [list(F_genus(h, order).coeffs) for h in range(order // 2 + 1)]
        assert rows == free_energy_coefficients(order)


# -- hooks -------------------------------------------------------------------


@given(st.integers(min_value=2, max_value=40), st.data())
def test_hook_dimension_is_binomial(n2, data):
    s = data.draw(st.integers(min_value=0, max_value=n2 - 1))
    assert hook_dimension(n2, s) == comb(n2 - 1, s)
    assert hook_dimension(n2, s) == hook_dimension(n2, n2 - 1 - s)


def test_hook_dimension_range_check():
    with pytest.raises(ValueError):
        hook_dimension(4, 4)
    with pytest.raises(ValueError):
        hook_character(4, -1, (4,))


def test_hook_characters_on_four_letters():
    # Matches the character table of the symmetric group on 4 letters,
    # hooks being all irreducibles except the two-row square.
    assert [hook_character(4, s, (4,)) for s in range(4)] == [1, -1, 1, -1]
    assert [hook_character(4, s, (2, 2)) for s in range(4)] == [1, -1, -1, 1]
    assert [hook_character(4, s, (3, 1)) for s in range(4)] == [1, 0, 0, 1]


def test_hook_character_rejects_what_it_cannot_do():
    with pytest.raises(ValueError):
        hook_character(4, 1, (2, 1, 1))
    with pytest.raises(ValueError):
        hook_character(4, 1, (3, 2))
    with pytest.raises(ValueError):
        class_size(4, (3, 2))


@pytest.mark.parametrize("n2", [4, 5, 6, 8, 10])
def test_full_cycle_column_orthogonality(n2):
    """Characters vanishing off hooks on a full cycle makes this sum complete.

    Column orthogonality of the character table then says the hook-only
    sum is the centralizer order n2 on the full-cycle class and 0 on
    every other class, with no contribution missing.
    """
    full = lambda cls: sum(
        hook_character(n2, s, (n2,)) * hook_character(n2, s, cls)
        for s in range(n2)
    )
    assert full((n2,)) == n2
    if n2 % 2 == 0:
        assert full((2,) * (n2 // 2)) == 0
    for p in range(1, n2 // 2 + 1):
        if (n2 - p, p) != (n2,):
            assert full((n2 - p, p)) == 0


def test_class_size_against_a_direct_scan():
    counts = Counter(cycle_type(p) for p in itertools.permutations(range(6)))
    assert sum(counts.values()) == factorial(6)
    for cls, size in counts.items():
        assert class_size(6, cls) == size


# -- raw scans ---------------------------------------------------------------


def test_torus_threshold_by_brute_force():
    assert brute_force_leading(1) == f_min(1)


def test_torus_subleading_by_brute_force():
    assert brute_force_next(1) == f_next(1)


def test_scan_feasibility_limits():
    with pytest.raises(ValueError):
        brute_force_leading(3)
    with pytest.raises(ValueError):
        brute_force_next(2)
