"""Permutation utilities: algebraic identities and round-trips."""

import pytest
from hypothesis import given, strategies as st

from vtangle.perms import (
    compose,
    conjugate,
    cycle_count,
    cycles,
    format_perm,
    identity,
    inverse,
    is_fixed_point_free,
    is_involution,
    pair_normalizer,
    parse_perm,
    rho_perm,
)

from oracles import cycle_type, from_cycles

perms = st.integers(1, 9).flatmap(lambda n: st.permutations(range(n)).map(tuple))
even_perms = st.integers(1, 4).flatmap(
    lambda k: st.permutations(range(2 * k)).map(tuple)
)


@st.composite
def pairings(draw):
    """A fixed-point-free involution, built by pairing a shuffle."""
    k = draw(st.integers(1, 4))
    order = draw(st.permutations(range(2 * k)))
    p = [0] * (2 * k)
    for a, b in zip(order[::2], order[1::2]):
        p[a], p[b] = b, a
    return tuple(p)


@st.composite
def perm_pairs(draw, even=False):
    n = 2 * draw(st.integers(1, 4)) if even else draw(st.integers(1, 8))
    p = tuple(draw(st.permutations(range(n))))
    q = tuple(draw(st.permutations(range(n))))
    return p, q


@given(perms)
def test_inverse_undoes_compose(p):
    n = len(p)
    assert compose(p, inverse(p)) == identity(n)
    assert compose(inverse(p), p) == identity(n)


@given(perm_pairs())
def test_compose_applies_right_first(pq):
    p, q = pq
    r = compose(p, q)
    for i in range(len(p)):
        assert r[i] == p[q[i]]


@given(even_perms)
def test_conjugate_moves_points(p):
    g = rho_perm(len(p))
    c = conjugate(g, p)
    for i in range(len(p)):
        assert c[g[i]] == g[p[i]]


@given(perm_pairs(even=True))
def test_conjugation_is_multiplicative(gp):
    g, p = gp
    assert conjugate(g, compose(p, p)) == compose(conjugate(g, p), conjugate(g, p))


@given(perms)
def test_cycles_reconstruct(p):
    assert from_cycles(len(p), cycles(p)) == p
    assert cycle_count(p) == len(cycles(p))


@given(perms)
def test_cycle_type_accounts_for_every_point(p):
    t = cycle_type(p)
    assert sum(t) == len(p)
    assert sorted(t, reverse=True) == list(t)
    assert len(t) == cycle_count(p)


@given(pairings())
def test_pair_normalizer_reaches_normal_pairing(pairing):
    assert is_involution(pairing) and is_fixed_point_free(pairing)
    g = pair_normalizer(pairing)
    assert conjugate(g, pairing) == rho_perm(len(pairing))


def test_pair_normalizer_rejects_non_pairings():
    with pytest.raises(ValueError):
        pair_normalizer((0, 1))  # fixed points
    with pytest.raises(ValueError):
        pair_normalizer((1, 2, 0))  # a 3-cycle


@given(perms)
def test_text_round_trip(p):
    assert parse_perm(format_perm(p)) == p


def test_rho_is_a_normal_pairing():
    for n2 in (2, 4, 6, 10):
        r = rho_perm(n2)
        assert is_involution(r) and is_fixed_point_free(r)
        assert all(r[2 * a] == 2 * a + 1 for a in range(n2 // 2))


def test_worked_cycles():
    p = parse_perm("3 4 1 6 2 7 0 5")
    assert cycles(p) == ((0, 3, 6), (1, 4, 2), (5, 7))
    assert compose(p, rho_perm(8))[0] == 4
