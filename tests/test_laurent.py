"""Ring laws, determinants, and unit normalization for Laurent polynomials."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vtangle.laurent import MultiLaurentPoly, det, normalize_unit

from oracles import _det_bareiss, divexact, evaluate, power, variable

AB = ("a",)
TS = ("t", "s")


def poly(terms, variables=TS):
    return MultiLaurentPoly(variables, terms)


def a_power(k, coeff=1):
    return MultiLaurentPoly(AB, {(k,): coeff})


@st.composite
def sparse_polys(draw, variables=TS, max_terms=5, span=3):
    k = len(variables)
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.integers(-span, span)) for _ in range(k))
        terms[exps] = draw(st.integers(-9, 9))
    return MultiLaurentPoly(variables, terms)


# -- arithmetic --------------------------------------------------------------


def test_difference_of_inverse_powers():
    a = variable("a", AB)
    assert (a + power(a, -1)) * (a - power(a, -1)) == power(a, 2) - power(a, -2)


def test_evaluate_at_one():
    p = -(a_power(2)) - a_power(-2)
    assert evaluate(p, {"a": 1}) == -2
    assert evaluate(p, {"a": 2}) == Fraction(-17, 4)


def test_partial_evaluation_keeps_a_polynomial():
    p = poly({(1, 1): 2, (0, 2): 1, (3, 0): -1})
    q = evaluate(p, {"s": 1})
    assert q.variables == ("t",)
    assert q == MultiLaurentPoly(("t",), {(1,): 2, (0,): 1, (3,): -1})


def test_polynomial_substitution():
    target = ("t", "s")
    t = variable("t", target)
    p = poly({(1, 0): 1, (0, 1): 1}, variables=("t0", "t1"))
    assert evaluate(p, {"t0": t, "t1": t}) == 2 * t


def test_variable_mismatch_is_an_error():
    with pytest.raises(ValueError):
        poly({(0, 0): 1}) + MultiLaurentPoly(("u",), {(0,): 1})
    with pytest.raises(ValueError):
        evaluate(poly({(0, 0): 1}), {"u": 3})


def test_negative_power_needs_a_unit():
    with pytest.raises(ValueError):
        power(a_power(1) + 1, -1)
    with pytest.raises(ValueError):
        power(a_power(1, coeff=2), -1)
    assert power(a_power(1, coeff=-1), -3) == a_power(-3, coeff=-1)


@settings(max_examples=200)
@given(sparse_polys(), sparse_polys(), sparse_polys())
def test_ring_laws(p, q, r):
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert p + (q + r) == (p + q) + r
    assert p - p == MultiLaurentPoly.zero(TS)


# -- determinants ------------------------------------------------------------


def test_det_identity():
    one = MultiLaurentPoly.one(TS)
    zero = MultiLaurentPoly.zero(TS)
    m = [[one if i == j else zero for j in range(4)] for i in range(4)]
    assert det(m) == one
    assert _det_bareiss(m, TS) == one


def test_det_triangular():
    t = variable("t", TS)
    s = variable("s", TS)
    m = [[t, MultiLaurentPoly.one(TS)], [MultiLaurentPoly.zero(TS), s]]
    assert det(m) == t * s


def random_matrix(rng, size, span=6):
    return [
        [
            MultiLaurentPoly(
                TS,
                {
                    (rng.randint(-1, 2), rng.randint(-1, 2)): rng.randint(-3, 3)
                    for _ in range(rng.randint(0, 3))
                },
            )
            for _ in range(size)
        ]
        for _ in range(size)
    ]


def test_det_methods_agree_on_random_matrices():
    rng = random.Random(20260823)
    for _ in range(25):
        m = random_matrix(rng, 4)
        assert det(m) == _det_bareiss(m, TS)


def test_det_is_alternating_and_linear_in_rows():
    rng = random.Random(7)
    m = random_matrix(rng, 3)
    swapped = [m[1], m[0], m[2]]
    assert det(swapped) == -det(m)
    doubled = [[2 * p for p in m[0]], m[1], m[2]]
    assert det(doubled) == 2 * det(m)
    degenerate = [m[0], m[0], m[2]]
    assert not det(degenerate)


def test_det_rejects_ragged_input():
    one = MultiLaurentPoly.one(TS)
    with pytest.raises(ValueError):
        det([[one, one], [one]])
    with pytest.raises(ValueError):
        det([])


# -- exact division ----------------------------------------------------------


@settings(max_examples=150)
@given(sparse_polys(), sparse_polys())
def test_divexact_recovers_the_factor(p, q):
    if not q:
        return
    assert divexact(p * q, q) == p


def test_divexact_refuses_inexact_quotients():
    t = variable("t", TS)
    with pytest.raises(ValueError):
        divexact(t + 1, 2 * t)


# -- unit normalization ------------------------------------------------------


def test_normalize_unit_examples():
    p = poly({(2, 1): -1, (3, 2): 1})
    normalized = normalize_unit(p)
    assert normalized == poly({(0, 0): -1, (1, 1): 1})
    exps = list(normalized.terms)
    assert min(e[0] for e in exps) == 0 and min(e[1] for e in exps) == 0
    assert normalized.terms[max(normalized.terms)] > 0


def test_normalize_unit_zero():
    z = MultiLaurentPoly.zero(TS)
    assert normalize_unit(z) == z


@settings(max_examples=150)
@given(sparse_polys(), st.integers(-3, 3), st.integers(-3, 3),
       st.sampled_from([1, -1]), st.integers(1, 5))
def test_normalize_unit_collapses_unit_orbits(p, i, j, sign, scale_free):
    unit = MultiLaurentPoly(TS, {(i, j): sign})
    assert normalize_unit(p * unit) == normalize_unit(p)
    assert normalize_unit(normalize_unit(p)) == normalize_unit(p)
