"""The generating-function pipeline against its frozen coefficient tables.

Every comparison is exact equality.  The tables are the same
ones the census tests use, so a failure on either side localizes whether
counting or analysis broke.  Beyond the tables, the free energies are
checked against the closed forms and the N=1 sum rule in ``oracles``,
which share no code with the rooted-map recurrence of the library.
"""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    CLOSED_FORMS,
    F_all_N1,
    G2_of,
    G4_of,
    QSeries,
    a2_series,
    compose_rows,
    from_rows,
    g0_sweep,
    gamma_rows_rational,
    growth_diagnostic,
    lift,
    log,
)
from vtangle.series import (
    F_genus,
    GenusSeries,
    _at_u,
    _flype_psi,
    _gamma_all,
    _substitution,
    alpha_series,
    g0_series,
    gamma_genus,
    gamma_tilde,
)

F = Fraction

GAMMA_ROWS = {
    0: [0, 1, 2, 6, 22, 91, 408, 1938, 9614, 49335, 260130],
    1: [0, 1, 8, 59, 420, 2940, 20384, 140479, 964184, 6598481, 45059872],
    2: [0, 0, 0, 17, 456, 7728, 104762, 1240518, 13406796, 135637190, 1305368592],
    3: [0, 0, 0, 0, 0, 1259, 62072, 1740158, 36316872, 627368680, 9484251920],
    4: [0, 0, 0, 0, 0, 0, 0, 200589, 14910216, 600547192, 17347802824],
    5: [0, 0, 0, 0, 0, 0, 0, 0, 0, 54766516, 5554165536],
}

GAMMA_TILDE_ROWS = {
    0: [0, 1, 2, 4, 10, 29, 98, 372, 1538, 6755, 30996],
    1: [0, 1, 8, 57, 384, 2512, 16158, 102837, 649862, 4086137, 25597900],
    2: [0, 0, 0, 17, 456, 7626, 100910, 1155636, 11987082, 115664638, 1056131412],
    3: [0, 0, 0, 0, 0, 1259, 62072, 1727568, 35546828, 601504150, 8854470134],
    4: [0, 0, 0, 0, 0, 0, 0, 200589, 14910216, 597738946, 17103622876],
    5: [0, 0, 0, 0, 0, 0, 0, 0, 0, 54766516, 5554165536],
}

# N=1 rows; the flype-reduced one ends with the corrected value whose
# printed source dropped the final digit.
GAMMA_N1 = [0, 2, 10, 82, 898, 12018, 187626, 3323682, 65607682, 1424967394, 33736908874]
GAMMA_TILDE_N1 = [0, 2, 10, 78, 850, 11426, 179238, 3187002, 63095526, 1373767142, 32594018854]

# Values the library once carried as data or extracted through the N=1 sum
# rule, before one formula computed every genus: the genus-3 row
# through g^11 and the genus-4 and genus-5 rows at orders 8-11.
F3_DATA = {6: F(495, 4), 7: F(56628, 7), 8: F(2504115, 8), 9: F(9322668),
           10: F(472138479, 2), 11: F(5345163216)}
F4_DATA = {8: F(225225, 16), 9: F(1368653), 10: F(1495900107, 20), 11: F(3023618067)}
F5_DATA = {10: F(11904165, 4), 11: F(4304016990, 11)}

# The rows beyond the frozen tables run to this order, where h <= 9.
DEEP = 18


# -- series plumbing ---------------------------------------------------------


@settings(max_examples=80)
@given(
    st.lists(st.fractions(max_denominator=20), min_size=5, max_size=9),
    st.lists(st.fractions(max_denominator=20), min_size=5, max_size=9),
)
def test_qseries_ring_laws(xs, ys):
    order = min(len(xs), len(ys)) - 1
    p, q = QSeries(order, xs), QSeries(order, ys)
    assert p + q == q + p
    assert p * q == q * p
    assert (p - q) + q == p


@settings(max_examples=60)
@given(st.lists(st.fractions(max_denominator=12), min_size=6, max_size=9))
def test_reciprocal_and_log_invert(xs):
    order = len(xs) - 1
    p = QSeries(order, [1] + xs[1:])
    assert p * p.reciprocal() == QSeries.constant(1, order)
    assert log(p).derivative() == (p.derivative() * p.reciprocal()).truncate(order - 1)


def test_compose_requires_no_constant_term():
    p = QSeries(4, [1, 2, 3])
    with pytest.raises(ValueError):
        p.compose(QSeries(4, [1, 1]))
    assert p.compose(QSeries.gee(4)) == p


def test_genus_series_rows_round_trip():
    rows = [QSeries(5, [0, 1, 2, 3]), QSeries(5, [0, 0, 7])]
    biv = from_rows(rows, 5)
    assert biv.row(0) == rows[0]
    assert biv.row(1) == rows[1]
    assert biv.row(1).coeffs[2] == 7


def test_genus_series_reciprocal():
    rows = [QSeries(6, [1, 3, 1]), QSeries(6, [0, 2])]
    biv = from_rows(rows, 6)
    assert biv * biv.reciprocal() == GenusSeries.constant(1, 6, 1)


@pytest.mark.parametrize(
    "op", [operator.add, operator.sub, operator.mul], ids=lambda op: op.__name__
)
def test_genus_series_of_different_shapes_do_not_mix(op):
    """Two shapes do not mix, either way round, so no row one of them lacks
    is dropped unseen; scalars still coerce."""
    a = GenusSeries.gee(4, 2)
    for b in (GenusSeries.gee(3, 2), GenusSeries.gee(4, 1)):
        with pytest.raises(ValueError):
            op(a, b)
        with pytest.raises(ValueError):
            op(b, a)
    three = GenusSeries.constant(3, 4, 2)
    assert op(a, 3) == op(a, three)
    assert op(3, a) == op(three, a)


def test_coefficients_keep_their_exact_type():
    """Ints stay ints, Fractions stay Fractions, padding is the int 0, and
    a float is refused by both constructors and by scalar products."""
    p = QSeries(3, [1, F(1, 2)])
    assert [type(c) for c in p.coeffs] == [int, F, int, int]
    assert [type(c) for c in (p * 2).coeffs] == [int, F, int, int]
    for make in (
        lambda: QSeries(3, [1, 0.5]),
        lambda: GenusSeries(3, 1, [[1], [0, 0.5]]),
        lambda: QSeries.gee(3) * 0.5,
        lambda: GenusSeries.gee(3, 1) + 1.0,
    ):
        with pytest.raises(TypeError):
            make()


def test_reciprocal_needs_a_unit_constant_term():
    """Only 1 and -1 invert in the integers, so nothing else is divided by."""
    for c0 in (2, 0, F(1, 2)):
        with pytest.raises(ValueError):
            QSeries(4, [c0, 1]).reciprocal()
        with pytest.raises(ValueError):
            GenusSeries(4, 1, [[c0, 1], [1]]).reciprocal()
    assert QSeries(4, [-1, 1]).reciprocal() == QSeries(4, [-1] * 5)


def test_negative_powers_raise():
    """Powers are non-negative only; a negative one must not spin in the
    square-and-multiply loop."""
    x = QSeries(4, [1, 3])
    assert x ** 2 == x * x
    with pytest.raises(ValueError):
        x ** -1


# -- free energies -----------------------------------------------------------


def test_a2_fixed_point_coefficients():
    assert [a2_series(4)[n] for n in range(5)] == [1, 3, 18, 135, 1134]


def test_f0_expansion():
    f0 = F_genus(0, 11)
    want = [0, 1, F(9, 4), 9, F(189, 4), F(1458, 5), F(8019, 4), F(104247, 7),
            F(938223, 8), 966654, F(82648917, 10), F(801058734, 11)]
    assert list(f0.coeffs) == want


def test_f0_closed_sum():
    # Independent route: the coefficient of g^n is 3^n Cat(n) / (n (n+2)).
    f0 = F_genus(0, 11)
    for n in range(1, 12):
        cat = math.comb(2 * n, n) // (n + 1)
        assert f0[n] == F(3**n * cat, n * (n + 2))


def test_f1_expansion():
    f1 = F_genus(1, 11)
    want = [0, 0, F(1, 4), F(10, 3), F(307, 8), 428, F(28457, 6), 52612,
            F(9370183, 16), F(58911256, 9), F(734641583, 10), 827733428]
    assert list(f1.coeffs) == want


def test_f2_expansion():
    f2 = F_genus(2, 11)
    want = [0, 0, 0, 0, F(21, 8), F(483, 5), F(4659, 2), 46434,
            F(6635991, 8), 13798410, F(1091610282, 5), 3328687092]
    assert list(f2.coeffs) == want


def test_f3_is_data_limited():
    """Genus 3 is no longer a table that stops at g^11: the row equals the
    former data there and runs on, and only genera that cannot occur at
    the order are refused."""
    f3 = F_genus(3, 12)
    assert [f3[n] for n in range(12)] == [F3_DATA.get(n, 0) for n in range(12)]
    assert f3[12] > 0
    assert F_genus(3, 11) == f3.truncate(11)
    assert F_genus(4, 8)[8] == F4_DATA[8]
    for h, order in ((4, 7), (-1, 5), (1, 1)):
        with pytest.raises(ValueError):
            F_genus(h, order)


def test_closed_forms_equal_the_character_route():
    for h, closed_form in enumerate(CLOSED_FORMS):
        assert closed_form(15) == F_genus(h, 15)


def test_f_all_n1_expansion():
    fall = F_all_N1(11)
    want = [0, 1, F(5, 2), F(37, 3), F(353, 4), F(4081, 5), F(55205, 6),
            F(854197, 7), F(14876033, 8), F(288018721, 9), F(1227782785, 2),
            F(142882295557, 11)]
    assert list(fall.coeffs) == want


def test_each_genus_starts_at_twice_its_handle_count():
    for h in range(6):
        f = F_genus(h, 11)
        lead = max(1, 2 * h)
        assert all(f[n] == 0 for n in range(lead))
        assert f[lead] != 0


def test_low_genus_sum_misses_n1_only_from_g8():
    diff = F_all_N1(11)
    for h in range(4):
        diff = diff - lift(F_genus(h, 11))
    assert all(diff[n] == 0 for n in range(8))
    assert diff[8] != 0


def test_extracted_higher_genus_rows():
    f4, f5 = F_genus(4, 11), F_genus(5, 11)
    assert {n: f4[n] for n in range(12) if f4[n]} == F4_DATA
    assert {n: f5[n] for n in range(12) if f5[n]} == F5_DATA


def sum_rule_holds(order):
    total = QSeries.zero(order)
    for h in range(order // 2 + 1):
        total = total + lift(F_genus(h, order))
    return total == F_all_N1(order)


def test_full_sum_rule_through_order_11():
    assert sum_rule_holds(11)


def test_full_sum_rule_through_order_15():
    assert sum_rule_holds(15)


@pytest.mark.slow
def test_full_sum_rule_through_order_17():
    assert sum_rule_holds(17)


# -- correlators and the substitution point ----------------------------------


def test_g4_at_n1():
    g4 = G4_of(F_all_N1(11))
    want = [2, 10, 74, 706, 8162, 110410, 1708394, 29752066, 576037442,
            12277827850, 285764591114]
    assert list(g4.coeffs) == want


def test_g2_of_matches_its_definition():
    f = F_all_N1(9)
    assert G2_of(f) == 1 + (G4_of(f) * QSeries.gee(8)).truncate(8)


def test_alpha_fixes_the_two_point_function():
    # At the substitution point the dressed two-point function is exactly 1.
    alpha = alpha_series(10)
    rows = [G4_of(lift(F_genus(h, 11))) for h in range(6)]
    inv = alpha.reciprocal()
    arg = GenusSeries.gee(10, 5) * inv * inv
    two_point = inv * (1 + arg * compose_rows(rows, arg))
    assert two_point == GenusSeries.constant(1, 10, 5)


def test_alpha_gamma_identity():
    # g Gamma(g) = alpha(g) - 1 - 2g, sector by sector, at every order.
    alpha = alpha_series(10)
    g = GenusSeries.gee(10, 5)
    gamma = from_rows([gamma_genus(h, 10) for h in range(6)], 10)
    assert g * gamma == alpha - 1 - 2 * g


def test_alpha_grows_one_order_per_sweep():
    # Every truncation of the deep substitution point is the substitution
    # point at that order.
    deep = alpha_series(DEEP)
    for k in range(DEEP + 1):
        assert deep.truncate(k, (k + 1) // 2) == alpha_series(k)


@pytest.mark.parametrize("order", [0, 1, 6, 13])
def test_lagrange_root_solves_its_equation(order):
    """u(g) from the inversion formula satisfies u = g psi(u), with psi(u)
    composed at u(g) by powers of u(g), not by the formula again."""
    _, psi = _substitution(order)
    h_max = psi.h_max
    u = _at_u(GenusSeries.gee(order, h_max), psi)
    composed = compose_rows([psi.row(h) for h in range(h_max + 1)], u)
    assert u == GenusSeries.gee(order, h_max) * composed
    assert all(type(c) is int for row in u.grid for c in row)


@pytest.mark.parametrize("h", sorted(GAMMA_ROWS))
def test_gamma_rows(h):
    assert list(gamma_genus(h, 10).coeffs) == [F(c) for c in GAMMA_ROWS[h]]


def test_gamma_bad_arguments():
    """No order cap: the genus bound (order+1)//2 follows from the order."""
    for h, order in ((6, 10), (-1, 10), (DEEP // 2 + 1, DEEP), (0, -1)):
        with pytest.raises(ValueError):
            gamma_genus(h, order)
    for route in (lambda: gamma_tilde(0, -1), lambda: alpha_series(-1), lambda: g0_series(-1)):
        with pytest.raises(ValueError):
            route()
    top = gamma_genus(DEEP // 2, DEEP)
    assert [n for n in range(DEEP + 1) if top[n]] == [DEEP - 1, DEEP]


# -- flype quotient ----------------------------------------------------------


def test_g0_expansion():
    assert list(g0_series(10).coeffs) == [
        0, 1, 0, -2, -4, -10, -30, -108, -436, -1890, -8588]


def test_g0_satisfies_its_fixed_point():
    g0 = lift(g0_series(10))
    g = QSeries.gee(10)
    gamma0 = lift(gamma_genus(0, 10))
    rhs = g * (2 * ((1 - g) * (1 + gamma0.compose(g0))).reciprocal() - 1)
    assert g0 == rhs


def test_g0_and_gamma_tilde_equal_the_sweep():
    """Lagrange inversion against the fixed-point sweep for g0 and a
    composition per genus for Gamma~_h, at every order through g^20."""
    for order in range(21):
        g0 = g0_sweep(order)
        assert g0_series(order) == g0
        for h in range((order + 1) // 2 + 1):
            assert gamma_tilde(h, order) == lift(gamma_genus(h, order)).compose(g0)


def test_g0_solves_the_flype_quadratic():
    """(1 + Gamma~_0)(g - 1)(g + g0) + 2g = 0: the renormalization
    T(t)(g - 1)(g + t) + 2g = 0 at t = g0(g), as a series identity."""
    for order in range(21):
        g = QSeries.gee(order)
        g0 = lift(g0_series(order))
        lhs = (1 + lift(gamma_tilde(0, order))) * (g - 1) * (g + g0) + 2 * g
        assert lhs == QSeries.zero(order)


@pytest.mark.parametrize("order", [0, 1, 6, 20])
def test_flype_psi_solves_its_quadratic(order):
    """phi = t/g(t) has integer coefficients, phi(0) = 1, rows above
    genus 0 zero, Gamma's genus bound, and
    T phi^2 + (T - t T - 2) phi - t T = 0 with T = 1 + Gamma0(t)."""
    psi = _flype_psi(order)
    assert (psi.n_max, psi.h_max) == (order, (order + 1) // 2)
    assert all(c == 0 for row in psi.grid for c in row[1:])
    phi = QSeries(order, [row[0] for row in psi.grid])
    assert phi[0] == 1 and all(type(c) is int for c in phi.coeffs)
    t = QSeries.gee(order)
    big_t = 1 + lift(gamma_genus(0, order))
    lhs = big_t * phi * phi + (big_t - t * big_t - 2) * phi - t * big_t
    assert lhs == QSeries.zero(order)


def test_lagrange_inversion_refuses_mismatched_shapes():
    """f's rows are read into psi's shape, so a genus-0-shaped phi would
    drop every Gamma~_h with h >= 1 unseen."""
    gamma, psi = _gamma_all(6), _flype_psi(6)
    for bad in (psi.truncate(6, 0), psi.truncate(5, psi.h_max)):
        with pytest.raises(ValueError):
            _at_u(gamma, bad)
    with pytest.raises(ValueError):
        _at_u(gamma.truncate(6, 0), psi)


@pytest.mark.parametrize("h", sorted(GAMMA_TILDE_ROWS))
def test_gamma_tilde_rows(h):
    assert list(gamma_tilde(h, 10).coeffs) == [F(c) for c in GAMMA_TILDE_ROWS[h]]


def test_n1_sum_rules():
    got = [sum(gamma_genus(h, 10)[n] for h in range(6)) for n in range(11)]
    assert got == [F(c) for c in GAMMA_N1]
    got = [sum(gamma_tilde(h, 10)[n] for h in range(6)) for n in range(11)]
    assert got == [F(c) for c in GAMMA_TILDE_N1]


def test_class_counts_are_nonnegative_integers():
    """Past the free energies every coefficient is a Python int, so a
    slide back to Fraction arithmetic fails here."""
    for h in range(DEEP // 2 + 1):
        for series in (gamma_genus(h, DEEP), gamma_tilde(h, DEEP)):
            for c in series.coeffs:
                assert type(c) is int and c >= 0
    assert all(type(c) is int for row in alpha_series(DEEP).grid for c in row)
    assert all(type(c) is int for c in g0_series(DEEP).coeffs)


def test_integer_rows_equal_the_rational_route():
    """The four-point rows read as map counts against G4 = 2 dF/dg of the
    rational free energies, at every genus through g^16."""
    rows, _ = gamma_rows_rational(16)
    assert len(rows) == 9
    for h, row in enumerate(rows):
        assert gamma_genus(h, 16) == row


def test_alpha_equals_the_rational_sweep():
    """Lagrange inversion against the fixed-point sweep in rationals."""
    _, alpha = gamma_rows_rational(16)
    assert alpha_series(16) == alpha


def test_deep_rows_extend_the_tables():
    for h in range(6):
        assert gamma_genus(h, DEEP).truncate(10) == gamma_genus(h, 10)
        assert gamma_tilde(h, DEEP).truncate(10) == gamma_tilde(h, 10)


def univariate_gamma(f):
    """Gamma of one univariate free energy: the alpha fixed point, then
    Gamma = G4(g/alpha^2)/alpha^2 - 2, all in one variable."""
    g4 = G4_of(f)
    order = g4.order
    g = QSeries.gee(order)
    alpha = QSeries.constant(1, order)
    for _ in range(order + 1):
        arg = g * alpha.reciprocal() ** 2
        alpha = 1 + arg * g4.compose(arg)
    arg = g * alpha.reciprocal() ** 2
    return alpha.reciprocal() ** 2 * g4.compose(arg) - 2


def n1_sums_match_a_univariate_pipeline(order):
    """Sum over h of Gamma_h and Gamma~_h through g^order against the same
    pipeline run in g alone on the N=1 oracle, with g0 from the planar
    closed form; returns the two N=1 rows."""
    gamma_n1 = univariate_gamma(F_all_N1(order + 1))
    gamma0 = univariate_gamma(CLOSED_FORMS[0](order + 1))
    g = QSeries.gee(order)
    g0 = g
    for _ in range(order + 1):
        g0 = g * (2 * ((1 - g) * (1 + gamma0.compose(g0))).reciprocal() - 1)
    rows = range((order + 1) // 2 + 1)
    assert sum((lift(gamma_genus(h, order)) for h in rows), QSeries.zero(order)) == gamma_n1
    tilde = sum((lift(gamma_tilde(h, order)) for h in rows), QSeries.zero(order))
    assert tilde == gamma_n1.compose(g0)
    return gamma_n1, tilde


def test_n1_rows_through_order_14_match_a_univariate_pipeline():
    gamma_n1, tilde = n1_sums_match_a_univariate_pipeline(DEEP)
    assert list(gamma_n1.truncate(10).coeffs) == GAMMA_N1
    assert list(tilde.truncate(10).coeffs) == GAMMA_TILDE_N1


@pytest.mark.slow
def test_deep_rows_through_order_40():
    """The integer rows and alpha against the rational route, g0 and the
    Gamma~_h rows against the sweep and a composition per genus, and the
    N=1 sums, at every genus through g^40."""
    rows, alpha = gamma_rows_rational(40)
    for h, row in enumerate(rows):
        assert gamma_genus(h, 40) == row
    assert alpha_series(40) == alpha
    g0 = g0_sweep(40)
    assert g0_series(40) == g0
    for h, row in enumerate(rows):
        assert gamma_tilde(h, 40) == lift(row).compose(g0)
    n1_sums_match_a_univariate_pipeline(40)


# -- growth diagnostics ------------------------------------------------------


def test_growth_of_a_geometric_series():
    gc, e = growth_diagnostic(QSeries(10, [2**n for n in range(11)]))
    assert gc == pytest.approx(0.5)
    assert e == pytest.approx(-1.0)


def test_growth_of_the_planar_free_energy():
    gc, e = growth_diagnostic(F_genus(0, 15))
    assert gc == pytest.approx(1 / 12, rel=0.05)
    assert 0 < e < 4  # slow ratio convergence; the sign and scale suffice


def test_growth_of_the_flype_reduced_planar_row():
    gc, _ = growth_diagnostic(gamma_tilde(0, DEEP))
    assert gc == pytest.approx((-101 + math.sqrt(21001)) / 270, rel=0.01)


def test_growth_needs_enough_terms():
    with pytest.raises(ValueError):
        growth_diagnostic(QSeries(4, [1, 1, 1, 1, 1]))
