"""Independent routes to library results, kept out of the library path.

The library computes every F_h from the integer recurrence for rooted
maps (``vtangle.series._f_rows``).  The free-energy oracles here share
none of that code:

* the character sum over S_2n: the sum of N^(c(sigma) + c(sigma rho))
  over all sigma by the Frobenius formula, with Murnaghan-Nakayama
  domino removal for the characters, which gives F_h for every genus at
  once;
* closed forms in g for genus 0, 1 and 2, through the planar
  substitution a2 = 1 + 3 g a2^2;
* the N = 1 sum rule: log of sum((g/2)^n (2n)!/n!) is the sum of F_h
  over every genus;
* the threshold coefficients F_h[2h] and F_h[2h+1], from hook characters
  on a full cycle, with raw permutation-pair scans that recompute them
  from the definition for small h.

The library runs the Gamma rows on integers, reading the four-point rows
as the map counts Q_h(m+1), and solves for the substitution point alpha
and for the renormalized coupling g0 by Lagrange inversion.
``gamma_rows_rational`` runs the fixed-point sweep for alpha the library
ran before, through ``compose_rows``, on rows differentiated from the
rational free energies, and ``g0_sweep`` the sweep for g0, whose result
composed into each Gamma_h row checks Gamma~_h.  The library hands out
univariate series as bare rows; the ``QSeries`` subclass here carries the
arithmetic these oracles compute in, and ``lift`` turns a library row
into one.

The diagram oracles are brute force: canonical forms minimised over the
whole relabelling group, and the self-energy test that cuts every pair of
face-sharing edges, against the census's rooted codes and the library's
one-pass cut labels.  The census's resumed root scans are checked against
a generator scan that reads every trace again from slot 0 on each prefix
(``tied_roots``).  ``image_site`` names the flype that undoes a flype,
for the round-trip tests, and ``flype_classes_every_site`` is the class
closure that grows each class from a frontier, diagram by diagram, and
rewires every flype site, bare crossings included, against the library's
union-find, which searches each link once and skips them.  The
group-table file reader and writer are test plumbing, and so are
``canonical_diagram``, ``relabel`` (conjugation by a block-preserving
relabelling), ``weighted_link_counts`` (the census weights that meet the
free energies), ``real_crossings``, ``vertex_sign``, ``mul`` (a product
read off a group's table), ``dihedral`` (a test group), ``transform``
(mirror, over/under exchange and flip), ``jones_span``, ``variable``,
``power`` and ``evaluate`` (substitution into a Laurent polynomial) and
``growth_diagnostic`` (a ratio estimate of g_c and the exponent): only
tests call them.

The morphism count is brute force too: every labelling of the arcs by
permutation tuples, each crossing relation checked by composing them,
with no Cayley table and no search.

The bracket oracles share no state-sum code with the library's frontier
sweep: one sums over the 2^n splittings of the permutation encoding and
counts loops as cycles, the other walks all 2^c states of a rotation
system with a rollback union-find.  Fraction-free Bareiss elimination,
with its exact polynomial division, checks the cofactor determinant, and
the gcd of every cofactor of the integer relation matrix checks the
determinant invariant, which reads one column of them.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd
from pathlib import Path

from vtangle.census import canonical_form, enumerate_diagrams
from vtangle.codes import _roots
from vtangle.diagrams import LinkDiagram, OrientedDiagram, TangleDiagram
from vtangle.flypes import FlypeClass, FlypeSite, _rewire, flype_sites
from vtangle.groups import FiniteGroup
from vtangle.invariants import (
    BRACKET_VARIABLES,
    E,
    N,
    S,
    W,
    _amono,
    _delta_power,
    _int_det,
    _RotationDiagram,
    _rotation_of,
)
from vtangle.laurent import MultiLaurentPoly
from vtangle.perms import (
    Perm,
    check_perm,
    compose,
    conjugate,
    cycle_count,
    inverse,
    pair_normalizer,
    rho_perm,
)
import vtangle.series
from vtangle.series import F_genus, GenusSeries, _unit_inverse, gamma_genus


# -- series plumbing only the oracles use -------------------------------------


class QSeries(vtangle.series.QSeries):
    """The library's row container with the univariate arithmetic that only
    the oracles compute in.  It equals a library row with the same order
    and coefficients; ``lift`` turns a library row into one of these."""

    __slots__ = ()

    @classmethod
    def zero(cls, order: int) -> "QSeries":
        return cls(order)

    @classmethod
    def constant(cls, c, order: int) -> "QSeries":
        return cls(order, [c])

    @classmethod
    def gee(cls, order: int) -> "QSeries":
        """The series g itself."""
        return cls(order, [0, 1])

    def _join(self, other) -> tuple["QSeries", "QSeries"]:
        if not isinstance(other, QSeries):
            other = QSeries.constant(other, self.order)
        order = min(self.order, other.order)
        return self.truncate(order), other.truncate(order)

    def __add__(self, other):
        a, b = self._join(other)
        return QSeries(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return QSeries(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        a, b = self._join(other)
        return QSeries(a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return QSeries(self.order, [c * other for c in self.coeffs])
        a, b = self._join(other)
        out = [0] * (a.order + 1)
        for i, x in enumerate(a.coeffs):
            if not x:
                continue
            for j in range(a.order + 1 - i):
                out[i + j] += x * b.coeffs[j]
        return QSeries(a.order, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError(f"negative power {k}: use reciprocal()")
        out = QSeries.constant(1, self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def shift(self, k: int) -> "QSeries":
        """Multiply by g^k (dropping what falls off the truncation)."""
        return QSeries(self.order, [0] * k + list(self.coeffs))

    def reciprocal(self) -> "QSeries":
        """Inverse when the constant term is a unit, 1 or -1."""
        return QSeries(self.order, _unit_inverse(self.coeffs))

    def derivative(self) -> "QSeries":
        """d/dg, keeping the truncation order (top coefficient unknown -> order-1)."""
        return QSeries(
            self.order - 1,
            [n * c for n, c in enumerate(self.coeffs)][1:],
        )

    def compose(self, inner: "QSeries") -> "QSeries":
        """self(inner(g)); the inner series must have no constant term."""
        if inner.coeffs[0]:
            raise ValueError("composition needs a vanishing constant term")
        order = min(self.order, inner.order)
        out = QSeries.constant(self.coeffs[0], order)
        power = QSeries.constant(1, order)
        inner = inner.truncate(order)
        for n in range(1, order + 1):
            power = power * inner
            if self.coeffs[n]:
                out = out + power * self.coeffs[n]
        return out


def lift(row: vtangle.series.QSeries) -> QSeries:
    """A library row as a series the oracles can compute with."""
    return QSeries(row.order, row.coeffs)


def from_rows(rows: list[vtangle.series.QSeries], n_max: int) -> GenusSeries:
    """Assemble sum(x^h rows[h]) from per-genus univariate series."""
    h_max = len(rows) - 1
    grid = [
        [rows[h][n] if n <= rows[h].order else 0 for h in range(h_max + 1)]
        for n in range(n_max + 1)
    ]
    return GenusSeries(n_max, h_max, grid)


def integral(p: QSeries) -> QSeries:
    return QSeries(
        p.order + 1,
        [0] + [Fraction(c, n + 1) for n, c in enumerate(p.coeffs)],
    )


def log(p: QSeries) -> QSeries:
    """log of a series with constant term 1."""
    if p.coeffs[0] != 1:
        raise ValueError("log needs constant term 1")
    return integral(p.derivative() * p.reciprocal()).truncate(p.order)


def G4_of(f: QSeries) -> QSeries:
    """Four-point function 2 dF/dg of a free energy."""
    return f.derivative() * 2


def G2_of(f: QSeries) -> QSeries:
    """Two-point function 1 + g G4 (at the bare substitution point)."""
    return 1 + G4_of(f).shift(1)


def compose_rows(rows: list[QSeries], arg: GenusSeries) -> GenusSeries:
    """sum(x^h rows[h](arg)) for a bivariate argument with no constant term."""
    if arg.grid[0][0]:
        raise ValueError("composition needs a vanishing constant term")
    n_max, h_max = arg.n_max, arg.h_max
    powers = [GenusSeries.constant(1, n_max, h_max)]
    for _ in range(n_max):
        powers.append(powers[-1] * arg)
    grid = [[0] * (h_max + 1) for _ in range(n_max + 1)]
    for h, series in enumerate(rows[: h_max + 1]):
        for k in range(min(series.order, n_max) + 1):
            c = series[k]
            if not c:
                continue
            # arg^k has no terms below g^k.
            for n in range(k, n_max + 1):
                power_row, out_row = powers[k].grid[n], grid[n]
                for j in range(h_max + 1 - h):
                    if power_row[j]:
                        out_row[h + j] += c * power_row[j]
    return GenusSeries(n_max, h_max, grid)


def gamma_rows_rational(order: int) -> tuple[list[QSeries], GenusSeries]:
    """Gamma_0..Gamma_((order+1)//2) through g^order in rationals, and alpha.

    The alpha sweep and Gamma = G4(g/alpha^2)/alpha^2 - 2 as the library
    ran them before it read the four-point rows as the integer map counts
    and solved for alpha by Lagrange inversion: here the rows are
    G4_of(F_h), differentiated from the free energies, every coefficient
    they feed into the sweep is a Fraction, and sweep k fixes g^k of
    alpha = 1 + arg G4(arg) at arg = g/alpha^2.
    """
    h_max = (order + 1) // 2
    rows = [G4_of(lift(F_genus(h, order + 1))) for h in range(h_max + 1)]
    alpha = GenusSeries.constant(1, 0, 0)
    for k in range(order + 1):
        hk = (k + 1) // 2
        alpha = GenusSeries(k, hk, alpha.grid)
        inv = alpha.reciprocal()
        arg = GenusSeries.gee(k, hk) * inv * inv
        alpha = 1 + arg * compose_rows(rows, arg)
    inv = alpha.reciprocal()
    inv_sq = inv * inv
    arg = GenusSeries.gee(order, h_max) * inv_sq
    gamma = inv_sq * compose_rows(rows, arg) - 2
    return [gamma.row(h) for h in range(h_max + 1)], alpha


def g0_sweep(order: int) -> QSeries:
    """The renormalized coupling by the fixed-point sweep the library ran
    before it solved for g0 by Lagrange inversion: sweep k fixes g^k of
    g0 = g(-1 + 2/((1-g)(1+Gamma0(g0)))), given g0 exact below it."""
    gamma0 = lift(gamma_genus(0, order))
    g0 = QSeries.zero(0)
    # Sweep k fixes g^k, given g0 exact below it, so it runs at order k.
    for k in range(order + 1):
        g = QSeries.gee(k)
        g0 = QSeries(k, g0.coeffs)
        g0 = g * (2 * ((1 - g) * (1 + gamma0.compose(g0))).reciprocal() - 1)
    if g0 != g * (2 * ((1 - g) * (1 + gamma0.compose(g0))).reciprocal() - 1):
        raise RuntimeError("fixed point did not settle")
    return g0


def growth_diagnostic(s: QSeries) -> tuple[float, float]:
    """Estimate (g_c, e) for coefficients behaving like (g_c - g)^e.

    Ratio analysis with one Richardson step; purely numerical, intended
    for eyeballing asymptotics rather than exact checks.  Needs at least
    six consecutive nonzero trailing coefficients.
    """
    coeffs = list(s.coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    run = 0
    for c in reversed(coeffs):
        if not c:
            break
        run += 1
    if run < 6:
        raise ValueError("need at least six consecutive nonzero trailing coefficients")
    start = len(coeffs) - run
    ratios = {
        n: float(coeffs[n] / coeffs[n - 1])
        for n in range(start + 1, len(coeffs))
    }
    ns = sorted(ratios)
    inv_gc = ns[-1] * ratios[ns[-1]] - ns[-2] * ratios[ns[-2]]
    gc = 1.0 / inv_gc
    exps = {n: -1.0 - n * (gc * ratios[n] - 1.0) for n in ns}
    exponent = ns[-1] * exps[ns[-1]] - (ns[-2]) * exps[ns[-2]]
    return gc, exponent


# -- the character sum over S_2n ------------------------------------------------
#
# A link diagram with n crossings is a permutation sigma of 2n labels, and
# its faces are the cycles of sigma and of sigma*rho, rho being the fixed
# pairing (2k, 2k+1).  The partition function is therefore
#
#     Z = sum_n (g / 2N)^n / n! * P_n(N),
#     P_n(N) = sum_{sigma in S_2n} N^(c(sigma) + c(sigma rho)),
#
# with c the cycle count, and log Z = sum_h N^(2-2h) F_h(g) sorts the
# connected diagrams by genus.  By the Frobenius formula
#
#     P_n(N) = sum_{lambda |- 2n} chi^lambda(2^n) H_lambda s_lambda(1^N)^2,
#
# where H_lambda is the product of the hook lengths and
# s_lambda(1^N) = prod_boxes (N + content) / H_lambda.  The character on
# the class of n disjoint transpositions comes from Murnaghan-Nakayama
# domino removal on beta-sets.
#
# No polynomial in N is ever formed.  The logarithm C_n(N) of the
# exponential generating function of P_n(N) counts connected permutations
# by face number, so each of its coefficients lies in [0, (2n)!).  Evaluated
# at N = 2^B with 2^B > (2 order)!, the integer C_n(2^B) holds the
# coefficient of N^(n+2-2h), namely n! 2^n F_h[n], as its base-2^B digit
# number n+2-2h.  One pass gives every genus at once, at any order.


def partitions(m: int, top: int | None = None):
    """Partitions of m as weakly decreasing tuples, parts at most ``top``."""
    if top is None:
        top = m
    if m == 0:
        yield ()
        return
    for first in range(min(m, top), 0, -1):
        for rest in partitions(m - first, first):
            yield (first, *rest)


def _dominoes(shape: tuple[int, ...]):
    """(sign, shape less the domino) for each domino on the rim of shape.

    On the beta-set a rim domino is a bead moving from b to a free b-2;
    it is vertical, with Murnaghan-Nakayama sign -1, when the bead jumps
    over an occupied b-1.
    """
    k = len(shape)
    beads = {part + k - 1 - i for i, part in enumerate(shape)}
    for b in beads:
        if b >= 2 and b - 2 not in beads:
            moved = sorted(beads - {b} | {b - 2}, reverse=True)
            rest = tuple(x - (k - 1 - i) for i, x in enumerate(moved))
            yield (-1 if b - 1 in beads else 1), tuple(part for part in rest if part)


def domino_characters(n_max: int):
    """For n = 0..n_max, the nonzero chi^shape(2^n) over shapes of 2n.

    2^n is the class of n disjoint transpositions.  Each level follows
    from the one before by Murnaghan-Nakayama domino removal, and only
    the previous level is kept.
    """
    level = {(): 1}
    yield level
    for n in range(1, n_max + 1):
        below = level
        level = {}
        for shape in partitions(2 * n):
            chi = sum(sign * below.get(rest, 0) for sign, rest in _dominoes(shape))
            if chi:
                level[shape] = chi
        yield level


def pairing_sum(characters: dict[tuple[int, ...], int], big_n: int) -> int:
    """P_n(N) = sum over S_2n of N^(c(sigma) + c(sigma rho)), at N = big_n,
    from the level of ``domino_characters`` for this n."""
    total = 0
    for shape, chi in characters.items():
        width = max(shape, default=0)
        column = [sum(1 for part in shape if part > j) for j in range(width)]
        hooks = contents = 1
        for i, part in enumerate(shape):
            for j in range(part):
                hooks *= part - j + column[j] - i - 1
                contents *= big_n + j - i
        total += chi * contents * contents // hooks
    return total


def free_energy_coefficients(order: int) -> list[list[Fraction]]:
    """Rows F_h[0..order] for h = 0..order//2 (F_h starts at g^(2h))."""
    if order < 0:
        raise ValueError("series order must be nonnegative")
    bits = factorial(2 * order).bit_length()
    big_n = 1 << bits
    p = [pairing_sum(level, big_n) for level in domino_characters(order)]
    c = [0] * (order + 1)
    for n in range(1, order + 1):
        c[n] = p[n] - sum(comb(n - 1, k - 1) * c[k] * p[n - k] for k in range(1, n))
    mask = big_n - 1
    return [
        [
            Fraction((c[n] >> (bits * (n + 2 - 2 * h))) & mask, factorial(n) << n)
            if n >= max(1, 2 * h)
            else Fraction(0)
            for n in range(order + 1)
        ]
        for h in range(order // 2 + 1)
    ]


# -- closed forms for genus 0, 1, 2 -------------------------------------------


@lru_cache(maxsize=None)
def a2_series(order: int) -> QSeries:
    """Solution of a2 = 1 + 3 g (a2)^2 with a2(0) = 1."""
    a2 = QSeries.constant(1, order)
    for _ in range(order + 1):
        a2 = 1 + 3 * QSeries.gee(order) * a2 * a2
    if a2 != 1 + 3 * QSeries.gee(order) * a2 * a2:
        raise RuntimeError("fixed point did not settle")
    return a2


def f_zero(order: int) -> QSeries:
    a2 = a2_series(order)
    return log(a2) - Fraction(1, 12) * (a2 - 1) * (9 - a2)


def f_one(order: int) -> QSeries:
    a2 = a2_series(order)
    inner = (2 - a2) * (2 + a2) ** 3 * Fraction(1, 27)
    return Fraction(-1, 24) * log(inner)


def f_two(order: int) -> QSeries:
    g = QSeries.gee(order)
    a2 = a2_series(order)
    ia2 = a2.reciprocal()
    i1 = (1 - 6 * g * a2).reciprocal()
    m0 = (1 - 2 * g * a2).reciprocal()
    raw = (
        Fraction(21, 40) * a2 * g**3 * i1**5
        - Fraction(69, 640) * g**2 * i1**4
        + Fraction(53, 2560) * g * ia2 * i1**3
        + Fraction(1, 256) * g * ia2 * i1**2 * m0
        - Fraction(3, 512) * g * ia2 * m0**3
        - Fraction(1, 512) * ia2**2 * i1 * m0
        - Fraction(3, 1024) * ia2**2 * m0**2
        - Fraction(53, 15360) * ia2**2 * i1**2
    )
    # The rational closed form evaluates to -1/120 at g = 0; a free energy
    # is only defined up to a constant, and this one must start at g^4.
    return raw - raw[0]


CLOSED_FORMS = (f_zero, f_one, f_two)


@lru_cache(maxsize=None)
def F_all_N1(order: int) -> QSeries:
    """log of the N=1 partition sum Z = sum((g/2)^n (2n)!/n!)."""
    z = QSeries(
        order,
        [Fraction(factorial(2 * n), factorial(n) * 2**n) for n in range(order + 1)],
    )
    return log(z)


# -- threshold coefficients from hook characters -------------------------------


def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def f_min(h: int) -> Fraction:
    """Weighted count of genus-h diagrams with the minimal 2h crossings."""
    if h < 1:
        raise ValueError("the threshold formula needs h >= 1")
    return Fraction(double_factorial(4 * h - 1), 4 * h * (2 * h + 1))


def f_next(h: int) -> Fraction:
    """The g^(2h+1) coefficient of the genus-h free energy."""
    if h < 1:
        raise ValueError("the subleading formula needs h >= 1")
    total = Fraction(0)
    for s in range(2 * h + 1):
        term = Fraction(
            (-1) ** ((s + 1) // 2) * comb(2 * h, s // 2), comb(4 * h + 1, s)
        )
        term *= sum(Fraction(1, p) for p in range(s + 1, 4 * h + 2 - s))
        total += term
    return Fraction(double_factorial(4 * h + 1), (2 * h + 1) ** 2) * total


def hook_dimension(n2: int, s: int) -> int:
    """Dimension of the hook (n2 - s, 1^s) in the symmetric group on n2 letters."""
    if not 0 <= s <= n2 - 1:
        raise ValueError(f"leg length {s} out of range for {n2} boxes")
    return factorial(n2 - 1) // (factorial(s) * factorial(n2 - s - 1))


def hook_character(n2: int, s: int, cls) -> int:
    """Character of the hook (n2 - s, 1^s) on a class given as a cycle type.

    Supported classes: the full cycle (n2,), the fixed-point-free
    involution type (2,)*k, and two-cycle types (p, n2-p); these are the
    only ones the coefficient formulas need.
    """
    if not 0 <= s <= n2 - 1:
        raise ValueError(f"leg length {s} out of range for {n2} boxes")
    cls = tuple(sorted(cls, reverse=True))
    if sum(cls) != n2:
        raise ValueError(f"class {cls} is not a partition of {n2}")
    if cls == (n2,):
        return (-1) ** s
    if cls == (2,) * (n2 // 2):
        return (-1) ** ((s + 1) // 2) * comb(n2 // 2 - 1, s // 2)
    if len(cls) == 2:
        p = cls[1]
        if s + 1 <= p <= n2 - s - 1:
            return (-1) ** s
        if n2 - s <= p <= s:
            return (-1) ** (s + 1)
        return 0
    raise ValueError(f"unsupported class {cls}")


def class_size(n2: int, cls) -> int:
    """Number of permutations of the given cycle type."""
    cls = tuple(sorted(cls, reverse=True))
    if sum(cls) != n2:
        raise ValueError(f"class {cls} is not a partition of {n2}")
    counts: dict[int, int] = {}
    for j in cls:
        counts[j] = counts.get(j, 0) + 1
    denom = 1
    for j, a in counts.items():
        denom *= factorial(a) * j**a
    return factorial(n2) // denom


# -- raw permutation scans ---------------------------------------------------


def cycle_type(perm) -> tuple[int, ...]:
    seen = [False] * len(perm)
    out = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        out.append(length)
    return tuple(sorted(out, reverse=True))


def from_cycles(size: int, cycs) -> Perm:
    """Build a permutation from a cycle list; omitted labels are fixed."""
    out = list(range(size))
    for cyc in cycs:
        cyc = list(cyc)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if not (0 <= a < size):
                raise ValueError(f"label {a} out of range for size {size}")
            out[a] = b
    return check_perm(out)


def _full_cycles(n2: int):
    """All permutations of 0..n2-1 consisting of one n2-cycle."""
    for rest in itertools.permutations(range(1, n2)):
        perm = [0] * n2
        prev = 0
        for x in rest:
            perm[prev] = x
            prev = x
        perm[prev] = 0
        yield tuple(perm)


def brute_force_leading(h: int) -> Fraction:
    """Recompute f_min(h) by scanning permutation pairs directly.

    Both permutations run over full cycles; the product sigma^-1 tau must
    be a fixed-point-free involution.  Feasible for h <= 2 (the h = 2
    scan touches about 25 million pairs).
    """
    if h < 1 or h > 2:
        raise ValueError("the scan is only feasible for h in {1, 2}")
    n = 2 * h
    n2 = 2 * n
    target = (2,) * n
    hits = 0
    for sigma in _full_cycles(n2):
        inv = [0] * n2
        for i, x in enumerate(sigma):
            inv[x] = i
        for tau in _full_cycles(n2):
            if cycle_type(tuple(tau[inv[i]] for i in range(n2))) == target:
                hits += 1
    return Fraction(hits, double_factorial(n2 - 1) * 2**n * factorial(n))


def brute_force_next(h: int) -> Fraction:
    """Recompute f_next(h) from the definition; feasible for h = 1 only.

    Three faces mean one of the two face permutations is a full cycle and
    the other splits in two, giving the overall factor 2.
    """
    if h != 1:
        raise ValueError("the scan is only feasible for h = 1")
    n = 2 * h + 1
    n2 = 2 * n
    target = (2,) * n
    hits = 0
    for sigma in _full_cycles(n2):
        inv = [0] * n2
        for i, x in enumerate(sigma):
            inv[x] = i
        for tau in itertools.permutations(range(n2)):
            if len(cycle_type(tau)) != 2:
                continue
            if cycle_type(tuple(tau[inv[i]] for i in range(n2))) == target:
                hits += 1
    return Fraction(2 * hits, double_factorial(n2 - 1) * 2**n * factorial(n))


# -- diagrams: brute-force canonical forms ------------------------------------


def relabelling_elements(n2: int, fix_marked: bool = False):
    """All relabellings of ``0..n2-1`` commuting with the block pairing.

    Factorially large; meant for small-size oracles only.
    """
    nb = n2 // 2 - (1 if fix_marked else 0)
    for bperm in itertools.permutations(range(nb)):
        for flips in itertools.product((0, 1), repeat=nb):
            g = [0] * n2
            for b in range(nb):
                g[2 * b] = 2 * bperm[b] + flips[b]
                g[2 * b + 1] = 2 * bperm[b] + 1 - flips[b]
            if fix_marked:
                g[n2 - 2] = n2 - 2
                g[n2 - 1] = n2 - 1
            yield tuple(g)


def canonical_form_bruteforce(d: LinkDiagram) -> Perm:
    """Minimum over the whole relabelling group; oracle for small ``n``."""
    marked = isinstance(d, TangleDiagram)
    return min(
        conjugate(g, d.sigma)
        for g in relabelling_elements(d.size, fix_marked=marked)
    )


def canonical_diagram(d: LinkDiagram) -> LinkDiagram:
    """The diagram of ``d``'s canonical form, of the same type."""
    return type(d)(d.n, canonical_form(d))


def real_crossings(t: TangleDiagram) -> int:
    """The crossings of a tangle besides the marked one."""
    return t.n - 1


def vertex_sign(od: OrientedDiagram, v: int) -> int:
    """Crossing sign: +1 when the over-strand crosses the oriented
    under-strand from its left to its right."""
    d = od.diagram
    if not 0 <= v < d.n:
        raise ValueError(f"no crossing {v} in a diagram with n={d.n}")
    senses = od.senses
    a = 2 * v
    return 1 if senses[a] == senses[d.sigma[a]] else -1


def relabel(d: LinkDiagram, g: Perm) -> LinkDiagram:
    """Conjugate the diagram by a relabelling ``g`` (must preserve blocks)."""
    if conjugate(g, rho_perm(len(g))) != rho_perm(len(g)):
        raise ValueError("relabelling does not preserve the block pairing")
    return type(d)(d.n, conjugate(g, d.sigma))


TRANSFORM_KINDS = ("mirror", "over_under", "flip")


def transform(d: LinkDiagram, kind: str) -> LinkDiagram:
    """Mirror image, over/under exchange, or flip (both at once).

    Mirror exchanges white and black faces and keeps all labels.  The other
    two turn the under-edge pairing into the block pairing, so the result is
    relabelled to put that pairing back into normal form.  On a tangle only
    the mirror keeps the marked block marked; the other kinds return the
    underlying link diagram.
    """
    if kind == "mirror":
        return type(d)(d.n, d.tau)
    if kind == "over_under":
        raw = inverse(d.tau)
    elif kind == "flip":
        raw = inverse(d.sigma)
    else:
        raise ValueError(f"unknown transform {kind!r}; pick from {TRANSFORM_KINDS}")
    g = pair_normalizer(d.rho_tilde)
    return LinkDiagram(d.n, conjugate(g, raw))


def weighted_link_counts(n_max: int) -> dict[tuple[int, int], Fraction]:
    """Sum of 1/symmetry over connected link diagrams, by (n, genus).

    Self-energies are allowed here: these are the free-energy weights.
    """
    out: dict[tuple[int, int], Fraction] = {}
    for n in range(1, n_max + 1):
        for entry in enumerate_diagrams(n, "link", no_self_energy=False):
            key = (n, entry.genus)
            out[key] = out.get(key, Fraction(0)) + Fraction(1, entry.symmetry)
    return out


# The rooted-trace scan as a generator that reads a root's trace from slot
# 0 on every call, with the tie-break search inline.  It shares no code
# with the resumable states of ``vtangle.codes``, which the census keeps
# from one prefix to the next.


def trace(sigma, root, marked):
    """Lazy code of the trace at ``root``: an iterator over its slots.

    On a partial ``sigma`` it stops at the first label whose image is -1
    (marked scans run on complete ``sigma`` only); where the scan runs dry
    it yields the smallest continuation over every leftover label opened
    next, partial candidates included.
    """
    n2 = len(sigma)
    g = [-1] * n2
    occ = [-1] * n2
    pending = []
    if marked:
        for t in (n2 - 2, n2 - 1):
            g[t] = t
            occ[t] = t
        pending = [n2 - 2, n2 - 1]
    g[root] = 0
    g[root ^ 1] = 1
    occ[0] = root
    occ[1] = root ^ 1
    return _scan(sigma, g, occ, 2, pending, 0)


def _scan(sigma, g, occ, free, pending, p):
    n2 = len(sigma)
    while p < n2:
        if occ[p] < 0:
            while pending and occ[p] < 0:
                v = sigma[occ[pending.pop(0)]]
                if g[v] < 0:
                    g[v] = free
                    g[v ^ 1] = free + 1
                    occ[free] = v
                    occ[free + 1] = v ^ 1
                    free += 2
            if occ[p] < 0:
                best = None
                for u in range(n2):
                    if g[u] >= 0:
                        continue
                    g2 = g.copy()
                    occ2 = occ.copy()
                    g2[u] = free
                    g2[u ^ 1] = free + 1
                    occ2[free] = u
                    occ2[free + 1] = u ^ 1
                    cand = tuple(_scan(sigma, g2, occ2, free + 2, list(pending), p))
                    if best is None or cand < best:
                        best = cand
                yield from best
                return
            continue
        v = sigma[occ[p]]
        if v < 0:
            return
        if g[v] < 0:
            g[v] = free
            g[v ^ 1] = free + 1
            occ[free] = v
            occ[free + 1] = v ^ 1
            free += 2
        yield g[v]
        p += 1


def _compare(trace, code) -> int:
    """Sign of ``trace - code`` in lexicographic order, read only as far as
    the first slot where they differ; a partial trace that ends first ties."""
    for got, want in zip(trace, code):
        if got != want:
            return -1 if got < want else 1
    return 0


def tied_roots(sigma, roots, marked: bool = False) -> list[int] | None:
    """The roots in ``roots`` whose trace equals ``sigma`` as far as both are
    defined, or None as soon as one root's trace is smaller.

    ``sigma`` may be partial, as in ``vtangle.codes``.  Every trace is read
    from slot 0.
    """
    kept = []
    for r in roots:
        c = _compare(trace(sigma, r, marked), sigma)
        if c < 0:
            return None
        if c == 0:
            kept.append(r)
    return kept


def canonical_multiplicity(sigma: Perm, marked: bool = False) -> int:
    """Number of roots whose trace reproduces ``sigma``, or 0 when ``sigma``
    is not its own canonical code; ``sigma`` is not validated."""
    tied = tied_roots(sigma, _roots(sigma, marked), marked)
    return 0 if tied is None else len(tied)


def is_canonical(sigma: Perm, marked: bool = False) -> bool:
    """True when ``sigma`` equals its own canonical code."""
    return canonical_multiplicity(check_perm(sigma), marked) > 0


# -- diagrams: the pairwise self-energy test ------------------------------------
#
# The library finds 2-edge cuts from one pass of cut labels.  The oracle
# tries every pair of edges that share a white and a black face (a face
# walk crosses any cut an even number of times, so both edges of a 2-edge
# cut lie on each face through either), cuts the pair by composing both
# face permutations with its transposition, and checks connectivity.


def _cycle_ids(p: Perm) -> list[int]:
    ids = [-1] * len(p)
    k = 0
    for start in range(len(p)):
        if ids[start] >= 0:
            continue
        x = start
        while ids[x] < 0:
            ids[x] = k
            x = p[x]
        k += 1
    return ids


def _same_cycle_pairs(d: LinkDiagram):
    """Pairs of distinct edges lying in one cycle of sigma *and* one of tau."""
    sid = _cycle_ids(d.sigma)
    tid = _cycle_ids(d.tau)
    for a in range(d.size):
        for b in range(a + 1, d.size):
            if sid[a] == sid[b] and tid[a] == tid[b]:
                yield (a, b)


def orbit_size(p: Perm, q: Perm, size: int) -> int:
    """Size of the orbit of label 0 under the group generated by ``p`` and ``q``."""
    seen = [False] * size
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        a = stack.pop()
        for b in (p[a], q[a]):
            if not seen[b]:
                seen[b] = True
                count += 1
                stack.append(b)
    return count


def self_energy_pairwise(d: LinkDiagram) -> bool:
    """``has_self_energy`` by the swap-and-orbit test on every face-sharing pair."""
    for a, b in _same_cycle_pairs(d):
        swap = list(range(d.size))
        swap[a], swap[b] = b, a
        cut_sigma = compose(d.sigma, tuple(swap))
        cut_tau = compose(d.tau, tuple(swap))
        if orbit_size(cut_sigma, cut_tau, d.size) < d.size:
            return True
    return False



def image_site(d: LinkDiagram, site: FlypeSite) -> FlypeSite:
    """The site on ``apply_flype(d, site)`` that undoes the move.

    After the move the subtangle sits on the other side of the carried
    crossing in the mirrored arrangement, so the reverse move is itself a
    flype: its frame is ``(gamma, delta, alpha, beta)`` pushed through the
    relabelling the application performed.
    """
    _, g = _rewire(d, site)
    return FlypeSite(
        color=site.color,
        alpha=g[site.gamma],
        beta=g[site.delta],
        gamma=g[site.alpha],
        delta=g[site.beta],
        subtangle=frozenset(g[x] for x in site.subtangle),
    )


def flype_classes_every_site(codes) -> list[FlypeClass]:
    """``flype_classes`` by the closure that rewires every site, bare
    crossings included, and canonicalises each image."""
    classes = []
    absorbed: set[str] = set()
    for start in sorted(set(codes)):
        if start in absorbed:
            continue
        members = {start}
        frontier = [start]
        while frontier:
            code = frontier.pop()
            d = (TangleDiagram if code.startswith("T") else LinkDiagram).from_code(code)
            for site in flype_sites(d):
                image = canonical_diagram(_rewire(d, site)[0]).to_code()
                if image not in members:
                    members.add(image)
                    frontier.append(image)
        absorbed |= members
        classes.append(FlypeClass(min(members), frozenset(members)))
    classes.sort(key=lambda c: c.representative)
    return classes


# -- group multiplication-table files -------------------------------------------
#
# Plain text: '#' starts a comment, an optional "name <token>" line names
# the group, and the remaining lines hold the table rows as integers.


def load_group_table(path) -> FiniteGroup:
    path = Path(path)
    name = path.stem
    rows = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if body.startswith("name "):
            name = body.split(None, 1)[1]
            continue
        try:
            rows.append([int(tok) for tok in body.split()])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: expected integers, got {body!r}")
    if not rows:
        raise ValueError(f"{path}: no table rows found")
    return FiniteGroup(name, rows)


def mul(group: FiniteGroup, a: int, b: int) -> int:
    """The product a*b read off the group's table."""
    return group.table[a][b]


def dihedral(k: int) -> FiniteGroup:
    """Symmetries of the k-gon, as permutations of its vertices."""
    if k < 3:
        raise ValueError("the dihedral construction needs k >= 3")
    rotations = [tuple((i + r) % k for i in range(k)) for r in range(k)]
    flips = [tuple((r - i) % k for i in range(k)) for r in range(k)]
    return FiniteGroup.from_permutations(f"D{k}", rotations + flips)


def save_group_table(group: FiniteGroup, path) -> None:
    lines = [f"name {group.name}"]
    lines += [" ".join(str(x) for x in row) for row in group.table]
    Path(path).write_text("\n".join(lines) + "\n")


# -- morphism counts by trying every labelling -------------------------------------


def morphism_count_bruteforce(od: OrientedDiagram, perms) -> int:
    """Number of labellings of the arcs by the permutations `perms`, a
    group, that satisfy every crossing relation: the outgoing under arc
    is the incoming one conjugated by the over arc to the crossing sign.
    All |G|^n labellings are tried."""
    elems = [tuple(p) for p in perms]
    relations = [
        (b_in // 2, a_in // 2, a_out // 2, eps)
        for b_in, _, a_in, a_out, eps in od.frames
    ]
    count = 0
    for f in itertools.product(elems, repeat=od.diagram.n):
        for b, ai, ao, eps in relations:
            w = f[b] if eps > 0 else inverse(f[b])
            # f(ao) = w f(ai) w^-1, multiplied through by w on the right.
            if compose(f[ao], w) != compose(w, f[ai]):
                break
        else:
            count += 1
    return count


# -- the bracket: the permutation sum and the loop walk ---------------------------


def bracket_by_permutations(d: LinkDiagram) -> MultiLaurentPoly:
    """Kauffman bracket: sum over the 2^n crossing splittings.

    Splitting a crossing the first way keeps the white-face transition,
    the second way the black-face one; the loops of a splitting are the
    cycles of the resulting permutation.
    """
    sigma, tau, n = d.sigma, d.tau, d.n
    counts: dict[tuple[int, int], int] = {}
    for mask in range(1 << n):
        s = tuple(
            tau[i] if (mask >> (i >> 1)) & 1 else sigma[i] for i in range(2 * n)
        )
        key = (n - 2 * mask.bit_count(), cycle_count(s))
        counts[key] = counts.get(key, 0) + 1
    total = MultiLaurentPoly.zero(BRACKET_VARIABLES)
    for (apow, loops), mult in sorted(counts.items()):
        total = total + _amono(mult, apow) * _delta_power(loops - 1)
    return total


def _loop_state_sum(rd: _RotationDiagram) -> MultiLaurentPoly:
    """Bracket by splitting every crossing and counting closed loops.

    Depth-first over the crossings with a rollback union-find, so shared
    smoothing prefixes are merged once instead of once per state."""
    c = rd.crossings
    parent = list(range(4 * c))
    size = [1] * (4 * c)

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    merges = 0

    def union(x, y, stack) -> None:
        nonlocal merges
        rx, ry = find(x), find(y)
        if rx == ry:
            return
        if size[rx] < size[ry]:
            rx, ry = ry, rx
        parent[ry] = rx
        size[rx] += size[ry]
        stack.append(ry)
        merges += 1

    def rollback(stack, mark) -> None:
        nonlocal merges
        while len(stack) > mark:
            ry = stack.pop()
            size[find(ry)] -= size[ry]
            parent[ry] = ry
            merges -= 1

    base: list = []
    seen = set()
    for s, t in rd.pair.items():
        if s not in seen:
            seen.add(s)
            seen.add(t)
            union(4 * s[0] + s[1], 4 * t[0] + t[1], base)

    counts: dict[tuple[int, int], int] = {}
    stack: list = []

    def walk(v: int, apow: int) -> None:
        if v == c:
            key = (apow, 4 * c - merges)
            counts[key] = counts.get(key, 0) + 1
            return
        base_id = 4 * v
        for delta, joins in ((1, ((W, N), (E, S))), (-1, ((W, S), (N, E)))):
            mark = len(stack)
            for x, y in joins:
                union(base_id + x, base_id + y, stack)
            walk(v + 1, apow + delta)
            rollback(stack, mark)

    walk(0, 0)
    total = MultiLaurentPoly.zero(BRACKET_VARIABLES)
    for (apow, loops), mult in sorted(counts.items()):
        total = total + _amono(mult, apow) * _delta_power(loops - 1)
    return total


def bracket_by_loop_walk(d: LinkDiagram) -> MultiLaurentPoly:
    """Independent bracket route through the rotation-system form."""
    return _loop_state_sum(_rotation_of(d))


def jones_span(p: MultiLaurentPoly) -> int:
    """Width of the exponent range of a bracket in powers of a^4."""
    if not p.terms:
        return 0
    powers = [e[0] for e in p.terms]
    width = max(powers) - min(powers)
    if width % 4:
        raise ValueError("bracket exponents should agree mod 4")
    return width // 4


# -- determinants: Bareiss elimination ----------------------------------------------


def determinant_by_every_cofactor(od: OrientedDiagram) -> int:
    """The gcd of all m^2 cofactors of the relation matrix at t=-1, s=1,
    against the library's one column of them."""
    size = od.diagram.size
    m = [[0] * size for _ in range(size)]
    for v, (b_in, b_out, a_in, a_out, _) in enumerate(od.frames):
        m[2 * v][a_out] += 1
        m[2 * v][a_in] += 1
        m[2 * v][b_in] -= 2
        m[2 * v + 1][b_out] += 1
        m[2 * v + 1][b_in] -= 1
    best = 0
    for i in range(size):
        rest = m[:i] + m[i + 1 :]
        for j in range(size):
            best = gcd(best, _int_det([row[:j] + row[j + 1 :] for row in rest]))
    return best


def _det_bareiss(m, variables):
    n = len(m)
    a = [list(row) for row in m]
    sign = 1
    prev = MultiLaurentPoly.one(variables)
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return MultiLaurentPoly.zero(variables)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = divexact(num, prev)
            a[i][k] = MultiLaurentPoly.zero(variables)
        prev = a[k][k]
    result = a[n - 1][n - 1]
    return -result if sign < 0 else result


def divexact(a: MultiLaurentPoly, b: MultiLaurentPoly) -> MultiLaurentPoly:
    """Quotient a / b when the division is exact; error otherwise.

    Laurent terms are first shifted to ordinary polynomials, then the
    classic leading-term elimination runs under lexicographic order; over
    the integers the leading coefficients must divide at every step.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return MultiLaurentPoly.zero(a.variables)
    if a.variables != b.variables:
        raise ValueError("variable mismatch in division")
    k = len(a.variables)
    # Shift each side by its own per-variable minimum.  Minima add up under
    # multiplication, so an exact Laurent quotient becomes an ordinary
    # polynomial quotient of ordinary polynomials.
    shift_a = tuple(min(e[i] for e in a.terms) for i in range(k))
    shift_b = tuple(min(e[i] for e in b.terms) for i in range(k))
    num = {tuple(x - s for x, s in zip(e, shift_a)): c for e, c in a.terms.items()}
    den = {tuple(x - s for x, s in zip(e, shift_b)): c for e, c in b.terms.items()}
    lead_b = max(den)
    quot = {}
    while num:
        lead_a = max(num)
        exps = tuple(x - y for x, y in zip(lead_a, lead_b))
        coeff, rem = divmod(num[lead_a], den[lead_b])
        if rem or any(e < 0 for e in exps):
            raise ValueError("polynomial division is not exact")
        quot[exps] = coeff
        for e, c in den.items():
            key = tuple(x + y for x, y in zip(exps, e))
            num[key] = num.get(key, 0) - coeff * c
            if not num[key]:
                del num[key]
    unshift = tuple(x - y for x, y in zip(shift_a, shift_b))
    return MultiLaurentPoly(
        a.variables,
        {tuple(x + s for x, s in zip(e, unshift)): c for e, c in quot.items()},
    )


def variable(name: str, variables) -> MultiLaurentPoly:
    """The polynomial that is the variable ``name`` of ``variables``."""
    variables = tuple(variables)
    exps = [0] * len(variables)
    exps[variables.index(name)] = 1
    return MultiLaurentPoly(variables, {tuple(exps): 1})


def power(p: MultiLaurentPoly, k: int) -> MultiLaurentPoly:
    """``p`` to the integer power ``k``; a negative ``k`` needs a unit,
    one term with coefficient +-1."""
    if k < 0:
        if len(p.terms) != 1:
            raise ValueError("negative power of a non-monomial")
        ((exps, coeff),) = p.terms.items()
        if coeff not in (1, -1):
            raise ValueError("negative power of a non-unit coefficient")
        p, k = MultiLaurentPoly(p.variables, {tuple(-e for e in exps): coeff}), -k
    out = MultiLaurentPoly.one(p.variables)
    while k:
        if k & 1:
            out = out * p
        p = p * p
        k >>= 1
    return out


def evaluate(p: MultiLaurentPoly, assignment: Mapping[str, object]):
    """Substitute values for some or all variables of ``p``.

    Values may be integers, fractions, or polynomials (all polynomial
    values must share one variable tuple).  With every variable
    assigned a scalar the result is a scalar; otherwise it is a
    polynomial in the remaining (or the substituted polynomials')
    variables.  Negative exponents of scalar values go through exact
    fractions.
    """
    unknown = set(assignment) - set(p.variables)
    if unknown:
        raise ValueError(f"not variables of this polynomial: {sorted(unknown)}")
    poly_values = [v for v in assignment.values() if isinstance(v, MultiLaurentPoly)]
    remaining = [v for v in p.variables if v not in assignment]
    if poly_values:
        target = poly_values[0].variables
        if any(q.variables != target for q in poly_values):
            raise ValueError("substituted polynomials disagree on variables")
        if remaining:
            raise ValueError("mixing leftover variables with polynomial values")
        out = MultiLaurentPoly.zero(target)
        for exps, coeff in p.terms.items():
            term = MultiLaurentPoly.constant(coeff, target)
            for name, e in zip(p.variables, exps):
                v = assignment[name]
                if not isinstance(v, MultiLaurentPoly):
                    v = MultiLaurentPoly.constant(v, target)
                term = term * power(v, e)
            out = out + term
        return out
    if remaining:
        idx = [i for i, v in enumerate(p.variables) if v in assignment]
        keep = [i for i, v in enumerate(p.variables) if v not in assignment]
        out = {}
        for exps, coeff in p.terms.items():
            factor = Fraction(coeff)
            for i in idx:
                factor *= Fraction(assignment[p.variables[i]]) ** exps[i]
            if factor.denominator != 1:
                raise ValueError("partial evaluation left fractional coefficients")
            e = tuple(exps[i] for i in keep)
            out[e] = out.get(e, 0) + int(factor)
        return MultiLaurentPoly([p.variables[i] for i in keep], out)
    total = Fraction(0)
    for exps, coeff in p.terms.items():
        term = Fraction(coeff)
        for name, e in zip(p.variables, exps):
            term *= Fraction(assignment[name]) ** e
        total += term
    return int(total) if total.denominator == 1 else total
