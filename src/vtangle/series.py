"""Exact generating functions for the weighted diagram counts.

Everything here is a formal power series in the coupling g with exact
coefficients, truncated at an explicit order.  The bivariate kind
(`GenusSeries`) tracks powers of x = 1/N^2, one per handle, and carries
the arithmetic; the univariate kind (`QSeries`) only holds one genus
sector or a free energy as it is handed out.  The pipeline runs:
rooted-map counts Q_h(n) of every genus from an integer recurrence, which
give the free energies F_h[n] = Q_h(n)/(2n) and the four-point rows
G4_h[m] = Q_h(m+1); self-energy removal at the substitution point
alpha(g), where u = g/alpha^2 solves u = g (1 + u G4(u))^-2, so that
alpha and Gamma_h follow from G4 by Lagrange inversion; and the flype
quotient through the renormalized coupling t = g0(g), which solves
t = g phi(t) for a phi from a quadratic, so that g0 and every Gamma~_h
follow from Gamma by the same inversion.  Nothing is iterated to a fixed
point.  The free energies are the only rational coefficients.  Every
series after them has integer coefficients, and every series that gets
inverted has constant term 1, so alpha, Gamma_h, g0 and Gamma~_h run on
Python ints.  Every stage takes its truncation order as an argument and
no order is capped; the genera follow from it, h <= order//2 for the
free energies and h <= (order+1)//2 for the Gamma rows.  The resulting rows are the reference numbers the census and flype
modules are tested against.  No floating point appears.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


def _exact(coeffs, length: int) -> tuple:
    """The first ``length`` coefficients, padded with the int 0.

    A coefficient is an int or a Fraction and keeps its type; anything
    else, a float above all, is refused rather than rounded into a count.
    """
    out = tuple(coeffs)[:length]
    for kind in set(map(type, out)):
        if not issubclass(kind, (int, Fraction)):
            raise TypeError(f"series coefficient of type {kind.__name__}: not exact")
    return out + (0,) * (length - len(out))


class QSeries:
    """Truncated power series sum(c[n] g^n, n=0..order) with exact coefficients.

    A row container: the library computes on `GenusSeries` and hands out
    one genus sector, or a free energy, as a `QSeries`."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=()):
        if order < 0:
            raise ValueError("series order must be nonnegative")
        self.order = order
        self.coeffs = _exact(coeffs, order + 1)

    def __getitem__(self, n: int):
        return self.coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"QSeries({self.order}, {list(self.coeffs)!r})"

    def truncate(self, order: int) -> "QSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return type(self)(order, self.coeffs[: order + 1])


class GenusSeries:
    """Doubly truncated series sum(c[n][h] g^n x^h) with x = 1/N^2."""

    __slots__ = ("n_max", "h_max", "grid")

    def __init__(self, n_max: int, h_max: int, grid=None):
        self.n_max = n_max
        self.h_max = h_max
        rows = []
        for n in range(n_max + 1):
            src = grid[n] if grid and n < len(grid) else ()
            rows.append(_exact(src, h_max + 1))
        self.grid = tuple(rows)

    @classmethod
    def constant(cls, c, n_max: int, h_max: int) -> "GenusSeries":
        return cls(n_max, h_max, [[c]])

    @classmethod
    def gee(cls, n_max: int, h_max: int) -> "GenusSeries":
        return cls(n_max, h_max, [[], [1]])

    def row(self, h: int) -> QSeries:
        """The genus-h sector as a univariate series in g."""
        return QSeries(self.n_max, [self.grid[n][h] for n in range(self.n_max + 1)])

    def __eq__(self, other):
        if not isinstance(other, GenusSeries):
            return NotImplemented
        return (self.n_max, self.h_max, self.grid) == (
            other.n_max,
            other.h_max,
            other.grid,
        )

    def __repr__(self):
        return f"GenusSeries({self.n_max}, {self.h_max}, {[list(r) for r in self.grid]!r})"

    def _join(self, other) -> "GenusSeries":
        """``other`` as a series of this shape: scalars coerce, and a series
        of another shape is refused rather than cut down unseen."""
        if not isinstance(other, GenusSeries):
            return GenusSeries.constant(other, self.n_max, self.h_max)
        if (other.n_max, other.h_max) != (self.n_max, self.h_max):
            raise ValueError(
                f"series shapes differ: {(self.n_max, self.h_max)} and {(other.n_max, other.h_max)}"
            )
        return other

    def truncate(self, n_max: int, h_max: int) -> "GenusSeries":
        return GenusSeries(n_max, h_max, [row[: h_max + 1] for row in self.grid[: n_max + 1]])

    def __add__(self, other):
        b = self._join(other)
        grid = [
            [x + y for x, y in zip(ra, rb)] for ra, rb in zip(self.grid, b.grid)
        ]
        return GenusSeries(self.n_max, self.h_max, grid)

    __radd__ = __add__

    def __neg__(self):
        return GenusSeries(
            self.n_max, self.h_max, [[-c for c in row] for row in self.grid]
        )

    def __sub__(self, other):
        return self + (-self._join(other))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if not isinstance(other, GenusSeries):
            grid = [[c * other for c in row] for row in self.grid]
            return GenusSeries(self.n_max, self.h_max, grid)
        b = self._join(other)
        n_max, h_max = self.n_max, self.h_max
        terms = [(n, h, c) for n, row in enumerate(b.grid) for h, c in enumerate(row) if c]
        grid = [[0] * (h_max + 1) for _ in range(n_max + 1)]
        for n1, row in enumerate(self.grid):
            for h1, c in enumerate(row):
                if not c:
                    continue
                for n2, h2, c2 in terms:
                    if n1 + n2 > n_max:
                        break
                    if h1 + h2 <= h_max:
                        grid[n1 + n2][h1 + h2] += c * c2
        return GenusSeries(n_max, h_max, grid)

    __rmul__ = __mul__

    def reciprocal(self) -> "GenusSeries":
        """Inverse when the g-constant term is a unit of Z[x]/(x^(h_max+1)),
        that is, when its x-constant term is 1 or -1."""
        inv0 = _unit_inverse(self.grid[0])
        rows = [inv0]
        for n in range(1, self.n_max + 1):
            acc = [0] * (self.h_max + 1)
            for k in range(1, n + 1):
                for h1, c in enumerate(self.grid[k]):
                    if not c:
                        continue
                    for h2 in range(self.h_max + 1 - h1):
                        acc[h1 + h2] += c * rows[n - k][h2]
            rows.append(tuple(-x for x in _xmul(inv0, acc)))
        return GenusSeries(self.n_max, self.h_max, rows)


def _xmul(u, v):
    h_max = len(u) - 1
    out = [0] * (h_max + 1)
    for i, a in enumerate(u):
        if a:
            for j in range(h_max + 1 - i):
                out[i + j] += a * v[j]
    return tuple(out)


def _unit_inverse(u) -> tuple:
    """Inverse of the truncated series sum(u[k] t^k); u[0] must be 1 or -1,
    its own inverse, so integer coefficients stay integers."""
    u0 = u[0]
    if u0 not in (1, -1):
        raise ValueError(f"no reciprocal in the integers: constant term {u0}")
    out = [u0]
    for n in range(1, len(u)):
        out.append(-u0 * sum(u[k] * out[n - k] for k in range(1, n + 1)))
    return tuple(out)


# -- free energies per genus -------------------------------------------------


def _check_genus(h: int, h_max: int) -> None:
    if not 0 <= h <= h_max:
        raise ValueError(f"genus {h} outside 0..{h_max} at this order")


@lru_cache(maxsize=None)
def _f_rows(order: int) -> tuple[tuple[int, ...], ...]:
    """Q_h(0..order) for h = 0..order//2; Q_h(n) vanishes below n = 2h.

    The medial construction matches link diagrams with n crossings to maps
    with n edges, genus for genus, so F_h[n] = Q_h(n) / (2n), where Q_h(n)
    counts rooted maps of genus h with n edges.  Carrell and Chapuy
    (JCTA 133 (2015) 58-75) give

        (n+1) Q_h(n) = 4(2n-1) Q_h(n-1) + (2n-3)(n-1)(2n-1) Q_(h-1)(n-2)
            + 3 sum_(k=1..n-1) (2k-1)(2n-2k-1) sum_(i=0..h) Q_i(k-1) Q_(h-i)(n-k-1)

    with Q_0(0) = 1, and the division by n+1 is exact.  The four-point
    rows are then integral too: G4_h[m] = 2(m+1) F_h[m+1] = Q_h(m+1).
    """
    if order < 0:
        raise ValueError("series order must be nonnegative")
    h_max = order // 2
    q = [[1] + [0] * order] + [[0] * (order + 1) for _ in range(h_max)]
    for n in range(1, order + 1):
        for h in range(h_max + 1):
            total = 4 * (2 * n - 1) * q[h][n - 1]
            if h and n >= 2:
                total += (2 * n - 3) * (n - 1) * (2 * n - 1) * q[h - 1][n - 2]
            total += 3 * sum(
                (2 * k - 1) * (2 * n - 2 * k - 1) * q[i][k - 1] * q[h - i][n - k - 1]
                for k in range(1, n)
                for i in range(h + 1)
            )
            q[h][n], remainder = divmod(total, n + 1)
            if remainder:
                raise RuntimeError(f"rooted-map recurrence left a remainder at h={h}, n={n}")
    return tuple(tuple(row) for row in q)


def F_genus(h: int, order: int) -> QSeries:
    """Genus-h free energy: the weighted count of connected link diagrams.

    F_h[n] = Q_h(n)/(2n), through g^order; F_h starts at g^(2h)."""
    _check_genus(h, order // 2)
    q = _f_rows(order)[h]
    return QSeries(order, [0] + [Fraction(q[n], 2 * n) for n in range(1, order + 1)])


# -- self-energy removal and the flype quotient ------------------------------
#
# Through g^order the Gamma rows need the free energies through g^(order+1),
# and Gamma_h starts at g^(2h-1), so the rows run over h <= (order+1)//2.


@lru_cache(maxsize=None)
def _substitution(order: int) -> tuple[GenusSeries, GenusSeries]:
    """The four-point rows G4(u) = sum(x^h Q_h(m+1) u^m) and
    psi(u) = (1 + u G4(u))^-2, through u^order and h <= (order+1)//2."""
    if order < 0:
        raise ValueError("series order must be nonnegative")
    h_max = (order + 1) // 2
    g4 = GenusSeries(order, h_max, list(zip(*(q[1:] for q in _f_rows(order + 1)))))
    r = (1 + GenusSeries.gee(order, h_max) * g4).reciprocal()
    return g4, r * r


def _at_u(f: GenusSeries, psi: GenusSeries) -> GenusSeries:
    """f(u(g)) for the root u(g) of u = g psi(u), by Lagrange inversion:

        [g^n] f(u(g)) = [u^(n-1)] f'(u) psi(u)^n / n    for n >= 1

    (Flajolet and Sedgewick, Analytic Combinatorics, CUP 2009, Thm A.2).
    With integer f and psi, u(g) and f(u(g)) have integer coefficients,
    so the division by n is exact.  f' is known through u^(n_max-1),
    as far as the rows read.  f and psi must have the same shape: f's
    rows are read into psi's shape, which would pad or cut them unseen."""
    n_max, h_max = psi.n_max, psi.h_max
    if (f.n_max, f.h_max) != (n_max, h_max):
        raise ValueError(
            f"f has shape {(f.n_max, f.h_max)} but psi has {(n_max, h_max)}"
        )
    term = GenusSeries(n_max, h_max, [[n * c for c in f.grid[n]] for n in range(1, n_max + 1)])
    rows = [f.grid[0]]
    for n in range(1, n_max + 1):
        term = term * psi
        row = [divmod(c, n) for c in term.grid[n - 1]]
        if any(r for _, r in row):
            raise RuntimeError(f"Lagrange inversion left a remainder at g^{n}")
        rows.append([q for q, _ in row])
    return GenusSeries(n_max, h_max, rows)


def alpha_series(order: int) -> GenusSeries:
    """The substitution point alpha(g) that removes all self-energies.

    Determined by G2(g, alpha) = 1, which by homogeneity is the fixed
    point alpha = 1 + u G4(u) at u = g/alpha^2.  So u = g psi(u), and
    alpha is 1 + u G4(u) taken at that root.
    """
    g4, psi = _substitution(order)
    return _at_u(1 + GenusSeries.gee(order, psi.h_max) * g4, psi)


@lru_cache(maxsize=None)
def _gamma_all(order: int) -> GenusSeries:
    """Gamma = G4(u)/alpha^2 - 2 at the root u(g), where 1/alpha^2 = psi(u)."""
    g4, psi = _substitution(order)
    return _at_u(g4 * psi, psi) - 2


def gamma_genus(h: int, order: int) -> QSeries:
    """Connected, self-energy-free four-point function at genus h."""
    _check_genus(h, (order + 1) // 2)
    return _gamma_all(order).row(h)


@lru_cache(maxsize=None)
def _flype_psi(order: int) -> GenusSeries:
    """phi(t) = t/g(t) for the renormalized coupling t = g0(g), through
    t^order, with Gamma's genus bound and every row above genus 0 zero.

    The flype quotient renormalizes g0 = g(-1 + 2/((1-g)(1+Gamma0(g0)))),
    which rearranges to T(t)(g-1)(g+t) + 2g = 0 with T = 1 + Gamma0: g(t)
    is a root of a quadratic and g0 = g phi(g0).  With g = t/phi this
    reads T (1 + phi)(phi - t) = 2 phi, phi(0) = 1.  In its t^n
    coefficient phi[n] enters with slope T[0](1 + 2 phi[0]) - 2 = 1, so
    phi[n] follows from the lower coefficients with no division; a[n] is
    the t^n coefficient of (1 + phi)(phi - t), kept as phi grows.
    """
    gamma = _gamma_all(order)
    big_t = [1 + gamma.grid[0][0]] + [gamma.grid[n][0] for n in range(1, order + 1)]
    phi, a = [1], [2]
    for n in range(1, order + 1):
        t_n = int(n == 1)
        # The t^n coefficient of phi^2 without its two phi[0] phi[n] terms.
        inner = sum(phi[j] * phi[n - j] for j in range(1, n))
        c = phi[n - 1] + t_n - inner - sum(big_t[i] * a[n - i] for i in range(1, n + 1))
        phi.append(c)
        a.append(3 * c + inner - phi[n - 1] - t_n)
    return GenusSeries(order, gamma.h_max, [[c] for c in phi])


@lru_cache(maxsize=None)
def g0_series(order: int) -> QSeries:
    """Renormalized coupling implementing the quotient by flypes.

    The root t = g0(g) of g0 = g(-1 + 2/((1-g)(1+Gamma0(g0)))), where
    Gamma0 is the planar four-point row, by Lagrange inversion of
    t = g phi(t) (see `_flype_psi`).
    """
    psi = _flype_psi(order)
    return _at_u(GenusSeries.gee(order, psi.h_max), psi).row(0)


@lru_cache(maxsize=None)
def _gamma_tilde_all(order: int) -> GenusSeries:
    """Gamma(g0(g)) at every genus: one Lagrange inversion, since g0 is the
    root of t = g phi(t) and phi does not depend on the genus."""
    return _at_u(_gamma_all(order), _flype_psi(order))


def gamma_tilde(h: int, order: int) -> QSeries:
    """Flype-equivalence class counts: the genus-h row of Gamma(g0(g))."""
    _check_genus(h, (order + 1) // 2)
    return _gamma_tilde_all(order).row(h)

