"""Exact generating functions for the weighted diagram counts.

Everything here is a formal power series in the coupling g with exact
rational coefficients, truncated at an explicit order.  The univariate
kind (`QSeries`) carries one genus sector or a genus sum; the bivariate
kind (`GenusSeries`) additionally tracks powers of x = 1/N^2, one per
handle.  The pipeline runs: free energies per genus from closed forms,
four-point function by differentiation, self-energy removal through the
substitution point alpha(g), and finally the flype quotient through a
renormalized coupling g0(g).  The resulting rows are the reference
numbers the census and flype modules are tested against.

Floating point appears in exactly one place, the growth diagnostic, which
estimates the radius of convergence and singularity exponent from
coefficient ratios and makes no exactness claims.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


class QSeries:
    """Truncated power series sum(c[n] g^n, n=0..order) with exact rationals."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=()):
        if order < 0:
            raise ValueError("series order must be nonnegative")
        padded = [Fraction(c) for c in coeffs][: order + 1]
        padded += [Fraction(0)] * (order + 1 - len(padded))
        self.order = order
        self.coeffs = tuple(padded)

    @classmethod
    def zero(cls, order: int) -> "QSeries":
        return cls(order)

    @classmethod
    def constant(cls, c, order: int) -> "QSeries":
        return cls(order, [Fraction(c)])

    @classmethod
    def gee(cls, order: int) -> "QSeries":
        """The series g itself."""
        return cls(order, [0, 1])

    def __getitem__(self, n: int) -> Fraction:
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
        return QSeries(order, self.coeffs[: order + 1])

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
        if isinstance(other, (int, Fraction)):
            return QSeries(self.order, [c * other for c in self.coeffs])
        a, b = self._join(other)
        out = [Fraction(0)] * (a.order + 1)
        for i, x in enumerate(a.coeffs):
            if not x:
                continue
            for j in range(a.order + 1 - i):
                out[i + j] += x * b.coeffs[j]
        return QSeries(a.order, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.reciprocal() ** (-k)
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
        return QSeries(self.order, [Fraction(0)] * k + list(self.coeffs))

    def reciprocal(self) -> "QSeries":
        if not self.coeffs[0]:
            raise ValueError("no reciprocal: constant term vanishes")
        inv0 = 1 / self.coeffs[0]
        out = [inv0]
        for n in range(1, self.order + 1):
            acc = sum(self.coeffs[k] * out[n - k] for k in range(1, n + 1))
            out.append(-inv0 * acc)
        return QSeries(self.order, out)

    def derivative(self) -> "QSeries":
        """d/dg, keeping the truncation order (top coefficient unknown -> order-1)."""
        return QSeries(
            self.order - 1,
            [n * c for n, c in enumerate(self.coeffs)][1:],
        )

    def integral(self) -> "QSeries":
        return QSeries(
            self.order + 1,
            [Fraction(0)] + [c / (n + 1) for n, c in enumerate(self.coeffs)],
        )

    def log(self) -> "QSeries":
        """log of a series with constant term 1."""
        if self.coeffs[0] != 1:
            raise ValueError("log needs constant term 1")
        return (self.derivative() * self.reciprocal()).integral().truncate(self.order)

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


class GenusSeries:
    """Doubly truncated series sum(c[n][h] g^n x^h) with x = 1/N^2."""

    __slots__ = ("n_max", "h_max", "grid")

    def __init__(self, n_max: int, h_max: int, grid=None):
        self.n_max = n_max
        self.h_max = h_max
        rows = []
        for n in range(n_max + 1):
            src = grid[n] if grid and n < len(grid) else ()
            row = [Fraction(c) for c in src][: h_max + 1]
            row += [Fraction(0)] * (h_max + 1 - len(row))
            rows.append(tuple(row))
        self.grid = tuple(rows)

    @classmethod
    def from_rows(cls, rows: list[QSeries], n_max: int) -> "GenusSeries":
        """Assemble sum(x^h rows[h]) from per-genus univariate series."""
        h_max = len(rows) - 1
        grid = [
            [rows[h][n] if n <= rows[h].order else 0 for h in range(h_max + 1)]
            for n in range(n_max + 1)
        ]
        return cls(n_max, h_max, grid)

    @classmethod
    def constant(cls, c, n_max: int, h_max: int) -> "GenusSeries":
        return cls(n_max, h_max, [[Fraction(c)]])

    @classmethod
    def gee(cls, n_max: int, h_max: int) -> "GenusSeries":
        return cls(n_max, h_max, [[], [Fraction(1)]])

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

    def _join(self, other):
        if not isinstance(other, GenusSeries):
            other = GenusSeries.constant(other, self.n_max, self.h_max)
        if (other.n_max, other.h_max) != (self.n_max, self.h_max):
            n, h = min(self.n_max, other.n_max), min(self.h_max, other.h_max)
            return self.truncate(n, h), other.truncate(n, h)
        return self, other

    def truncate(self, n_max: int, h_max: int) -> "GenusSeries":
        return GenusSeries(n_max, h_max, [row[: h_max + 1] for row in self.grid[: n_max + 1]])

    def __add__(self, other):
        a, b = self._join(other)
        grid = [
            [x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.grid, b.grid)
        ]
        return GenusSeries(a.n_max, a.h_max, grid)

    __radd__ = __add__

    def __neg__(self):
        return GenusSeries(
            self.n_max, self.h_max, [[-c for c in row] for row in self.grid]
        )

    def __sub__(self, other):
        a, b = self._join(other)
        return a + (-b)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return GenusSeries(
                self.n_max,
                self.h_max,
                [[c * other for c in row] for row in self.grid],
            )
        a, b = self._join(other)
        grid = [[Fraction(0)] * (a.h_max + 1) for _ in range(a.n_max + 1)]
        for n1, row in enumerate(a.grid):
            for h1, c in enumerate(row):
                if not c:
                    continue
                for n2 in range(a.n_max + 1 - n1):
                    for h2 in range(a.h_max + 1 - h1):
                        if b.grid[n2][h2]:
                            grid[n1 + n2][h1 + h2] += c * b.grid[n2][h2]
        return GenusSeries(a.n_max, a.h_max, grid)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.reciprocal() ** (-k)
        out = GenusSeries.constant(1, self.n_max, self.h_max)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def reciprocal(self) -> "GenusSeries":
        """Inverse when the g-constant term is a unit in Q[x]/(x^(h_max+1))."""
        c0 = self.grid[0]
        if not c0[0]:
            raise ValueError("no reciprocal: constant term vanishes")
        inv0 = _xinv(c0)
        rows = [inv0]
        for n in range(1, self.n_max + 1):
            acc = [Fraction(0)] * (self.h_max + 1)
            for k in range(1, n + 1):
                for h1, c in enumerate(self.grid[k]):
                    if not c:
                        continue
                    for h2 in range(self.h_max + 1 - h1):
                        acc[h1 + h2] += c * rows[n - k][h2]
            rows.append(tuple(-x for x in _xmul(inv0, acc)))
        return GenusSeries(self.n_max, self.h_max, rows)

    def derivative_g(self) -> "GenusSeries":
        return GenusSeries(
            self.n_max - 1,
            self.h_max,
            [[n * c for c in row] for n, row in enumerate(self.grid)][1:],
        )

    def shift_g(self) -> "GenusSeries":
        return GenusSeries(
            self.n_max, self.h_max, [[Fraction(0)] * (self.h_max + 1)] + list(self.grid)
        )


def _xmul(u, v):
    h_max = len(u) - 1
    out = [Fraction(0)] * (h_max + 1)
    for i, a in enumerate(u):
        if a:
            for j in range(h_max + 1 - i):
                out[i + j] += a * v[j]
    return tuple(out)


def _xinv(u):
    inv0 = 1 / u[0]
    out = [inv0]
    for h in range(1, len(u)):
        acc = sum(u[k] * out[h - k] for k in range(1, h + 1))
        out.append(-inv0 * acc)
    return tuple(out)


def compose_rows(rows: list[QSeries], arg: GenusSeries) -> GenusSeries:
    """sum(x^h rows[h](arg)) for a bivariate argument with no constant term."""
    if arg.grid[0][0]:
        raise ValueError("composition needs a vanishing constant term")
    n_max, h_max = arg.n_max, arg.h_max
    out = GenusSeries(n_max, h_max)
    for h, series in enumerate(rows):
        if h > h_max:
            break
        comp = GenusSeries.constant(series[0], n_max, h_max)
        power = GenusSeries.constant(1, n_max, h_max)
        top = min(series.order, n_max)
        for n in range(1, top + 1):
            power = power * arg
            if series[n]:
                comp = comp + power * series[n]
        shifted = [[Fraction(0)] * h + list(row[: h_max + 1 - h]) for row in comp.grid]
        out = out + GenusSeries(n_max, h_max, shifted)
    return out


# -- free energies per genus -------------------------------------------------


@lru_cache(maxsize=None)
def a2_series(order: int) -> QSeries:
    """Solution of a2 = 1 + 3 g (a2)^2 with a2(0) = 1."""
    a2 = QSeries.constant(1, order)
    for _ in range(order + 1):
        a2 = 1 + 3 * QSeries.gee(order) * a2 * a2
    if a2 != 1 + 3 * QSeries.gee(order) * a2 * a2:
        raise RuntimeError("fixed point did not settle")
    return a2


# Genus-3 free energy: the closed form is unwieldy, so the expansion is
# carried as data (it starts at g^6 and is known through g^11).
_F3_COEFFS = {
    6: Fraction(495, 4),
    7: Fraction(56628, 7),
    8: Fraction(2504115, 8),
    9: Fraction(9322668),
    10: Fraction(472138479, 2),
    11: Fraction(5345163216),
}
_F3_MAX_ORDER = max(_F3_COEFFS)


@lru_cache(maxsize=None)
def F_genus(h: int, order: int) -> QSeries:
    """Genus-h free energy (the weighted connected diagram count), h <= 3."""
    if h == 0:
        a2 = a2_series(order)
        return a2.log() - Fraction(1, 12) * (a2 - 1) * (9 - a2)
    if h == 1:
        a2 = a2_series(order)
        inner = (2 - a2) * (2 + a2) ** 3 * Fraction(1, 27)
        return Fraction(-1, 24) * inner.log()
    if h == 2:
        return _f_two(order)
    if h == 3:
        if order > _F3_MAX_ORDER:
            raise ValueError(f"genus-3 data stops at order {_F3_MAX_ORDER}")
        return QSeries(
            order, [_F3_COEFFS.get(n, 0) for n in range(order + 1)]
        )
    raise ValueError("closed forms cover genus 0..3 only")


def _f_two(order: int) -> QSeries:
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


@lru_cache(maxsize=None)
def F_all_N1(order: int) -> QSeries:
    """log of the N=1 partition sum Z = sum((g/2)^n (2n)!/n!)."""
    z = QSeries(
        order,
        [
            Fraction(_factorial(2 * n), _factorial(n) * 2**n)
            for n in range(order + 1)
        ],
    )
    return z.log()


def _factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def G4_of(f):
    """Four-point function 2 dF/dg of a free energy of either kind."""
    if isinstance(f, QSeries):
        return f.derivative() * 2
    return f.derivative_g() * 2


def G2_of(f):
    """Two-point function 1 + g G4 (at the bare substitution point)."""
    g4 = G4_of(f)
    if isinstance(g4, QSeries):
        return 1 + g4.shift(1)
    return 1 + g4.shift_g()


# -- self-energy removal and the flype quotient ------------------------------

N_MAX = 11
H_MAX = 5


@lru_cache(maxsize=None)
def _f_rows(order: int = N_MAX) -> tuple[QSeries, ...]:
    f4, f5 = extract_higher_genus(order)
    return (
        F_genus(0, order),
        F_genus(1, order),
        F_genus(2, order),
        F_genus(3, order),
        f4,
        f5,
    )


@lru_cache(maxsize=None)
def extract_higher_genus(order: int = N_MAX) -> tuple[QSeries, QSeries]:
    """Partial genus-4 and genus-5 free energies from the N=1 sum rule.

    The residual R = F(N=1) - sum(F^(0..3)) holds everything of genus at
    least 4.  Its g^8 and g^9 coefficients belong to genus 4 alone; the
    hook-character formulas pin the two leading genus-5 coefficients, and
    the genus-4 tail follows by subtraction.  The g^8 cross-check against
    the closed form aborts loudly, since a mismatch means some series
    upstream is wrong.
    """
    from .charformula import f_min, f_next

    if order < 10:
        raise ValueError("extraction needs at least order 10")
    if order > _F3_MAX_ORDER:
        raise ValueError(f"genus-3 data stops at order {_F3_MAX_ORDER}")
    residual = F_all_N1(order)
    for h in range(4):
        residual = residual - F_genus(h, order)
    if any(residual[n] for n in range(8)):
        raise AssertionError("genus residual should start at g^8")
    if residual[8] != f_min(4):
        raise AssertionError(
            f"g^8 residual {residual[8]} disagrees with the closed form {f_min(4)}"
        )
    f5 = [Fraction(0)] * (order + 1)
    f5[10] = f_min(5)
    if order >= 11:
        f5[11] = f_next(5)
    f5_series = QSeries(order, f5)
    f4 = [Fraction(0)] * (order + 1)
    f4[8], f4[9] = residual[8], residual[9]
    for n in range(10, order + 1):
        f4[n] = residual[n] - f5_series[n]
    return QSeries(order, f4), f5_series


@lru_cache(maxsize=None)
def alpha_series(n_max: int = N_MAX - 1, h_max: int = H_MAX) -> GenusSeries:
    """The substitution point alpha(g) that removes all self-energies.

    Determined by G2(g, alpha) = 1, which by homogeneity is the fixed
    point alpha = 1 + (g/alpha^2) G4(g/alpha^2).
    """
    rows = [G4_of(f) for f in _f_rows(n_max + 1)]
    alpha = GenusSeries.constant(1, n_max, h_max)
    for _ in range(n_max + 1):
        arg = GenusSeries.gee(n_max, h_max) * alpha.reciprocal() ** 2
        alpha = 1 + arg * compose_rows(rows, arg)
    arg = GenusSeries.gee(n_max, h_max) * alpha.reciprocal() ** 2
    if alpha != 1 + arg * compose_rows(rows, arg):
        raise RuntimeError("fixed point did not settle")
    return alpha


@lru_cache(maxsize=None)
def _gamma_all(n_max: int = N_MAX - 1, h_max: int = H_MAX) -> GenusSeries:
    rows = [G4_of(f) for f in _f_rows(n_max + 1)]
    alpha = alpha_series(n_max, h_max)
    arg = GenusSeries.gee(n_max, h_max) * alpha.reciprocal() ** 2
    return alpha.reciprocal() ** 2 * compose_rows(rows, arg) - 2


def gamma_genus(h: int, order: int = N_MAX - 1) -> QSeries:
    """Connected, self-energy-free four-point function at genus h."""
    if not 0 <= h <= H_MAX:
        raise ValueError(f"genus data covers h <= {H_MAX}")
    if order > N_MAX - 1:
        raise ValueError(f"free-energy data supports order <= {N_MAX - 1}")
    return _gamma_all(N_MAX - 1, H_MAX).row(h).truncate(order)


@lru_cache(maxsize=None)
def g0_series(order: int = N_MAX - 1) -> QSeries:
    """Renormalized coupling implementing the quotient by flypes.

    Fixed point of g0 = g(-1 + 2/((1-g)(1+Gamma0(g0)))) where Gamma0 is
    the planar four-point row.
    """
    gamma0 = gamma_genus(0, order)
    g = QSeries.gee(order)
    g0 = g
    for _ in range(order + 1):
        g0 = g * (2 * ((1 - g) * (1 + gamma0.compose(g0))).reciprocal() - 1)
    if g0 != g * (2 * ((1 - g) * (1 + gamma0.compose(g0))).reciprocal() - 1):
        raise RuntimeError("fixed point did not settle")
    return g0


def gamma_tilde(h: int, order: int = N_MAX - 1) -> QSeries:
    """Flype-equivalence class counts: the genus-h row of Gamma(g0(g))."""
    return gamma_genus(h, order).compose(g0_series(order))


# -- growth diagnostics ------------------------------------------------------


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
