"""Exact Laurent polynomial arithmetic in several variables.

Coefficients are Python integers, exponents may be negative, and storage
is a sparse map from exponent vectors to coefficients.  The module also
provides exact determinants of polynomial matrices and the unit
normalization that makes polynomials defined "up to a sign and a
monomial" comparable.
"""

from __future__ import annotations

from collections.abc import Sequence


class MultiLaurentPoly:
    """A Laurent polynomial over a fixed ordered tuple of variable names.

    Instances are immutable by convention: every operation returns a new
    polynomial, and no zero coefficient is ever stored.  Two polynomials
    compare equal only if they share the same variable tuple.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != len(self.variables):
                raise ValueError(
                    f"exponent vector {exps} does not fit variables {self.variables}"
                )
            if coeff:
                clean[exps] = clean.get(exps, 0) + coeff
                if not clean[exps]:
                    del clean[exps]
        self.terms = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "MultiLaurentPoly":
        return cls(variables)

    @classmethod
    def constant(cls, c: int, variables) -> "MultiLaurentPoly":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): c})

    @classmethod
    def one(cls, variables) -> "MultiLaurentPoly":
        return cls.constant(1, variables)

    @classmethod
    def monomial(cls, coeff: int, exps, variables) -> "MultiLaurentPoly":
        return cls(variables, {tuple(exps): coeff})

    # -- ring structure ------------------------------------------------------

    def _coerce(self, other) -> "MultiLaurentPoly":
        if isinstance(other, MultiLaurentPoly):
            if other.variables != self.variables:
                raise ValueError(
                    f"variable mismatch: {self.variables} vs {other.variables}"
                )
            return other
        if isinstance(other, int):
            return MultiLaurentPoly.constant(other, self.variables)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            out[exps] = out.get(exps, 0) + coeff
        return MultiLaurentPoly(self.variables, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiLaurentPoly(
            self.variables, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return MultiLaurentPoly(self.variables, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = MultiLaurentPoly.constant(other, self.variables)
        if not isinstance(other, MultiLaurentPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, reverse=True):
            coeff = self.terms[exps]
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.variables, exps)
                if e
            ]
            body = "*".join(factors)
            if not body:
                mono = str(abs(coeff))
            elif abs(coeff) == 1:
                mono = body
            else:
                mono = f"{abs(coeff)}*{body}"
            sign = "-" if coeff < 0 else "+"
            parts.append((sign, mono))
        first_sign, first = parts[0]
        text = ("-" if first_sign == "-" else "") + first
        for sign, mono in parts[1:]:
            text += f" {sign} {mono}"
        return text

    def __repr__(self):
        return f"MultiLaurentPoly({self.variables!r}, {self.terms!r})"


# Rows of polynomials over one shared variable tuple; determinants expect
# a square one.
PolyMatrix = Sequence[Sequence[MultiLaurentPoly]]


def _matrix_variables(m: PolyMatrix):
    if not m or any(len(row) != len(m) for row in m):
        raise ValueError("determinant needs a square, nonempty matrix")
    variables = m[0][0].variables
    if any(p.variables != variables for row in m for p in row):
        raise ValueError("matrix entries disagree on variables")
    return variables


def det(m: PolyMatrix) -> MultiLaurentPoly:
    """Exact determinant of a square polynomial matrix.

    Cofactor expansion along the first remaining row, memoizing on the
    set of surviving columns, which makes it O(n 2^n) instead of n!.
    """
    variables = _matrix_variables(m)
    n = len(m)
    cache = {}

    def minor(cols: int):
        if cols == 0:
            return MultiLaurentPoly.one(variables)
        got = cache.get(cols)
        if got is not None:
            return got
        row = n - bin(cols).count("1")
        total = MultiLaurentPoly.zero(variables)
        sign = 1
        rest = cols
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            entry = m[row][j]
            if entry:
                sub = minor(cols ^ low)
                total = total + (entry * sub if sign > 0 else -(entry * sub))
            sign = -sign
            rest ^= low
        cache[cols] = total
        return total

    return minor((1 << n) - 1)


def normalize_unit(p: MultiLaurentPoly) -> MultiLaurentPoly:
    """Canonical representative under sign and monomial unit factors.

    Exponents are shifted so each variable's minimum is zero, then the
    overall sign is fixed to make the lexicographically leading
    coefficient positive.  Zero maps to zero; the map is idempotent.
    """
    if not p.terms:
        return p
    k = len(p.variables)
    shift = tuple(min(e[i] for e in p.terms) for i in range(k))
    terms = {
        tuple(x - s for x, s in zip(e, shift)): c for e, c in p.terms.items()
    }
    if terms[max(terms)] < 0:
        terms = {e: -c for e, c in terms.items()}
    return MultiLaurentPoly(p.variables, terms)
