"""Independent routes to the free energies, kept out of the library path.

The library computes every F_h from one character sum over S_2n
(``vtangle.charformula``).  The oracles here share none of that code:

* closed forms in g for genus 0, 1 and 2, through the planar
  substitution a2 = 1 + 3 g a2^2;
* the N = 1 sum rule: log of sum((g/2)^n (2n)!/n!) is the sum of F_h
  over every genus;
* the threshold coefficients F_h[2h] and F_h[2h+1], from hook characters
  on a full cycle, with raw permutation-pair scans that recompute them
  from the definition for small h.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from vtangle.series import QSeries


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
    return a2.log() - Fraction(1, 12) * (a2 - 1) * (9 - a2)


def f_one(order: int) -> QSeries:
    a2 = a2_series(order)
    inner = (2 - a2) * (2 + a2) ** 3 * Fraction(1, 27)
    return Fraction(-1, 24) * inner.log()


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
    return z.log()


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
