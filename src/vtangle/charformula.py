"""Free energies of the complex quartic model from symmetric-group characters.

A link diagram with n crossings is a permutation sigma of 2n labels, and
its faces are the cycles of sigma and of sigma*rho, rho being the fixed
pairing (2k, 2k+1).  The partition function is therefore

    Z = sum_n (g / 2N)^n / n! * P_n(N),
    P_n(N) = sum_{sigma in S_2n} N^(c(sigma) + c(sigma rho)),

with c the cycle count, and log Z = sum_h N^(2-2h) F_h(g) sorts the
connected diagrams by genus.  By the Frobenius formula

    P_n(N) = sum_{lambda |- 2n} chi^lambda(2^n) H_lambda s_lambda(1^N)^2,

where H_lambda is the product of the hook lengths and
s_lambda(1^N) = prod_boxes (N + content) / H_lambda.  The character on
the class of n disjoint transpositions comes from Murnaghan-Nakayama
domino removal on beta-sets.

No polynomial in N is ever formed.  The logarithm C_n(N) of the
exponential generating function of P_n(N) counts connected permutations
by face number, so each of its coefficients lies in [0, (2n)!).  Evaluated
at N = 2^B with 2^B > (2 order)!, the integer C_n(2^B) holds the
coefficient of N^(n+2-2h), namely n! 2^n F_h[n], as its base-2^B digit
number n+2-2h.  One pass gives every genus at once, at any order.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


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
