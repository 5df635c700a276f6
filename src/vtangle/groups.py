"""Finite groups as validated multiplication tables.

Morphism counting needs products, inverses and the orbits of subgroups
acting by conjugation.  The orbits follow from the other two, on demand
and uncached, so a group here is just its Cayley table over elements
``0..order-1``.  The axioms are checked at construction time: rows and
columns must be permutations, an identity must exist, and multiplication
must associate.  The associativity check is vectorized so tables of
order a few hundred (the sizes separation occasionally calls for) load in
well under a second.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np


class FiniteGroup:
    """A finite group given by its full multiplication table."""

    __slots__ = ("name", "table", "identity", "inverse")

    def __init__(self, name: str, table):
        rows = tuple(tuple(int(x) for x in row) for row in table)
        m = len(rows)
        if m == 0:
            raise ValueError("a group has at least the identity element")
        arr = np.asarray(rows, dtype=np.int64)
        if arr.shape != (m, m):
            raise ValueError(f"table must be {m}x{m}, got shape {arr.shape}")
        if arr.min() < 0 or arr.max() >= m:
            raise ValueError("table entries must name elements 0..order-1")
        ident = np.arange(m)
        for a in range(m):
            if np.any(np.sort(arr[a]) != ident) or np.any(np.sort(arr[:, a]) != ident):
                raise ValueError(f"row/column {a} is not a permutation of the elements")
        units = [
            e
            for e in range(m)
            if np.array_equal(arr[e], ident) and np.array_equal(arr[:, e], ident)
        ]
        if len(units) != 1:
            raise ValueError("table has no two-sided identity")
        for a in range(m):
            # (a*b)*c against a*(b*c), one generator row at a time.
            if not np.array_equal(arr[arr[a]], arr[a][arr]):
                raise ValueError("multiplication is not associative")
        e = units[0]
        inv = [0] * m
        for a in range(m):
            inv[a] = int(np.nonzero(arr[a] == e)[0][0])
        self.name = name
        self.table = rows
        self.identity = e
        self.inverse = tuple(inv)

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def conjugation_orbits(self, sub) -> list[tuple[int, int, frozenset[int]]]:
        """The orbits of the elements under conjugation by the subgroup `sub`.

        One triple per orbit, in order of least element: that element, the
        orbit's size, and the elements of `sub` commuting with it (its
        stabiliser).  With `sub` the whole group the orbits are the
        conjugacy classes.  `sub` must be a subgroup."""
        table, inv = self.table, self.inverse
        seen = set()
        out = []
        for x in range(self.order):
            if x in seen:
                continue
            orbit = {table[table[h][x]][inv[h]] for h in sub}
            seen |= orbit
            fixing = frozenset(h for h in sub if table[h][x] == table[x][h])
            out.append((x, len(orbit), fixing))
        return out

    def __repr__(self):
        return f"FiniteGroup({self.name!r}, order={self.order})"

    def __eq__(self, other):
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.table == other.table

    def __hash__(self):
        return hash(self.table)

    # -- constructions -------------------------------------------------------

    @classmethod
    def from_permutations(cls, name: str, perms) -> "FiniteGroup":
        """Build the table of a set of permutations closed under composition."""
        elems = sorted({tuple(p) for p in perms})
        index = {p: i for i, p in enumerate(elems)}
        table = []
        for p in elems:
            row = []
            for q in elems:
                pq = tuple(p[x] for x in q)
                if pq not in index:
                    raise ValueError(f"{name}: permutation set is not closed")
                row.append(index[pq])
            table.append(row)
        return cls(name, table)

    @classmethod
    def symmetric(cls, k: int) -> "FiniteGroup":
        return cls.from_permutations(f"S{k}", itertools.permutations(range(k)))

    @classmethod
    def alternating(cls, k: int) -> "FiniteGroup":
        return cls.from_permutations(
            f"A{k}",
            (p for p in itertools.permutations(range(k)) if _is_even(p)),
        )

    @classmethod
    def cyclic(cls, k: int) -> "FiniteGroup":
        return cls(f"Z{k}", [[(a + b) % k for b in range(k)] for a in range(k)])

    @classmethod
    def dihedral(cls, k: int) -> "FiniteGroup":
        """Symmetries of the k-gon, as permutations of its vertices."""
        if k < 3:
            raise ValueError("the dihedral construction needs k >= 3")
        rotations = [tuple((i + r) % k for i in range(k)) for r in range(k)]
        flips = [tuple((r - i) % k for i in range(k)) for r in range(k)]
        return cls.from_permutations(f"D{k}", rotations + flips)

    def direct_product(self, other: "FiniteGroup", name: str | None = None) -> "FiniteGroup":
        m = other.order
        table = [
            [
                self.table[a1][b1] * m + other.table[a2][b2]
                for b1 in range(self.order)
                for b2 in range(m)
            ]
            for a1 in range(self.order)
            for a2 in range(m)
        ]
        return FiniteGroup(name or f"{self.name}x{other.name}", table)


def _is_even(p) -> bool:
    seen = [False] * len(p)
    parity = 0
    for i in range(len(p)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        parity ^= (length - 1) & 1
    return parity == 0


@lru_cache(maxsize=1)
def builtin_groups() -> dict[str, FiniteGroup]:
    """The groups shipped with the package, keyed by name."""
    s3 = FiniteGroup.symmetric(3)
    a4 = FiniteGroup.alternating(4)
    a5 = FiniteGroup.alternating(5)
    s4 = FiniteGroup.symmetric(4)
    a5z2 = a5.direct_product(FiniteGroup.cyclic(2))
    return {g.name: g for g in (s3, a4, a5, s4, a5z2)}
