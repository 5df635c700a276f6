"""Finite groups as validated multiplication tables.

Morphism counting needs products, inverses and the orbits of subgroups
acting by conjugation.  The orbits follow from the other two, computed on
first demand and kept on the group per subgroup, so a group here is its
Cayley table over elements ``0..order-1`` plus that cache.  The axioms
are checked at construction time: rows and columns must be permutations,
an identity must exist, and multiplication must associate.  Associativity
is checked by Light's test over a generating set (:func:`_generators`),
which costs ``order^2`` products per generator instead of ``order^3`` in
all.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


class FiniteGroup:
    """A finite group given by its full multiplication table."""

    __slots__ = ("name", "table", "identity", "inverse", "_orbits")

    def __init__(self, name: str, table):
        rows = tuple(tuple(int(x) for x in row) for row in table)
        m = len(rows)
        if m == 0:
            raise ValueError("a group has at least the identity element")
        if any(len(row) != m for row in rows):
            raise ValueError(f"table must be {m}x{m}")
        if min(map(min, rows)) < 0 or max(map(max, rows)) >= m:
            raise ValueError("table entries must name elements 0..order-1")
        ident = tuple(range(m))
        cols = tuple(zip(*rows))
        for a in range(m):
            if sorted(rows[a]) != list(ident) or sorted(cols[a]) != list(ident):
                raise ValueError(f"row/column {a} is not a permutation of the elements")
        units = [e for e in range(m) if rows[e] == ident and cols[e] == ident]
        if len(units) != 1:
            raise ValueError("table has no two-sided identity")
        e = units[0]
        for g in _generators(rows, e):
            # Light's test: (x*g)*y against x*(g*y) for every x and y.
            row_g = rows[g]
            for x, row_x in enumerate(rows):
                if rows[row_x[g]] != tuple(row_x[b] for b in row_g):
                    raise ValueError("multiplication is not associative")
        self.name = name
        self.table = rows
        self.identity = e
        self.inverse = tuple(row.index(e) for row in rows)
        self._orbits = {}

    @property
    def order(self) -> int:
        return len(self.table)

    def conjugation_orbits(self, sub) -> tuple[tuple[int, int, frozenset[int]], ...]:
        """The orbits of the elements under conjugation by the subgroup `sub`.

        One triple per orbit, in order of least element: that element, the
        orbit's size, and the elements of `sub` commuting with it (its
        stabiliser).  With `sub` the whole group the orbits are the
        conjugacy classes.  `sub` must be a subgroup.  The result is
        computed once per subgroup and kept; it is immutable, so no caller
        can change what the next one reads."""
        sub = frozenset(sub)
        if sub not in self._orbits:
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
            self._orbits[sub] = tuple(out)
        return self._orbits[sub]

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


def _generators(rows, e: int) -> list[int]:
    """Elements that generate the table under multiplication.

    Taken greedily in order: each element not yet reached from ``e`` by
    right multiplication with the generators so far becomes one.

    That is what Light's test needs.  Call ``a`` associative when
    ``(x*a)*y = x*(a*y)`` for every ``x`` and ``y``.  The identity is,
    and if ``a`` and ``b`` are then so is ``a*b``::

        (x*(a*b))*y = ((x*a)*b)*y = (x*a)*(b*y) = x*(a*(b*y)) = x*((a*b)*y)

    So when every generator is associative, every element reached is,
    and the table is associative.
    """
    reached = [False] * len(rows)
    reached[e] = True
    gens = []
    for a in range(len(rows)):
        if reached[a]:
            continue
        gens.append(a)
        stack = [x for x, hit in enumerate(reached) if hit]
        while stack:
            x = stack.pop()
            for g in gens:
                y = rows[x][g]
                if not reached[y]:
                    reached[y] = True
                    stack.append(y)
    return gens


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
