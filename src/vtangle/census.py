"""Isomorph-free generation of canonical diagrams, with counting tables.

The relabelling group of an ``n``-crossing diagram has order ``n! 2^n``
(block permutations times block orientations); for tangles the marked block
is fixed pointwise, leaving ``(n-1)! 2^(n-1)``.  Rather than filtering all
of ``S_2n``, the search assigns ``sigma`` images position by position under
the rule that keeps the partial assignment equal to its own rooted code at
root 0 (new blocks must appear as the lowest unused even label).  A finished
assignment is emitted only when it equals its canonical code over all
roots, so each equivalence class surfaces exactly once, in sorted order.

A tangle scan can stall on pieces that hang off the marked crossing; the
generator then lets the marked values open the next block, mirroring the
rooted-code rule, so connected tangles are produced without ever placing a
block that nothing points at.  A link scan that stalls has a disconnected
prefix and is pruned.  Only connected diagrams are enumerated.

Per leaf the census does only what decides whether the leaf survives.  A
connectivity guard runs on the bare tuple.  The canonicity test then walks
the roots and reads each root's trace only as far as its first slot that
differs from ``sigma``: a larger slot dismisses that root, a smaller one
drops the leaf on the spot, and a canonical leaf comes back with the number
of roots whose trace is ``sigma`` (its symmetry order).  Diagram objects,
the self-energy filter, genus and component count are computed for the
surviving canonical leaves only, and the tangle stream sorts just those.

This recursive search is the only census generator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .perms import Perm, conjugate
from .codes import canonical_code, canonical_multiplicity
from .diagrams import (
    LinkDiagram,
    TangleDiagram,
    genus,
    component_count,
    has_self_energy,
)


def canonical_form(d: LinkDiagram) -> Perm:
    """Lexicographically minimal image list over all relabellings of ``d``.

    Two diagrams are relabelling-equivalent exactly when their canonical
    forms agree.  For tangles the minimum is over relabellings fixing the
    marked block pointwise.
    """
    return canonical_code(d.sigma, marked=isinstance(d, TangleDiagram))


def canonical_diagram(d: LinkDiagram) -> LinkDiagram:
    return type(d)(d.n, canonical_form(d))


# -- the relabelling group, for oracles and property tests -------------------


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


# -- generation --------------------------------------------------------------


def _link_leaves(n2: int):
    """All connected link sigma in rooted-normal form at root 0, in order.

    A stall (no block was forced into the next slot pair) means the prefix
    is a sealed, disconnected piece, so the branch is pruned.
    """
    sigma = [-1] * n2
    used = [False] * n2

    def rec(p: int, m: int):
        if p == n2:
            yield tuple(sigma)
            return
        if p > m:
            return
        for v in range(min(m + 1, n2 - 1) + 1):
            if used[v]:
                continue
            sigma[p] = v
            used[v] = True
            yield from rec(p + 1, m + 2 if v == m + 1 else m)
            used[v] = False
        sigma[p] = -1

    yield from rec(0, 1)


def _tangle_leaves(n2: int):
    """Connected marked sigma in rooted-normal form at root 0.

    Slots below ``n2 - 2`` are filled in order with values that are either
    already-opened labels, the next fresh even label (opening a block), or
    a marked label.  On a stall the pending marked slots take over, exactly
    as in the rooted-code scan: the first one may open the stalled block
    (value = stall position) or spend its value on an old label and pass
    the stall to the second.  A stall is only resolvable when some earlier
    slot already took a marked value (``touched``): that is the bridge tying
    the scanned prefix to the marked crossing, and without it the prefix is
    a sealed piece nothing later can reach.  Leftover values go to the
    remaining marked slots at the end.  Every leaf is connected.
    """
    top = n2 - 2
    sigma = [-1] * n2
    used = [False] * n2

    def rec(p: int, m: int, pending: tuple[int, ...], touched: bool):
        if p == top:
            rest = [v for v in range(n2) if not used[v]]
            if len(rest) != len(pending):
                raise RuntimeError("leftover values do not match the pending marked slots")
            for order in itertools.permutations(rest):
                for q, v in zip(pending, order):
                    sigma[q] = v
                if sigma[top] >= top and sigma[top + 1] >= top:
                    continue  # marked crossing sealed off from the rest
                yield tuple(sigma)
            for q in pending:
                sigma[q] = -1
            return
        if p > m:
            if not pending or not touched:
                return
            q, tail = pending[0], pending[1:]
            sigma[q] = p
            used[p] = True
            yield from rec(p, p + 1, tail, touched)  # opens block {p, p+1}
            used[p] = False
            old = [v for v in range(m + 1) if not used[v]]
            old += [v for v in (top, top + 1) if not used[v]]
            for v in old:
                sigma[q] = v
                used[v] = True
                yield from rec(p, m, tail, touched)  # stall passes along
                used[v] = False
            sigma[q] = -1
            return
        choices = [v for v in range(m + 1) if not used[v]]
        if m + 1 < top:
            choices.append(m + 1)
        choices += [v for v in (top, top + 1) if not used[v]]
        for v in choices:
            sigma[p] = v
            used[v] = True
            opens = v == m + 1 and v < top
            yield from rec(p + 1, m + 2 if opens else m, pending, touched or v >= top)
            used[v] = False
        sigma[p] = -1

    yield from rec(0, 1, (top, top + 1), False)


@dataclass(frozen=True)
class CensusEntry:
    diagram: LinkDiagram
    genus: int
    components: int
    symmetry: int

    @property
    def code(self) -> str:
        return self.diagram.to_code()


def enumerate_diagrams(n: int, mode: str = "link", *, no_self_energy: bool = True):
    """Stream of connected canonical diagrams with ``n`` crossings, one per class.

    For tangles ``n`` counts *real* crossings (the marked one is extra).
    Emission order is sorted by code.  Each entry carries genus, component
    count and the symmetry order (for tangles the stabilizer is checked to
    be trivial, so symmetry is always 1 there).
    """
    if mode not in ("link", "tangle"):
        raise ValueError(f"mode must be 'link' or 'tangle': {mode!r}")
    if n < 1:
        raise ValueError("need at least one crossing")
    marked = mode == "tangle"
    n2 = 2 * (n + 1) if marked else 2 * n
    roots = n2 - 2 if marked else n2

    leaves = _tangle_leaves(n2) if marked else _link_leaves(n2)
    survivors = _canonical_leaves(leaves, marked)
    # Stall decisions write the marked slots out of tuple order, so the
    # tangle stream needs an explicit sort to come out lexicographic.
    if marked:
        survivors = sorted(survivors)
    for sigma, mult in survivors:
        if marked and mult != 1:
            raise RuntimeError("connected tangle with nontrivial stabilizer")
        if roots % mult:
            raise RuntimeError(f"symmetry order {mult} does not divide {roots} roots")
        if marked:
            d: LinkDiagram = TangleDiagram(n + 1, sigma)
        else:
            d = LinkDiagram(n, sigma)
        if no_self_energy and has_self_energy(d):
            continue
        yield CensusEntry(d, genus(d), component_count(d), mult)


def _canonical_leaves(leaves, marked: bool):
    """``(sigma, multiplicity)`` for the leaves that are their own canonical
    code; every leaf is first checked to be connected."""
    for sigma in leaves:
        if not _sigma_is_connected(sigma):
            raise RuntimeError("generator let a disconnected diagram through")
        mult = canonical_multiplicity(sigma, marked)
        if mult:
            yield sigma, mult


def _sigma_is_connected(sigma: Perm) -> bool:
    """``is_connected`` on a bare tuple, with no diagram built.

    The orbit of label 0 under ``sigma`` and ``tau`` (``tau(a) = sigma(a ^ 1)``)
    is closed under the block pairing, so it is a union of crossings; the
    search walks crossings, from ``v`` to those of ``sigma(2v)`` and
    ``sigma(2v + 1)``.
    """
    n = len(sigma) // 2
    seen = [False] * n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        v = stack.pop()
        for w in (sigma[2 * v] // 2, sigma[2 * v + 1] // 2):
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == n


# -- counting ----------------------------------------------------------------


@dataclass
class CountTable:
    """Counts of canonical diagrams indexed by (crossings, genus)."""

    mode: str
    no_self_energy: bool
    counts: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def row(self, n: int) -> dict[int, int]:
        return {h: c for (m, h), c in sorted(self.counts.items()) if m == n}


def count_table(n_max: int, mode: str = "link", *, no_self_energy: bool = True) -> CountTable:
    table = CountTable(mode, no_self_energy)
    for n in range(1, n_max + 1):
        for entry in enumerate_diagrams(n, mode, no_self_energy=no_self_energy):
            key = (n, entry.genus)
            table.counts[key] = table.counts.get(key, 0) + 1
    return table


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
