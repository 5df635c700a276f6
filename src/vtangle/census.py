"""Isomorph-free generation of canonical diagrams, with counting tables.

The relabelling group of an ``n``-crossing diagram has order ``n! 2^n``
(block permutations times block orientations); for tangles the marked block
is fixed pointwise, leaving ``(n-1)! 2^(n-1)``.  Rather than filtering all
of ``S_2n``, the search assigns ``sigma`` images position by position under
the rule that keeps the partial assignment equal to its own rooted code at
root 0 (new blocks must appear as the lowest unused even label).

The search is orderly (Read-Faradzev; McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998): canonicity is tested on every
prefix, not on finished assignments.  Each node carries the scan states
(:func:`~vtangle.codes.root_state`) of the roots whose partial trace still
equals the prefix as far as both are defined; each state waits on the
label whose image it needs next.  After an assignment only the states
waiting on that label are resumed, from where they stopped, and the
others are passed down unchanged: a resumed root whose trace is smaller
cuts the branch, a larger one leaves the list for the whole subtree, an
equal one stays.  A root whose scan runs dry before the last slot cuts
the branch as well: its labels form a closed piece, so the prefix has no
connected completion (proof in :func:`_advance`).  At a leaf every slot is
defined, so every leaf is canonical, each equivalence class surfaces
exactly once, and the symmetry order is 1 plus the number of roots still
tied.

One search (:func:`_leaves`) serves links and tangles.  A tangle is a
diagram with a marked block; a link is the unmarked case, where nothing
is pending and no marked value is ever offered.  A scan can stall on
pieces that hang off the marked crossing; the search then lets the
marked values open the next block, mirroring the rooted-code rule, so
connected tangles are produced without ever placing a block that nothing
points at.  With no marked block a stall means a disconnected prefix, and
the branch is pruned.  Only connected diagrams are enumerated.

Per leaf the census checks connectivity on the bare tuple and the symmetry
order, then builds the diagram, applies the self-energy filter and records
genus and component count.  Link leaves come out in order.  Tangle
leaves do not, so the tangle entries are sorted once they are built, which
holds only the diagrams that pass the filter.

This recursive search is the only census generator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .perms import Perm
from .codes import LARGER, SMALLER, canonical_code, resume, root_state
from .diagrams import (
    LinkDiagram,
    TangleDiagram,
    _sigma_is_connected,
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


# -- generation --------------------------------------------------------------


def _advance(sigma: list[int], tied: list) -> list | None:
    """The scan states of the tied roots after an assignment to ``sigma``,
    or None when the branch is cut.

    Only the states waiting on a label whose image is now assigned are
    resumed; the others are passed on as they are.  A resumed root whose
    trace is smaller cuts the branch, a larger one leaves the list, an
    equal one stays with its new state.

    A root whose scan runs dry before the last slot cuts the branch too.
    Its discovered labels (the marked block included) are closed under the
    block pairing, and every one of them has its image assigned and inside
    the set.  Since ``sigma`` is injective the set is mapped onto itself,
    by ``sigma`` and by ``tau(a) = sigma(a ^ 1)``, in every completion:
    it is a union of crossings that misses at least one.  So no completion
    is connected, and the census yields only connected leaves.
    """
    n2 = len(sigma)
    still = []
    for st in tied:
        if sigma[st[0]] >= 0:
            st = resume(sigma, sigma, st)
            if st is SMALLER:
                return None
            if st is LARGER:
                continue
            if st[0] < 0 and st[1] < n2:
                return None
        still.append(st)
    return still


def _leaves(n2: int, marked: bool):
    """``(sigma, symmetry)`` for the connected canonical sigma on ``n2`` labels.

    Slots are filled in order with values that are either already-opened
    labels, the next fresh even label (opening a block), or a marked
    label.  Every assignment resumes the ``tied`` states waiting on its
    label and cuts the branch at the first smaller one (see
    :func:`_advance`).

    A stall (no block was forced into the next slot pair) leaves the
    prefix a sealed piece.  For a link nothing later can reach it, so the
    branch is cut.  For a tangle the pending marked slots take over,
    exactly as in the rooted-code scan: the first one may open the stalled
    block (value = stall position) or spend its value on an old label and
    pass the stall to the second.  That only helps when some earlier slot
    already took a marked value (``touched``): that is the bridge tying the
    scanned prefix to the marked crossing.  Leftover values go to the
    remaining marked slots at the end, where the states waiting on either
    marked label are resumed together.  A link is the case with no marked
    block: nothing is pending, and the leaf has nothing left to place.
    Every leaf is connected.
    """
    top = n2 - 2 if marked else n2
    marks = range(top, n2)
    sigma = [-1] * n2
    used = [False] * n2

    def rec(p: int, m: int, pending: tuple[int, ...], touched: bool, tied: list):
        if p == top:
            if not pending:
                # Every slot is set and every state resumed.  A tangle gets
                # here only when a stall opened a block from its last
                # marked slot, so the marked crossing is not sealed off.
                yield tuple(sigma), 1 + len(tied)
                return
            rest = [v for v in range(n2) if not used[v]]
            if len(rest) != len(pending):
                raise RuntimeError("leftover values do not match the pending marked slots")
            for order in itertools.permutations(rest):
                for q, v in zip(pending, order):
                    sigma[q] = v
                if sigma[top] >= top and sigma[top + 1] >= top:
                    continue  # marked crossing sealed off from the rest
                still = _advance(sigma, tied)
                if still is not None:
                    yield tuple(sigma), 1 + len(still)
            for q in pending:
                sigma[q] = -1
            return
        if p > m:
            if not pending or not touched:
                return
            q, tail = pending[0], pending[1:]
            sigma[q] = p
            still = _advance(sigma, tied)
            if still is not None:
                used[p] = True
                yield from rec(p, p + 1, tail, touched, still)  # opens block {p, p+1}
                used[p] = False
            old = [v for v in range(m + 1) if not used[v]]
            old += [v for v in marks if not used[v]]
            for v in old:
                sigma[q] = v
                still = _advance(sigma, tied)
                if still is not None:
                    used[v] = True
                    yield from rec(p, m, tail, touched, still)  # stall passes along
                    used[v] = False
            sigma[q] = -1
            return
        choices = [v for v in range(m + 1) if not used[v]]
        if m + 1 < top:
            choices.append(m + 1)
        choices += [v for v in marks if not used[v]]
        for v in choices:
            sigma[p] = v
            still = _advance(sigma, tied)
            if still is not None:
                used[v] = True
                opens = v == m + 1 and v < top
                yield from rec(p + 1, m + 2 if opens else m, pending, touched or v >= top, still)
                used[v] = False
        sigma[p] = -1

    tied = [root_state(n2, r, marked) for r in range(1, top)]
    yield from rec(0, 1, tuple(marks), False, tied)


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
    Entries come out sorted by the ``sigma`` tuple, which is not the
    string order of their codes once labels reach two digits.  Each entry
    carries genus, component count and the symmetry order (for tangles the
    stabilizer is checked to be trivial, so symmetry is always 1 there).
    """
    if mode not in ("link", "tangle"):
        raise ValueError(f"mode must be 'link' or 'tangle': {mode!r}")
    if n < 1:
        raise ValueError("need at least one crossing")
    marked = mode == "tangle"
    entries = _entries(_leaves(2 * n + 2 * marked, marked), n, marked, no_self_energy)
    # Stall decisions write the marked slots out of tuple order, so the
    # tangle stream needs an explicit sort to come out lexicographic.
    if marked:
        entries = sorted(entries, key=lambda e: e.diagram.sigma)
    yield from entries


def _entries(leaves, n: int, marked: bool, no_self_energy: bool):
    """Census entries for the ``(sigma, symmetry)`` leaves, after the leaf
    checks and the self-energy filter."""
    roots = 2 * n  # every label off the marked block
    for sigma, mult in leaves:
        if not _sigma_is_connected(sigma):
            raise RuntimeError("generator let a disconnected diagram through")
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
