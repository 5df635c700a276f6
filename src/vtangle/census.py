"""Isomorph-free generation of canonical diagrams, with counting tables.

The relabelling group of an ``n``-crossing link diagram has order
``n! 2^n`` (block permutations times block orientations).  Rather than
filtering all of ``S_2n``, the search assigns ``sigma`` images position by
position under the rule that keeps the partial assignment equal to its own
rooted code at root 0 (new blocks must appear as the lowest unused even
label).

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
tied.  Only connected diagrams are enumerated.

Tangles are rooted links.  A tangle with ``n`` real crossings is a link
with ``n + 1`` crossings and a root label ``r``: the root's crossing is
the marked one, with ``r`` and its partner as the marked block, fixed
pointwise by the relabellings of a tangle.  Two roots give the same
tangle exactly when a symmetry of the link maps one to the other, so each
link yields one tangle per orbit of its labels, and a tangle has no
symmetry left.  :func:`_rooted` moves one root per orbit to the top block
and takes the marked canonical code.

Per leaf the census checks connectivity on the bare tuple and the symmetry
order, then builds the diagram, applies the self-energy filter and records
genus and component count.  Link leaves come out in order.  Rooting
reorders the labels, so the tangle entries are sorted once they are built.

This recursive search is the only census generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .perms import Perm, conjugate
from .codes import LARGER, SMALLER, canonical_code, resume, root_state, rooted_code
from .diagrams import (
    LinkDiagram,
    TangleDiagram,
    _sigma_is_connected,
    genus,
    component_count,
    has_self_energy,
)


def canonical_form(d: LinkDiagram) -> Perm:
    """Canonical form of ``d``: two diagrams of one kind have equal forms
    exactly when a relabelling carries one to the other.

    For links it is the lexicographically least image list over all
    relabellings of ``d``.  For tangles the relabellings fix the marked
    block pointwise, and the form is the marked canonical code of
    :mod:`vtangle.codes`, the least trace over the unmarked roots with the
    marked block kept on top; that need not be the least image list over
    those relabellings.
    """
    return canonical_code(d.sigma, marked=isinstance(d, TangleDiagram))


# -- generation --------------------------------------------------------------


def _advance(sigma: list[int], tied: list) -> list | None:
    """The scan states of the tied roots after an assignment to ``sigma``,
    or None when the branch is cut.

    Only the states waiting on a label whose image is now assigned are
    resumed; the others are passed on as they are.  A resumed root whose
    trace is smaller cuts the branch, a larger one leaves the list, an
    equal one stays with its new state.

    A root whose scan runs dry before the last slot cuts the branch too.
    Its discovered labels are closed under the block pairing, and every
    one of them has its image assigned and inside the set.  Since
    ``sigma`` is injective the set is mapped onto itself, by ``sigma`` and
    by ``tau(a) = sigma(a ^ 1)``, in every completion: it is a union of
    crossings that misses at least one.  So no completion is connected,
    and the census yields only connected leaves.
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


def _leaves(n2: int):
    """``(sigma, symmetry)`` for the connected canonical sigma on ``n2`` labels.

    Slots are filled in order with values that are either already-opened
    labels or the next fresh even label (opening a block).  Every
    assignment resumes the ``tied`` states waiting on its label and cuts
    the branch at the first smaller one (see :func:`_advance`).  A stall
    (no block was forced into the next slot pair) leaves the prefix a
    sealed piece that nothing later can reach, so the branch is cut.
    Every leaf is connected.
    """
    sigma = [-1] * n2
    used = [False] * n2

    def rec(p: int, m: int, tied: list):
        if p == n2:
            yield tuple(sigma), 1 + len(tied)
            return
        if p > m:
            return
        choices = [v for v in range(m + 1) if not used[v]]
        if m + 1 < n2:
            choices.append(m + 1)
        for v in choices:
            sigma[p] = v
            still = _advance(sigma, tied)
            if still is not None:
                used[v] = True
                yield from rec(p + 1, m + 2 if v == m + 1 else m, still)
                used[v] = False
        sigma[p] = -1

    yield from rec(0, 1, [root_state(n2, r) for r in range(1, n2)])


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

    For tangles ``n`` counts *real* crossings (the marked one is extra);
    they are the rooted links with ``n + 1`` crossings (:func:`_rooted`).
    Entries come out sorted by the ``sigma`` tuple, which is not the
    string order of their codes once labels reach two digits.  Each entry
    carries genus, component count and the symmetry order (1 for every
    tangle, whose root is fixed).
    """
    if mode not in ("link", "tangle"):
        raise ValueError(f"mode must be 'link' or 'tangle': {mode!r}")
    if n < 1:
        raise ValueError("need at least one crossing")
    if mode == "link":
        yield from _entries(_leaves(2 * n), n, no_self_energy)
        return
    links = _entries(_leaves(2 * n + 2), n + 1, no_self_energy)
    yield from sorted(_rooted(links), key=lambda e: e.diagram.sigma)


def _entries(leaves, n: int, no_self_energy: bool):
    """Link census entries for the ``(sigma, symmetry)`` leaves, after the
    leaf checks and the self-energy filter."""
    for sigma, mult in leaves:
        if not _sigma_is_connected(sigma):
            raise RuntimeError("generator let a disconnected diagram through")
        if (2 * n) % mult:
            raise RuntimeError(f"symmetry order {mult} does not divide {2 * n} roots")
        d = LinkDiagram(n, sigma)
        if no_self_energy and has_self_energy(d):
            continue
        yield CensusEntry(d, genus(d), component_count(d), mult)


def _rooted(links):
    """Tangle entries for the link entries: one per orbit of root labels.

    A symmetry of the link maps a root to one with the same rooted code,
    and roots with equal codes are mapped onto each other by one, so the
    distinct codes stand for the orbits; an asymmetric link has one orbit
    per label.  The orbits times the symmetry order must give every label.
    Each root is moved to the top block, the link's genus and components
    carry over, and self-energies need no second test: both are
    properties of the unlabelled diagram.
    """
    for e in links:
        sigma = e.diagram.sigma
        n2 = len(sigma)
        if e.symmetry == 1:
            roots = range(n2)
        else:
            roots = {rooted_code(sigma, r): r for r in range(n2)}.values()
        if len(roots) * e.symmetry != n2:
            raise RuntimeError(
                f"{len(roots)} root orbits with symmetry order {e.symmetry} miss {n2} labels"
            )
        for r in roots:
            code = canonical_code(_root_on_top(sigma, r), marked=True)
            yield CensusEntry(TangleDiagram(e.diagram.n, code), e.genus, e.components, 1)


def _root_on_top(sigma: Perm, r: int) -> Perm:
    """``sigma`` relabelled so that ``r`` is the top label ``2n - 2`` and its
    partner ``2n - 1``; the top block takes the place of ``r``'s."""
    top = len(sigma) - 2
    g = list(range(len(sigma)))
    b = r & ~1
    if b != top:
        g[top], g[top + 1] = b, b + 1
    g[r], g[r ^ 1] = top, top + 1
    return conjugate(tuple(g), sigma)


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
