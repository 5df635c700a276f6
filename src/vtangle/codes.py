"""Canonical labellings for diagram permutations.

Two diagrams are the same up to relabelling when their ``sigma`` are
conjugate by a permutation preserving the blocks ``{2a, 2a+1}`` (and, for
marked diagrams, fixing the top block pointwise).  Instead of minimising
over that whole group, the canonical form is computed from rooted traces:

* pick a root label ``r``; it is relabelled to 0 and its block partner to 1;
* scan slots ``0, 1, 2, ...`` in order.  The value ``sigma(occupant)`` of
  each slot is given the next free slot pair the first time it appears, so
  labels are numbered by first appearance along the scan;
* the code of the trace is the relabelled ``sigma``, and the canonical code
  is the smallest one over all admissible roots.

For a marked diagram the top block keeps its labels and sits in the top two
slots from the start.  When the scan frontier runs dry before every slot is
filled, the values of the marked labels are consulted (top slot first);
a connected diagram always completes this way.  Only disconnected input
falls through to a tie-breaking search over the leftover labels.

The scan yields the code one slot at a time.  :func:`rooted_code` takes
all of it; the comparisons behind :func:`canonical_code_stats` and
:func:`tied_roots` read a root's trace only up to the first slot where it
differs from the code it is compared with.

The scan also runs on a partial ``sigma`` whose unassigned slots hold -1,
as long as the assigned slots are a prefix plus, for marked diagrams, any
of the two marked slots.  It stops at the first label whose image it
needs and does not have, so the slots it yields are a prefix of the trace
of every completion.  That partial trace never runs past the assigned
prefix: its first ``L`` slots hold ``L`` labels with assigned images, and
marked labels only occupy the top two slots.  (In the tie-break search,
the smallest partial candidate is a prefix of the smallest full one.)  The
census uses this to compare the roots' partial traces with the prefix it
is building (:func:`tied_roots`).
"""

from __future__ import annotations

from .perms import Perm, check_perm


def rooted_code(sigma: Perm, root: int, marked: bool = False) -> Perm:
    """Code of the trace of ``sigma`` started at ``root``.

    The result is ``g o sigma o g^-1`` for the relabelling ``g`` built by
    the scan; it equals ``sigma`` itself exactly when ``sigma`` already is
    the trace of its own root-0 scan.
    """
    if marked and root >= len(sigma) - 2:
        raise ValueError(f"root {root} lies in the marked block")
    return tuple(_trace(sigma, root, marked))


def _trace(sigma, root, marked):
    """Lazy code of the trace at ``root``: an iterator over its slots.

    Callers that only compare codes stop pulling at the first slot that
    differs.
    """
    n2 = len(sigma)
    g = [-1] * n2
    occ = [-1] * n2
    pending = []
    if marked:
        for t in (n2 - 2, n2 - 1):
            g[t] = t
            occ[t] = t
        pending = [n2 - 2, n2 - 1]
    g[root] = 0
    g[root ^ 1] = 1
    occ[0] = root
    occ[1] = root ^ 1
    return _scan(sigma, g, occ, 2, pending, 0)


def _scan(sigma, g, occ, free, pending, p):
    n2 = len(sigma)
    while p < n2:
        if occ[p] < 0:
            # Frontier empty: every scanned value was already placed.  Let
            # the marked values open the next block; failing that, the
            # diagram is disconnected and we minimise over all leftovers.
            while pending and occ[p] < 0:
                v = sigma[occ[pending.pop(0)]]
                if v < 0:
                    return
                if g[v] < 0:
                    g[v] = free
                    g[v ^ 1] = free + 1
                    occ[free] = v
                    occ[free + 1] = v ^ 1
                    free += 2
            if occ[p] < 0:
                best = None
                for u in range(n2):
                    if g[u] >= 0:
                        continue
                    g2 = g.copy()
                    occ2 = occ.copy()
                    g2[u] = free
                    g2[u ^ 1] = free + 1
                    occ2[free] = u
                    occ2[free + 1] = u ^ 1
                    cand = tuple(_scan(sigma, g2, occ2, free + 2, list(pending), p))
                    if best is None or cand < best:
                        best = cand
                yield from best
                return
            continue
        v = sigma[occ[p]]
        if v < 0:
            return
        if g[v] < 0:
            g[v] = free
            g[v ^ 1] = free + 1
            occ[free] = v
            occ[free + 1] = v ^ 1
            free += 2
        yield g[v]
        p += 1


def _compare(trace, code) -> int:
    """Sign of ``trace - code`` in lexicographic order, read only as far as
    the first slot where they differ; a partial trace that ends first ties."""
    for got, want in zip(trace, code):
        if got != want:
            return -1 if got < want else 1
    return 0


def _roots(sigma: Perm, marked: bool) -> range:
    roots = range(len(sigma) - 2 if marked else len(sigma))
    if not roots:
        raise ValueError(f"no admissible root for sigma of size {len(sigma)}")
    return roots


def canonical_code_stats(sigma: Perm, marked: bool = False) -> tuple[Perm, int]:
    """Smallest rooted code and the number of roots attaining it.

    The roots achieving the minimum correspond one-to-one to the
    relabellings fixing the diagram, so the multiplicity is the order of
    its symmetry group.  Each root is compared with the best code so far
    and dropped at the first slot where it is larger.
    """
    sigma = check_perm(sigma)
    roots = _roots(sigma, marked)
    best = rooted_code(sigma, roots[0], marked)
    hits = 1
    for r in roots[1:]:
        c = _compare(_trace(sigma, r, marked), best)
        if c < 0:
            best, hits = rooted_code(sigma, r, marked), 1
        elif c == 0:
            hits += 1
    return best, hits


def tied_roots(sigma, roots, marked: bool = False) -> list[int] | None:
    """The roots in ``roots`` whose trace equals ``sigma`` as far as both are
    defined, or None as soon as one root's trace is smaller.

    ``sigma`` may be partial, as described in the module docstring.  A root
    whose trace is larger at a defined slot is left out; it stays larger on
    every completion.  A smaller one rules out every completion of
    ``sigma`` as a canonical code, so the remaining roots are not scanned.
    ``sigma`` is not validated: the census feeds it its own prefixes.
    """
    kept = []
    for r in roots:
        c = _compare(_trace(sigma, r, marked), sigma)
        if c < 0:
            return None
        if c == 0:
            kept.append(r)
    return kept


def canonical_code(sigma: Perm, marked: bool = False) -> Perm:
    """Lexicographically smallest rooted code of ``sigma``."""
    return canonical_code_stats(sigma, marked)[0]


def code_multiplicity(sigma: Perm, marked: bool = False) -> int:
    """Number of roots whose trace reproduces the canonical code."""
    return canonical_code_stats(sigma, marked)[1]
