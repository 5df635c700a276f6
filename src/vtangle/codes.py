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
"""

from __future__ import annotations

from .perms import Perm, check_perm


def rooted_code(sigma: Perm, root: int, marked: bool = False) -> Perm:
    """Code of the trace of ``sigma`` started at ``root``.

    The result is ``g o sigma o g^-1`` for the relabelling ``g`` built by
    the scan; it equals ``sigma`` itself exactly when ``sigma`` already is
    the trace of its own root-0 scan.
    """
    n2 = len(sigma)
    g = [-1] * n2
    occ = [-1] * n2
    pending = []
    if marked:
        if root >= n2 - 2:
            raise ValueError(f"root {root} lies in the marked block")
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
                    cand = _scan(sigma, g2, occ2, free + 2, list(pending), p)
                    if best is None or cand < best:
                        best = cand
                return best
            continue
        v = sigma[occ[p]]
        if g[v] < 0:
            g[v] = free
            g[v ^ 1] = free + 1
            occ[free] = v
            occ[free + 1] = v ^ 1
            free += 2
        p += 1
    return tuple(g[sigma[occ[i]]] for i in range(n2))


def canonical_code_stats(sigma: Perm, marked: bool = False) -> tuple[Perm, int]:
    """Smallest rooted code and the number of roots attaining it.

    The roots achieving the minimum correspond one-to-one to the
    relabellings fixing the diagram, so the multiplicity is the order of
    its symmetry group.
    """
    sigma = check_perm(sigma)
    roots = range(len(sigma) - 2 if marked else len(sigma))
    best = None
    hits = 0
    for r in roots:
        code = rooted_code(sigma, r, marked)
        if best is None or code < best:
            best, hits = code, 1
        elif code == best:
            hits += 1
    if best is None:
        raise ValueError(f"no admissible root for sigma of size {len(sigma)}")
    return best, hits


def canonical_code(sigma: Perm, marked: bool = False) -> Perm:
    """Lexicographically smallest rooted code of ``sigma``."""
    return canonical_code_stats(sigma, marked)[0]


def code_multiplicity(sigma: Perm, marked: bool = False) -> int:
    """Number of roots whose trace reproduces the canonical code."""
    return canonical_code_stats(sigma, marked)[1]


def is_canonical(sigma: Perm, marked: bool = False) -> bool:
    """True when ``sigma`` equals its own canonical code."""
    return canonical_code(tuple(sigma), marked) == tuple(sigma)
