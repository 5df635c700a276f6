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

A scan is a resumable state (:func:`root_state`): the relabelling ``g``,
the slot occupants ``occ``, the next free label, the next slot, the marked
slots not yet consulted and the label whose image it waits for.
:func:`resume` runs it on, comparing each new slot with a given code
inside the same loop, and stops at the first slot that differs, at a
label whose image is unassigned, or where the scan runs dry.
:func:`rooted_code` and :func:`canonical_code_stats` run it on complete
``sigma``; slots the code leaves open (-1) are written from the trace.

Unmarked scans also run on a partial ``sigma`` whose assigned slots are
a prefix and whose other slots hold -1.  Such a scan waits at the first
label whose image it needs and does not have, so the slots it has read
are a prefix of the trace of every completion.  That partial trace never
runs past the assigned prefix: its first ``L`` slots hold ``L`` labels
with assigned images.  So the code it is compared with is defined
wherever the scan reads.  Assigning another image changes only the
states waiting on that label; the census resumes just those after each
assignment.  Marked scans run on complete ``sigma`` only.
"""

from __future__ import annotations

from .perms import Perm, check_perm

# Outcomes of :func:`resume` other than a state: the trace is smaller or
# larger than the code at the first slot where they differ.
SMALLER = None
LARGER = ()


def root_state(n2: int, root: int, marked: bool = False) -> tuple:
    """Scan state of the trace at ``root`` before it reads a slot.

    A state is ``(wait, p, free, g, occ, pending)``: the label whose image
    the scan needs next, the next slot, the next free label, the
    relabelling, the slot occupants and the marked slots not yet
    consulted.  ``wait`` is -1 once the scan has stopped for good: it is
    complete when ``p == n2`` and ran dry otherwise.  ``g`` and ``occ``
    are shared between states and never written in place.
    """
    g = [-1] * n2
    occ = [-1] * n2
    pending = ()
    if marked:
        for t in (n2 - 2, n2 - 1):
            g[t] = t
            occ[t] = t
        pending = (n2 - 2, n2 - 1)
    g[root] = 0
    g[root ^ 1] = 1
    occ[0] = root
    occ[1] = root ^ 1
    return root, 0, 2, g, occ, pending


def resume(sigma, code, state):
    """Run the scan ``state`` on ``sigma`` and compare it with ``code``.

    Returns :data:`SMALLER` or :data:`LARGER` at the first slot where the
    trace and ``code`` differ, and otherwise the state where the scan
    stops: waiting on a label whose image is -1, complete, or dry (see
    :func:`root_state`).  A slot where ``code`` holds -1 takes the trace's
    value; ``code`` may be ``sigma`` itself, which is defined wherever a
    partial scan reads it (module docstring).  The lists of ``state`` are
    copied first, so ``state`` stays valid.
    """
    _, p, free, g, occ, pending = state
    n2 = len(sigma)
    g = g.copy()
    occ = occ.copy()
    while p < n2:
        u = occ[p]
        if u < 0:
            # Frontier empty: every scanned value was already placed.  Let
            # the marked values open the next block.
            if not pending:
                return -1, p, free, g, occ, pending
            v = sigma[pending[0]]
            pending = pending[1:]
            if g[v] < 0:
                g[v] = free
                g[v ^ 1] = free + 1
                occ[free] = v
                occ[free + 1] = v ^ 1
                free += 2
            continue
        v = sigma[u]
        if v < 0:
            return u, p, free, g, occ, pending
        c = g[v]
        if c < 0:
            c = g[v] = free
            g[v ^ 1] = free + 1
            occ[free] = v
            occ[free + 1] = v ^ 1
            free += 2
        s = code[p]
        if c != s:
            if s >= 0:
                return SMALLER if c < s else LARGER
            code[p] = c
        p += 1
    return -1, p, free, g, occ, pending


def _run(sigma: Perm, code: list[int], state) -> int:
    """Sign of the root's trace minus ``code`` on a complete ``sigma``;
    open slots of ``code`` are filled as in :func:`resume`.

    A scan that runs dry leaves a closed set of labels, so ``sigma`` is
    disconnected; the trace then goes on with the smallest continuation
    over every leftover label opened next.
    """
    n2 = len(sigma)
    state = resume(sigma, code, state)
    if state is SMALLER:
        return -1
    if state is LARGER:
        return 1
    _, p, free, g, occ, _ = state
    if p == n2:
        return 0
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
        cand = code[:p] + [-1] * (n2 - p)
        _run(sigma, cand, (u, p, free + 2, g2, occ2, ()))
        if best is None or cand < best:
            best = cand
    for i in range(p, n2):
        if code[i] < 0:
            code[i:] = best[i:]
            break
        if best[i] != code[i]:
            return -1 if best[i] < code[i] else 1
    return 0


def rooted_code(sigma: Perm, root: int, marked: bool = False) -> Perm:
    """Code of the trace of ``sigma`` started at ``root``.

    The result is ``g o sigma o g^-1`` for the relabelling ``g`` built by
    the scan; it equals ``sigma`` itself exactly when ``sigma`` already is
    the trace of its own root-0 scan.
    """
    n2 = len(sigma)
    if root not in range(n2):
        raise ValueError(f"root {root} is not a label of sigma of size {n2}")
    if marked and root >= n2 - 2:
        raise ValueError(f"root {root} lies in the marked block")
    code = [-1] * n2
    _run(sigma, code, root_state(n2, root, marked))
    return tuple(code)


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
    n2 = len(sigma)
    best = list(rooted_code(sigma, roots[0], marked))
    hits = 1
    for r in roots[1:]:
        c = _run(sigma, best, root_state(n2, r, marked))
        if c < 0:
            best, hits = list(rooted_code(sigma, r, marked)), 1
        elif c == 0:
            hits += 1
    return tuple(best), hits


def canonical_code(sigma: Perm, marked: bool = False) -> Perm:
    """Lexicographically smallest rooted code of ``sigma``."""
    return canonical_code_stats(sigma, marked)[0]


def code_multiplicity(sigma: Perm) -> int:
    """Number of roots whose trace reproduces the canonical code."""
    return canonical_code_stats(sigma)[1]
