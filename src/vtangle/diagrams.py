"""Virtual alternating link and tangle diagrams.

A diagram with ``n`` crossings is stored as a single permutation ``sigma``
of the edge labels ``0..2n-1``.  The fixed pairing ``rho`` (``2a <-> 2a+1``)
groups labels into blocks, one per crossing; the two labels of a block are
the edges going *over* at that crossing.  White faces are the cycles of
``sigma``, black faces the cycles of ``tau = sigma o rho``, and
``rho~ = sigma o tau^-1`` pairs the two edges going under at each crossing.
Since ``rho~ = sigma o rho o sigma^-1`` is a conjugate of ``rho``, it is a
fixed-point-free involution for every ``sigma``.

Local picture at the crossing of block ``{2v, 2v+1}``, with compass
positions::

            sigma(a)
               |
    a ------ (v) ------ rho(a)         a in {2v, 2v+1}
               |
             tau(a)

The over-strand runs west-east, the under-strand north-south.  An edge
``e`` therefore has its over end at crossing ``e // 2`` and its under end
at crossing ``sigma^-1(e) // 2``.

A strand passes over from ``e`` to ``e ^ 1`` and under from ``e`` to
``rho~(e)``.  An :class:`OrientedDiagram` walks the strands once and keeps
what the invariants read: edge senses, strand indices, crossing frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .codes import code_multiplicity
from .perms import (
    Perm,
    check_perm,
    conjugate,
    inverse,
    parse_perm,
    format_perm,
    rho_perm,
    cycle_count,
)


@dataclass(frozen=True)
class LinkDiagram:
    """A virtual alternating link diagram: crossing count plus ``sigma``."""

    n: int
    sigma: Perm

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one crossing, got n={self.n}")
        object.__setattr__(self, "sigma", check_perm(self.sigma))
        if len(self.sigma) != 2 * self.n:
            raise ValueError(
                f"sigma acts on {len(self.sigma)} labels, expected {2 * self.n}"
            )

    # -- derived permutations ------------------------------------------------

    @property
    def size(self) -> int:
        """Number of edge labels, ``2n``."""
        return 2 * self.n

    @property
    def tau(self) -> Perm:
        s = self.sigma
        return tuple(s[a ^ 1] for a in range(len(s)))

    @property
    def rho_tilde(self) -> Perm:
        return conjugate(self.sigma, rho_perm(self.size))

    # -- construction / text form -------------------------------------------

    @classmethod
    def from_code(cls, text: str) -> "LinkDiagram":
        """Parse ``"<n>:<space-separated images>"``, e.g. ``"1:1 0"``."""
        head, _, body = text.partition(":")
        return cls(int(head), parse_perm(body))

    def to_code(self) -> str:
        return f"{self.n}:{format_perm(self.sigma)}"


@dataclass(frozen=True)
class TangleDiagram(LinkDiagram):
    """A 4-legged tangle, stored as a link diagram with a marked crossing.

    The marked crossing is the one whose over-edges are the top block
    ``{2n-2, 2n-1}``; cutting it open leaves ``n-1`` real crossings and four
    legs.  Looking at the marked crossing, label ``2n-2`` runs to the lower
    left of the tangle and ``2n-1`` to the upper right, so ``sigma(2n-1)``
    is the lower-right leg and ``tau(2n-1)`` the upper-left one.
    """

    def __post_init__(self):
        super().__post_init__()
        if self.n < 2:
            raise ValueError("a tangle needs a real crossing besides the marked one")

    @property
    def legs(self) -> tuple[int, int, int, int]:
        """Edges at the four legs as ``(SW, NW, NE, SE)``."""
        w, x = self.size - 2, self.size - 1
        return (w, self.sigma[w], x, self.sigma[x])

    @classmethod
    def from_code(cls, text: str) -> "TangleDiagram":
        if not text.startswith("T"):
            raise ValueError(f"tangle code must start with 'T': {text!r}")
        head, _, body = text[1:].partition(":")
        return cls(int(head), parse_perm(body))

    def to_code(self) -> str:
        return "T" + super().to_code()


@dataclass(frozen=True)
class OrientedDiagram:
    """A diagram together with a direction bit for each strand component.

    The strand walk that checks ``bits`` also sets three derived fields,
    outside equality, hash and repr: ``senses`` (per edge, +1 when its
    strand runs from the under end to the over end), ``components`` (per
    edge, its strand) and ``frames`` (per crossing, ``(over in, over out,
    under in, under out, sign)``, the sign +1 when the over-strand crosses
    the under-strand from its left to its right).
    """

    diagram: LinkDiagram
    bits: tuple[int, ...]
    senses: tuple[int, ...] = field(init=False, compare=False, repr=False)
    components: tuple[int, ...] = field(init=False, compare=False, repr=False)
    frames: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        d = self.diagram
        comps = strand_components(d)
        if len(self.bits) != len(comps):
            raise ValueError(
                f"{len(self.bits)} direction bits for {len(comps)} components"
            )
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"direction bits must be 0 or 1: {self.bits}")
        senses = [0] * d.size
        ids = [0] * d.size
        for i, (comp, bit) in enumerate(zip(comps, self.bits)):
            flip = -1 if bit else 1
            for e, s in comp:
                senses[e] = s * flip
                ids[e] = i
        frames = []
        for v in range(d.n):
            w, x = 2 * v, 2 * v + 1
            b_in, b_out = (w, x) if senses[w] == 1 else (x, w)
            p, q = d.sigma[w], d.sigma[x]
            a_in, a_out = (p, q) if senses[p] == -1 else (q, p)
            if senses[a_in] != -1 or senses[a_out] != 1:
                raise RuntimeError(f"under-strand at crossing {v} is not oriented through it")
            eps = 1 if senses[w] == senses[p] else -1
            frames.append((b_in, b_out, a_in, a_out, eps))
        object.__setattr__(self, "senses", tuple(senses))
        object.__setattr__(self, "components", tuple(ids))
        object.__setattr__(self, "frames", tuple(frames))


# -- structural quantities ---------------------------------------------------


def genus(d: LinkDiagram) -> int:
    """Genus of the embedding surface, from the face/vertex/edge count.

    For a disconnected diagram the same Euler count is returned, but the
    bounds ``0 <= h <= n//2`` only apply to connected ones.
    """
    chi_part = cycle_count(d.sigma) + cycle_count(d.tau) - d.n
    if chi_part % 2:
        raise RuntimeError(f"odd Euler count {chi_part}")
    h = 1 - chi_part // 2
    if not 0 <= h <= d.n // 2 and is_connected(d):
        raise RuntimeError(f"genus {h} out of range for a connected diagram with n={d.n}")
    return h


def strand_components(d: LinkDiagram) -> list[list[tuple[int, int]]]:
    """Strands of the diagram as lists of ``(edge, sense)``.

    Each edge appears exactly once overall.  ``sense`` is +1 when the strand
    traverses the edge from its under end to its over end, and the senses
    listed are those of the component's reference direction (bit 0).
    """
    rt = d.rho_tilde
    seen = [False] * d.size
    comps = []
    for e0 in range(d.size):
        if seen[e0]:
            continue
        comp = []
        e, s = e0, 1
        while True:
            if seen[e]:
                raise RuntimeError("strand revisits an edge")
            seen[e] = True
            comp.append((e, s))
            e = (e ^ 1) if s == 1 else rt[e]
            s = -s
            if e == e0:
                if s != 1:
                    raise RuntimeError("strand closes with reversed sense")
                break
        comps.append(comp)
    return comps


def component_count(d: LinkDiagram) -> int:
    """Number of strands."""
    return len(strand_components(d))


def is_connected(d: LinkDiagram) -> bool:
    """True when the crossings are all joined through edges, i.e. the orbit
    of label 0 under ``sigma`` and ``tau`` is the whole label set."""
    return _sigma_is_connected(d.sigma)


def _sigma_is_connected(sigma: Perm) -> bool:
    """:func:`is_connected` on a bare tuple, with no diagram built.

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


def cut_labels(sigma: Perm) -> list[int]:
    """GF(2) cocycle label of every edge, as a bit set in a Python int.

    The graph has a vertex per crossing and edge ``e`` joins crossings
    ``e // 2`` and ``sigma^-1(e) // 2``.  A spanning tree is grown from
    every unvisited crossing; each edge off the tree closes one fundamental
    cycle and gets its own bit, and a tree edge carries the bits of the
    cycles through it, the XOR of the off-tree edges leaving the subtree
    below it.  Bit ``i`` of a label says whether the edge lies on cycle
    ``i``, and the cycles span the cycle space, so a set of edges is an
    edge cut (the edges leaving some vertex set) exactly when its labels
    XOR to 0: two edges form a cut when their labels are equal.
    """
    n2 = len(sigma)
    under = [0] * n2
    for a, e in enumerate(sigma):
        under[e] = a // 2
    up = [-1] * (n2 // 2)  # tree edge to the parent, -1 at a root
    seen = [False] * (n2 // 2)
    order = []
    for root in range(n2 // 2):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for e in (2 * v, 2 * v + 1, sigma[2 * v], sigma[2 * v + 1]):
                w = e // 2 ^ under[e] ^ v  # the far end of e
                if not seen[w]:
                    seen[w] = True
                    up[w] = e
                    stack.append(w)
    labels = [0] * n2
    below = [0] * (n2 // 2)  # XOR of the off-tree bits at each crossing
    tree = set(up)
    bit = 1
    for e in range(n2):
        if e not in tree:
            labels[e] = bit
            below[e // 2] ^= bit
            below[under[e]] ^= bit
            bit <<= 1
    for v in reversed(order):  # children before parents
        e = up[v]
        if e >= 0:
            labels[e] = below[v]
            below[e // 2 ^ under[e] ^ v] ^= below[v]
    return labels


def has_self_energy(d: LinkDiagram) -> bool:
    """True when two edges can be cut so that the diagram falls apart,
    exposing a two-legged subdiagram.

    Such a pair is a 2-edge cut, so it shows as two equal
    :func:`cut_labels`; one label pass tests every pair.  (A single edge
    is never a cut: every crossing has four edge ends, so every cut has an
    even number of edges.)  Expects a connected diagram.
    """
    return len(set(cut_labels(d.sigma))) < d.size


def symmetry_order(d: LinkDiagram) -> int:
    """Order of the group of relabellings fixing the diagram.

    Always a divisor of the number of admissible roots (``2n`` for links);
    requires a connected diagram.  For tangles the count is over
    relabellings fixing the marked block pointwise, and it is 1: a
    relabelling that fixes the diagram commutes with ``sigma`` and the
    block pairing, so one that fixes a label fixes that label's whole
    orbit, which in a connected diagram is every label.
    """
    if not is_connected(d):
        raise ValueError("symmetry order is only defined for connected diagrams")
    if isinstance(d, TangleDiagram):
        return 1
    return code_multiplicity(d.sigma)


# -- orientations and crossing signs ----------------------------------------


def orientations(d: LinkDiagram) -> list[OrientedDiagram]:
    """All ``2^c`` choices of strand directions.

    Entry ``mask`` sets bit ``i`` of the mask on component ``i``, so entry 0
    has every bit 0: it is the reference orientation, in which each strand
    runs the way :func:`strand_components` lists it.
    """
    c = component_count(d)
    return [
        OrientedDiagram(d, tuple((mask >> i) & 1 for i in range(c)))
        for mask in range(1 << c)
    ]


# -- tangle operations -------------------------------------------------------


def tangle_type(t: TangleDiagram) -> int:
    """Which leg the NW strand exits by: 1 for SE, 2 for NE, 3 for SW."""
    n2 = t.size
    w, x = n2 - 2, n2 - 1
    sigma_inv = inverse(t.sigma)
    rt = t.rho_tilde
    e, to_over = t.tau[x], True  # NW leg, walking into the tangle
    while True:
        if to_over:
            if e >= n2 - 2:  # back at the marked crossing, over side
                return 3 if e == w else 2
            e, to_over = e ^ 1, False
        else:
            if sigma_inv[e] >= n2 - 2:  # marked crossing, under side
                if e != t.sigma[x]:
                    raise RuntimeError("strand left by the leg it entered")
                return 1
            e, to_over = rt[e], True


def close_tangle_counted(t: TangleDiagram, pattern: str) -> tuple[LinkDiagram, int]:
    """Join the four legs with two arches, yielding an ``n-1`` crossing link.

    ``pattern`` is ``"numerator"`` (arches above and below: NW-NE, SW-SE) or
    ``"denominator"`` (arches on both sides: NW-SW, NE-SE).  A closure arc
    that joins the two ends of one edge produces a crossing-free circle,
    which a permutation diagram cannot carry; it is dropped, and the
    second item of the result counts how many were dropped.
    """
    n2 = t.size
    w, x = n2 - 2, n2 - 1
    z, y = t.tau[x], t.sigma[x]  # NW and SE legs
    if pattern == "numerator":
        partner = {x: z, w: y}
    elif pattern == "denominator":
        partner = {w: z, x: y}
    else:
        raise ValueError(f"pattern must be 'numerator' or 'denominator': {pattern!r}")

    if {t.sigma[w], t.sigma[x]} <= {w, x}:
        raise ValueError("marked crossing is disconnected from the rest")
    circles = sum(1 for c in (w, x) if partner[c] == c)
    if circles > 1:
        raise RuntimeError("both arches closed into circles")

    def resolve(e: int) -> int:
        # Follow arch fusions until reaching an edge whose over end survives.
        while e >= n2 - 2:
            e = partner[e]
        return e

    sig = tuple(resolve(t.sigma[e]) for e in range(n2 - 2))
    return LinkDiagram(t.n - 1, sig), circles
