"""Virtual alternating link and tangle diagrams.

A diagram with ``n`` crossings is stored as a single permutation ``sigma``
of the edge labels ``0..2n-1``.  The fixed pairing ``rho`` (``2a <-> 2a+1``)
groups labels into blocks, one per crossing; the two labels of a block are
the edges going *over* at that crossing.  White faces are the cycles of
``sigma``, black faces the cycles of ``tau = sigma o rho``, and
``rho~ = sigma o tau^-1`` pairs the two edges going under at each crossing.

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
"""

from __future__ import annotations

from dataclasses import dataclass

from .perms import (
    Perm,
    check_perm,
    compose,
    conjugate,
    inverse,
    pair_normalizer,
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
        rt = self.rho_tilde
        if not all(rt[rt[i]] == i and rt[i] != i for i in range(len(rt))):
            raise RuntimeError("under-edge pairing is not a fixed-point-free involution")

    # -- derived permutations ------------------------------------------------

    @property
    def size(self) -> int:
        """Number of edge labels, ``2n``."""
        return 2 * self.n

    @property
    def rho(self) -> Perm:
        return rho_perm(self.size)

    @property
    def tau(self) -> Perm:
        return compose(self.sigma, self.rho)

    @property
    def rho_tilde(self) -> Perm:
        return compose(self.sigma, inverse(self.tau))

    # -- construction / text form -------------------------------------------

    @classmethod
    def from_sigma(cls, n: int, sigma) -> "LinkDiagram":
        return cls(n, tuple(sigma))

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
    def real_crossings(self) -> int:
        return self.n - 1

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
    """A diagram together with a direction bit for each strand component."""

    diagram: LinkDiagram
    bits: tuple[int, ...]

    def __post_init__(self):
        comps = strand_components(self.diagram)
        if len(self.bits) != len(comps):
            raise ValueError(
                f"{len(self.bits)} direction bits for {len(comps)} components"
            )
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"direction bits must be 0 or 1: {self.bits}")


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
    """Number of strands; equals half the cycle count of ``rho o rho~``."""
    c = cycle_count(compose(d.rho, d.rho_tilde))
    if c % 2:
        raise RuntimeError(f"odd cycle count {c} of rho o rho~")
    return c // 2


def is_connected(d: LinkDiagram) -> bool:
    """True when the crossings are all joined through edges, i.e. the orbit
    of label 0 under ``sigma`` and ``tau`` is the whole label set."""
    return _orbit_size(d.sigma, d.tau, d.size) == d.size


def _orbit_size(p: Perm, q: Perm, size: int) -> int:
    seen = [False] * size
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        a = stack.pop()
        for b in (p[a], q[a]):
            if not seen[b]:
                seen[b] = True
                count += 1
                stack.append(b)
    return count


def _same_cycle_pairs(d: LinkDiagram):
    """Pairs of distinct edges lying in one cycle of sigma *and* one of tau."""
    sid = _cycle_ids(d.sigma)
    tid = _cycle_ids(d.tau)
    for a in range(d.size):
        for b in range(a + 1, d.size):
            if sid[a] == sid[b] and tid[a] == tid[b]:
                yield (a, b)


def _cycle_ids(p: Perm) -> list[int]:
    ids = [-1] * len(p)
    k = 0
    for start in range(len(p)):
        if ids[start] >= 0:
            continue
        x = start
        while ids[x] < 0:
            ids[x] = k
            x = p[x]
        k += 1
    return ids


def has_self_energy(d: LinkDiagram) -> bool:
    """True when two edges can be cut so that the diagram falls apart,
    exposing a two-legged subdiagram.

    The candidate pairs are those sharing a white and a black face; each is
    tested by composing both face permutations with the transposition and
    checking connectivity of the result.
    """
    for a, b in _same_cycle_pairs(d):
        swap = list(range(d.size))
        swap[a], swap[b] = b, a
        cut_sigma = compose(d.sigma, tuple(swap))
        cut_tau = compose(d.tau, tuple(swap))
        if _orbit_size(cut_sigma, cut_tau, d.size) < d.size:
            return True
    return False


def symmetry_order(d: LinkDiagram) -> int:
    """Order of the group of relabellings fixing the diagram.

    Always a divisor of the number of admissible roots (``2n`` for links);
    requires a connected diagram.  For tangles the marked block is pinned
    and the count is over relabellings fixing it pointwise.
    """
    if not is_connected(d):
        raise ValueError("symmetry order is only defined for connected diagrams")
    from .codes import code_multiplicity

    return code_multiplicity(d.sigma, marked=isinstance(d, TangleDiagram))


# -- discrete transforms -----------------------------------------------------

TRANSFORM_KINDS = ("mirror", "over_under", "flip")


def transform(d: LinkDiagram, kind: str) -> LinkDiagram:
    """Mirror image, over/under exchange, or flip (both at once).

    Mirror exchanges white and black faces and keeps all labels.  The other
    two turn the under-edge pairing into the block pairing, so the result is
    relabelled to put that pairing back into normal form.  On a tangle only
    the mirror keeps the marked block marked; the other kinds return the
    underlying link diagram.
    """
    if kind == "mirror":
        new_sigma = d.tau
        return type(d)(d.n, new_sigma)
    if kind == "over_under":
        raw = inverse(d.tau)
    elif kind == "flip":
        raw = inverse(d.sigma)
    else:
        raise ValueError(f"unknown transform {kind!r}; pick from {TRANSFORM_KINDS}")
    g = pair_normalizer(d.rho_tilde)
    return LinkDiagram(d.n, conjugate(g, raw))


def relabel(d: LinkDiagram, g: Perm) -> LinkDiagram:
    """Conjugate the diagram by a relabelling ``g`` (must preserve blocks)."""
    if conjugate(g, rho_perm(len(g))) != rho_perm(len(g)):
        raise ValueError("relabelling does not preserve the block pairing")
    return type(d)(d.n, conjugate(g, d.sigma))


# -- orientations and crossing signs ----------------------------------------


def orientations(d: LinkDiagram) -> list[OrientedDiagram]:
    """All ``2^c`` choices of strand directions."""
    c = component_count(d)
    return [
        OrientedDiagram(d, tuple((mask >> i) & 1 for i in range(c)))
        for mask in range(1 << c)
    ]


def edge_senses(od: OrientedDiagram) -> tuple[int, ...]:
    """Per-edge traversal sense (+1 under-to-over) for the chosen directions."""
    senses = [0] * od.diagram.size
    for comp, bit in zip(strand_components(od.diagram), od.bits):
        flip = -1 if bit else 1
        for e, s in comp:
            senses[e] = s * flip
    return tuple(senses)


def edge_component_ids(d: LinkDiagram) -> tuple[int, ...]:
    ids = [0] * d.size
    for i, comp in enumerate(strand_components(d)):
        for e, _ in comp:
            ids[e] = i
    return tuple(ids)


def vertex_sign(od: OrientedDiagram, v: int) -> int:
    """Crossing sign: +1 when the over-strand crosses the oriented
    under-strand from its left to its right."""
    d = od.diagram
    if not 0 <= v < d.n:
        raise ValueError(f"no crossing {v} in a diagram with n={d.n}")
    senses = edge_senses(od)
    a = 2 * v
    return 1 if senses[a] == senses[d.sigma[a]] else -1


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


def close_tangle(t: TangleDiagram, pattern: str) -> LinkDiagram:
    """Join the four legs with two arches, yielding an ``n-1`` crossing link.

    ``pattern`` is ``"numerator"`` (arches above and below: NW-NE, SW-SE) or
    ``"denominator"`` (arches on both sides: NW-SW, NE-SE).  A closure arc
    that joins the two ends of one edge produces a crossing-free circle,
    which a permutation diagram cannot carry; it is dropped here, and
    :func:`close_tangle_counted` reports how many were dropped.
    """
    return close_tangle_counted(t, pattern)[0]


def close_tangle_counted(t: TangleDiagram, pattern: str) -> tuple[LinkDiagram, int]:
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
