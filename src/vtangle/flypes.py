"""Flype moves and flype-equivalence classes.

A flype grabs a crossing together with the two-legged subtangle beside it,
turns the subtangle upside down and lets the crossing reappear on the far
side.  On the permutation encoding this is pure surgery: six edges frame
the move.  With ``beta = sigma(alpha)``, ``mu = tau(alpha)`` and
``nu = rho(alpha)`` the crossing of ``alpha`` sits west of the subtangle,
``mu`` and ``nu`` run from the crossing into it, and ``gamma`` and
``delta`` are the legs on its far side.  Flipping the subtangle inverts
``sigma`` and ``tau`` on its internal edges; the frame is rewired so the
crossing comes out between ``gamma`` and ``delta``.

The same construction with ``sigma`` and ``tau`` exchanged gives the moves
across black faces; both colors together generate the full flype
equivalence.  The under-edge pairing of the rewired diagram is no longer
in block normal form, so every application ends with a relabelling.

The four edges ``mu``, ``nu``, ``gamma`` and ``delta`` of an admissible
frame are exactly the edges leaving the flipped piece, so they form an
edge cut.  The site search reads that off the diagram's cut labels
(:func:`~vtangle.diagrams.cut_labels`): it indexes each face by the
(other-color face, cut label) of its edges and looks ``gamma`` up under
the key that makes the four labels XOR to 0, so only those frames get
the breadth-first search that tells the piece from the rest.

That search is the only admissibility test: :func:`apply_flype` accepts
a site exactly when :func:`flype_sites` lists it.  :func:`flype_classes`
rewires the sites it uses without checking the frame again, and skips
those whose piece is a bare crossing, whose image is the diagram itself.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .census import canonical_diagram
from .diagrams import LinkDiagram, TangleDiagram, cut_labels
from .perms import Perm, compose, conjugate, cycles, inverse, pair_normalizer

COLORS = ("white", "black")


@dataclass(frozen=True)
class FlypeSite:
    """One admissible flype, named by its four outer frame edges.

    ``subtangle`` holds the edges with both ends inside the piece that the
    move flips; it is empty when that piece is a single crossing.
    """

    color: str
    alpha: int
    beta: int
    gamma: int
    delta: int
    subtangle: frozenset[int]


@dataclass(frozen=True)
class FlypeClass:
    """A set of diagram codes closed under flypes of all members."""

    representative: str
    members: frozenset[str]

    @property
    def size(self) -> int:
        return len(self.members)


def flype_sites(d: LinkDiagram) -> list[FlypeSite]:
    """All admissible flype sites of both colors.

    A white site ``(alpha, beta, gamma, delta)`` has ``sigma(alpha) = beta``,
    ``delta`` on the black face of ``alpha``, ``gamma`` on the black face of
    ``beta``, and ``gamma``, ``delta`` sharing a white face.  On top of the
    face conditions, cutting the four connecting edges must separate a
    genuine subtangle from the crossing of ``alpha``, and that subtangle,
    closed up on its own, must be planar.  Black sites are the same with
    the two face permutations exchanged.  Expects a connected diagram
    without self-energies; a tangle's marked crossing never takes part.

    The cut is tested in two steps.  First the XOR of the four edges'
    :func:`~vtangle.diagrams.cut_labels` must be 0.  Each black face lists
    its edges in cycle order under the key (white face, cut label), so the
    ``gamma`` of a ``delta`` is one lookup; edges that share a key (labels
    repeat with self-energies) all stay listed.  This drops no site: the
    piece an admissible frame cuts out is a vertex component once the four
    edges are removed, so no other edge leaves it, and each of the four has
    exactly one end in it; the four are then precisely the edges leaving a
    vertex set, an edge cut, and edge cuts are the sets whose labels XOR to
    0.  Only the frames that pass get the breadth-first search, which is
    still needed to tell the inside of the cut from the outside.  Without
    self-energies every cut has at least four edges (cuts have an even size
    in a graph whose crossings all have four edge ends), so the four edges
    of a passing frame are a minimal cut: removing them leaves exactly two
    pieces, and the search decides whether they sit the way a flype needs.
    """
    # Both colors see one graph: tau^-1(e) // 2 == sigma^-1(e) // 2.
    lab = cut_labels(d.sigma)
    sigma, tau = d.sigma, d.tau
    (s_faces, s_id), (t_faces, t_id) = _faces(sigma), _faces(tau)
    return (_sites_one_color(d, "white", lab, sigma, tau, s_id, t_faces, t_id)
            + _sites_one_color(d, "black", lab, tau, sigma, t_id, s_faces, s_id))


def _faces(p: Perm) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """The cycles of ``p`` and the number of the cycle through each label."""
    cycs = cycles(p)
    ids = [0] * len(p)
    for k, cyc in enumerate(cycs):
        for e in cyc:
            ids[e] = k
    return cycs, ids


def _sites_one_color(d, color, lab, s, t, s_id, t_faces, t_id):
    s_inv = inverse(s)
    marked = d.n - 1 if isinstance(d, TangleDiagram) else None

    # Per t-face, its edges in cycle order under (s-face id, cut label).
    index = []
    for cyc in t_faces:
        by_key: dict[tuple[int, int], list[int]] = {}
        for e in cyc:
            by_key.setdefault((s_id[e], lab[e]), []).append(e)
        index.append(by_key)

    sites = []
    for alpha in range(d.size):
        if alpha // 2 == marked:
            continue
        beta, mu, nu = s[alpha], t[alpha], alpha ^ 1
        if len({alpha, beta, mu, nu}) < 4:
            continue
        frame = lab[mu] ^ lab[nu]
        partners = index[t_id[beta]]
        for delta in t_faces[t_id[alpha]]:
            if delta in (alpha, beta, mu, nu):
                continue
            for gamma in partners.get((s_id[delta], lab[delta] ^ frame), ()):
                if gamma == delta or gamma in (alpha, beta, mu, nu):
                    continue
                sub = _subtangle(d, s, t, s_inv, alpha, mu, nu, gamma, delta, marked)
                if sub is None:
                    continue
                if _closed_genus(s, t, sub, gamma, delta, mu, nu) != 0:
                    continue
                sites.append(FlypeSite(color, alpha, beta, gamma, delta, frozenset(sub)))
    return sites


def _subtangle(d, s, t, s_inv, alpha, mu, nu, gamma, delta, marked):
    """Edge set of the piece the move would flip, or None if the cut fails.

    Removing ``mu``, ``nu``, ``gamma``, ``delta`` must leave the crossing of
    ``alpha`` and the piece behind ``mu`` in different vertex components,
    with ``gamma`` leaving the piece on its over end and ``delta`` on its
    under end.  On top of the cut, the four face arcs threading the piece
    must close exactly as in the planar picture; in higher genus the
    same-face membership conditions alone are vacuous (faces merge), and
    a frame whose arcs wander off the pattern is not a flype.
    """
    v = alpha // 2
    if marked is not None and v == marked:
        return None
    cut = (mu, nu, gamma, delta)
    inside = _vertex_component(s, s_inv, mu // 2, cut)
    if v in inside or s_inv[nu] // 2 not in inside:
        return None
    if marked is not None and marked in inside:
        return None
    if gamma // 2 not in inside or s_inv[gamma] // 2 in inside:
        return None
    if delta // 2 in inside or s_inv[delta] // 2 not in inside:
        return None
    sub = {e for e in range(d.size) if e // 2 in inside and s_inv[e] // 2 in inside}

    # The four face arcs threading the piece, walked forwards: each must
    # stay inside it and come out exactly where the picture says.  A mere
    # membership test is not enough once the ambient genus merges faces:
    # an arc that leaves the piece and comes back is not a flype frame.
    # The arcs *outside* the frame are unconstrained; on a handle they may
    # legitimately wander through one another's faces.
    arcs = (
        (s[mu], s, nu),        # west edges of the piece, mu round to nu
        (s[gamma], s, delta),  # east edges of the piece
        (t[mu], t, delta),     # top edges of the piece
        (t[gamma], t, nu),     # bottom edges of the piece
    )
    for x, p, stop in arcs:
        while x in sub:
            x = p[x]
        if x != stop:
            return None
    return sub


def _vertex_component(s, s_inv, start, cut):
    """Vertices reachable from ``start`` once the ``cut`` edges are removed."""
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for e in (2 * u, 2 * u + 1, s[2 * u], s[2 * u + 1]):
            if e in cut:
                continue
            for w in (e // 2, s_inv[e] // 2):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return seen


def _closed_genus(s, t, sub, gamma, delta, mu, nu):
    """Genus of the subtangle closed into a standalone diagram.

    The four stubs are pasted pairwise, ``delta`` onto ``mu`` and ``gamma``
    onto ``nu``, which joins the legs the way the planarity condition of
    the move requires.
    """
    ren = {delta: mu, gamma: nu}
    domain = sorted(sub) + [mu, nu]
    faces = 0
    for p in (s, t):
        closed = {x: ren.get(p[x], p[x]) for x in domain[:-1]}
        closed[nu] = ren.get(p[gamma], p[gamma])
        if sorted(closed.values()) != sorted(domain):
            raise RuntimeError("closure is not a permutation")
        unvisited = set(domain)
        while unvisited:
            x0 = unvisited.pop()
            x = closed[x0]
            while x != x0:
                unvisited.remove(x)
                x = closed[x]
            faces += 1
    doubled = 2 - (faces - len(domain) // 2)
    if doubled % 2 or doubled < 0:
        raise RuntimeError("closure genus out of range")
    return doubled // 2


def apply_flype(d: LinkDiagram, site: FlypeSite) -> LinkDiagram:
    """Carry the crossing of ``site.alpha`` across the subtangle.

    The result is a valid diagram of the same type with the same crossing
    number; it is relabelled back to block normal form but not
    canonicalised.  The site search is the only admissibility test: a
    site is admissible on ``d`` exactly when :func:`flype_sites` lists it,
    and any other raises ``ValueError``.
    """
    if site not in flype_sites(d):
        raise ValueError(f"not a flype site of this diagram: {site}")
    return _rewire(d, site)[0]


def _rewire(d: LinkDiagram, site: FlypeSite) -> tuple[LinkDiagram, Perm]:
    """The flipped diagram and the relabelling ``g`` that normalised it.

    Trusts ``site`` to come from ``flype_sites(d)``; nothing here checks
    the frame again.
    """
    s, t = (d.sigma, d.tau) if site.color == "white" else (d.tau, d.sigma)
    alpha, beta, gamma, delta = site.alpha, site.beta, site.gamma, site.delta
    mu, nu = t[alpha], alpha ^ 1
    s_inv, t_inv = inverse(s), inverse(t)

    # Flip the inside, rewire the frame.  The renaming psi patches the two
    # places where an inverted face arc runs off the subtangle's edge set.
    psi = {mu: beta, gamma: mu}
    s2, t2 = list(s), list(t)
    for x in site.subtangle:
        s2[x] = psi.get(s_inv[x], s_inv[x])
        t2[x] = psi.get(t_inv[x], t_inv[x])
    s2[alpha] = psi.get(s_inv[nu], s_inv[nu])
    t2[alpha] = psi.get(t_inv[nu], t_inv[nu])
    s2[mu], t2[mu] = nu, delta
    s2[nu] = psi.get(s_inv[delta], s_inv[delta])
    t2[nu] = psi.get(t_inv[delta], t_inv[delta])
    s2[gamma], t2[gamma] = delta, nu
    if site.color == "black":
        s2, t2 = t2, s2

    sigma2, tau2 = tuple(s2), tuple(t2)
    pairing = compose(inverse(sigma2), tau2)
    if isinstance(d, TangleDiagram) and pairing[d.size - 2] != d.size - 1:
        raise RuntimeError("marked crossing was disturbed")
    g = pair_normalizer(pairing)
    return type(d)(d.n, conjugate(g, sigma2)), g


def flype_classes(codes: Iterable[str]) -> list[FlypeClass]:
    """Partition canonical diagram codes into flype-equivalence classes.

    Breadth-first closure: every flype of every member is applied and
    canonicalised until nothing new appears.  The inputs must be canonical
    codes of one kind (one crossing number, all links or all tangles);
    since flypes preserve crossing number, genus, connectivity and
    self-energy freeness, the closure of a full census slice stays inside
    it.  Classes come back sorted by representative.

    Sites with an empty ``subtangle`` are skipped.  There the piece is one
    crossing that shares the bigon ``(mu, nu)`` with the crossing of
    ``alpha``; the flype only swaps the two crossings of that twist, so its
    image is the same diagram relabelled and canonicalises to the member.
    """
    pending = sorted(set(codes))
    heads = {code.split(":", 1)[0] for code in pending}
    if len(heads) > 1:
        raise ValueError(f"mixed diagram kinds in one closure: {sorted(heads)}")

    classes = []
    absorbed: set[str] = set()
    for start in pending:
        if start in absorbed:
            continue
        members = {start}
        frontier = [start]
        while frontier:
            code = frontier.pop()
            d = _decode(code)
            for site in flype_sites(d):
                if not site.subtangle:
                    continue
                image = canonical_diagram(_rewire(d, site)[0]).to_code()
                if image not in members:
                    members.add(image)
                    frontier.append(image)
        absorbed |= members
        classes.append(FlypeClass(min(members), frozenset(members)))
    classes.sort(key=lambda c: c.representative)
    return classes


def _decode(code: str) -> LinkDiagram:
    cls = TangleDiagram if code.startswith("T") else LinkDiagram
    return cls.from_code(code)
