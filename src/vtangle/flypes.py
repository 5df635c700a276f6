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
a site exactly when :func:`flype_sites` lists it.  The search knows only
links: a tangle is a link rooted at its marked crossing, whose flypes are
the link's flypes that leave that crossing in place.  :func:`flype_classes`
searches each link once, with the tangles on it as its roots.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .codes import canonical_code, rooted_code
from .diagrams import LinkDiagram, TangleDiagram, cut_labels
from .perms import Perm, compose, conjugate, cycles, inverse, pair_normalizer, parse_perm

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
    without self-energies.  A tangle's sites are those of its link whose
    moved crossings (:func:`_moved`) miss the marked one, in the same order.

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
    sites = (_sites_one_color(d, "white", lab, sigma, tau, s_id, t_faces, t_id)
             + _sites_one_color(d, "black", lab, tau, sigma, t_id, s_faces, s_id))
    if isinstance(d, TangleDiagram):
        sites = [site for site in sites if d.n - 1 not in _moved(d, site)]
    return sites


def _moved(d: LinkDiagram, site: FlypeSite) -> set[int]:
    """Crossings a flype moves: ``alpha``'s, ``mu``'s and the piece's."""
    mu = d.sigma[site.alpha ^ 1] if site.color == "white" else d.sigma[site.alpha]
    return {site.alpha // 2, mu // 2} | {x // 2 for x in site.subtangle}


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

    # Per t-face, its edges in cycle order under (s-face id, cut label).
    index = []
    for cyc in t_faces:
        by_key: dict[tuple[int, int], list[int]] = {}
        for e in cyc:
            by_key.setdefault((s_id[e], lab[e]), []).append(e)
        index.append(by_key)

    sites = []
    for alpha in range(d.size):
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
                sub = _subtangle(d, s, t, s_inv, alpha, mu, nu, gamma, delta)
                if sub is None:
                    continue
                if _closed_genus(s, t, sub, gamma, delta, mu, nu) != 0:
                    continue
                sites.append(FlypeSite(color, alpha, beta, gamma, delta, frozenset(sub)))
    return sites


def _subtangle(d, s, t, s_inv, alpha, mu, nu, gamma, delta):
    """Edge set of the piece the move would flip, or None if the cut fails.

    Removing ``mu``, ``nu``, ``gamma``, ``delta`` must leave the crossing of
    ``alpha`` and the piece behind ``mu`` in different vertex components,
    with ``gamma`` leaving the piece on its over end and ``delta`` on its
    under end.  On top of the cut, the four face arcs threading the piece
    must close exactly as in the planar picture; in higher genus the
    same-face membership conditions alone are vacuous (faces merge), and
    a frame whose arcs wander off the pattern is not a flype.
    """
    inside = _vertex_component(s, s_inv, mu // 2, (mu, nu, gamma, delta))
    if alpha // 2 in inside or s_inv[nu] // 2 not in inside:
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
    g = pair_normalizer(compose(inverse(sigma2), tau2))
    return type(d)(d.n, conjugate(g, sigma2)), g


def flype_classes(codes: Iterable[str]) -> list[FlypeClass]:
    """Partition canonical diagram codes into flype-equivalence classes.

    The inputs must be canonical codes of one kind (one crossing number,
    all links or all tangles) closed under flypes, as a census slice of one
    genus is; a flype leading outside them raises ``ValueError``.  Classes
    come back sorted by representative.

    A tangle is named by ``rooted_code(sigma, 2n - 2)``, which no
    relabelling changes.  Each link is searched once, and each of its sites
    rewired once into ``(image, g)``: a link is joined with the canonical
    code of its image, and each root ``r`` off the moved crossings with
    ``rooted_code(image.sigma, g[r])``.  Sites with an empty ``subtangle``
    are skipped: the flype only swaps the two crossings of a twist, so its
    image is the diagram relabelled.
    """
    codes = sorted(set(codes))
    heads = {code.split(":", 1)[0] for code in codes}
    if len(heads) > 1:
        raise ValueError(f"mixed diagram kinds in one closure: {sorted(heads)}")
    tangles = bool(codes) and codes[0].startswith("T")
    sigmas = [parse_perm(code.split(":", 1)[1]) for code in codes]
    keys = [rooted_code(s, len(s) - 2) for s in sigmas] if tangles else sigmas
    parent = dict(zip(keys, keys))

    def find(k: Perm) -> Perm:
        if k not in parent:
            raise ValueError("a flype leads outside the input codes")
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    searched: set[Perm] = set()
    for sigma, key in zip(sigmas, keys):
        if key in searched:
            continue
        d = LinkDiagram(len(sigma) // 2, sigma)
        if tangles:
            roots = [rooted_code(sigma, r) for r in range(d.size)]
            searched.update(roots)
        for site in flype_sites(d):
            if not site.subtangle:
                continue
            image, g = _rewire(d, site)
            if not tangles:
                parent[find(key)] = find(canonical_code(image.sigma))
                continue
            moved = _moved(d, site)
            for r, root in enumerate(roots):
                if r // 2 not in moved:
                    parent[find(root)] = find(rooted_code(image.sigma, g[r]))

    members: dict[Perm, list[str]] = {}  # in order of their smallest code
    for code, key in zip(codes, keys):
        members.setdefault(find(key), []).append(code)
    return [FlypeClass(m[0], frozenset(m)) for m in members.values()]
