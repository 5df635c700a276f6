"""The invariant battery for virtual alternating diagrams.

Everything here is exact: state sums and determinants live in the Laurent
ring over the integers, morphism counts are plain integers.  The bracket
variable is called ``a`` throughout, and the extended Alexander ring has
one variable per strand component plus the extension variable ``s``.

The bracket has one engine: a frontier state sum over a rotation-system
form of the diagram, which adds the crossings one at a time and keeps,
per pairing of the open stubs, a tally of a-powers and closed loops.
`bracket`, `jones`, `closure_jones` and `cabled_jones` all reach it; the
2-cable is the same kind of wiring, with a grid of parallel copies per
crossing plus compensating twist boxes.

An invariant that depends on orientation takes the `OrientedDiagram` it
reads; those that minimise over every orientation take the list
`orientations` returns.  `link_record` builds that list once per record
and uses its entry 0 as the reference orientation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from functools import lru_cache
from math import gcd

from .diagrams import (
    LinkDiagram,
    OrientedDiagram,
    TangleDiagram,
    close_tangle_counted,
    component_count,
    genus,
    orientations,
    symmetry_order,
    tangle_type,
)
from .groups import FiniteGroup
from .laurent import MultiLaurentPoly, det, normalize_unit
from .perms import inverse

BRACKET_VARIABLES = ("a",)


def _amono(coeff: int, power: int) -> MultiLaurentPoly:
    return MultiLaurentPoly.monomial(coeff, (power,), BRACKET_VARIABLES)


@lru_cache(maxsize=None)
def _delta_power(k: int) -> MultiLaurentPoly:
    """(-a^2 - a^-2)^k, the value of k free loops beside the first."""
    if k == 0:
        return MultiLaurentPoly.one(BRACKET_VARIABLES)
    return _delta_power(k - 1) * (_amono(-1, 2) + _amono(-1, -2))


def bracket(d: LinkDiagram) -> MultiLaurentPoly:
    """Kauffman bracket, by the frontier state sum of the rotation-system form."""
    return _state_sum(_rotation_of(d))


def linking_matrix(od: OrientedDiagram) -> tuple[tuple[int, ...], ...]:
    """Symmetric component-by-component sum of crossing signs.

    Entry (i, j) adds the sign of every crossing where component i passes
    over j or vice versa, so classical off-diagonal entries are twice the
    usual linking number; virtual ones need not be even.
    """
    cid = od.components
    c = len(od.bits)
    ell = [[0] * c for _ in range(c)]
    for b_in, _, a_in, _, eps in od.frames:
        i, j = cid[b_in], cid[a_in]
        ell[i][j] += eps
        if i != j:
            ell[j][i] += eps
    return tuple(tuple(row) for row in ell)


def twist_number(od: OrientedDiagram) -> int:
    """Sum of self-crossing signs over all components; orientation-free."""
    ell = linking_matrix(od)
    return sum(ell[i][i] for i in range(len(ell)))


def jones(od: OrientedDiagram) -> MultiLaurentPoly:
    """(-a)^(-3t) times the bracket, t the total self-twist."""
    return _twist_normalised(bracket(od.diagram), twist_number(od))


def _twist_normalised(b: MultiLaurentPoly, t: int) -> MultiLaurentPoly:
    return _amono(-1 if t % 2 else 1, -3 * t) * b


# -- extended Alexander module -----------------------------------------------


def alexander_variables(c: int) -> tuple[str, ...]:
    return tuple(f"t{i}" for i in range(c)) + ("s",)


def _relation_matrix(od: OrientedDiagram, skip_crossing=None):
    """Edge-relation matrix: one pair of rows per crossing, 2n columns.

    The outgoing under edge is t_b^e*a + (1 - s^e*t_a^e)*b and the
    outgoing over edge is s^e*b, with e the crossing sign; a, b the
    incoming under and over edges; t_a, t_b the component variables."""
    d = od.diagram
    cid = od.components
    variables = alexander_variables(len(od.bits))
    zero = MultiLaurentPoly.zero(variables)
    one = MultiLaurentPoly.one(variables)

    def mono(coeff, tvar=None, tpow=0, spow=0):
        exps = [0] * len(variables)
        if tvar is not None:
            exps[tvar] = tpow
        exps[-1] = spow
        return MultiLaurentPoly.monomial(coeff, exps, variables)

    rows = []
    for v, (b_in, b_out, a_in, a_out, eps) in enumerate(od.frames):
        if v == skip_crossing:
            continue
        row1 = [zero] * d.size
        row1[a_out] = row1[a_out] + one
        row1[a_in] = row1[a_in] - mono(1, cid[b_in], eps)
        row1[b_in] = row1[b_in] - one + mono(1, cid[a_in], eps, eps)
        row2 = [zero] * d.size
        row2[b_out] = row2[b_out] + one
        row2[b_in] = row2[b_in] - mono(1, None, 0, eps)
        rows.append(row1)
        rows.append(row2)
    return rows


def alexander0(od: OrientedDiagram) -> MultiLaurentPoly:
    """Determinant of the full relation matrix, up to sign and monomials.

    Vanishes identically on genus-0 diagrams, which is what pins the
    convention for which relation pair goes with which crossing sign."""
    return normalize_unit(det(_relation_matrix(od)))


def _permute_components(p: MultiLaurentPoly, perm) -> MultiLaurentPoly:
    """Relabel t_i -> t_perm[i], keeping s in place."""
    terms = {}
    for exps, coeff in p.terms.items():
        new = [0] * len(exps)
        for i, e in enumerate(exps[:-1]):
            new[perm[i]] = e
        new[-1] = exps[-1]
        terms[tuple(new)] = coeff
    return MultiLaurentPoly(p.variables, terms)


def _least_rendering(ods: list[OrientedDiagram], values, variants):
    """Least rendering over the orientations ``ods`` and component relabellings.

    ``values`` maps an oriented diagram to a tuple of polynomials, which
    are rendered as strings after each relabelling; ``variants`` maps that
    tuple of strings to the candidates it offers for the minimum."""
    best = None
    for od in ods:
        polys = values(od)
        for perm in itertools.permutations(range(len(od.bits))):
            texts = tuple(str(normalize_unit(_permute_components(p, perm))) for p in polys)
            for variant in variants(texts):
                if best is None or variant < best:
                    best = variant
    return best


def alexander_canonical(ods: list[OrientedDiagram]) -> str:
    """Alexander-0 as a string, minimized over the orientations ``ods`` of
    a diagram (all of them) and component relabellings so equal diagrams
    always render identically."""
    (text,) = _least_rendering(ods, lambda od: (alexander0(od),), lambda texts: (texts,))
    return text


# -- integer specializations -------------------------------------------------


def _int_det(rows) -> int:
    """Bareiss determinant of an integer matrix."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def determinant_invariant(od: OrientedDiagram) -> int:
    """Alexander data at s=1, all t_i=t, evaluated at t=-1.

    At that point both relation variants collapse to a+a'-2b = 0 and
    b'-b = 0, so every row of the square relation matrix M sums to 0 and
    M·1 = 0.  The full determinant vanishes; the reported integer is the
    gcd of all cofactors, which does not depend on labelling choices.

    One column of cofactors suffices.  M·adj(M) = det(M)·I = 0 puts every
    column of adj(M) in ker M.  When rank M = m-1 that kernel is spanned
    by 1, so each column of adj(M) is constant: the cofactors along any
    row of M are equal.  When rank M < m-1 every cofactor vanishes.
    Either way the gcd of all m^2 cofactors is the gcd of the m that
    delete column 0."""
    size = od.diagram.size
    m = [[0] * size for _ in range(size)]
    for v, (b_in, b_out, a_in, a_out, _) in enumerate(od.frames):
        m[2 * v][a_out] += 1
        m[2 * v][a_in] += 1
        m[2 * v][b_in] -= 2
        m[2 * v + 1][b_out] += 1
        m[2 * v + 1][b_in] -= 1
    rest = [row[1:] for row in m]
    best = 0
    for i in range(size):
        best = gcd(best, _int_det(rest[:i] + rest[i + 1 :]))
        if best == 1:
            return 1
    return best


# -- morphisms of the diagram group ------------------------------------------


def group_morphism_count(od: OrientedDiagram, group: FiniteGroup) -> int:
    """Number of maps from arcs to the group satisfying every crossing.

    Arcs are the over-passages, one per crossing; the relation conjugates
    the incoming under arc by the over arc raised to the crossing sign.
    The count does not depend on the orientation (the relation set is
    equivalent under reversal), which is checked on the first component.

    The search branches on the free arcs in index order, and on one value
    per orbit of a subgroup H acting by conjugation, weighting what that
    value extends to by the orbit's size.  After each branch a worklist
    fixes what the relations force: it reads only the relations that
    touch an arc just fixed, so each relation is checked once its last
    arc has a value.  H is the centraliser of the values branched on so
    far (at the top, the whole group, whose orbits are the conjugacy
    classes).  The search counts solutions, so the order it branches in
    cannot change the count, and the weighting is exact: conjugation by
    h is an automorphism, so it sends solutions to solutions; an h in H
    fixes every value already assigned, since a value the worklist fixed
    is a word in the branched ones; so f -> h f h^-1 is a bijection from
    the solutions with f(arc) = x onto those with f(arc) = h x h^-1.
    Below a value x the search goes on with H ∩ C(x).
    """
    count = _morphism_count(od, group)
    if od.bits:
        flipped = (1 - od.bits[0],) + od.bits[1:]
        if count != _morphism_count(OrientedDiagram(od.diagram, flipped), group):
            raise RuntimeError("morphism count changed under orientation reversal")
    return count


def _morphism_count(od: OrientedDiagram, group: FiniteGroup) -> int:
    n = od.diagram.n
    watch = [[] for _ in range(n)]
    for b, (_, _, a_in, a_out, eps) in enumerate(od.frames):
        rel = (b, a_in // 2, a_out // 2, eps)
        for arc in set(rel[:3]):
            watch[arc].append(rel)
    table, inv = group.table, group.inverse
    assign = [-1] * n

    def propagate(trail) -> bool:
        # the trail is the queue: arcs fixed here join it and are read in turn
        for arc in trail:
            for b, ai, ao, eps in watch[arc]:
                fb = assign[b]
                if fb < 0:
                    continue
                w = fb if eps > 0 else inv[fb]
                wi = inv[w]
                fi, fo = assign[ai], assign[ao]
                if fi >= 0:
                    val = table[table[w][fi]][wi]
                    if fo < 0:
                        assign[ao] = val
                        trail.append(ao)
                    elif fo != val:
                        return False
                elif fo >= 0:
                    assign[ai] = table[table[wi][fo]][w]
                    trail.append(ai)
        return True

    def search(arc: int, sub: frozenset) -> int:
        while arc < n and assign[arc] >= 0:
            arc += 1
        if arc == n:
            return 1
        total = 0
        for val, size, fixing in group.conjugation_orbits(sub):
            trail = [arc]
            assign[arc] = val
            if propagate(trail):
                total += size * search(arc + 1, fixing)
            for x in trail:
                assign[x] = -1
        return total

    return search(0, frozenset(range(group.order)))


# -- rotation-system diagrams, the state sum and 2-cabling --------------------
#
# A crossing here is four stubs W=0, N=1, E=2, S=3 with the over strand on
# the W-E axis; `pair` wires stubs together.  The first splitting joins
# (W,N) and (E,S), which is the white-face transition of the permutation
# encoding and carries a^+1; the second carries a^-1.  Every bracket, the
# 2-cable's included, is the one state sum below over such a wiring.

W, N, E, S = range(4)


@dataclass(frozen=True)
class _RotationDiagram:
    crossings: int
    pair: dict

    def __post_init__(self):
        if len(self.pair) != 4 * self.crossings:
            raise RuntimeError(f"{len(self.pair)} stubs for {self.crossings} crossings")
        if not all(self.pair[self.pair[s]] == s != self.pair[s] for s in self.pair):
            raise RuntimeError("stub wiring is not a fixed-point-free involution")


def _edge_stubs(d: LinkDiagram):
    """Each edge ``e`` as ``(e, stub of its over end, stub of its under end)``."""
    sigma_inv = inverse(d.sigma)
    for e in range(d.size):
        u = sigma_inv[e]
        yield e, (e // 2, W if e % 2 == 0 else E), (u // 2, N if u % 2 == 0 else S)


def _rotation_of(d: LinkDiagram) -> _RotationDiagram:
    pair = {}
    for _, over, under in _edge_stubs(d):
        pair[over] = under
        pair[under] = over
    return _RotationDiagram(d.n, pair)


def _state_sum(rd: _RotationDiagram) -> MultiLaurentPoly:
    """Bracket by splitting the crossings one at a time along a frontier.

    A stub is open while its wire leads to a crossing not yet added.  A
    state is how the arcs split so far pair the open stubs up, stored as
    the frontier position of each open stub's partner, and it keeps a
    tally {(a-power, closed loops): count}; a loop is counted the moment
    its last wire is laid.  The next crossing is the one with the
    most stubs wired to crossings already added, which keeps the frontier
    short.  This is exact on any surface (Bar-Natan, "Fast Khovanov
    homology computations", JKTR 16 (2007))."""
    c, pair = rd.crossings, rd.pair
    added = [False] * c
    frontier: list = []
    states = {(): {(0, 0): 1}}
    for _ in range(c):
        v = max(
            (u for u in range(c) if not added[u]),
            key=lambda u: sum(added[pair[(u, s)][0]] for s in range(4)),
        )
        added[v] = True
        base = len(frontier)
        ends = frontier + [(v, s) for s in range(4)]
        where = {stub: i for i, stub in enumerate(ends)}
        # Each wire laid now once, from its end at v to an open stub or to
        # an earlier stub of v.
        wires = [
            (where[pair[(v, s)]], base + s)
            for s in range(4)
            if where.get(pair[(v, s)], base + 4) < base + s
        ]
        glued = {i for wire in wires for i in wire}
        keep = [i for i in range(base + 4) if i not in glued]
        renumber = {i: k for k, i in enumerate(keep)}
        splits = (
            (1, [base + N, base + W, base + S, base + E]),
            (-1, [base + S, base + E, base + N, base + W]),
        )
        nxt: dict = {}
        for state, tally in states.items():
            for delta, joins in splits:
                m = list(state) + joins
                loops = 0
                # A wire closes a loop when its two ends bound one arc and
                # otherwise splices their two arcs into one.
                for i, j in wires:
                    if m[i] == j:
                        loops += 1
                    else:
                        x, y = m[i], m[j]
                        m[x], m[y] = y, x
                key = tuple(renumber[m[i]] for i in keep)
                slot = nxt.setdefault(key, {})
                for (apow, closed), count in tally.items():
                    k = (apow + delta, closed + loops)
                    slot[k] = slot.get(k, 0) + count
        frontier, states = [ends[i] for i in keep], nxt
    total = MultiLaurentPoly.zero(BRACKET_VARIABLES)
    for (apow, loops), mult in sorted(states[()].items()):
        total = total + _amono(mult, apow) * _delta_power(loops - 1)
    return total


# Lane bookkeeping for the 2-cable: at each stub the doubled strand has a
# left and a right lane, sides taken facing out of the crossing.  Along
# an edge the lanes stay parallel, so one end's left is the other's right.

_LANES = {
    (W, "left"): (1, 0, W),  # grid row (0 = the N row), grid column, stub
    (W, "right"): (0, 0, W),
    (E, "left"): (0, 1, E),
    (E, "right"): (1, 1, E),
    (N, "left"): (0, 0, N),
    (N, "right"): (0, 1, N),
    (S, "left"): (1, 1, S),
    (S, "right"): (1, 0, S),
}


def cable_rotation(od: OrientedDiagram) -> _RotationDiagram:
    """The 2-cable: a 2x2 grid of crossings per crossing, twist-compensated.

    Every component gets enough oppositely-signed twist boxes on one of
    its doubled edges to cancel the linking the blackboard cable gives
    the two copies, leaving the new strings unlinked."""
    d = od.diagram
    ids = {}

    def grid(v, row, col):
        return ids.setdefault(("g", v, row, col), len(ids))

    pair = {}

    def join(s, t):
        pair[s] = t
        pair[t] = s

    for v in range(d.n):
        for row in (0, 1):
            join((grid(v, row, 0), E), (grid(v, row, 1), W))
        for col in (0, 1):
            join((grid(v, 0, col), S), (grid(v, 1, col), N))

    def lane_stub(stub, side):
        v, slot = stub
        row, col, s = _LANES[(slot, side)]
        return (grid(v, row, col), s)

    ell = linking_matrix(od)
    twisted = set()
    box_serial = itertools.count()
    for e, over, under in _edge_stubs(d):
        comp = od.components[e]
        w_i = ell[comp][comp]
        if w_i and comp not in twisted:
            twisted.add(comp)
            left, right = lane_stub(over, "left"), lane_stub(over, "right")
            hand = -1 if w_i > 0 else 1
            for _ in range(2 * abs(w_i)):
                box = ids.setdefault(("t", next(box_serial)), len(ids))
                if hand > 0:
                    join(left, (box, W))
                    join(right, (box, S))
                    left, right = (box, N), (box, E)
                else:
                    join(left, (box, S))
                    join(right, (box, E))
                    left, right = (box, W), (box, N)
            join(left, lane_stub(under, "right"))
            join(right, lane_stub(under, "left"))
        else:
            join(lane_stub(over, "left"), lane_stub(under, "right"))
            join(lane_stub(over, "right"), lane_stub(under, "left"))

    return _RotationDiagram(len(ids), pair)


def cabled_jones(od: OrientedDiagram) -> MultiLaurentPoly:
    """Jones of the zero-linked 2-cable."""
    t = twist_number(od)
    # Each self-crossing doubles into two diagonal self-crossings of the
    # copies, so the cable's own twist is 2t; the compensating boxes only
    # touch mixed pairs.
    return _amono(1, -6 * t) * _state_sum(cable_rotation(od))


# -- tangle invariants -------------------------------------------------------


def closure_jones(t: TangleDiagram) -> tuple[MultiLaurentPoly, MultiLaurentPoly]:
    """Jones of the two arch closures, in (numerator, denominator) order.

    A closure arc can seal a crossing-free circle, which the closed
    encoding cannot carry; each one dropped multiplies the value back in
    as a free loop."""
    out = []
    for pattern in ("numerator", "denominator"):
        closed, circles = close_tangle_counted(t, pattern)
        od = OrientedDiagram(closed, (0,) * component_count(closed))
        out.append(jones(od) * _delta_power(circles))
    return tuple(out)


LEG_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _boundary_raw(od: OrientedDiagram) -> tuple:
    """The six leg-pair Alexander determinants of the open tangle.

    Rows are the relation pairs of the real crossings only; for each pair
    of legs the corresponding edge columns are removed (a leg pair whose
    legs sit on one shared edge leaves the matrix non-square and scores
    zero)."""
    t = od.diagram
    rows = _relation_matrix(od, skip_crossing=t.n - 1)
    legs = t.legs
    zero = MultiLaurentPoly.zero(alexander_variables(len(od.bits)))
    out = []
    for i, j in LEG_PAIRS:
        drop = {legs[i], legs[j]}
        if len(drop) < 2:
            out.append(zero)
            continue
        square = [
            [entry for col, entry in enumerate(row) if col not in drop]
            for row in rows
        ]
        out.append(det(square))
    return tuple(out)


# A half-turn of the tangle sends the legs (SW, NW, NE, SE) to
# (NE, SE, SW, NW), which acts on LEG_PAIRS by this index permutation.
HALF_TURN_PAIRS = (5, 1, 3, 2, 4, 0)


def boundary_record(ods: list[OrientedDiagram]) -> tuple[str, ...]:
    """Five boundary determinants of a tangle, from ``ods``, the list of
    all its orientations, canonical under what a flype sequence can
    change: strand orientations, component labels, and a half-turn of the
    whole tangle.  The last one matters because a flype whose frame
    is the four legs carries the entire tangle through its own rotation,
    so records that kept the raw pair order would split such classes."""
    return _least_rendering(
        ods, _boundary_raw, lambda six: (six, tuple(six[i] for i in HALF_TURN_PAIRS))
    )[:5]


# -- assembled records -------------------------------------------------------


@dataclass(frozen=True)
class InvariantRecord:
    """Everything the classification and the table export consume.

    Polynomials are carried as their canonical string renderings, which
    are deterministic, hashable and diff-friendly.  `separation_key`
    drops the fields a flype may change (only the symmetry order)."""

    n: int
    genus: int
    components: int
    symmetry: int
    twist: int
    linking: tuple[int, ...]
    bracket: str
    jones: str
    alexander: str
    determinant: int
    morphisms: tuple[tuple[str, int], ...]
    cabled: str | None = None
    tangle_type: int | None = None
    closures: tuple[str, str] | None = None
    boundary: tuple[str, ...] | None = None

    def separation_key(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self) if f.name != "symmetry")


def link_record(
    d: LinkDiagram,
    groups: tuple[FiniteGroup, ...] = (),
    include_cabled: bool = False,
) -> InvariantRecord:
    ods = orientations(d)
    od = ods[0]
    ell = linking_matrix(od)
    c = len(ell)
    t = sum(ell[i][i] for i in range(c))
    morphs = tuple(
        sorted((g.name, group_morphism_count(od, g)) for g in groups)
    )
    extra = {}
    if isinstance(d, TangleDiagram):
        extra = {
            "tangle_type": tangle_type(d),
            "closures": tuple(str(p) for p in closure_jones(d)),
            "boundary": boundary_record(ods),
        }
    b = bracket(d)
    return InvariantRecord(
        n=d.n,
        genus=genus(d),
        components=c,
        symmetry=symmetry_order(d),
        twist=t,
        linking=tuple(sorted(abs(ell[i][j]) for i in range(c) for j in range(i, c))),
        bracket=str(b),
        jones=str(_twist_normalised(b, t)),
        alexander=alexander_canonical(ods),
        determinant=determinant_invariant(od),
        morphisms=morphs,
        cabled=str(cabled_jones(od)) if include_cabled else None,
        **extra,
    )
