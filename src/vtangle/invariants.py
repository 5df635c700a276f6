"""The invariant battery for virtual alternating diagrams.

Everything here is exact: state sums and determinants live in the Laurent
ring over the integers, morphism counts are plain integers.  The bracket
variable is called ``a`` throughout, and the extended Alexander ring has
one variable per strand component plus the extension variable ``s``.

Two independent routes exist for the bracket: the splitting-permutation
state sum over the encoding itself, and a loop-walking state sum over an
explicit rotation-system form of the diagram.  The latter also carries
the 2-cabling construction, whose crossings are grids of parallel copies
plus compensating twist boxes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .diagrams import (
    LinkDiagram,
    OrientedDiagram,
    TangleDiagram,
    close_tangle_counted,
    component_count,
    edge_component_ids,
    edge_senses,
    genus,
    symmetry_order,
    tangle_type,
)
from .groups import FiniteGroup
from .laurent import MultiLaurentPoly, det, normalize_unit
from .perms import cycle_count, inverse

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
    """Kauffman bracket: sum over the 2^n crossing splittings.

    Splitting a crossing the first way keeps the white-face transition,
    the second way the black-face one; the loops of a splitting are the
    cycles of the resulting permutation.
    """
    sigma, tau, n = d.sigma, d.tau, d.n
    counts: dict[tuple[int, int], int] = {}
    for mask in range(1 << n):
        s = tuple(
            tau[i] if (mask >> (i >> 1)) & 1 else sigma[i] for i in range(2 * n)
        )
        key = (n - 2 * mask.bit_count(), cycle_count(s))
        counts[key] = counts.get(key, 0) + 1
    total = MultiLaurentPoly.zero(BRACKET_VARIABLES)
    for (apow, loops), mult in sorted(counts.items()):
        total = total + _amono(mult, apow) * _delta_power(loops - 1)
    return total


def _reference_orientation(d: LinkDiagram) -> OrientedDiagram:
    return OrientedDiagram(d, (0,) * component_count(d))


def _crossing_frames(od: OrientedDiagram):
    """Per crossing: (over in, over out, under in, under out, sign)."""
    d = od.diagram
    senses = edge_senses(od)
    frames = []
    for v in range(d.n):
        w, x = 2 * v, 2 * v + 1
        b_in, b_out = (w, x) if senses[w] == 1 else (x, w)
        p, q = d.sigma[w], d.sigma[x]
        a_in, a_out = (p, q) if senses[p] == -1 else (q, p)
        if senses[a_in] != -1 or senses[a_out] != 1:
            raise RuntimeError(f"under-strand at crossing {v} is not oriented through it")
        eps = 1 if senses[w] == senses[d.sigma[w]] else -1
        frames.append((b_in, b_out, a_in, a_out, eps))
    return frames


def linking_matrix(od: OrientedDiagram) -> tuple[tuple[int, ...], ...]:
    """Symmetric component-by-component sum of crossing signs.

    Entry (i, j) adds the sign of every crossing where component i passes
    over j or vice versa, so classical off-diagonal entries are twice the
    usual linking number; virtual ones need not be even.
    """
    d = od.diagram
    cid = edge_component_ids(d)
    c = component_count(d)
    ell = [[0] * c for _ in range(c)]
    for b_in, _, a_in, _, eps in _crossing_frames(od):
        i, j = cid[b_in], cid[a_in]
        ell[i][j] += eps
        if i != j:
            ell[j][i] += eps
    return tuple(tuple(row) for row in ell)


def twist_number(d: LinkDiagram) -> int:
    """Sum of self-crossing signs over all components; orientation-free."""
    ell = linking_matrix(_reference_orientation(d))
    return sum(ell[i][i] for i in range(len(ell)))


def linking_profile(d: LinkDiagram) -> tuple[int, ...]:
    """Sorted multiset of absolute linking entries on and above the diagonal."""
    ell = linking_matrix(_reference_orientation(d))
    c = len(ell)
    return tuple(sorted(abs(ell[i][j]) for i in range(c) for j in range(i, c)))


def jones(d: LinkDiagram) -> MultiLaurentPoly:
    """(-a)^(-3t) times the bracket, t the total self-twist."""
    t = twist_number(d)
    return _amono(-1 if t % 2 else 1, -3 * t) * bracket(d)


def jones_span(p: MultiLaurentPoly) -> int:
    """Width of the exponent range in powers of a^4."""
    if not p.terms:
        return 0
    powers = [e[0] for e in p.terms]
    width = max(powers) - min(powers)
    if width % 4:
        raise ValueError("bracket exponents should agree mod 4")
    return width // 4


# -- extended Alexander module -----------------------------------------------


def alexander_variables(c: int) -> tuple[str, ...]:
    return tuple(f"t{i}" for i in range(c)) + ("s",)


def _relation_matrix(od: OrientedDiagram, variables=None, skip_crossing=None):
    """Edge-relation matrix: one pair of rows per crossing, 2n columns.

    The outgoing under edge is t_b^e*a + (1 - s^e*t_a^e)*b and the
    outgoing over edge is s^e*b, with e the crossing sign; a, b the
    incoming under and over edges; t_a, t_b the component variables."""
    d = od.diagram
    cid = edge_component_ids(d)
    c = component_count(d)
    if variables is None:
        variables = alexander_variables(c)
    zero = MultiLaurentPoly.zero(variables)
    one = MultiLaurentPoly.one(variables)

    def mono(coeff, tvar=None, tpow=0, spow=0):
        exps = [0] * len(variables)
        if tvar is not None:
            exps[tvar] = tpow
        exps[-1] = spow
        return MultiLaurentPoly.monomial(coeff, exps, variables)

    rows = []
    for v, (b_in, b_out, a_in, a_out, eps) in enumerate(_crossing_frames(od)):
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


def alexander_canonical(d: LinkDiagram) -> str:
    """Alexander-0 as a string, minimized over orientations and component
    relabellings so equal diagrams always render identically."""
    c = component_count(d)
    best = None
    for bits in itertools.product((0, 1), repeat=c):
        p = alexander0(OrientedDiagram(d, bits))
        for perm in itertools.permutations(range(c)):
            text = str(normalize_unit(_permute_components(p, perm)))
            if best is None or text < best:
                best = text
    return best


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


def determinant_invariant(d: LinkDiagram) -> int:
    """Alexander data at s=1, all t_i=t, evaluated at t=-1.

    At that point both relation variants collapse to a+a'-2b = 0 and
    b'-b = 0, and the all-ones vector spans the kernel, so the full
    determinant vanishes; the reported integer is the gcd of all
    cofactors, which does not depend on labelling choices."""
    frames = _crossing_frames(_reference_orientation(d))
    size = d.size
    m = [[0] * size for _ in range(2 * d.n)]
    for v, (b_in, b_out, a_in, a_out, _) in enumerate(frames):
        m[2 * v][a_out] += 1
        m[2 * v][a_in] += 1
        m[2 * v][b_in] -= 2
        m[2 * v + 1][b_out] += 1
        m[2 * v + 1][b_in] -= 1
    best = 0
    for i in range(size):
        rest = m[:i] + m[i + 1 :]
        for j in range(size):
            minor = _int_det([row[:j] + row[j + 1 :] for row in rest])
            best = gcd(best, minor)
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
    """
    count = _morphism_count(od, group)
    if od.bits:
        flipped = od.bits[:0] + (1 - od.bits[0],) + od.bits[1:]
        if count != _morphism_count(OrientedDiagram(od.diagram, flipped), group):
            raise RuntimeError("morphism count changed under orientation reversal")
    return count


def _morphism_count(od: OrientedDiagram, group: FiniteGroup) -> int:
    d = od.diagram
    cons = [
        (v, a_in // 2, a_out // 2, eps)
        for v, (_, _, a_in, a_out, eps) in enumerate(_crossing_frames(od))
    ]
    n = d.n
    by_arc = [[] for _ in range(n)]
    for idx, (b, ai, ao, _) in enumerate(cons):
        for arc in {b, ai, ao}:
            by_arc[arc].append(idx)
    table, inv = group.table, group.inverse
    assign = [-1] * n

    def propagate(trail) -> bool:
        changed = True
        while changed:
            changed = False
            for b, ai, ao, eps in cons:
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
                        changed = True
                    elif fo != val:
                        return False
                elif fo >= 0:
                    assign[ai] = table[table[wi][fo]][w]
                    trail.append(ai)
                    changed = True
        return True

    def next_arc() -> int:
        best, score = -1, -1
        for arc in range(n):
            if assign[arc] >= 0:
                continue
            near = sum(
                1
                for idx in by_arc[arc]
                if any(assign[x] >= 0 for x in cons[idx][:3])
            )
            if near > score:
                best, score = arc, near
        return best

    def search() -> int:
        arc = next_arc()
        if arc < 0:
            return 1
        total = 0
        for val in range(group.order):
            trail = [arc]
            assign[arc] = val
            if propagate(trail):
                total += search()
            for x in trail:
                assign[x] = -1
        return total

    return search()


# -- rotation-system diagrams and 2-cabling ----------------------------------
#
# A crossing here is four stubs W=0, N=1, E=2, S=3 with the over strand on
# the W-E axis; `pair` wires stubs together.  The first splitting joins
# (W,N) and (E,S), which is exactly the white-face transition of the
# permutation encoding, so on alternating diagrams the loop-walking state
# sum below reproduces `bracket` verbatim.

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


def _rotation_of(d: LinkDiagram) -> _RotationDiagram:
    sigma_inv = inverse(d.sigma)
    pair = {}
    for e in range(d.size):
        over = (e // 2, W if e % 2 == 0 else E)
        u = sigma_inv[e]
        under = (u // 2, N if u % 2 == 0 else S)
        pair[over] = under
        pair[under] = over
    return _RotationDiagram(d.n, pair)


def _loop_state_sum(rd: _RotationDiagram) -> MultiLaurentPoly:
    """Bracket by splitting every crossing and counting closed loops.

    Depth-first over the crossings with a rollback union-find, so shared
    smoothing prefixes are merged once instead of once per state."""
    c = rd.crossings
    parent = list(range(4 * c))
    size = [1] * (4 * c)

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    merges = 0

    def union(x, y, stack) -> None:
        nonlocal merges
        rx, ry = find(x), find(y)
        if rx == ry:
            return
        if size[rx] < size[ry]:
            rx, ry = ry, rx
        parent[ry] = rx
        size[rx] += size[ry]
        stack.append(ry)
        merges += 1

    def rollback(stack, mark) -> None:
        nonlocal merges
        while len(stack) > mark:
            ry = stack.pop()
            size[find(ry)] -= size[ry]
            parent[ry] = ry
            merges -= 1

    base: list = []
    seen = set()
    for s, t in rd.pair.items():
        if s not in seen:
            seen.add(s)
            seen.add(t)
            union(4 * s[0] + s[1], 4 * t[0] + t[1], base)

    counts: dict[tuple[int, int], int] = {}
    stack: list = []

    def walk(v: int, apow: int) -> None:
        if v == c:
            key = (apow, 4 * c - merges)
            counts[key] = counts.get(key, 0) + 1
            return
        base_id = 4 * v
        for delta, joins in ((1, ((W, N), (E, S))), (-1, ((W, S), (N, E)))):
            mark = len(stack)
            for x, y in joins:
                union(base_id + x, base_id + y, stack)
            walk(v + 1, apow + delta)
            rollback(stack, mark)

    walk(0, 0)
    total = MultiLaurentPoly.zero(BRACKET_VARIABLES)
    for (apow, loops), mult in sorted(counts.items()):
        total = total + _amono(mult, apow) * _delta_power(loops - 1)
    return total


def bracket_by_loop_walk(d: LinkDiagram) -> MultiLaurentPoly:
    """Independent bracket route through the rotation-system form."""
    return _loop_state_sum(_rotation_of(d))


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


def cable_rotation(d: LinkDiagram) -> _RotationDiagram:
    """The 2-cable: a 2x2 grid of crossings per crossing, twist-compensated.

    Every component gets enough oppositely-signed twist boxes on one of
    its doubled edges to cancel the linking the blackboard cable gives
    the two copies, leaving the new strings unlinked."""
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

    ell = linking_matrix(_reference_orientation(d))
    cid = edge_component_ids(d)
    twisted = set()
    sigma_inv = inverse(d.sigma)
    box_serial = itertools.count()
    for e in range(d.size):
        over = (e // 2, W if e % 2 == 0 else E)
        u = sigma_inv[e]
        under = (u // 2, N if u % 2 == 0 else S)
        comp = cid[e]
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


def cabled_jones(d: LinkDiagram, k: int = 2) -> MultiLaurentPoly:
    """Jones of the zero-linked 2-cable; only k=2 is implemented."""
    if k != 2:
        raise ValueError("only the 2-cable is supported")
    t = twist_number(d)
    # Each self-crossing doubles into two diagonal self-crossings of the
    # copies, so the cable's own twist is 2t; the compensating boxes only
    # touch mixed pairs.
    return _amono(1, -6 * t) * _loop_state_sum(cable_rotation(d))


# -- tangle invariants -------------------------------------------------------


def closure_jones(t: TangleDiagram) -> tuple[MultiLaurentPoly, MultiLaurentPoly]:
    """Jones of the two arch closures, in (numerator, denominator) order.

    A closure arc can seal a crossing-free circle, which the closed
    encoding cannot carry; each one dropped multiplies the value back in
    as a free loop."""
    out = []
    for pattern in ("numerator", "denominator"):
        closed, circles = close_tangle_counted(t, pattern)
        out.append(jones(closed) * _delta_power(circles))
    return tuple(out)


LEG_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _boundary_raw(od: OrientedDiagram, variables) -> tuple:
    t = od.diagram
    rows = _relation_matrix(od, variables, skip_crossing=t.n - 1)
    legs = t.legs
    zero = MultiLaurentPoly.zero(variables)
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


def boundary_determinants(t: TangleDiagram, raw: bool = False):
    """The six leg-pair Alexander determinants of the open tangle.

    Rows are the relation pairs of the real crossings only; for each pair
    of legs the corresponding edge columns are removed (a leg pair whose
    legs sit on one shared edge leaves the matrix non-square and scores
    zero).  Any five determine the sixth through a bilinear identity on
    complementary minors, which is what `raw` exists to let tests check."""
    values = _boundary_raw(
        _reference_orientation(t), alexander_variables(component_count(t))
    )
    return values if raw else tuple(normalize_unit(p) for p in values)


def tangle_closure_strings(t: TangleDiagram) -> tuple[str, str]:
    return tuple(str(p) for p in closure_jones(t))


# A half-turn of the tangle sends the legs (SW, NW, NE, SE) to
# (NE, SE, SW, NW), which acts on LEG_PAIRS by this index permutation.
HALF_TURN_PAIRS = (5, 1, 3, 2, 4, 0)


def boundary_record(t: TangleDiagram) -> tuple[str, ...]:
    """Five boundary determinants, canonical under what a flype sequence
    can change: strand orientations, component labels, and a half-turn of
    the whole tangle.  The last one matters because a flype whose frame
    is the four legs carries the entire tangle through its own rotation,
    so records that kept the raw pair order would split such classes."""
    c = component_count(t)
    variables = alexander_variables(c)
    best = None
    for bits in itertools.product((0, 1), repeat=c):
        values = _boundary_raw(OrientedDiagram(t, bits), variables)
        for perm in itertools.permutations(range(c)):
            six = tuple(
                str(normalize_unit(_permute_components(p, perm)))
                for p in values
            )
            turned = tuple(six[i] for i in HALF_TURN_PAIRS)
            for variant in (six, turned):
                if best is None or variant < best:
                    best = variant
    return best[:5]


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
        return (
            self.n,
            self.genus,
            self.components,
            self.twist,
            self.linking,
            self.bracket,
            self.jones,
            self.alexander,
            self.determinant,
            self.morphisms,
            self.cabled,
            self.tangle_type,
            self.closures,
            self.boundary,
        )


def link_record(
    d: LinkDiagram,
    groups: tuple[FiniteGroup, ...] = (),
    include_cabled: bool = False,
) -> InvariantRecord:
    od = _reference_orientation(d)
    morphs = tuple(
        sorted((g.name, group_morphism_count(od, g)) for g in groups)
    )
    extra = {}
    if isinstance(d, TangleDiagram):
        extra = {
            "tangle_type": tangle_type(d),
            "closures": tangle_closure_strings(d),
            "boundary": boundary_record(d),
        }
    return InvariantRecord(
        n=d.n,
        genus=genus(d),
        components=component_count(d),
        symmetry=symmetry_order(d),
        twist=twist_number(d),
        linking=linking_profile(d),
        bracket=str(bracket(d)),
        jones=str(jones(d)),
        alexander=alexander_canonical(d),
        determinant=determinant_invariant(d),
        morphisms=morphs,
        cabled=str(cabled_jones(d)) if include_cabled else None,
        **extra,
    )


def tangle_record(
    t: TangleDiagram,
    groups: tuple[FiniteGroup, ...] = (),
    include_cabled: bool = False,
) -> InvariantRecord:
    if not isinstance(t, TangleDiagram):
        raise ValueError("tangle_record needs a tangle diagram")
    return link_record(t, groups, include_cabled)
