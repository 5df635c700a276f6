"""Diagram structure: faces, genus, strands, transforms, tangle surgery.

The running example is the 4-crossing diagram with sigma = (3 4 1 6 2 7 0 5);
its white faces are (0 3 6)(1 4 2)(5 7), it is planar, connected, a knot
(one strand), and its only symmetry is a half-turn.
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from vtangle.diagrams import (
    LinkDiagram,
    OrientedDiagram,
    TangleDiagram,
    close_tangle_counted,
    component_count,
    cut_labels,
    genus,
    has_self_energy,
    is_connected,
    orientations,
    strand_components,
    symmetry_order,
    tangle_type,
)
from vtangle.census import canonical_form, enumerate_diagrams
from vtangle.perms import (
    compose,
    conjugate,
    cycle_count,
    cycles,
    inverse,
    is_fixed_point_free,
    is_involution,
    rho_perm,
)

from oracles import (
    real_crossings,
    relabel,
    relabelling_elements,
    self_energy_pairwise,
    transform,
    vertex_sign,
)

EXAMPLE = LinkDiagram.from_code("4:3 4 1 6 2 7 0 5")


def small_links(n_max=3, with_self_energy=True):
    for n in range(1, n_max + 1):
        yield from (
            e.diagram
            for e in enumerate_diagrams(n, "link", no_self_energy=not with_self_energy)
        )


def small_tangles(n_max=3):
    for n in range(1, n_max + 1):
        yield from (e.diagram for e in enumerate_diagrams(n, "tangle"))


class TestRunningExample:
    def test_faces(self):
        assert cycles(EXAMPLE.sigma) == ((0, 3, 6), (1, 4, 2), (5, 7))
        assert EXAMPLE.tau == (4, 3, 6, 1, 7, 2, 5, 0)

    def test_shape(self):
        assert genus(EXAMPLE) == 0
        assert component_count(EXAMPLE) == 1
        assert is_connected(EXAMPLE)
        assert not has_self_energy(EXAMPLE)
        assert symmetry_order(EXAMPLE) == 2

    def test_single_strand_covers_all_edges(self):
        (comp,) = strand_components(EXAMPLE)
        assert sorted(e for e, _ in comp) == list(range(8))

    def test_code_round_trip(self):
        assert LinkDiagram.from_code(EXAMPLE.to_code()) == EXAMPLE


class TestOneCrossing:
    """Both single-crossing diagrams are planar one-strand curls."""

    @pytest.mark.parametrize("sigma", [(1, 0), (0, 1)])
    def test_curl(self, sigma):
        d = LinkDiagram(1, sigma)
        assert genus(d) == 0
        assert component_count(d) == 1
        assert symmetry_order(d) == 2


def test_validation_errors():
    with pytest.raises(ValueError):
        LinkDiagram(0, ())
    with pytest.raises(ValueError):
        LinkDiagram(2, (1, 0))  # wrong size
    with pytest.raises(ValueError):
        LinkDiagram(1, (0, 0))  # not a permutation
    with pytest.raises(ValueError):
        TangleDiagram(1, (1, 0))  # no real crossing
    with pytest.raises(ValueError):
        transform(EXAMPLE, "rotate")


def test_structural_checks_are_exceptions(monkeypatch):
    """They hold under ``python -O`` too.  No valid input breaks them, so
    each is provoked by corrupting what it checks."""
    with monkeypatch.context() as m:
        m.setattr("vtangle.diagrams.cycle_count", lambda p: 0)
        with pytest.raises(RuntimeError, match="odd Euler count"):
            genus(LinkDiagram(1, (1, 0)))
        with pytest.raises(RuntimeError, match="out of range"):
            genus(EXAMPLE)


def check_under_pairing(sigma):
    """tau and rho~ against their definitions sigma o rho and sigma o tau^-1."""
    d = LinkDiagram(len(sigma) // 2, tuple(sigma))
    assert d.tau == compose(d.sigma, rho_perm(d.size))
    rt = compose(d.sigma, inverse(d.tau))
    assert rt == d.rho_tilde == conjugate(d.sigma, rho_perm(d.size))
    assert is_involution(rt) and is_fixed_point_free(rt)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_under_pairing_is_a_conjugate_of_rho_exhaustively(n):
    """rho~ = sigma o tau^-1 = sigma rho sigma^-1 for every sigma, so it is a
    fixed-point-free involution and the constructor need not check it."""
    for sigma in itertools.permutations(range(2 * n)):
        check_under_pairing(sigma)


@given(st.integers(1, 8).flatmap(lambda n: st.permutations(range(2 * n))))
def test_under_pairing_is_a_conjugate_of_rho_sampled(sigma):
    check_under_pairing(sigma)


def test_strand_senses_alternate():
    for d in itertools.chain(small_links(), [EXAMPLE]):
        for comp in strand_components(d):
            senses = [s for _, s in comp]
            assert all(a != b for a, b in zip(senses, senses[1:]))
            assert len(comp) % 2 == 0


def test_edges_partition_into_strands():
    """The strand walk against a second route: rho o rho~ runs along a
    strand two edges at a time, so each strand is two of its cycles."""
    for d in small_links():
        ids = OrientedDiagram(d, (0,) * component_count(d)).components
        assert len(ids) == d.size
        assert len(set(ids)) == component_count(d)
        assert 2 * component_count(d) == cycle_count(compose(rho_perm(d.size), d.rho_tilde))


def test_relabelling_preserves_shape():
    gs = list(relabelling_elements(6))
    for d in small_links(3):
        if d.n != 3:
            continue
        for g in gs[::17]:
            r = relabel(d, g)
            assert genus(r) == genus(d)
            assert component_count(r) == component_count(d)
            assert is_connected(r) == is_connected(d)
            assert has_self_energy(r) == has_self_energy(d)
            assert canonical_form(r) == canonical_form(d)


def test_relabel_rejects_block_breakers():
    with pytest.raises(ValueError):
        relabel(EXAMPLE, (1, 2, 3, 0, 4, 5, 6, 7))


# -- edge cuts ---------------------------------------------------------------


def edge_cuts(sigma):
    """Every edge cut of the crossing graph, found from its vertex sets: the
    edges with one end in ``X`` and one outside, for every ``X``."""
    ends = [(e // 2, sigma.index(e) // 2) for e in range(len(sigma))]
    return {
        sum(1 << e for e, (a, b) in enumerate(ends) if (x >> a & 1) != (x >> b & 1))
        for x in range(1 << (len(sigma) // 2))
    }


def check_cut_labels(sigma):
    labels = cut_labels(sigma)
    cuts = edge_cuts(sigma)
    for edges in range(1 << len(sigma)):
        xor = 0
        for e, lab in enumerate(labels):
            if edges >> e & 1:
                xor ^= lab
        assert (xor == 0) == (edges in cuts), (sigma, bin(edges))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cut_labels_xor_to_zero_exactly_on_edge_cuts(n):
    """Every edge set of every sigma in S_2n, disconnected ones included."""
    for sigma in itertools.permutations(range(2 * n)):
        check_cut_labels(sigma)


def test_cut_labels_on_four_crossing_links():
    for e in enumerate_diagrams(4, "link", no_self_energy=False):
        check_cut_labels(e.diagram.sigma)


@pytest.mark.parametrize(
    "mode,n", [("link", n) for n in range(1, 7)] + [("tangle", n) for n in range(1, 5)]
)
def test_self_energy_labels_match_the_pairwise_oracle(mode, n):
    entries = list(enumerate_diagrams(n, mode, no_self_energy=False))
    flagged = [has_self_energy(e.diagram) for e in entries]
    assert flagged == [self_energy_pairwise(e.diagram) for e in entries]
    if n > 1:
        assert any(flagged) and not all(flagged)


class TestTransforms:
    def test_mirror_is_an_involution_on_the_nose(self):
        for d in small_links():
            assert transform(transform(d, "mirror"), "mirror") == d

    def test_transforms_are_involutions_up_to_relabelling(self):
        for d in small_links():
            for kind in ("over_under", "flip"):
                back = transform(transform(d, kind), kind)
                assert canonical_form(back) == canonical_form(d)

    def test_flip_factors_through_the_other_two(self):
        for d in small_links():
            a = canonical_form(transform(d, "mirror"))
            b = canonical_form(transform(transform(d, "over_under"), "flip"))
            c = canonical_form(transform(transform(d, "flip"), "over_under"))
            assert a == b == c

    def test_transforms_preserve_shape(self):
        for d in small_links():
            for kind in ("mirror", "over_under", "flip"):
                t = transform(d, kind)
                assert genus(t) == genus(d)
                assert component_count(t) == component_count(d)

    def test_mirror_keeps_tangles_marked(self):
        for t in small_tangles(2):
            m = transform(t, "mirror")
            assert isinstance(m, TangleDiagram)
            assert canonical_form(transform(m, "mirror")) == canonical_form(t)


class TestOrientations:
    def test_count_is_two_per_strand(self):
        for d in small_links():
            assert len(orientations(d)) == 2 ** component_count(d)

    def test_bits_validated(self):
        with pytest.raises(ValueError):
            OrientedDiagram(EXAMPLE, (0, 1))
        with pytest.raises(ValueError):
            OrientedDiagram(EXAMPLE, (2,))

    def test_senses_flip_with_the_component_bit(self):
        for d in small_links(2):
            ods = orientations(d)
            base = ods[0].senses
            for od in ods[1:]:
                assert od.components == ods[0].components
                for e in range(d.size):
                    expected = -base[e] if od.bits[od.components[e]] else base[e]
                    assert od.senses[e] == expected

    def test_frames_read_the_crossings(self):
        """Per crossing: the over pair is its block and the under pair its
        sigma-image.  Senses run from the under end to the over end, so
        the under pair reads -1 in and +1 out, and the over pair +1 in and
        -1 out.  The sign is the oracle's."""
        for d in itertools.chain(small_links(3), small_tangles(2), [EXAMPLE]):
            for od in orientations(d):
                assert len(od.frames) == d.n
                for v, (b_in, b_out, a_in, a_out, eps) in enumerate(od.frames):
                    assert {b_in, b_out} == {2 * v, 2 * v + 1}
                    assert {a_in, a_out} == {d.sigma[2 * v], d.sigma[2 * v + 1]}
                    assert (od.senses[b_in], od.senses[b_out]) == (1, -1)
                    assert (od.senses[a_in], od.senses[a_out]) == (-1, 1)
                    assert eps == vertex_sign(od, v)

    def test_derived_fields_stay_out_of_equality(self):
        od = OrientedDiagram(EXAMPLE, (1,))
        assert od == OrientedDiagram(EXAMPLE, (1,)) != OrientedDiagram(EXAMPLE, (0,))
        assert hash(od) == hash(OrientedDiagram(EXAMPLE, (1,)))
        assert repr(od) == f"OrientedDiagram(diagram={EXAMPLE!r}, bits=(1,))"

    def test_crossing_signs_survive_global_reversal(self):
        for d in small_links(2):
            ods = orientations(d)
            for od in ods:
                rev = OrientedDiagram(d, tuple(1 - b for b in od.bits))
                for v in range(d.n):
                    assert vertex_sign(od, v) == vertex_sign(rev, v)
                    assert vertex_sign(od, v) in (-1, 1)


class TestTangles:
    def test_legs_are_distinct_for_spread_out_tangles(self):
        for t in small_tangles():
            legs = t.legs
            assert legs[0] == t.size - 2 and legs[2] == t.size - 1

    def test_type_is_one_of_three(self):
        seen = set()
        for t in small_tangles():
            k = tangle_type(t)
            assert k in (1, 2, 3)
            seen.add(k)
        assert seen == {1, 2, 3}

    def test_closures_shed_the_marked_crossing(self):
        for t in small_tangles():
            for pattern in ("numerator", "denominator"):
                closed, circles = close_tangle_counted(t, pattern)
                assert closed.n == real_crossings(t)
                assert 0 <= circles <= 1
                assert close_tangle_counted(t, pattern)[0] == closed

    def test_closure_patterns_differ_somewhere(self):
        diffs = sum(
            close_tangle_counted(t, "numerator")[0] != close_tangle_counted(t, "denominator")[0]
            for t in small_tangles(2)
        )
        assert diffs > 0

    def test_closure_rejects_the_sealed_crossing(self):
        sealed = TangleDiagram(2, (1, 0, 3, 2))
        with pytest.raises(ValueError):
            close_tangle_counted(sealed, "numerator")
        with pytest.raises(ValueError):
            close_tangle_counted(sealed, "bogus")


@given(st.integers(1, 4), st.data())
def test_random_sigma_always_builds(n, data):
    sigma = tuple(data.draw(st.permutations(range(2 * n))))
    d = LinkDiagram(n, sigma)
    h = genus(d)
    c = component_count(d)
    assert 1 <= c <= d.n
    if is_connected(d):
        assert 0 <= h <= d.n // 2
