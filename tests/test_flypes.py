"""Flype surgery and the equivalence classes it generates.

The class counts per genus are the strongest check available: the frozen
rows below come from the same tables as the census counts, and they are
sensitive to both missed sites (too many classes) and phantom sites (too
few).  The surgery itself is pinned by round trips through the image site
and by the quantities a flype can never change.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from vtangle.census import (
    canonical_diagram,
    canonical_form,
    enumerate_diagrams,
    relabelling_elements,
)
from vtangle.diagrams import (
    LinkDiagram,
    TangleDiagram,
    component_count,
    genus,
    has_self_energy,
    is_connected,
    tangle_type,
)
from vtangle.flypes import FlypeSite, apply_flype, flype_classes, flype_sites, image_site
from vtangle.perms import conjugate
from vtangle.series import gamma_genus, gamma_tilde

# Flype classes of tangles per (crossings, genus); same provenance as the
# census rows.  No such table exists for links.
TANGLE_CLASS_ROWS = {
    1: {0: 1, 1: 1},
    2: {0: 2, 1: 8},
    3: {0: 4, 1: 57, 2: 17},
    4: {0: 10, 1: 384, 2: 456},
}


def codes(census, order, mode, h):
    """Codes of the shared census pass at one genus."""
    return [e.code for e in census(order, mode)[h]]


# -- sites -------------------------------------------------------------------


def test_single_crossing_diagrams_have_no_sites():
    assert flype_sites(LinkDiagram(1, (1, 0))) == []
    for e in enumerate_diagrams(1, "tangle"):
        assert flype_sites(e.diagram) == []


def test_sites_never_use_the_marked_crossing():
    for e in enumerate_diagrams(3, "tangle"):
        top = e.diagram.n - 1
        for site in flype_sites(e.diagram):
            assert site.alpha // 2 != top
            assert top not in {x // 2 for x in site.subtangle}


def test_site_lists_are_equivariant_under_relabelling():
    d = canonical_diagram(LinkDiagram.from_code("4:3 4 1 6 2 7 0 5"))
    reference = flype_sites(d)
    for g in itertools.islice(relabelling_elements(d.size), 0, 384, 7):
        moved = {
            FlypeSite(
                s.color,
                g[s.alpha],
                g[s.beta],
                g[s.gamma],
                g[s.delta],
                frozenset(g[x] for x in s.subtangle),
            )
            for s in reference
        }
        assert set(flype_sites(LinkDiagram(d.n, conjugate(g, d.sigma)))) == moved


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_tangle_site_lists_are_equivariant(data):
    pool = [e.diagram for e in enumerate_diagrams(2, "tangle", no_self_energy=False)]
    d = data.draw(st.sampled_from(pool))
    g = data.draw(st.sampled_from(list(relabelling_elements(d.size, fix_marked=True))))
    moved = {
        FlypeSite(
            s.color,
            g[s.alpha],
            g[s.beta],
            g[s.gamma],
            g[s.delta],
            frozenset(g[x] for x in s.subtangle),
        )
        for s in flype_sites(d)
    }
    assert set(flype_sites(TangleDiagram(d.n, conjugate(g, d.sigma)))) == moved


# -- surgery -----------------------------------------------------------------


def diagrams_with_sites(order, mode):
    for e in enumerate_diagrams(order, mode):
        d = e.diagram
        for site in flype_sites(d):
            yield d, site


@pytest.mark.parametrize("order,mode", [(3, "link"), (4, "link"), (2, "tangle"), (3, "tangle")])
def test_flype_preserves_the_invariant_quantities(order, mode):
    for d, site in diagrams_with_sites(order, mode):
        image = apply_flype(d, site)
        assert type(image) is type(d)
        assert image.n == d.n
        assert genus(image) == genus(d)
        assert component_count(image) == component_count(d)
        assert is_connected(image)
        assert not has_self_energy(image)
        if mode == "tangle":
            assert tangle_type(image) == tangle_type(d)


@pytest.mark.parametrize("order,mode", [(3, "link"), (3, "tangle")])
def test_image_site_undoes_the_move(order, mode):
    for d, site in diagrams_with_sites(order, mode):
        image = apply_flype(d, site)
        back = image_site(d, site)
        assert back in flype_sites(image)
        assert canonical_form(apply_flype(image, back)) == canonical_form(d)


@pytest.mark.parametrize("order,mode", [(3, "link"), (4, "link"), (2, "tangle"), (3, "tangle")])
def test_carrying_across_a_bare_crossing_changes_nothing(order, mode):
    """A flype whose flipped piece is a single crossing only trades the two
    crossings' places, so the canonical form must not move."""
    seen = 0
    for d, site in diagrams_with_sites(order, mode):
        if site.subtangle:
            continue
        seen += 1
        assert canonical_form(apply_flype(d, site)) == canonical_form(d)
    assert seen > 0


def test_apply_flype_rejects_doctored_sites():
    d = canonical_diagram(LinkDiagram.from_code("4:3 4 1 6 2 7 0 5"))
    sites = flype_sites(d)
    assert sites
    site = sites[0]
    with pytest.raises(ValueError):
        apply_flype(d, FlypeSite("chartreuse", site.alpha, site.beta,
                                 site.gamma, site.delta, site.subtangle))
    with pytest.raises(ValueError):
        apply_flype(d, FlypeSite(site.color, d.size + 2, site.beta,
                                 site.gamma, site.delta, site.subtangle))
    with pytest.raises(ValueError):
        apply_flype(d, FlypeSite(site.color, site.alpha, site.beta ^ 1,
                                 site.gamma, site.delta, site.subtangle))
    with pytest.raises(ValueError):
        apply_flype(d, FlypeSite(site.color, site.alpha, site.beta, site.gamma,
                                 site.delta, site.subtangle | {site.delta}))


# -- classes -----------------------------------------------------------------


@pytest.mark.parametrize("order", sorted(TANGLE_CLASS_ROWS))
def test_tangle_class_counts(order, census):
    got = {
        h: len(flype_classes(codes(census, order, "tangle", h)))
        for h in TANGLE_CLASS_ROWS[order]
    }
    assert got == TANGLE_CLASS_ROWS[order]


@pytest.mark.slow
def test_tangle_five_census_and_classes_match_the_series(census):
    """Both routes at five crossings, genus by genus: the census against
    Gamma_h[5] = 91 / 2940 / 7728 / 1259 and its flype classes against
    Gamma~_h[5] = 29 / 2512 / 7626 / 1259."""
    by_genus = census(5, "tangle")
    assert sorted(by_genus) == [0, 1, 2, 3]
    for h, row in by_genus.items():
        assert len(row) == gamma_genus(h)[5]
        assert len(flype_classes(codes(census, 5, "tangle", h))) == gamma_tilde(h)[5]


def test_every_member_of_a_merged_class_reaches_the_others(census):
    merged = [c for c in flype_classes(codes(census, 3, "tangle", 0)) if c.size > 1]
    assert merged
    for cls in merged:
        for code in cls.members:
            d = TangleDiagram.from_code(code)
            images = {
                canonical_diagram(apply_flype(d, s)).to_code() for s in flype_sites(d)
            }
            assert images & (cls.members - {code})


def test_classes_partition_their_input(census):
    planar = codes(census, 3, "tangle", 0)
    classes = flype_classes(planar)
    members = [m for c in classes for m in c.members]
    assert sorted(members) == sorted(planar)
    assert all(c.representative == min(c.members) for c in classes)
    assert [c.representative for c in classes] == sorted(c.representative for c in classes)


def test_classes_reject_mixed_input():
    with pytest.raises(ValueError):
        flype_classes(["2:2 3 0 1", "T2:2 3 0 1"])
    with pytest.raises(ValueError):
        flype_classes(["2:2 3 0 1", "3:3 4 1 6 2 7 0 5"])
