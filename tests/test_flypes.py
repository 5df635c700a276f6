"""Flype surgery and the equivalence classes it generates.

The class counts per genus are the strongest check available: the frozen
rows below come from the same tables as the census counts, and they are
sensitive to both missed sites (too many classes) and phantom sites (too
few).  The surgery itself is pinned by round trips through the image site
and by the quantities a flype can never change.
"""

import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from vtangle.census import _rooted, canonical_form, enumerate_diagrams
from vtangle.diagrams import (
    LinkDiagram,
    TangleDiagram,
    component_count,
    genus,
    cut_labels,
    has_self_energy,
    is_connected,
    tangle_type,
)
from vtangle.flypes import (
    COLORS,
    FlypeSite,
    _closed_genus,
    _subtangle,
    apply_flype,
    flype_classes,
    flype_sites,
)
from vtangle.perms import conjugate, cycles, inverse
from vtangle.series import gamma_genus, gamma_tilde

from oracles import canonical_diagram, flype_classes_every_site, image_site, relabelling_elements

# Flype classes of tangles per (crossings, genus); same provenance as the
# census rows.
TANGLE_CLASS_ROWS = {
    1: {0: 1, 1: 1},
    2: {0: 2, 1: 8},
    3: {0: 4, 1: 57, 2: 17},
    4: {0: 10, 1: 384, 2: 456},
}

# Flype classes of self-energy-free links per (crossings, genus), counted
# by this closure and by the per-diagram closure before it.  No series row
# gives them yet.
LINK_CLASS_ROWS = {
    1: {0: 2},
    2: {0: 1, 1: 1},
    3: {0: 2, 1: 4},
    4: {0: 3, 1: 14, 2: 3},
    5: {0: 6, 1: 54, 2: 54},
    6: {0: 13, 1: 255, 2: 669, 3: 111},
    7: {0: 28, 1: 1150, 2: 7186, 3: 4498},
}


def codes(census, order, mode, h):
    """Codes of the shared census pass at one genus."""
    return [e.code for e in census(order, mode)[h]]


# -- sites -------------------------------------------------------------------


def test_single_crossing_diagrams_have_no_sites():
    assert flype_sites(LinkDiagram(1, (1, 0))) == []
    for e in enumerate_diagrams(1, "tangle"):
        assert flype_sites(e.diagram) == []


def touches_marked(d, alpha, mu, sub):
    """Whether a frame moves a tangle's marked crossing: the crossing of
    ``alpha`` or of ``mu``, or one at either end of a piece edge, is the
    marked one.  Always False on a link."""
    if not isinstance(d, TangleDiagram):
        return False
    s_inv = inverse(d.sigma)
    ends = {alpha // 2, mu // 2} | {x // 2 for x in sub} | {s_inv[x] // 2 for x in sub}
    return d.n - 1 in ends


def site_touches_marked(d, site):
    mu = d.tau[site.alpha] if site.color == "white" else d.sigma[site.alpha]
    return touches_marked(d, site.alpha, mu, site.subtangle)


def test_sites_never_use_the_marked_crossing(census):
    """A tangle's sites are exactly its link's sites that leave the marked
    crossing alone, in the link's order, for tangles n <= 4."""
    dropped = 0
    for order in range(1, 5):
        for row in census(order, "tangle").values():
            for e in row:
                d = e.diagram
                sites = flype_sites(d)
                assert not any(site_touches_marked(d, site) for site in sites)
                link_sites = flype_sites(LinkDiagram(d.n, d.sigma))
                assert sites == [s for s in link_sites if not site_touches_marked(d, s)]
                dropped += len(link_sites) - len(sites)
    assert dropped > 0


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


def face_frames(d, color):
    """Every ``(alpha, mu, nu, gamma, delta)`` frame of one color that meets
    the face conditions of :func:`flype_sites`, whatever its cut."""
    s, t = (d.sigma, d.tau) if color == "white" else (d.tau, d.sigma)
    t_cycle = {e: cyc for cyc in cycles(t) for e in cyc}
    s_cycle = {e: cyc for cyc in cycles(s) for e in cyc}
    for alpha in range(d.size):
        beta, mu, nu = s[alpha], t[alpha], alpha ^ 1
        if len({alpha, beta, mu, nu}) < 4:
            continue
        for delta in t_cycle[alpha]:
            for gamma in t_cycle[beta]:
                if len({alpha, beta, mu, nu, gamma, delta}) == 6 and s_cycle[gamma] == s_cycle[delta]:
                    yield alpha, mu, nu, gamma, delta


def frame_subtangle(d, s, t, s_inv, alpha, mu, nu, gamma, delta):
    """The piece ``_subtangle`` cuts out, or None when the cut fails or the
    frame moves a tangle's marked crossing."""
    sub = _subtangle(d, s, t, s_inv, alpha, mu, nu, gamma, delta)
    if sub is None or touches_marked(d, alpha, mu, sub):
        return None
    return sub


@pytest.mark.parametrize(
    "order,mode", [(n, "link") for n in range(3, 6)] + [(n, "tangle") for n in range(2, 5)]
)
def test_cut_label_prefilter_never_drops_a_site(census, order, mode):
    """Every frame the breadth-first search accepts has four labels that
    XOR to 0, so skipping the others before the search loses nothing."""
    accepted = 0
    for row in census(order, mode).values():
        for e in row:
            d = e.diagram
            lab = cut_labels(d.sigma)
            for color in COLORS:
                s, t = (d.sigma, d.tau) if color == "white" else (d.tau, d.sigma)
                s_inv = inverse(s)
                for alpha, mu, nu, gamma, delta in face_frames(d, color):
                    if frame_subtangle(d, s, t, s_inv, alpha, mu, nu, gamma, delta) is not None:
                        accepted += 1
                        assert lab[mu] ^ lab[nu] ^ lab[gamma] ^ lab[delta] == 0
    assert accepted > 0


# sha256 of repr((code, color, alpha, beta, gamma, delta, sorted subtangle))
# over flype_sites of the self-energy-free census stream, taken from the
# search that ran the breadth-first search on every face-admissible frame;
# links n = 6 from the cut-label search that scanned whole face pairs,
# before the face index.
SITE_DIGESTS = {
    ("link", 3): "04884276608c5283a32cd7afa9ec7c4408ffe788aa760740d2ee193e96aa919d",
    ("link", 4): "ea82e00c6171ff354b33dadc3f113bdec7b01db4c4e3635d62f38f7578d60e47",
    ("link", 5): "731850eb748c1e2e7c61004a74bf8f43da8508172cbb4db7f7ce7801c4f76a8e",
    ("link", 6): "7645d9cf397632b44ac32fd8e5d8cd9fbff33565593ad8d871b21f8cd6b1802c",
    ("tangle", 2): "37f3e15d604b0fdaa28047ef62973c554a5be8afe77649b1b8718063d97a6056",
    ("tangle", 3): "a6b3d74dc20d4349260678c1cb7f2d60d8988df33a8fb8554181b43b76775a48",
    ("tangle", 4): "d0fc2bc03642aa00fd6a837f7e30eb19dc0f7149ad5985c1a19e9d33cc7fa6e9",
}


@pytest.mark.parametrize("mode,order", sorted(SITE_DIGESTS))
def test_flype_site_lists_digest(census, mode, order):
    entries = sorted((e for row in census(order, mode).values() for e in row),
                     key=lambda e: e.diagram.sigma)
    h = hashlib.sha256()
    for e in entries:
        for s in flype_sites(e.diagram):
            key = (e.code, s.color, s.alpha, s.beta, s.gamma, s.delta, tuple(sorted(s.subtangle)))
            h.update(repr(key).encode())
    assert h.hexdigest() == SITE_DIGESTS[mode, order]


def sites_by_brute_force(d):
    """``flype_sites`` from every face-admissible frame, with no cut-label
    test and no face index: the breadth-first search, the root rule and
    the closed genus decide alone."""
    sites = []
    for color in COLORS:
        s, t = (d.sigma, d.tau) if color == "white" else (d.tau, d.sigma)
        s_inv = inverse(s)
        for alpha, mu, nu, gamma, delta in face_frames(d, color):
            sub = frame_subtangle(d, s, t, s_inv, alpha, mu, nu, gamma, delta)
            if sub is not None and _closed_genus(s, t, sub, gamma, delta, mu, nu) == 0:
                sites.append(FlypeSite(color, alpha, s[alpha], gamma, delta, frozenset(sub)))
    return sites


# Flype sites on the census streams *with* self-energies, all genera.
SELF_ENERGY_SITE_ROWS = {
    ("link", 1): 0, ("link", 2): 0, ("link", 3): 16, ("link", 4): 166,
    ("tangle", 1): 0, ("tangle", 2): 8, ("tangle", 3): 352,
}


@pytest.mark.parametrize("mode,order", sorted(SELF_ENERGY_SITE_ROWS))
def test_site_search_equals_brute_force_with_self_energies(mode, order):
    """With self-energies two edges can share a cut label, so one face can
    hold several edges under one index key; the search must still list
    every site a brute-force scan finds, in the same order."""
    found = 0
    for e in enumerate_diagrams(order, mode, no_self_energy=False):
        sites = flype_sites(e.diagram)
        assert sites == sites_by_brute_force(e.diagram)
        found += len(sites)
    assert found == SELF_ENERGY_SITE_ROWS[mode, order]


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


@pytest.mark.parametrize(
    "order,mode",
    [(n, "link") for n in range(3, 7)]
    + [(n, "tangle") for n in range(2, 5)]
    + [pytest.param(5, "tangle", marks=pytest.mark.slow)],
)
def test_carrying_across_a_bare_crossing_changes_nothing(census, order, mode):
    """A flype whose flipped piece is a single crossing only trades the two
    crossings' places, so the image canonicalises to the diagram itself:
    the premise on which ``flype_classes`` skips these sites."""
    seen = 0
    for row in census(order, mode).values():
        for e in row:
            for site in flype_sites(e.diagram):
                if site.subtangle:
                    continue
                seen += 1
                assert canonical_diagram(apply_flype(e.diagram, site)).to_code() == e.code
    assert seen > 0


# Face-admissible frames whose cut separates a subtangle, all of which are
# flype sites here: self-energy-free census streams, every genus.
FRAME_ROWS = {("link", 3): 16, ("link", 4): 78, ("tangle", 2): 8, ("tangle", 3): 96}


@pytest.mark.parametrize("mode,order", sorted(FRAME_ROWS))
def test_apply_flype_accepts_exactly_the_listed_sites(census, mode, order):
    """The site search is the only admissibility test: of all face-admissible
    frames, ``apply_flype`` takes those ``flype_sites`` lists and raises
    ``ValueError`` on every other one.  A frame whose cut fails is offered
    with an empty subtangle, as if the piece were a bare crossing."""
    accepted = rejected = 0
    for row in census(order, mode).values():
        for e in row:
            d = e.diagram
            listed = set(flype_sites(d))
            for color in COLORS:
                s, t = (d.sigma, d.tau) if color == "white" else (d.tau, d.sigma)
                s_inv = inverse(s)
                for alpha, mu, nu, gamma, delta in face_frames(d, color):
                    sub = frame_subtangle(d, s, t, s_inv, alpha, mu, nu, gamma, delta)
                    site = FlypeSite(color, alpha, s[alpha], gamma, delta, frozenset(sub or ()))
                    if site in listed:
                        accepted += 1
                        assert apply_flype(d, site).n == d.n
                    else:
                        rejected += 1
                        with pytest.raises(ValueError):
                            apply_flype(d, site)
    assert accepted == FRAME_ROWS[mode, order]
    assert accepted == sum(len(flype_sites(e.diagram))
                           for row in census(order, mode).values() for e in row)
    assert rejected > 0


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


@pytest.mark.parametrize(
    "order", [n for n in LINK_CLASS_ROWS if n <= 6] + [pytest.param(7, marks=pytest.mark.slow)]
)
def test_link_class_counts(order, census):
    got = {h: len(flype_classes(codes(census, order, "link", h))) for h in census(order, "link")}
    assert got == LINK_CLASS_ROWS[order]


@pytest.mark.slow
def test_tangle_five_census_and_classes_match_the_series(census):
    """Both routes at five crossings, genus by genus: the census against
    Gamma_h[5] = 91 / 2940 / 7728 / 1259 and its flype classes against
    Gamma~_h[5] = 29 / 2512 / 7626 / 1259."""
    by_genus = census(5, "tangle")
    assert sorted(by_genus) == [0, 1, 2, 3]
    for h, row in by_genus.items():
        assert len(row) == gamma_genus(h, 5)[5]
        assert len(flype_classes(codes(census, 5, "tangle", h))) == gamma_tilde(h, 5)[5]


@pytest.mark.slow
def test_tangle_six_classes_match_the_series(census):
    """Flype classes at six crossings, genus by genus, against
    Gamma~_h[6] = 98 / 16158 / 100910 / 62072."""
    by_genus = census(6, "tangle")
    assert sorted(by_genus) == [0, 1, 2, 3]
    got = [len(flype_classes(codes(census, 6, "tangle", h))) for h in range(4)]
    assert got == [gamma_tilde(h, 6)[6] for h in range(4)] == [98, 16158, 100910, 62072]


@pytest.mark.slow
def test_rooted_eight_crossing_links_meet_the_series(census):
    """Both routes one crossing past the paper's tables.  The self-energy-free
    links with eight crossings, rooted (16/symmetry each), against
    Gamma_h[7] = 1938 / 140479 / 1240518 / 1740158 / 200589, and the flype
    classes of the tangles rooted on them against Gamma~_0[7] = 372 and
    Gamma~_1[7] = 102837.  Genus 2 and 3 are left out: their 1.24 M and
    1.74 M tangle codes would hold several hundred MB at once."""
    links = census(8, "link")
    rooted = {h: sum(16 // e.symmetry for e in row) for h, row in links.items()}
    assert rooted == {h: gamma_genus(h, 7)[7] for h in range(5)}
    assert [rooted[h] for h in range(5)] == [1938, 140479, 1240518, 1740158, 200589]
    classes = []
    for h in (0, 1):
        tangles = [e.code for e in _rooted(links[h])]
        assert len(tangles) == rooted[h]
        classes.append(len(flype_classes(tangles)))
    assert classes == [gamma_tilde(h, 7)[7] for h in (0, 1)] == [372, 102837]


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


@pytest.mark.parametrize(
    "order,mode",
    [(n, "link") for n in range(1, 7)]
    + [(n, "tangle") for n in range(1, 5)]
    + [pytest.param(5, "tangle", marks=pytest.mark.slow)],
)
def test_classes_equal_the_closure_over_every_site(census, order, mode):
    """The union-find over links, which skips the bare-crossing sites,
    gives the classes and representatives of the per-diagram closure over
    every site, genus by genus."""
    for h in sorted(census(order, mode)):
        slice_ = codes(census, order, mode, h)
        assert flype_classes(slice_) == flype_classes_every_site(slice_)


@pytest.mark.parametrize("order,mode,h", [(3, "tangle", 0), (5, "link", 1)])
def test_classes_reject_input_not_closed_under_flypes(census, order, mode, h):
    """Dropping any member of a merged class leaves a flype that leads out
    of the input, and the closure raises instead of growing past it."""
    slice_ = codes(census, order, mode, h)
    merged = [c for c in flype_classes(slice_) if c.size > 1]
    assert merged
    for cls in merged:
        for code in cls.members:
            with pytest.raises(ValueError):
                flype_classes([c for c in slice_ if c != code])


def test_classes_reject_mixed_input():
    with pytest.raises(ValueError):
        flype_classes(["2:2 3 0 1", "T2:2 3 0 1"])
    with pytest.raises(ValueError):
        flype_classes(["2:2 3 0 1", "3:3 4 1 6 2 7 0 5"])
