"""Checks in the invariants module: exceptions, not ``assert``; the one
frontier state sum against the permutation sum and the loop walk in
``oracles``; pinned 2-cables; the morphism search against brute force and
pinned counts; and the symmetries the records must have."""

import functools
import hashlib
import itertools
import random

import pytest

from vtangle.census import enumerate_diagrams
from vtangle.diagrams import TangleDiagram, orientations
from vtangle.flypes import flype_classes
from vtangle.groups import FiniteGroup, builtin_groups
from vtangle.invariants import (
    _RotationDiagram,
    _state_sum,
    bracket,
    cable_rotation,
    cabled_jones,
    determinant_invariant,
    group_morphism_count,
    link_record,
)
from vtangle.laurent import MultiLaurentPoly

from oracles import (
    _loop_state_sum,
    bracket_by_permutations,
    determinant_by_every_cofactor,
    jones_span,
    morphism_count_bruteforce,
    dihedral,
    relabel,
    relabelling_elements,
    transform,
)


def test_jones_span_needs_exponents_agreeing_mod_4():
    assert jones_span(MultiLaurentPoly(("a",), {(-4,): 1, (4,): 1})) == 2
    with pytest.raises(ValueError):
        jones_span(MultiLaurentPoly(("a",), {(0,): 1, (2,): 1}))


def test_rotation_diagram_checks_its_wiring():
    """Only the library builds these, so a bad wiring is an internal error."""
    with pytest.raises(RuntimeError):
        _RotationDiagram(1, {})
    with pytest.raises(RuntimeError):
        _RotationDiagram(1, {(0, s): (0, s) for s in range(4)})


def test_bracket_engines_agree_on_every_small_link():
    """The frontier state sum and the 2^n permutation sum share no
    state-sum code; they must agree on all 1,004 link diagrams with at most
    five crossings and all 790 tangle diagrams with at most three,
    self-energies included."""
    for mode, n_max, total in (("link", 5, 1004), ("tangle", 3, 790)):
        seen = 0
        for n in range(1, n_max + 1):
            for e in enumerate_diagrams(n, mode, no_self_energy=False):
                assert bracket(e.diagram) == bracket_by_permutations(e.diagram), e.code
                seen += 1
        assert seen == total, mode


@pytest.mark.parametrize(
    "n, total",
    [(1, 2), (2, 5), (3, 20), (4, 107), pytest.param(5, 870, marks=pytest.mark.slow)],
)
def test_determinant_reads_one_column_of_cofactors(n, total):
    """The gcd over one column of cofactors equals the gcd over all of
    them on every link diagram with n crossings, self-energies included."""
    entries = list(enumerate_diagrams(n, "link", no_self_energy=False))
    assert len(entries) == total
    for e in entries:
        od = orientations(e.diagram)[0]
        assert determinant_invariant(od) == determinant_by_every_cofactor(od), e.code


def test_state_sum_matches_the_loop_walk_on_cables():
    """The 2-cable of every link diagram with at most three crossings,
    self-energies included: up to 18 cable crossings, 2^18 loop-walk states."""
    seen = 0
    for n in range(1, 4):
        for e in enumerate_diagrams(n, "link", no_self_energy=False):
            rd = cable_rotation(orientations(e.diagram)[0])
            assert _state_sum(rd) == _loop_state_sum(rd), e.code
            seen += 1
    assert seen == 27


# sha256 of str(cabled_jones(d)) for every self-energy-free link diagram with
# at most four crossings, taken from the loop walk before the frontier state
# sum replaced it.
CABLED_JONES_PINS = {
    "1:0 1": "e527906a9822394d9aea5b0c2da22d94b7f87222e633a929a2940af51f775ca1",
    "1:1 0": "e527906a9822394d9aea5b0c2da22d94b7f87222e633a929a2940af51f775ca1",
    "2:2 3 0 1": "a0cbc20c4239d2a23b45a6ba6f7ba7a669a78494ef72f83e9f84466f64a8c3ab",
    "2:2 3 1 0": "6a031b7c9efda479fb56da334fb949cdbc9bcdd594c802045fa098dbb5edcf85",
    "3:2 3 4 5 0 1": "778e4839a98143238842e1e60e0eaf81405832cf6b9326778ff2e49b4ebf8679",
    "3:2 3 4 5 1 0": "0076adaaddde663aaaf3cc12e30def332b565714ef08a7fcccf6c1d92f0ae979",
    "3:2 4 0 5 1 3": "e66bd4b8fd2a786464ffc3fd078458838b17a61870f58c4ac74fe91dfe788556",
    "3:2 4 0 5 3 1": "efbe7af1295f532d668125cbbb1d2d5b1c2ee6de2854161ee104fcd37f6ee1eb",
    "3:2 4 1 5 3 0": "92e7ec047ca56ef3cef166c309039bef76426da5ca6617c6e4ee8f894182e6dd",
    "3:2 4 5 1 3 0": "b7b64aeb50e4651479d0ed653d6511b72bdcc770e0c07afc353bf29deafaf761",
    "4:2 3 4 5 6 7 0 1": "2e9b39cf71b7712d1c82bf897239401117c53d552d14129d9c56ab1643143ec3",
    "4:2 3 4 5 6 7 1 0": "5909407441a7b4c7d005398b950e1de384b6990988ba7b50a99bfb1e030c0e06",
    "4:2 3 4 6 0 7 1 5": "755303e607900634ccf7921233ce744f089e60a9e2c59c9bb208492f58ff2a35",
    "4:2 3 4 6 0 7 5 1": "03b5fe79ca39e76169f327c15a848e30837b6dfc73b56d96e1fb346de6491f61",
    "4:2 3 4 6 1 7 0 5": "ffe97fd9c54224f23a9110a10760e1f65aeb0472a44f176cef9b42acccbd1fe3",
    "4:2 3 4 6 1 7 5 0": "19408b9854b4ef95f2d4484f1203e99137e45aa45987d0eb94d416cb9fed4a4d",
    "4:2 3 4 6 7 0 5 1": "71554250231e6ae26f5d0463a792db852a2f3ff8d57054157c5829db1a0480b3",
    "4:2 3 4 6 7 1 5 0": "bb207ef04787ea95488f77bca19e133eb10db8f606cdbf9f7ee2d05522ee5661",
    "4:2 4 0 6 1 7 3 5": "caaa1184fedfa090ba7b4761491e5b04bd472d48e8ca8bf712d0ede5c848a446",
    "4:2 4 0 6 1 7 5 3": "66b843a52eb342a48c4f0869e7b5099703c3f561e34baa2f13f7fe2dbbc264d6",
    "4:2 4 0 6 3 7 1 5": "1c9c6678d826f866084b7b5778a7ff7b10f5adebcb0f5585497f7408956f9fd7",
    "4:2 4 0 6 3 7 5 1": "0b8b38cece6435319a68379335f5a54ba10b928150055505b899e636d5041b51",
    "4:2 4 0 6 7 1 5 3": "e335aa4a6c663e8aa994e280e72b4570f7e0573e9926e9bd76d5afa44056ee4f",
    "4:2 4 0 6 7 3 5 1": "3d35e91fb6668f5c69c5ed3b909f42b1e871e0bc6814865330f506affb530d4d",
    "4:2 4 1 6 0 7 5 3": "d7bc5d34225bd6f10659b991f0a76aedb98e9689e2fbf91655dc63c5a42a8d16",
    "4:2 4 1 6 3 7 5 0": "465ff2928eead9c96011c97242acae65e687d9a2dd16a628a579344ae7089055",
    "4:2 4 1 6 7 0 5 3": "66b843a52eb342a48c4f0869e7b5099703c3f561e34baa2f13f7fe2dbbc264d6",
    "4:2 4 1 6 7 3 5 0": "9616e6680b49ceb5a5c5bf37ae25db8d9839d87fd70bcccdcb8a16721edd268f",
    "4:2 4 6 1 7 0 5 3": "c3a9adaee3303e0b7c19c8b244edc5a655ac6c2971be9442c9848227a5535058",
    "4:2 4 6 1 7 3 5 0": "578b82a70d1a4f31ac416cb2c11b5a3fb64b4d824bb2d8aeb7480b35f4b31d5c",
}


def test_cabled_jones_is_pinned_on_small_links():
    got = {
        e.code: hashlib.sha256(str(cabled_jones(orientations(e.diagram)[0])).encode()).hexdigest()
        for n in range(1, 5)
        for e in enumerate_diagrams(n, "link")
    }
    assert got == CABLED_JONES_PINS


# sha256 of repr((code, record)) over each set, in census order.
WHOLE_RECORD_PINS = {
    "links": "5a372e71831b2ed2ecca18fac020e5442061a85d7038361b9b73b566304c2084",
    "cabled_links": "f2a5f569c108034e96bb4aadb6c28f82fd0bfd27d29dfd4a146f0442c0d47012",
    "tangles": "4c454e39e70aeb412e29bc6e602d6dabec02c0fe1d5da77c6bdfe3d0b471f900",
}


@pytest.mark.parametrize(
    "name, mode, n_max, with_groups, cabled, total",
    [
        ("links", "link", 4, True, False, 30),
        ("cabled_links", "link", 4, False, True, 30),
        ("tangles", "tangle", 3, False, False, 94),
    ],
)
def test_whole_records_are_pinned(name, mode, n_max, with_groups, cabled, total):
    """Every field of every record, the symmetry order and the tangles'
    boundary data included, on the self-energy-free census: links with
    morphism counts into all five built-in groups, the same links with the
    2-cable, and tangles."""
    groups = tuple(builtin_groups().values()) if with_groups else ()
    digest = hashlib.sha256()
    seen = 0
    for n in range(1, n_max + 1):
        for e in enumerate_diagrams(n, mode):
            record = link_record(e.diagram, groups, include_cabled=cabled)
            digest.update(repr((e.code, record)).encode())
            seen += 1
    assert seen == total
    assert digest.hexdigest() == WHOLE_RECORD_PINS[name]


def test_link_record_walks_the_strands_once_per_orientation(monkeypatch):
    """One walk to count the strands, one per orientation, and one per
    group for the reversed orientation its morphism count is checked
    against: the 30 self-energy-free links with at most four crossings,
    with all five built-in groups and the 2-cable."""
    import vtangle.diagrams

    walks = 0
    walk = vtangle.diagrams.strand_components

    def counted(d):
        nonlocal walks
        walks += 1
        return walk(d)

    monkeypatch.setattr(vtangle.diagrams, "strand_components", counted)
    groups = tuple(builtin_groups().values())
    seen = 0
    for n in range(1, 5):
        for e in enumerate_diagrams(n, "link"):
            walks = 0
            link_record(e.diagram, groups, include_cabled=True)
            assert walks <= 1 + 2**e.components + len(groups), e.code
            seen += 1
    assert seen == 30


def _relabelled(group: FiniteGroup, rng: random.Random) -> FiniteGroup:
    """The same group with its elements renamed by a random bijection."""
    name = list(range(group.order))
    rng.shuffle(name)
    table = [[0] * group.order for _ in range(group.order)]
    for a in range(group.order):
        for b in range(group.order):
            table[name[a]][name[b]] = name[group.table[a][b]]
    return FiniteGroup(group.name, table)


def test_morphism_counts_match_the_bruteforce_oracle():
    """The orbit-weighted search against trying every labelling by
    permutation tuples, for S3, A4, S4, D4 and Z3, each as built and with
    its element labels shuffled: all 27 link diagrams with at most three
    crossings and all 84 tangle diagrams with at most two, self-energies
    included."""
    rng = random.Random(20030319)
    square = [tuple((i + r) % 4 for i in range(4)) for r in range(4)]
    square += [tuple((r - i) % 4 for i in range(4)) for r in range(4)]
    cases = (
        (FiniteGroup.symmetric(3), list(itertools.permutations(range(3)))),
        (
            FiniteGroup.alternating(4),
            [
                p
                for p in itertools.permutations(range(4))
                if sum(p[i] > p[j] for i, j in itertools.combinations(range(4), 2)) % 2 == 0
            ],
        ),
        (FiniteGroup.symmetric(4), list(itertools.permutations(range(4)))),
        (dihedral(4), square),
        (FiniteGroup.cyclic(3), [(0, 1, 2), (1, 2, 0), (2, 0, 1)]),
    )
    diagrams = [
        e.diagram
        for mode, n_max in (("link", 3), ("tangle", 2))
        for n in range(1, n_max + 1)
        for e in enumerate_diagrams(n, mode, no_self_energy=False)
    ]
    assert len(diagrams) == 27 + 84
    for group, perms in cases:
        assert len(set(perms)) == group.order, group.name
        shuffled = _relabelled(group, rng)
        for d in diagrams:
            od = orientations(d)[0]
            want = morphism_count_bruteforce(od, perms)
            assert group_morphism_count(od, group) == want, (group.name, d)
            assert group_morphism_count(od, shuffled) == want, (group.name, d)


# sha256 of repr() of the sorted (code, group name, count) triples for every
# self-energy-free link diagram with at most four crossings and every
# built-in group, taken from the search that branched on every element
# before orbit branching replaced it.
MORPHISM_COUNTS_PIN = "1f9983d38b4437ae76e845036b0a05ff317a02f42d7a3d54eaebaca07537f6fd"


def test_morphism_counts_are_pinned_on_small_links():
    triples = sorted(
        (e.code, g.name, group_morphism_count(orientations(e.diagram)[0], g))
        for n in range(1, 5)
        for e in enumerate_diagrams(n, "link")
        for g in builtin_groups().values()
    )
    assert len(triples) == 30 * 5
    assert hashlib.sha256(repr(triples).encode()).hexdigest() == MORPHISM_COUNTS_PIN


# The same digest over the 118 self-energy-free link diagrams with five
# crossings, taken from the search that re-scored every free arc before
# each branch and swept every relation until nothing changed.
MORPHISM_COUNTS_FIVE_PIN = "bc0afbbd89539481930bb9574a654fbbd39c848e3e1c421bc99a7775864b56b4"


@pytest.mark.slow
def test_morphism_counts_are_pinned_on_five_crossing_links():
    triples = sorted(
        (e.code, g.name, group_morphism_count(orientations(e.diagram)[0], g))
        for e in enumerate_diagrams(5, "link")
        for g in builtin_groups().values()
    )
    assert len(triples) == 118 * 5
    assert hashlib.sha256(repr(triples).encode()).hexdigest() == MORPHISM_COUNTS_FIVE_PIN


def _invert_a(p: MultiLaurentPoly) -> MultiLaurentPoly:
    return MultiLaurentPoly(p.variables, {(-e,): c for (e,), c in p.terms.items()})


def test_bracket_under_the_discrete_transforms():
    """Mirror and over/under exchange send a to a^-1; the flip does both and
    leaves the bracket alone.  All 134 link diagrams with at most four
    crossings, self-energies included."""
    seen = 0
    for n in range(1, 5):
        for e in enumerate_diagrams(n, "link", no_self_energy=False):
            d = e.diagram
            value = bracket(d)
            assert bracket(transform(d, "mirror")) == _invert_a(value), e.code
            assert bracket(transform(d, "over_under")) == _invert_a(value), e.code
            assert bracket(transform(d, "flip")) == value, e.code
            seen += 1
    assert seen == 134


def _tangle_classes(census, n_max):
    for n in range(1, n_max + 1):
        for entries in census(n, "tangle").values():
            yield from flype_classes([e.code for e in entries])


@functools.cache
def _tangle_record(code: str):
    return link_record(TangleDiagram.from_code(code), include_cabled=True)


def _assert_keys_constant_on_classes(classes) -> tuple[int, int]:
    total = merged = 0
    for c in classes:
        keys = {_tangle_record(code).separation_key() for code in c.members}
        assert len(keys) == 1, c.representative
        total += 1
        merged += c.size > 1
    return total, merged


def test_separation_key_is_constant_on_tangle_flype_classes(census):
    """Flypes preserve every field of the key, the 2-cable included: the
    90 tangle classes with at most three crossings, 4 of them merged."""
    assert _assert_keys_constant_on_classes(_tangle_classes(census, 3)) == (90, 4)


@pytest.mark.slow
def test_separation_key_is_constant_on_tangle_four_classes(census):
    """The same over the 940 tangle classes with at most four crossings,
    40 of them merged."""
    assert _assert_keys_constant_on_classes(_tangle_classes(census, 4)) == (940, 40)


def test_link_record_is_invariant_under_relabelling(census):
    """Every self-energy-free diagram with at most three crossings: links
    against every fifth relabelling, with morphism counts into all five
    built-in groups; tangles, whose records cost more, against the one
    that reverses the free blocks and flips each of them."""
    groups = tuple(builtin_groups().values())
    for n in range(1, 4):
        for e in itertools.chain.from_iterable(census(n, "link").values()):
            d = e.diagram
            record = link_record(d, groups, include_cabled=True)
            for g in list(relabelling_elements(d.size))[1::5]:
                image = link_record(relabel(d, g), groups, include_cabled=True)
                assert image == record, (e.code, g)
        for e in itertools.chain.from_iterable(census(n, "tangle").values()):
            g = list(relabelling_elements(e.diagram.size, fix_marked=True))[-1]
            image = link_record(relabel(e.diagram, g), include_cabled=True)
            assert image == _tangle_record(e.code), e.code
