"""Canonical forms and isomorph-free generation, checked against brute force.

The brute-force oracle minimises over the whole relabelling group, which is
feasible up to a handful of crossings; the rooted-code implementation must
induce the same equivalence classes.  Counting identities pin completeness:
summing |group| / |stabilizer| over the classes must reproduce the raw
number of connected permutations.
"""

import functools
import hashlib
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import vtangle
from vtangle.census import (
    _advance,
    _leaves,
    _sigma_is_connected,
    canonical_form,
    count_table,
    enumerate_diagrams,
)
from vtangle.codes import canonical_code_stats, resume, root_state, rooted_code
from vtangle.diagrams import LinkDiagram, TangleDiagram, genus, is_connected
from vtangle.perms import conjugate
from vtangle.series import F_genus, gamma_genus

from oracles import (
    _same_cycle_pairs,
    canonical_diagram,
    canonical_form_bruteforce,
    canonical_multiplicity,
    is_canonical,
    orbit_size,
    relabelling_elements,
    tied_roots,
    trace,
    weighted_link_counts,
)

# Counts per (crossings, genus) lifted from the acceptance tables; the
# census must reproduce them exactly.
TANGLE_ROWS = {
    1: {0: 1, 1: 1},
    2: {0: 2, 1: 8},
    3: {0: 6, 1: 59, 2: 17},
    4: {0: 22, 1: 420, 2: 456},
}

WEIGHTED_LINKS = {
    (1, 0): Fraction(1),
    (2, 0): Fraction(9, 4),
    (2, 1): Fraction(1, 4),
    (3, 0): Fraction(9),
    (3, 1): Fraction(10, 3),
    (4, 0): Fraction(189, 4),
    (4, 1): Fraction(307, 8),
    (4, 2): Fraction(21, 8),
}


def all_link_diagrams(n):
    for sigma in itertools.permutations(range(2 * n)):
        yield LinkDiagram(n, sigma)


# -- canonical forms ---------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_link_canonical_form_matches_bruteforce_exhaustively(n):
    for d in all_link_diagrams(n):
        assert canonical_form(d) == canonical_form_bruteforce(d)


@settings(max_examples=60)
@given(st.permutations(range(8)))
def test_link_canonical_form_matches_bruteforce_sampled(sigma):
    d = LinkDiagram(4, tuple(sigma))
    assert canonical_form(d) == canonical_form_bruteforce(d)


def test_tangle_canonical_form_partitions_like_bruteforce():
    """The marked canonical code may differ from the group-wide minimum on
    diagrams whose scan stalls, but it must cut the same classes."""
    by_oracle = {}
    for sigma in itertools.permutations(range(6)):
        t = TangleDiagram(3, sigma)
        if not is_connected(t):
            continue
        by_oracle.setdefault(canonical_form_bruteforce(t), set()).add(canonical_form(t))
    assert all(len(codes) == 1 for codes in by_oracle.values())
    seen = [next(iter(codes)) for codes in by_oracle.values()]
    assert len(seen) == len(set(seen))


def test_canonical_form_is_idempotent():
    for sigma in itertools.permutations(range(6)):
        t = TangleDiagram(3, sigma)
        if is_connected(t):
            c = canonical_diagram(t)
            assert isinstance(c, TangleDiagram)
            assert canonical_form(c) == c.sigma
    d = canonical_diagram(LinkDiagram.from_code("4:3 4 1 6 2 7 0 5"))
    assert canonical_form(d) == d.sigma


def test_rooted_code_fixes_its_own_trace():
    d = LinkDiagram.from_code("4:3 4 1 6 2 7 0 5")
    c = canonical_form(d)
    assert rooted_code(c, 0) == c
    assert is_canonical(c)


def test_rooted_code_rejects_marked_roots():
    """Roots in the marked block, and roots that are no label at all."""
    for sigma, root, marked in (((2, 3, 0, 1), 2, True), ((1, 0), -1, False), ((1, 0), 2, False)):
        with pytest.raises(ValueError):
            rooted_code(sigma, root, marked=marked)


def unpruned_stats(sigma, marked):
    """Minimum over every root's full code, and how many roots attain it."""
    codes = [rooted_code(sigma, r, marked) for r in range(len(sigma) - 2 * marked)]
    best = min(codes)
    return best, codes.count(best)


@functools.cache
def root_normal_perms(mode, n):
    """Permutations of ``S_2n`` that equal their own root-0 code, canonical
    or not; found without the census generator.  Exhaustive up to size 8,
    beyond that the root-0 codes of a seeded sample."""
    marked = mode == "tangle"
    size = 2 * n + 2 * marked
    if size <= 8:
        perms = itertools.permutations(range(size))
    else:
        rng = random.Random(size)
        perms = (rooted_code(tuple(rng.sample(range(size), size)), 0, marked) for _ in range(2000))
    return {sigma for sigma in perms if rooted_code(sigma, 0, marked) == sigma}


@pytest.mark.parametrize(
    "mode,n", [("link", n) for n in range(1, 6)] + [("tangle", n) for n in range(1, 4)]
)
def test_early_exit_canonicity_matches_the_full_minimum(mode, n):
    """On root-0-normal permutations, canonical or not, the early-exit test
    agrees with the minimum over all roots, and on canonical ones it
    returns that minimum's multiplicity."""
    marked = mode == "tangle"
    inputs = root_normal_perms(mode, n)
    canonical = 0
    for sigma in inputs:
        best, hits = unpruned_stats(sigma, marked)
        assert canonical_multiplicity(sigma, marked) == (hits if best == sigma else 0)
        canonical += best == sigma
    assert canonical > 0
    # Both permutations of a one-crossing link are canonical.
    assert canonical < len(inputs) or (mode, n) == ("link", 1)


def library_partial_trace(partial, r):
    """The slots a root state reads of ``partial`` before it waits or runs
    dry, and whether it ran dry."""
    code = [-1] * len(partial)
    st = resume(partial, code, root_state(len(partial), r))
    return tuple(v for v in code if v >= 0), st[0] < 0 and st[1] < len(partial)


def prefix(sigma, k):
    """``sigma`` with every slot from ``k`` on unassigned."""
    return list(sigma[:k]) + [-1] * (len(sigma) - k)


def check_partial_traces(sigma, k):
    """Each root's partial trace on ``prefix(sigma, k)`` stays within the
    assigned prefix and is a prefix of the root's full code on ``sigma``;
    the library's resumable scan reads the same slots up to where it runs
    dry."""
    partial = prefix(sigma, k)
    for r in range(len(sigma)):
        full = tuple(trace(partial, r, False))
        assert all(v >= 0 for v in partial[: len(full)])
        assert full == rooted_code(sigma, r)[: len(full)]
        got, dry = library_partial_trace(partial, r)
        assert got == full[: len(got)]
        assert dry or got == full


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((4, 6, 8, 10)), st.data())
def test_partial_trace_is_a_prefix_of_the_full_code(size, data):
    sigma = tuple(data.draw(st.permutations(range(size))))
    check_partial_traces(sigma, data.draw(st.integers(0, size)))


@pytest.mark.parametrize("mode,size", [("link", 4), ("link", 6)])
def test_partial_trace_is_a_prefix_of_the_full_code_exhaustively(mode, size):
    for sigma in itertools.permutations(range(size)):
        for k in range(size + 1):
            check_partial_traces(sigma, k)


def resumed_tied_roots(partial):
    """Feed the assigned slots of ``partial`` to the census's ``_advance``
    one at a time, starting from every root; the roots still tied, or None
    when the branch is cut."""
    n2 = len(partial)
    sigma = [-1] * n2
    tied = [root_state(n2, r) for r in range(n2)]
    for q in range(n2):
        if partial[q] >= 0:
            sigma[q] = partial[q]
            tied = _advance(sigma, tied)
            if tied is None:
                return None
    return sorted(st[4][0] for st in tied)  # occ[0] is the root


def has_no_connected_completion(partial):
    """Some root's scan of ``partial`` runs dry, and its discovered labels
    form a closed proper subset: images assigned and inside the set."""
    n2 = len(partial)
    for r in range(n2):
        st = resume(partial, [-1] * n2, root_state(n2, r))
        if st[0] < 0 and st[1] < n2:
            found = {u for u in range(n2) if st[3][u] >= 0}
            return len(found) < n2 and all(partial[u] in found for u in found)
    return False


@pytest.mark.parametrize("mode,n", [("link", n) for n in range(1, 5)])
def test_resumed_root_states_match_tied_roots_on_every_prefix(mode, n):
    """Resuming root states slot by slot gives what re-reading every trace
    from slot 0 gives, on every prefix of every root-normal permutation.
    The only difference allowed is a cut where a root's scan runs dry: the
    prefix then has no connected completion, and the census drops it."""
    dry_cuts = 0
    for sigma in root_normal_perms(mode, n):
        for k in range(len(sigma) + 1):
            partial = prefix(sigma, k)
            got = resumed_tied_roots(partial)
            want = tied_roots(partial, range(len(sigma)))
            if got is None and want is not None:
                assert has_no_connected_completion(partial), partial
                assert not _sigma_is_connected(sigma)
                dry_cuts += 1
            else:
                assert got == want, partial
    assert dry_cuts > 0 or n == 1


@functools.cache
def relabellings(size, marked):
    return list(relabelling_elements(size, fix_marked=marked))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(mode, n) for mode in ("link", "tangle") for n in (1, 2, 3, 4)]),
       st.data())
def test_pruned_canonical_code_stats_on_relabelled_census_diagrams(census, case, data):
    """A relabelled census diagram gets back its census code and symmetry;
    for links that code is also the minimum over the whole group."""
    mode, n = case
    e = data.draw(st.sampled_from([e for row in census(n, mode).values() for e in row]))
    g = data.draw(st.sampled_from(relabellings(e.diagram.size, mode == "tangle")))
    d = type(e.diagram)(e.diagram.n, conjugate(g, e.diagram.sigma))
    code, hits = canonical_code_stats(d.sigma, marked=mode == "tangle")
    assert (code, hits) == (e.diagram.sigma, e.symmetry)
    assert (code, hits) == unpruned_stats(d.sigma, mode == "tangle")
    if mode == "link":
        assert code == canonical_form_bruteforce(d)


# -- generation --------------------------------------------------------------


def bruteforce_canonical_leaves(mode, n):
    """``(sigma, symmetry)`` for every connected permutation of ``S_2n`` that
    is its own canonical code."""
    marked = mode == "tangle"
    make = (lambda s: TangleDiagram(n + 1, s)) if marked else (lambda s: LinkDiagram(n, s))
    out = set()
    for sigma in itertools.permutations(range(2 * n + 2 * marked)):
        if is_connected(make(sigma)):
            code, hits = canonical_code_stats(sigma, marked)
            if code == sigma:
                out.add((sigma, hits))
    return out


def leaves(mode, n):
    """``(sigma, symmetry)`` from the link search, or of the tangles rooted
    on its links (self-energies kept, like the brute force)."""
    if mode == "link":
        return _leaves(2 * n)
    return ((e.diagram.sigma, e.symmetry) for e in enumerate_diagrams(n, mode, no_self_energy=False))


@pytest.mark.parametrize(
    "mode,n", [("link", n) for n in range(1, 5)] + [("tangle", n) for n in range(1, 4)]
)
def test_pruned_generator_yields_exactly_the_canonical_leaves(mode, n):
    """For tangles the leaves are the marked canonical codes of the rooted
    links: every connected tangle once, each with a trivial stabilizer."""
    got = list(leaves(mode, n))
    assert len(got) == len(set(got))
    assert set(got) == bruteforce_canonical_leaves(mode, n)


@pytest.mark.parametrize(
    "mode,n", [("link", n) for n in range(1, 6)] + [("tangle", n) for n in range(1, 5)]
)
def test_tied_roots_give_the_symmetry_order(mode, n):
    for sigma, mult in leaves(mode, n):
        assert mult == canonical_multiplicity(sigma, mode == "tangle")


# sha256 of repr((code, genus, components, symmetry)) over the stream of
# enumerate_diagrams(n, mode, no_self_energy=...), taken from the census
# that tested every finished leaf for canonicity.
STREAM_DIGESTS = {
    ("link", 1, True): "8265d38858cc38d055d1ba22d80b642e6d02769cd795c9d4619f0493d0d998b0",
    ("link", 1, False): "8265d38858cc38d055d1ba22d80b642e6d02769cd795c9d4619f0493d0d998b0",
    ("link", 2, True): "f2599ebbf14d7222551c24b4b4092911e7d5c7861fcf7184679ac41a3da76efe",
    ("link", 2, False): "faaa8b6ea2d3d33494ca7a9f8cfd166879ff3d71f7e09c907f48ba3f6902b0f8",
    ("link", 3, True): "9ffd4972f77ef79e97b8665cc177921bb416d65c8f82547465f2e97210c2705d",
    ("link", 3, False): "c26b9b8fe709641216beea7c73a364ec29a1ac57bc82f1a830efe6eacc40197d",
    ("link", 4, True): "a7006c66c00aef100ed95781dc073cb7b527d3a4a23daeb7fa0dc82dc773b3f8",
    ("link", 4, False): "df633d8aea4366ea000ae5e68527484042a3893d4c2a9ad040b65420e72cab4d",
    ("link", 5, True): "6e7afc57a39022f3fb1045cf5ebaa5985bdfab584907c03ba69f033c6332243d",
    ("link", 5, False): "b4150b2a290dbfc121db3a932a3a058c498ef44f02ac6c9360d5fb1a60be07b0",
    ("link", 6, True): "a23be75459fa34db000b828b13527891b7dc9731b3a8d70de1fe98c0e690b56b",
    ("link", 6, False): "620d0ec164c5d2d8229969ef9051a729dbdc24e53c8e972ccc4839c4b91914eb",
    ("tangle", 1, True): "e88cc7fb48fb50323959ebcffa721b1c5013687bf1360135fb263944fd57dafc",
    ("tangle", 1, False): "dffb6191351126bee2d6b7be3ad4f09a40cb6c493eb6ba2924e31576dd5645c1",
    ("tangle", 2, True): "46d1b7a653def97fbd03d55ce0fea9d7d714c07e9b51256d0d842dd53efb812e",
    ("tangle", 2, False): "32f489ff4ba6db5dcf95b8f9524f1a49ba77137e904f597300126f116bc5592b",
    ("tangle", 3, True): "56e5afdec9280e63c023e4a68361e69368159b5c1a42316c77875f56b9703315",
    ("tangle", 3, False): "bf87b18699d9bc198bb0f0aa0690ce557bc8a446d08272941e47cfe968aa5e82",
    ("tangle", 4, True): "469a3be096eac3675858163880fc967332d97c38c3a783c78720e804a04e0163",
    ("tangle", 4, False): "a84eb996ccc889910b640640a0ae6eeaeb62d2bba37d32510a897f7ee2661a9f",
}


@pytest.mark.parametrize("mode,n,no_self_energy", sorted(STREAM_DIGESTS))
def test_census_stream_digest(census, mode, n, no_self_energy):
    if no_self_energy:
        # The stream is sorted by sigma, so the genus-grouped fixture
        # gives it back in order.
        entries = sorted((e for row in census(n, mode).values() for e in row),
                         key=lambda e: e.diagram.sigma)
    else:
        entries = enumerate_diagrams(n, mode, no_self_energy=False)
    h = hashlib.sha256()
    for e in entries:
        h.update(repr((e.code, e.genus, e.components, e.symmetry)).encode())
    assert h.hexdigest() == STREAM_DIGESTS[mode, n, no_self_energy]


def test_stream_is_sorted_and_duplicate_free():
    """Sorted by the ``sigma`` tuple; the code strings need not be (from
    twelve labels on, the string "11" sorts before "9")."""
    for mode, n in (("link", 3), ("link", 4), ("link", 6), ("tangle", 3), ("tangle", 4)):
        codes = [e.diagram.sigma for e in enumerate_diagrams(n, mode, no_self_energy=False)]
        assert codes == sorted(codes)
        assert len(codes) == len(set(codes))
        assert all(is_canonical(c, marked=mode == "tangle") for c in codes)


def test_entries_are_selfconsistent():
    from vtangle.diagrams import component_count, symmetry_order

    for e in enumerate_diagrams(3, "link", no_self_energy=False):
        assert e.genus == genus(e.diagram)
        assert e.components == component_count(e.diagram)
        assert e.symmetry == symmetry_order(e.diagram)
        assert e.diagram.size % e.symmetry == 0


def test_connected_tangles_have_symmetry_order_one():
    """``symmetry_order`` returns 1 for a tangle without a scan; the marked
    scan agrees on every census tangle with at most four real crossings,
    self-energies included."""
    from vtangle.diagrams import symmetry_order

    seen = 0
    for n in range(1, 5):
        for e in enumerate_diagrams(n, "tangle", no_self_energy=False):
            t = e.diagram
            assert symmetry_order(t) == canonical_code_stats(t.sigma, marked=True)[1] == 1, e.code
            seen += 1
    assert seen == 8952


def test_bad_arguments():
    with pytest.raises(ValueError):
        list(enumerate_diagrams(2, "knot"))
    with pytest.raises(ValueError):
        list(enumerate_diagrams(0, "link"))
    with pytest.raises(TypeError):
        list(enumerate_diagrams(2, "link", False))


def test_generator_invariants_raise(monkeypatch):
    """The leaf checks are exceptions, so they also hold under ``python -O``."""
    monkeypatch.setattr("vtangle.census._sigma_is_connected", lambda sigma: False)
    with pytest.raises(RuntimeError):
        list(enumerate_diagrams(2, "link"))


def test_raw_connectivity_guard_matches_is_connected():
    """The crossing walk against the orbit of label 0 under sigma and tau."""
    for n in (1, 2, 3):
        for sigma in itertools.permutations(range(2 * n)):
            d = LinkDiagram(n, sigma)
            want = orbit_size(d.sigma, d.tau, d.size) == d.size
            assert _sigma_is_connected(sigma) == is_connected(d) == want


def test_symmetric_tangle_leaf_raises(monkeypatch):
    """A link leaf that claims a symmetry its root orbits do not show makes
    the tangle route raise: orbits times symmetry must cover every label."""
    leaves = lambda n2: ((sigma, 2) for sigma, _ in _leaves(n2))
    monkeypatch.setattr("vtangle.census._leaves", leaves)
    with pytest.raises(RuntimeError, match="root orbits"):
        list(enumerate_diagrams(2, "tangle"))


def test_canonical_code_needs_an_admissible_root():
    with pytest.raises(ValueError):
        canonical_code_stats((1, 0), marked=True)


NO_NUMPY_PROBE = """
import sys
from vtangle.census import enumerate_diagrams
from vtangle.diagrams import LinkDiagram
from vtangle.groups import builtin_groups
from vtangle.invariants import link_record

list(enumerate_diagrams(2, "tangle"))
link_record(LinkDiagram.from_code("2:3 2 1 0"), tuple(builtin_groups().values()))
assert "numpy" not in sys.modules, "the library imported numpy"
"""


def test_census_never_imports_numpy():
    src = os.path.dirname(os.path.dirname(vtangle.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_PROBE],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


# -- completeness ------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_weighted_classes_account_for_every_connected_link_permutation(n):
    group = 1
    for k in range(1, n + 1):
        group *= 2 * k
    raw = sum(
        1
        for sigma in itertools.permutations(range(2 * n))
        if is_connected(LinkDiagram(n, sigma))
    )
    weights = sum(
        Fraction(1, e.symmetry)
        for e in enumerate_diagrams(n, "link", no_self_energy=False)
    )
    assert weights * group == raw


@pytest.mark.parametrize("total", [2, 3, 4])
def test_trivial_stabilizers_account_for_every_connected_tangle_permutation(total):
    group = 1
    for k in range(1, total):
        group *= 2 * k
    raw = sum(
        1
        for sigma in itertools.permutations(range(2 * total))
        if is_connected(TangleDiagram(total, sigma))
    )
    classes = sum(1 for _ in enumerate_diagrams(total - 1, "tangle", no_self_energy=False))
    assert classes * group == raw


def test_symmetry_orders_match_explicit_stabilizers():
    for e in enumerate_diagrams(3, "link", no_self_energy=False):
        stab = sum(
            1
            for g in relabelling_elements(6)
            if conjugate(g, e.diagram.sigma) == e.diagram.sigma
        )
        assert stab == e.symmetry


# -- frozen tables -----------------------------------------------------------


def genus_row(census, n):
    return {h: len(entries) for h, entries in census(n, "tangle").items()}


@pytest.mark.parametrize("n", sorted(TANGLE_ROWS))
def test_tangle_census_rows(n, census):
    assert genus_row(census, n) == TANGLE_ROWS[n]


def test_tangle_census_totals(census):
    assert [sum(genus_row(census, k).values()) for k in (1, 2, 3, 4)] == [2, 10, 82, 898]


@pytest.mark.slow
def test_tangle_six_census_matches_the_series(census):
    """The census at six crossings, genus by genus, against
    Gamma_h[6] = 408 / 20384 / 104762 / 62072."""
    by_genus = census(6, "tangle")
    assert sorted(by_genus) == [0, 1, 2, 3]
    for h, row in by_genus.items():
        assert len(row) == gamma_genus(h, 6)[6]


def test_count_table_matches_the_census():
    table = count_table(3, "tangle")
    assert [table.row(n) for n in (1, 2, 3)] == [TANGLE_ROWS[n] for n in (1, 2, 3)]
    assert table.total == 2 + 10 + 82


def test_weighted_link_table():
    assert weighted_link_counts(4) == WEIGHTED_LINKS


def test_weighted_links_equal_the_free_energies():
    """The two routes meet at the link level: the census weights through
    six crossings against the character-sum free energies, genus by genus."""
    weights = weighted_link_counts(6)
    assert set(weights) <= {(n, h) for n in range(1, 7) for h in range(4)}
    for h in range(4):
        f = F_genus(h, 6)
        for n in range(1, 7):
            assert weights.get((n, h), 0) == f[n], (n, h)


def rooted_link_counts(census, n):
    """Sum of 2n/symmetry over the self-energy-free links with n crossings,
    by genus: the links with a marked, oriented crossing."""
    return {
        h: sum(Fraction(2 * n, e.symmetry) for e in row)
        for h, row in census(n, "link").items()
    }


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_rooted_links_equal_the_gamma_rows(census, n):
    """Self-energy-free links with a rooted crossing are the tangles with
    n - 1 real crossings: Gamma_h[n - 1] at every genus."""
    rooted = rooted_link_counts(census, n)
    assert set(rooted) <= set(range(n // 2 + 1))
    for h in range(n // 2 + 1):
        assert rooted.get(h, 0) == gamma_genus(h, n - 1)[n - 1], h


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tangle_census_counts_the_rooted_links(census, n):
    """Rooting each link once per orbit of its labels gives 2(n + 1)/symmetry
    tangles: per genus, the tangles with n real crossings are the rooted
    links with n + 1 crossings."""
    tangles = {h: len(row) for h, row in census(n, "tangle").items()}
    assert tangles == rooted_link_counts(census, n + 1)


def test_planar_self_energy_shortcut():
    """On genus 0 a shared white and black face already forces a cut pair."""
    from vtangle.diagrams import has_self_energy

    for n in (1, 2, 3, 4):
        for e in enumerate_diagrams(n, "link", no_self_energy=False):
            if e.genus != 0:
                continue
            quick = any(True for _ in _same_cycle_pairs(e.diagram))
            assert quick == has_self_energy(e.diagram)
