"""Cayley-table validation and the shipped group constructions."""

import pytest
from hypothesis import given, settings, strategies as st

from vtangle.groups import FiniteGroup, builtin_groups

from oracles import dihedral, load_group_table, mul, save_group_table

# A Latin square with identity 0 that fails associativity: (1*1)*2 = 2
# but 1*(1*2) = 4.  The smallest such loop has five elements.
NONASSOCIATIVE = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_builtin_names_and_orders():
    gs = builtin_groups()
    assert {name: g.order for name, g in gs.items()} == {
        "S3": 6, "A4": 12, "A5": 60, "S4": 24, "A5xZ2": 120}


def test_identity_and_inverses():
    for g in builtin_groups().values():
        e = g.identity
        for a in range(g.order):
            assert mul(g, a, e) == mul(g, e, a) == a
            assert mul(g, a, g.inverse[a]) == e


def test_identity_need_not_be_element_zero():
    flipped = FiniteGroup("Z2-flipped", [[1, 0], [0, 1]])
    assert flipped.identity == 1
    assert flipped.inverse == (0, 1)


def test_rejects_non_latin_table():
    with pytest.raises(ValueError, match="not a permutation"):
        FiniteGroup("bad", [[0, 1], [1, 1]])


def test_rejects_nonassociative_loop():
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup("loop5", NONASSOCIATIVE)


def random_loop(rng, m):
    """A random Latin square of order ``m`` with identity 0, filled cell by
    cell with backtracking."""
    rows = [list(range(m))] + [[a] + [-1] * (m - 1) for a in range(1, m)]
    cells = [(a, b) for a in range(1, m) for b in range(1, m)]

    def fill(k):
        if k == len(cells):
            return True
        a, b = cells[k]
        options = [v for v in range(m) if v not in rows[a] and v not in (r[b] for r in rows)]
        rng.shuffle(options)
        for v in options:
            rows[a][b] = v
            if fill(k + 1):
                return True
        rows[a][b] = -1
        return False

    assert fill(0)
    return rows


def relabelled(rows, p):
    """The table of the same operation on the names ``p[a]``."""
    out = [[0] * len(rows) for _ in rows]
    for a, row in enumerate(rows):
        for b, c in enumerate(row):
            out[p[a]][p[b]] = p[c]
    return out


def associative_by_triples(rows):
    m = len(rows)
    return all(
        rows[rows[x][y]][z] == rows[x][rows[y][z]]
        for x in range(m) for y in range(m) for z in range(m)
    )


GROUPS_OF_ORDER = {
    5: [FiniteGroup.cyclic(5)],
    6: [FiniteGroup.cyclic(6), FiniteGroup.symmetric(3)],
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([5, 6]), st.booleans(), st.randoms(use_true_random=False))
def test_associativity_check_matches_the_triple_loop(m, from_group, rng):
    """Light's test over the greedy generators accepts exactly the loops
    that the check of every triple accepts.  Order 5 is the smallest with
    non-associative loops; the group tables are renamed at random so the
    identity is not always element 0."""
    if from_group:
        rows = [list(row) for row in rng.choice(GROUPS_OF_ORDER[m]).table]
    else:
        rows = random_loop(rng, m)
    names = list(range(m))
    rng.shuffle(names)
    rows = relabelled(rows, names)
    try:
        FiniteGroup("loop", rows)
        accepted = True
    except ValueError as err:
        assert "not associative" in str(err)
        accepted = False
    assert accepted == associative_by_triples(rows)


def test_rejects_out_of_range_entries():
    with pytest.raises(ValueError, match="0..order-1"):
        FiniteGroup("bad", [[0, 2], [2, 0]])


def test_rejects_ragged_table():
    with pytest.raises(ValueError):
        FiniteGroup("bad", [[0, 1], [1]])


def test_cyclic_commutes():
    z6 = FiniteGroup.cyclic(6)
    assert all(
        mul(z6, a, b) == mul(z6, b, a) for a in range(6) for b in range(6)
    )


def test_dihedral_order_and_noncommutativity():
    d4 = dihedral(4)
    assert d4.order == 8
    assert any(
        mul(d4, a, b) != mul(d4, b, a) for a in range(8) for b in range(8)
    )
    with pytest.raises(ValueError):
        dihedral(2)


def test_direct_product_order_and_axioms():
    prod = FiniteGroup.symmetric(3).direct_product(FiniteGroup.cyclic(4))
    assert prod.order == 24
    assert prod.name == "S3xZ4"


def test_from_permutations_requires_closure():
    with pytest.raises(ValueError, match="not closed"):
        FiniteGroup.from_permutations("bad", [(0, 1, 2), (1, 2, 0)])


def test_table_file_round_trip(tmp_path):
    g = builtin_groups()["A4"]
    path = tmp_path / "a4.grp"
    save_group_table(g, path)
    again = load_group_table(path)
    assert again == g
    assert again.name == "A4"


def test_table_file_comments_and_default_name(tmp_path):
    path = tmp_path / "klein.grp"
    path.write_text("# the Klein group\n0 1 2 3\n1 0 3 2\n2 3 0 1\n3 2 1 0\n")
    g = load_group_table(path)
    assert g.name == "klein"
    assert g.order == 4


def test_table_file_bad_tokens(tmp_path):
    path = tmp_path / "bad.grp"
    path.write_text("0 x\n1 0\n")
    with pytest.raises(ValueError, match="expected integers"):
        load_group_table(path)
    empty = tmp_path / "empty.grp"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError, match="no table rows"):
        load_group_table(empty)


def test_conjugation_orbits_by_the_whole_group_are_the_classes():
    """The class equation: with the whole group acting, the orbit sizes are
    the class sizes and sum to the order, and every stabiliser is the
    centraliser, of order |G| / orbit size."""
    want = {
        "S3": [1, 2, 3],
        "A4": [1, 3, 4, 4],
        "S4": [1, 3, 6, 6, 8],
        "A5": [1, 12, 12, 15, 20],
    }
    for name, g in builtin_groups().items():
        everything = frozenset(range(g.order))
        orbits = g.conjugation_orbits(everything)
        sizes = sorted(size for _, size, _ in orbits)
        if name in want:
            assert sizes == want[name], name
        assert sum(sizes) == g.order, name
        for x, size, fixing in orbits:
            assert fixing == {h for h in everything if mul(g, h, x) == mul(g, x, h)}
            assert size * len(fixing) == g.order, (name, x)
    assert len(builtin_groups()["A5xZ2"].conjugation_orbits(frozenset(range(120)))) == 10


def test_conjugation_orbits_by_a_subgroup():
    """Orbits under a centraliser partition the group, each headed by its
    least element, and obey orbit-stabiliser within the subgroup."""
    for g in builtin_groups().values():
        everything = frozenset(range(g.order))
        for _, _, sub in g.conjugation_orbits(everything):
            orbits = g.conjugation_orbits(sub)
            covered = []
            for x, size, fixing in orbits:
                orbit = {mul(g, mul(g, h, x), g.inverse[h]) for h in sub}
                assert min(orbit) == x and len(orbit) == size
                assert fixing <= sub and size * len(fixing) == len(sub)
                covered += orbit
            assert sorted(covered) == list(range(g.order)), g.name


def test_conjugation_orbits_are_kept_and_immutable():
    """The orbits of a subgroup are computed once and kept on the group,
    whichever collection names the subgroup, and no caller can change
    them for the next one."""
    g = FiniteGroup.symmetric(3)
    everything = frozenset(range(g.order))
    orbits = g.conjugation_orbits(everything)
    assert g.conjugation_orbits(list(range(g.order))) is orbits
    assert isinstance(orbits, tuple)
    assert all(isinstance(t, tuple) and isinstance(t[2], frozenset) for t in orbits)
    with pytest.raises(TypeError):
        orbits[0] = (0, 1, everything)
    with pytest.raises(AttributeError):
        orbits[0][2].add(0)
    sub = orbits[-1][2]
    assert g.conjugation_orbits(set(sub)) is g.conjugation_orbits(sub)
