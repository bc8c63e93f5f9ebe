"""Group construction and axiom validation tests."""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading

import numpy as np
import pytest

from groupsym.groups import (
    FiniteGroup,
    GroupValidationError,
    closure,
    cyclic_group,
    generates,
    group_from_json,
    group_from_table,
    permutation_index,
    same_group,
    symmetric_group,
    transposition_index,
)

KLEIN_TABLE = [
    [0, 1, 2, 3],
    [1, 0, 3, 2],
    [2, 3, 0, 1],
    [3, 2, 1, 0],
]


def compose_perms(a, b):
    """Oracle: composition of permutation arrays, (a*b)[i] = a[b[i]]."""
    return tuple(a[b[i]] for i in range(len(b)))


def brute_force_axiom_check(table):
    """Oracle: verify all group axioms by exhaustive loops."""
    n = len(table)
    identity = None
    for a in range(n):
        if all(table[a][x] == x and table[x][a] == x for x in range(n)):
            identity = a
    assert identity is not None
    for a in range(n):
        assert any(
            table[a][b] == identity and table[b][a] == identity for b in range(n)
        )
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert table[table[a][b]][c] == table[a][table[b][c]]


# -- symmetric groups --------------------------------------------------------


def test_symmetric_group_orders():
    assert symmetric_group(1).order == 1
    assert symmetric_group(3).order == 6
    assert symmetric_group(4).order == 24


def test_symmetric_group_lexicographic_order():
    g = symmetric_group(3)
    expected = [
        (0, 1, 2),
        (0, 2, 1),
        (1, 0, 2),
        (1, 2, 0),
        (2, 0, 1),
        (2, 1, 0),
    ]
    assert [tuple(row) for row in g.perms] == expected
    assert g.identity == 0


def test_symmetric_group_composition_matches_oracle():
    g = symmetric_group(3)
    perms = [tuple(row) for row in g.perms]
    for a in range(g.order):
        for b in range(g.order):
            composed = compose_perms(perms[a], perms[b])
            assert perms[g.mul(a, b)] == composed


def test_transposition_product_is_three_cycle():
    # (0 1) * (1 2) composes to a 3-cycle.
    g = symmetric_group(3)
    t01 = transposition_index(g, 0, 1)
    t12 = transposition_index(g, 1, 2)
    product = g.mul(t01, t12)
    oracle = compose_perms((1, 0, 2), (0, 2, 1))
    assert product == permutation_index(g, oracle)
    assert oracle == (1, 2, 0)
    # order 3: cubes to identity, square does not
    sq = g.mul(product, product)
    assert sq != g.identity
    assert g.mul(sq, product) == g.identity


def test_symmetric_group_inverses():
    g = symmetric_group(4)
    for a in range(g.order):
        assert g.mul(a, g.inv(a)) == g.identity
        assert g.mul(g.inv(a), a) == g.identity


def test_symmetric_group_degree_bounds():
    with pytest.raises(ValueError):
        symmetric_group(0)
    with pytest.raises(ValueError):
        symmetric_group(9)


# -- cyclic groups -----------------------------------------------------------


def test_cyclic_group_trivial():
    g = cyclic_group(1)
    assert g.order == 1
    assert g.mul(0, 0) == 0


def test_cyclic_group_addition():
    g = cyclic_group(4)
    assert g.mul(3, 3) == 2
    assert g.mul(1, 3) == 0


def test_cyclic_group_inverses():
    g = cyclic_group(5)
    for a in range(5):
        assert g.inv(a) == (-a) % 5


def test_cyclic_group_rejects_nonpositive():
    with pytest.raises(ValueError):
        cyclic_group(0)


# -- explicit tables ---------------------------------------------------------


def test_group_from_table_z2():
    g = group_from_table([[0, 1], [1, 0]])
    assert g.identity == 0
    assert g.inv(1) == 1


def test_group_from_table_rejects_bad_row():
    with pytest.raises(GroupValidationError) as err:
        group_from_table([[0, 1], [1, 1]])
    assert err.value.axiom in ("latin-row", "latin-column", "inverse")
    assert err.value.witness


def test_group_from_table_rejects_missing_identity():
    # Latin square whose rows/columns never align into a two-sided identity.
    with pytest.raises(GroupValidationError) as err:
        group_from_table([[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    assert err.value.axiom == "identity"


def _steiner_loop_table():
    # Order-10 commutative loop from the affine plane over GF(3): elements
    # are e=0 plus the nine points (i,j); x*y is the third collinear point,
    # x*x = e.  Latin with two-sided inverses but not associative.
    def idx(i, j):
        return 1 + 3 * i + j

    n = 10
    table = [[0] * n for _ in range(n)]
    for k in range(n):
        table[0][k] = k
        table[k][0] = k
    for i1 in range(3):
        for j1 in range(3):
            for i2 in range(3):
                for j2 in range(3):
                    x, y = idx(i1, j1), idx(i2, j2)
                    if x == y:
                        table[x][y] = 0
                    else:
                        table[x][y] = idx((-i1 - i2) % 3, (-j1 - j2) % 3)
    return table


def test_group_from_table_rejects_nonassociative_loop():
    with pytest.raises(GroupValidationError) as err:
        group_from_table(_steiner_loop_table())
    assert err.value.axiom == "associativity"
    a, b, c = err.value.witness
    table = _steiner_loop_table()
    assert table[table[a][b]][c] != table[a][table[b][c]]


def test_group_from_table_rejects_nonsquare():
    with pytest.raises(GroupValidationError):
        group_from_table([[0, 1]])


def test_group_from_table_rejects_out_of_range():
    with pytest.raises(GroupValidationError) as err:
        group_from_table([[0, 1], [1, 7]])
    assert err.value.axiom == "range"


def test_group_from_table_order_cap():
    big = np.zeros((2000, 2000), dtype=int)
    with pytest.raises(ValueError, match="cap"):
        group_from_table(big)


def test_klein_table_accepted():
    g = group_from_table(KLEIN_TABLE, name="klein")
    assert g.order == 4
    assert [g.inv(a) for a in range(4)] == [0, 1, 2, 3]
    brute_force_axiom_check(KLEIN_TABLE)


# -- JSON loading ------------------------------------------------------------


def test_group_from_json_roundtrip(tmp_path):
    path = tmp_path / "klein.json"
    path.write_text(json.dumps({"order": 4, "table": KLEIN_TABLE}))
    g = group_from_json(path)
    assert g.order == 4
    assert g.identity == 0
    assert np.array_equal(g.table, np.array(KLEIN_TABLE))


def test_group_from_json_rejects_bad_payload(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"table": KLEIN_TABLE}))
    with pytest.raises(ValueError, match="order"):
        group_from_json(path)
    path.write_text(json.dumps({"order": 3, "table": KLEIN_TABLE}))
    with pytest.raises(ValueError, match="rows"):
        group_from_json(path)
    path.write_text(json.dumps({"order": 4, "table": KLEIN_TABLE, "extra": 1}))
    with pytest.raises(ValueError, match="unknown"):
        group_from_json(path)


# -- closure and generation --------------------------------------------------


def test_closure_of_even_residues():
    g = cyclic_group(6)
    assert closure(g, [2]) == frozenset({0, 2, 4})


def test_closure_of_generator_is_whole_group():
    g = cyclic_group(6)
    assert closure(g, [1]) == frozenset(range(6))


def test_closure_of_three_cycle_is_alternating_subgroup():
    g = symmetric_group(3)
    cyc = permutation_index(g, (1, 2, 0))
    sub = closure(g, [cyc])
    assert len(sub) == 3
    # oracle: the three even permutations
    evens = {permutation_index(g, p) for p in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]}
    assert sub == evens


def test_adjacent_transpositions_generate_symmetric_group():
    g = symmetric_group(3)
    t01 = transposition_index(g, 0, 1)
    t12 = transposition_index(g, 1, 2)
    assert generates(g, [t01, t12])


def test_single_transposition_does_not_generate():
    g = symmetric_group(3)
    assert not generates(g, [transposition_index(g, 0, 1)])


def test_identity_does_not_generate():
    g = symmetric_group(3)
    assert not generates(g, [g.identity])


def test_nongenerator_in_cyclic_group():
    g = cyclic_group(4)
    assert not generates(g, [2])


def test_generates_rejects_empty_set():
    with pytest.raises(ValueError):
        generates(cyclic_group(3), [])


def test_closure_rejects_out_of_range():
    with pytest.raises(ValueError):
        closure(cyclic_group(3), [5])


# -- axioms hold on constructed groups ----------------------------------------


@pytest.mark.parametrize(
    "group",
    [
        cyclic_group(2),
        cyclic_group(7),
        cyclic_group(24),
        symmetric_group(3),
        symmetric_group(4),
        group_from_table(KLEIN_TABLE),
    ],
    ids=["Z2", "Z7", "Z24", "S3", "S4", "klein"],
)
def test_axioms_exactly(group):
    table = group.table
    n = group.order
    # associativity, exhaustively, via an independent vectorized identity
    for a in range(n):
        assert np.array_equal(table[table[a], :], table[a][table])
    # identity
    assert np.array_equal(table[group.identity], np.arange(n))
    assert np.array_equal(table[:, group.identity], np.arange(n))
    # inverses form an involutive bijection
    inv = group.inverses
    assert sorted(inv.tolist()) == list(range(n))
    assert np.array_equal(inv[inv], np.arange(n))
    for a in range(n):
        assert table[a, inv[a]] == group.identity
    # left translations are bijections
    for a in range(n):
        assert sorted(table[a].tolist()) == list(range(n))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_closure_properties(m):
    g = symmetric_group(m)
    rng = np.random.default_rng(m)
    for _ in range(10):
        seed = rng.choice(g.order, size=rng.integers(1, 3), replace=False)
        sub = closure(g, seed.tolist())
        assert set(seed.tolist()) <= sub
        assert g.identity in sub
        # closed under products
        for a in sub:
            for b in sub:
                assert g.mul(a, b) in sub
        assert generates(g, seed.tolist()) == (len(sub) == g.order)


def test_same_group_by_table():
    assert same_group(symmetric_group(3), symmetric_group(3))
    assert not same_group(symmetric_group(3), cyclic_group(6))


def test_trusted_constructors_return_one_shared_instance():
    assert symmetric_group(4) is symmetric_group(4)
    assert cyclic_group(9) is cyclic_group(9)
    assert cyclic_group(6) is not cyclic_group(7)
    assert not symmetric_group(4).table.flags.writeable


def test_same_group_compares_tables_of_distinct_instances():
    s3 = symmetric_group(3)
    copy = group_from_table(s3.table)
    assert copy is not s3
    assert same_group(copy, s3)
    assert not same_group(group_from_table(cyclic_group(6).table), s3)


def test_element_names():
    g = group_from_table(KLEIN_TABLE, element_names=["I", "X", "Y", "Z"])
    assert g.element_name(1) == "X"
    s3 = symmetric_group(3)
    assert s3.element_name(0) == "(0, 1, 2)"


# -- permutation-backed symmetric groups --------------------------------------


def dense_symmetric_oracle(m):
    """Oracle: S_m's perms, dense Cayley table and inverses, built row by row up front."""
    perms = np.array(list(itertools.permutations(range(m))), dtype=np.int64)
    radix = m ** np.arange(m - 1, -1, -1, dtype=np.int64)
    keys = perms @ radix
    table = np.empty((len(perms), len(perms)), dtype=np.int32)
    for a in range(len(perms)):
        table[a] = np.searchsorted(keys, perms[a][perms] @ radix)
    inverses = np.searchsorted(keys, np.argsort(perms, axis=1) @ radix)
    return perms, table, inverses


def fresh_symmetric(m):
    """A non-memoized permutation-backed S_m, so no other test has read its table."""
    perms = np.array(list(itertools.permutations(range(m))), dtype=np.int64)
    return FiniteGroup(None, name=f"S{m}", perms=perms, validate=False)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_permutation_backed_group_agrees_with_dense_construction(m):
    perms, table, inverses = dense_symmetric_oracle(m)
    g = fresh_symmetric(m)
    assert g.permutation_backed
    assert g.identity == 0
    assert np.array_equal(g.perms, perms)
    assert np.array_equal(g.inverses, inverses)
    rng = np.random.default_rng(m)
    elems = rng.integers(0, g.order, size=min(40, 3 * g.order))
    assert np.array_equal(g.rows(elems), table[elems])
    assert np.array_equal(g.rows(elems[::-1]), table[elems[::-1]])  # served from the cache
    pairs = rng.integers(0, g.order, size=(min(500, g.order**2), 2))
    assert [g.mul(a, b) for a, b in pairs] == [int(table[a, b]) for a, b in pairs]
    assert g._table is None  # rows and products never built the dense table
    assert np.array_equal(g.table, table)
    assert not g.table.flags.writeable
    assert np.array_equal(g.rows(elems), table[elems])  # now gathered from the table
    assert np.array_equal(symmetric_group(m).table, table)


def fresh_alternating(m):
    """A permutation-backed A_m: the even permutations of range(m), in lexicographic order."""
    perms = [
        p
        for p in itertools.permutations(range(m))
        if sum(p[i] > p[j] for i in range(m) for j in range(i + 1, m)) % 2 == 0
    ]
    return FiniteGroup(None, name=f"A{m}", perms=np.array(perms, dtype=np.int64), validate=False)


@pytest.mark.parametrize(
    "make",
    [functools.partial(fresh_symmetric, m) for m in range(1, 7)]
    + [functools.partial(fresh_alternating, m) for m in (3, 4)],
    ids=[f"S{m}" for m in range(1, 7)] + ["A3", "A4"],
)
def test_composed_table_equals_the_ranked_rows(make):
    g = make()
    ranked = np.array([g._rank_row(a) for a in range(g.order)], dtype=np.int32).reshape(g.order, -1)
    elems = np.arange(g.order)[::-1]
    assert np.array_equal(g.rows(elems), ranked[elems])
    assert g._table is None  # serving every row still built no table
    assert np.array_equal(g.table, ranked)
    assert g.table.dtype == np.int32 and not g.table.flags.writeable


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_permutation_index_ranks_by_radix_key_as_the_dict_does(m):
    perms, table, inverses = dense_symmetric_oracle(m)
    backed = fresh_symmetric(m)
    # a table-backed group carrying the same perms keeps the dict lookup
    tabled = FiniteGroup(table, perms=perms, identity=0, inverses=inverses, validate=False)
    assert not tabled.permutation_backed
    ranked = [permutation_index(backed, p) for p in perms]
    assert ranked == [permutation_index(tabled, tuple(p)) for p in perms]
    assert ranked == list(range(backed.order))
    assert backed._perm_lookup is None and tabled._perm_lookup is not None
    assert backed._table is None


@pytest.mark.parametrize(
    "perm",
    [(0, 0, 1), (0, 1), (0, 1, 2, 3), (1, 2, 3), (-1, 0, 1), ((0, 1, 2),), (0.5, 1, 2)],
)
def test_permutation_index_rejects_non_permutations(perm):
    s3 = symmetric_group(3)
    for group in (fresh_symmetric(3), FiniteGroup(s3.table, perms=s3.perms)):
        with pytest.raises(ValueError, match="not a permutation"):
            permutation_index(group, perm)


def test_permutation_index_rejects_a_permutation_outside_a_subgroup():
    # the alternating group A3 as a permutation-backed group of its own
    a3 = FiniteGroup(None, perms=np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]]), validate=False)
    assert [permutation_index(a3, p) for p in a3.perms] == [0, 1, 2]
    a3_table = FiniteGroup(a3.table, perms=a3.perms)
    for odd in [(0, 2, 1), (1, 0, 2), (2, 1, 0)]:
        for group in (a3, a3_table):
            with pytest.raises(ValueError, match="not a permutation of this group"):
                permutation_index(group, odd)


def test_rows_of_a_table_backed_group_gather_its_table():
    for g in (cyclic_group(8), group_from_table(KLEIN_TABLE)):
        elems = np.array([3, 0, 3, 1])
        assert np.array_equal(g.rows(elems), g.table[elems])
        assert not g.permutation_backed


def test_permutation_backed_constructor_is_for_trusted_callers():
    perms = symmetric_group(3).perms
    with pytest.raises(ValueError, match="trusted"):
        FiniteGroup(None, perms=perms)
    with pytest.raises(ValueError, match="trusted"):
        FiniteGroup(None, validate=False)
    with pytest.raises(ValueError, match="lexicographic"):
        FiniteGroup(None, perms=perms[::-1], validate=False)


def test_same_group_on_distinct_permutation_backed_instances():
    s4 = symmetric_group(4)
    other = fresh_symmetric(4)
    assert other is not s4
    assert same_group(other, s4) and same_group(s4, other)
    assert other._table is None  # settled by the permutations alone
    assert not same_group(fresh_symmetric(3), group_from_table(cyclic_group(6).table))
    assert same_group(group_from_table(symmetric_group(3).table), fresh_symmetric(3))


def closure_oracle(group, elements):
    """Oracle: the pairwise closure loop over mul and inv."""
    seed = {int(a) for a in elements}
    known = seed | {group.identity}
    frontier = list(known)
    while frontier:
        fresh = []
        for a in frontier:
            for b in seed | {group.inv(a)}:
                for c in (group.mul(a, b), group.mul(b, a)):
                    if c not in known:
                        known.add(c)
                        fresh.append(c)
        frontier = fresh
    return frozenset(known)


def test_closure_matches_the_pairwise_loop(tmp_path):
    path = tmp_path / "klein.json"
    path.write_text(json.dumps({"order": 4, "table": KLEIN_TABLE}))
    groups = [symmetric_group(m) for m in (3, 4, 5)] + [cyclic_group(8), group_from_json(path)]
    rng = np.random.default_rng(11)
    for g in groups:
        subsets = [[], [g.identity], list(range(g.order))]
        subsets += [
            rng.choice(g.order, size=rng.integers(1, 4), replace=False).tolist()
            for _ in range(12)
        ]
        for subset in subsets:
            got = closure(g, subset)
            assert got == closure_oracle(g, subset), (g, subset)
            assert all(type(a) is int for a in got)


def test_closure_on_s7_builds_only_generator_rows():
    g = fresh_symmetric(7)
    adjacent = [transposition_index(g, j, j + 1) for j in range(6)]
    assert generates(g, adjacent)
    assert len(closure(g, adjacent[:3])) == 24  # S4 on the first four letters
    assert g._table is None
    assert g._rows_built == len(adjacent)  # transpositions are their own inverses


def test_row_cache_is_consistent_under_concurrent_callers():
    _, table, _ = dense_symmetric_oracle(6)
    g = fresh_symmetric(6)
    errors = []

    def worker(seed):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            elems = rng.integers(0, g.order, size=rng.integers(1, 9))
            if not np.array_equal(g.rows(elems), table[elems]):
                errors.append(elems)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    # every row was ranked once: the cached elements own slots 0..built-1, one each
    slots = g._row_slot[g._row_slot >= 0]
    assert np.array_equal(np.sort(slots), np.arange(g._rows_built))
