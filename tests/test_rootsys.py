import ast
import copy
import dataclasses
import itertools
import pathlib
import pickle
import re

import pytest

import hesspave
from hesspave.rootsys import (
    Root,
    RootSystemId,
    RowPartition,
    euclidean,
    extremal_roots,
    positive_roots,
    root_geq,
    root_index,
    row_of,
    row_partition,
    row_structure_kind,
    simple_roots,
    verticality_check,
    weyl_order,
)


def r(*coeffs):
    return Root(tuple(coeffs))


COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
}

ALL_SYSTEMS = [
    RootSystemId(fam, n)
    for fam in "ABCD"
    for n in range(2 if fam in "BC" else (3 if fam == "D" else 1), 7)
]


@pytest.mark.parametrize("system", ALL_SYSTEMS, ids=str)
def test_positive_root_counts(system):
    assert len(positive_roots(system)) == COUNTS[system.family](system.rank)


def test_b2_roots():
    assert set(positive_roots(RootSystemId("B", 2))) == {
        r(1, 0), r(0, 1), r(1, 1), r(1, 2)
    }


def test_a1_roots():
    assert positive_roots(RootSystemId("A", 1)) == (r(1),)


def test_d4_count():
    assert len(positive_roots(RootSystemId("D", 4))) == 12


def test_rank_bounds():
    with pytest.raises(ValueError):
        RootSystemId("D", 2)
    with pytest.raises(ValueError):
        RootSystemId("B", 1)
    with pytest.raises(ValueError):
        RootSystemId("E", 6)


@pytest.mark.parametrize("family,rank", [
    ("A", 3.0), ("A", True), ("A", "3"), ("A", None), ("a", 3), (["A"], 3),
], ids=repr)
def test_family_and_rank_are_checked_by_type(family, rank):
    # before, A3.0 was built and failed later in positive_roots, ATrue hashed
    # and compared equal to A1, and "3" raised TypeError
    named = f"{re.escape(repr(family))}|{re.escape(repr(rank))}"
    with pytest.raises(ValueError, match=named):
        RootSystemId(family, rank)


def test_a_refused_system_leaves_nothing_behind():
    # C11 is built nowhere else, so C11.0 would be the first (C, 11) seen
    for bad in (11.0, "11"):
        with pytest.raises(ValueError):
            RootSystemId("C", bad)
    c11 = RootSystemId("C", 11)
    assert type(c11.rank) is int and str(c11) == "C11"
    with pytest.raises(ValueError):
        RootSystemId("A", True)
    assert type(RootSystemId("A", 1).rank) is int


def test_each_system_is_one_object():
    b3 = RootSystemId("B", 3)
    assert b3 is RootSystemId("B", 3) is RootSystemId(family="B", rank=3)
    assert b3 is not RootSystemId("C", 3)
    assert pickle.loads(pickle.dumps(b3)) is b3
    assert copy.copy(b3) is b3
    assert copy.deepcopy(b3) is b3
    assert dataclasses.replace(b3) is b3
    assert dataclasses.replace(b3, rank=4) is RootSystemId("B", 4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        b3.rank = 4
    assert sorted([RootSystemId("C", 2), b3, RootSystemId("B", 2)]) == [
        RootSystemId("B", 2), b3, RootSystemId("C", 2)]


def test_a3_rows():
    rp = row_partition(RootSystemId("A", 3))
    assert set(rp.rows[0]) == {r(1, 0, 0), r(1, 1, 0), r(1, 1, 1)}
    assert set(rp.rows[1]) == {r(0, 1, 0), r(0, 1, 1)}
    assert set(rp.rows[2]) == {r(0, 0, 1)}


def test_b2_rows():
    rp = row_partition(RootSystemId("B", 2))
    assert set(rp.rows[0]) == {r(1, 0), r(1, 1), r(1, 2)}
    assert set(rp.rows[1]) == {r(0, 1)}


def test_c2_rows_and_long_root():
    rp = row_partition(RootSystemId("C", 2))
    assert set(rp.rows[0]) == {r(1, 0), r(1, 1), r(2, 1)}
    assert rp.long_root[0] == r(2, 1)
    assert rp.long_root[1] is None


def test_long_root_formula():
    # gamma_i = 2 sum_{j=i}^{n-1} alpha_j + alpha_n
    for n in (2, 3, 4):
        rp = row_partition(RootSystemId("C", n))
        for i in range(1, n):
            coeffs = [2 if i <= j < n else 0 for j in range(1, n)] + [1]
            assert rp.long_root[i - 1] == Root(tuple(coeffs))


def test_row_structure_kind():
    a5 = RootSystemId("A", 5)
    assert all(row_structure_kind(a5, i) == "Abelian" for i in range(1, 6))
    c3 = RootSystemId("C", 3)
    assert row_structure_kind(c3, 1) == "Heisenberg"
    assert row_structure_kind(c3, 2) == "Heisenberg"
    assert row_structure_kind(c3, 3) == "Abelian"
    with pytest.raises(ValueError):
        row_structure_kind(c3, 4)


@pytest.mark.parametrize("system", ALL_SYSTEMS, ids=str)
def test_rows_partition_positive_roots(system):
    rp = row_partition(system)
    seen = [a for row in rp.rows for a in row]
    assert len(seen) == len(set(seen)) == len(positive_roots(system))
    assert set(seen) == set(positive_roots(system))
    for i, row in enumerate(rp.rows, start=1):
        assert all(row_of(a) == i for a in row)
        assert [a for a in row if a.height == 1] == [simple_roots(system)[i - 1]]


def test_extremal_simple_root_is_empty():
    s = RootSystemId("A", 3)
    for a in simple_roots(s):
        assert extremal_roots(s, a) == frozenset()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_extremal_counts_type_a(n):
    s = RootSystemId("A", n)
    for a in positive_roots(s):
        if a.height == 1:
            continue
        extremal = extremal_roots(s, a)
        assert len([b for b in extremal if b.height == 1]) == 2
        assert len(extremal) == 2 * (a.height - 1)


def test_extremal_b2_long():
    s = RootSystemId("B", 2)
    extremal = extremal_roots(s, r(1, 2))
    assert extremal == frozenset({r(0, 1), r(1, 1)})
    assert {b for b in extremal if b.height == 1} == {r(0, 1)}


def test_extremal_rejects_nonroot():
    with pytest.raises(ValueError):
        extremal_roots(RootSystemId("A", 2), r(2, 0))


@pytest.mark.parametrize("system", ALL_SYSTEMS, ids=str)
def test_verticality_all_classical(system):
    assert verticality_check(row_partition(system))


def test_d4_has_size_two_height_class():
    rp = row_partition(RootSystemId("D", 4))
    sizes = [len(v) for i in range(1, 5) for v in rp.heights(i).values()]
    assert 2 in sizes


def test_verticality_rejects_corrupted_partition():
    # move a row-2 root into row 1; breaks the domination condition (1)
    system = RootSystemId("A", 3)
    rp = row_partition(system)
    rows = list(list(row) for row in rp.rows)
    rows[0].append(r(0, 1, 1))
    rows[1].remove(r(0, 1, 1))
    bad = RowPartition(system, tuple(tuple(x) for x in rows), rp.long_root)
    assert not verticality_check(bad)


def test_heisenberg_pairing_uniqueness():
    # gamma_i is the unique row member that is a sum of two row members
    for n in (2, 3, 4):
        system = RootSystemId("C", n)
        rp = row_partition(system)
        for i in range(1, n):
            row = rp.rows[i - 1]
            sums = {
                a for a in row
                if any(Root(tuple(x + y for x, y in zip(b.coeffs, c.coeffs))) == a
                       for b in row for c in row)
            }
            assert sums == {rp.long_root[i - 1]}


def _chain_geq(system, alpha, beta):
    """alpha >= beta via repeated subtraction of positive roots."""
    if alpha == beta:
        return True
    pos = set(positive_roots(system))
    todo, seen = [alpha], {alpha}
    while todo:
        cur = todo.pop()
        for g in pos:
            nxt = cur - g
            if nxt == beta:
                return True
            if nxt in pos and nxt not in seen and root_geq(nxt, beta):
                seen.add(nxt)
                todo.append(nxt)
    return False


@pytest.mark.parametrize("system", [
    RootSystemId("A", 3), RootSystemId("B", 3),
    RootSystemId("C", 3), RootSystemId("D", 4),
], ids=str)
def test_order_matches_chain_reachability(system):
    pos = positive_roots(system)
    for a, b in itertools.product(pos, pos):
        assert root_geq(a, b) == _chain_geq(system, a, b)


@pytest.mark.parametrize("system", ALL_SYSTEMS, ids=str)
def test_euclidean_roundtrip(system):
    # the pair table reads each root's signed nonzero Euclidean coordinates
    # and is a bijection of the 2|Phi+| roots onto their pairs
    index = root_index(system)
    pair, root = index.pair, index.root
    for a in positive_roots(system):
        for b in (a, -a):
            p, q = pair[b]
            signs = {i: c > 0 for i, c in enumerate(euclidean(system, b), 1) if c}
            assert {abs(k): k > 0 for k in (p, q) if k} == signs
            assert q == 0 or abs(p) < abs(q)
            assert root[p, q] == root[q, p] == b
    n_roots = 2 * len(positive_roots(system))
    assert len(pair) == len(set(pair.values())) == n_roots
    assert set(root.values()) == set(pair)
    for (x, y), b in root.items():
        assert index.position[x][y] == (-1 if b.is_negative else index.at[b])
    # off the roots' pairs the position table reads -1 too
    assert sum(k >= 0 for row in index.position for k in row) == n_roots
    positive = positive_roots(system)
    assert index.positive == positive
    assert index.positive_pairs == tuple(pair[a] for a in positive)
    assert index.positive_set == set(positive)


@pytest.mark.parametrize("system", ALL_SYSTEMS, ids=str)
def test_sum_table_matches_root_addition(system):
    # at and sums against Root addition over every ordered pair of Phi+
    index = root_index(system)
    positive = positive_roots(system)
    assert index.at == {a: i for i, a in enumerate(positive)}
    assert len(index.sums) == len(positive)
    for i, a in enumerate(positive):
        expected = [(j, positive.index(a + b))
                    for j, b in enumerate(positive) if a + b in positive]
        assert list(index.sums[i]) == expected


def test_euclidean_is_read_only_in_rootsys_and_operators():
    # every other module reads roots through root_index's signed pairs
    callers = set()
    for path in pathlib.Path(hesspave.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                if name == "euclidean":
                    callers.add(path.stem)
    assert callers == {"rootsys", "operators"}


def test_weyl_order_values():
    assert weyl_order(RootSystemId("A", 2)) == 6
    assert weyl_order(RootSystemId("B", 2)) == 8
    assert weyl_order(RootSystemId("C", 3)) == 48
    assert weyl_order(RootSystemId("D", 3)) == 24
