import itertools
import re

import pytest

from hesspave.operators import (
    CanonicalNilpotent,
    RegularNilpotent,
    SemisimpleClassical,
    TypeAGeneral,
    TypeANilpotent,
    canonical_form,
    levi_roots,
    multidiagram_of,
    semisimple_functional,
)
from hesspave.rootsys import (
    Root,
    RootSystemId,
    euclidean,
    positive_roots,
    simple_roots,
)


def r(*coeffs):
    return Root(tuple(coeffs))


def block_ranges(blocks):
    """Half-open box ranges (lo, hi) of the eigenvalue blocks, written out
    from their sizes alone: largest block first from box 1, equal sizes in
    input order."""
    out, lo = [], 1
    for size in sorted((sum(mu) for _, mu in blocks), reverse=True):
        out.append((lo, lo + size))
        lo += size
    return tuple(out)


def test_regular_nilpotent_support_is_simple_roots():
    for system in [RootSystemId("A", 3), RootSystemId("B", 2),
                   RootSystemId("C", 3), RootSystemId("D", 4)]:
        assert canonical_form(RegularNilpotent(), system).support == \
            simple_roots(system)


def test_single_row_partition_has_empty_support():
    system = RootSystemId("A", 2)
    cf = canonical_form(TypeANilpotent((1, 1, 1)), system)
    assert cf.support == ()


def test_single_column_is_regular():
    system = RootSystemId("A", 3)
    cf = canonical_form(TypeANilpotent((4,)), system)
    assert set(cf.support) == set(simple_roots(system))


def test_mu_22_support():
    system = RootSystemId("A", 3)
    cf = canonical_form(TypeANilpotent((2, 2)), system)
    assert set(cf.support) == {r(1, 1, 0), r(0, 1, 1)}


def test_support_size_matches_vertical_pairs():
    # mu = (3, 2, 1): pairs (3,5), (5,6), (2,4) give e_j - e_k strings
    system = RootSystemId("A", 5)
    cf = canonical_form(TypeANilpotent((3, 2, 1)), system)
    assert len(cf.support) == 3
    assert set(cf.support) == {
        r(0, 0, 1, 1, 0), r(0, 0, 0, 0, 1), r(0, 1, 1, 0, 0)
    }


def test_partition_sum_checked():
    with pytest.raises(ValueError):
        canonical_form(TypeANilpotent((2, 2)), RootSystemId("A", 2))
    with pytest.raises(ValueError):
        canonical_form(TypeANilpotent((2, 1)), RootSystemId("B", 2))


def test_nonoverlap_validation():
    system = RootSystemId("A", 2)
    with pytest.raises(ValueError):
        CanonicalNilpotent(system, (r(1, 0), r(1, 1)))
    CanonicalNilpotent(system, (r(1, 0), r(0, 1)))


def test_general_blocks_sorted_and_ranged():
    from hesspave.tableaux import Diagram

    spec = TypeAGeneral((("x", (2,)), ("y", (2, 1))))
    md = multidiagram_of(spec, RootSystemId("A", 4))
    assert md.diagrams == (Diagram((2, 1)), Diagram((2,)))
    assert md.diagram_of == {1: 0, 2: 0, 3: 0, 4: 1, 5: 1}
    assert block_ranges(spec.blocks) == ((1, 4), (4, 6))
    with pytest.raises(ValueError):
        TypeAGeneral((("x", (2,)), ("x", (1,))))


@pytest.mark.parametrize("blocks,support,levi,functional", [
    # (2, 1) on boxes 1-3 (3 above 2), then (2,) on boxes 4-5
    ((("x", (2,)), ("y", (2, 1))),
     (r(0, 1, 0, 0), r(0, 0, 0, 1)),
     {r(1, 0, 0, 0), r(0, 1, 0, 0), r(1, 1, 0, 0), r(0, 0, 0, 1)},
     (2, 2, 2, -3, -3)),
    # equal sizes keep their input order: y on boxes 1-2, z on 3-4, x on 5
    ((("x", (1,)), ("y", (2,)), ("z", (2,))),
     (r(1, 0, 0, 0), r(0, 0, 1, 0)),
     {r(1, 0, 0, 0), r(0, 0, 1, 0)},
     (3, 3, -1, -1, -4)),
], ids=["x:2|y:2,1", "x:1|y:2|z:2"])
def test_general_support(blocks, support, levi, functional):
    spec = TypeAGeneral(blocks)
    system = RootSystemId("A", 4)
    assert canonical_form(spec, system).support == support
    assert levi_roots(spec, system) == frozenset(levi)
    assert semisimple_functional(spec, system) == functional


@pytest.mark.parametrize("system,message", [
    (RootSystemId("B", 3), "TypeAGeneral requires family A"),
    (RootSystemId("A", 4), "partition sizes sum to 3, expected 5 for A4"),
], ids=["B3", "A4"])
def test_general_spec_checks_the_system(system, message):
    spec = TypeAGeneral((("x", (2,)), ("y", (1,))))
    for fn in (canonical_form, levi_roots, semisimple_functional,
               multidiagram_of):
        with pytest.raises(ValueError) as info:
            fn(spec, system)
        assert str(info.value) == message, fn.__name__


@pytest.mark.parametrize("system,message", [
    (RootSystemId("B", 2), "TypeANilpotent requires family A"),
    (RootSystemId("A", 3), "partition sizes sum to 3, expected 4 for A3"),
], ids=["B2", "A3"])
def test_nilpotent_diagram_checks_the_system(system, message):
    with pytest.raises(ValueError) as info:
        multidiagram_of(TypeANilpotent((2, 1)), system)
    assert str(info.value) == message


def test_multidiagram_shapes():
    from hesspave.tableaux import Diagram

    system = RootSystemId("A", 3)
    assert multidiagram_of(RegularNilpotent(), system).diagrams == (Diagram((4,)),)
    md = multidiagram_of(SemisimpleClassical(()), system)
    assert len(md.diagrams) == 4 and all(d.mu == (1,) for d in md.diagrams)
    with pytest.raises(ValueError):
        multidiagram_of(SemisimpleClassical(((1,),)), system)
    with pytest.raises(ValueError):
        multidiagram_of(RegularNilpotent(), RootSystemId("B", 2))


def test_levi_blocks_validation():
    with pytest.raises(ValueError):
        levi_roots(SemisimpleClassical(((1,), (1, 2))), RootSystemId("A", 3))
    with pytest.raises(ValueError):
        levi_roots(SemisimpleClassical(((5,),)), RootSystemId("A", 3))
    with pytest.raises(ValueError):
        levi_roots(SemisimpleClassical(((1, 3),)), RootSystemId("A", 3))
    # in D4 the fork: 2 is adjacent to 4, but 3 is not
    levi_roots(SemisimpleClassical(((2, 4),)), RootSystemId("D", 4))
    with pytest.raises(ValueError):
        levi_roots(SemisimpleClassical(((3, 4),)), RootSystemId("D", 4))


# Dynkin diagrams as edge lists, written out independently of the library:
# A, B and C are the chain 1 - 2 - ... - n; D_n forks at n - 2.
CHAIN = ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6))
D_EDGES = {
    3: ((1, 2), (1, 3)),
    4: ((1, 2), (2, 3), (2, 4)),
    5: ((1, 2), (2, 3), (3, 4), (3, 5)),
    6: ((1, 2), (2, 3), (3, 4), (4, 5), (4, 6)),
}
DYNKIN_SYSTEMS = (
    [RootSystemId("A", n) for n in range(1, 7)]
    + [RootSystemId(fam, n) for fam in "BC" for n in range(2, 7)]
    + [RootSystemId("D", n) for n in range(3, 7)]
)


def _dynkin_connected(system, block):
    if system.family == "D":
        edges = D_EDGES[system.rank]
    else:
        edges = [(i, j) for i, j in CHAIN if j <= system.rank]
    seen, todo = {block[0]}, [block[0]]
    while todo:
        i = todo.pop()
        for e in edges:
            if i in e and set(e) <= set(block):
                j = e[0] + e[1] - i
                if j not in seen:
                    seen.add(j)
                    todo.append(j)
    return seen == set(block)


@pytest.mark.parametrize("system", DYNKIN_SYSTEMS, ids=str)
def test_levi_block_accepted_exactly_when_dynkin_connected(system):
    n = system.rank
    for size in range(1, n + 1):
        for block in itertools.combinations(range(1, n + 1), size):
            spec = SemisimpleClassical((block,))
            if _dynkin_connected(system, block):
                levi_roots(spec, system)
            else:
                with pytest.raises(ValueError, match="not connected"):
                    levi_roots(spec, system)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_type_d_end_nodes_are_not_adjacent(n):
    # alpha_{n-1} and alpha_n both hang off alpha_{n-2}, not off each other
    system = RootSystemId("D", n)
    with pytest.raises(ValueError, match="not connected"):
        levi_roots(SemisimpleClassical(((n - 1, n),)), system)
    levi_roots(SemisimpleClassical(((n - 2, n - 1, n),)), system)


def test_empty_levi_block_is_rejected():
    with pytest.raises(ValueError, match="empty levi block"):
        levi_roots(SemisimpleClassical(((),)), RootSystemId("A", 3))


@pytest.mark.parametrize("blocks, bad", [
    (((True,),), "True"),
    (((1.0,),), "1.0"),
    (((1, 2.0),), "2.0"),
    (((1,), ("3",)), "'3'"),
])
def test_levi_indices_must_be_ints(blocks, bad):
    """True and 1.0 equal 1, so the spec would share ((1,),)'s cache entries
    while its label printed semisimple:True or semisimple:1.0."""
    with pytest.raises(ValueError, match=f"index {re.escape(bad)} is not an int"):
        SemisimpleClassical(blocks)


@pytest.mark.parametrize("mu, bad", [
    ((2.0, 1), "2.0"),
    ((True, 1, 1), "True"),
    ((2, 1.0), "1.0"),
    (("2", 1), "'2'"),
])
@pytest.mark.parametrize("make", [
    TypeANilpotent,
    lambda mu: TypeAGeneral((("x", (1,)), ("y", mu))),
], ids=["nilpotent", "general"])
def test_partition_parts_must_be_ints(make, mu, bad):
    """2.0 and True pass the partition checks and equal 2 and 1, so the spec
    would share (2, 1)'s cache entries while it printed differently; a
    string part failed the size sum with a bare TypeError."""
    with pytest.raises(ValueError, match=f"part {re.escape(bad)} is not an int"):
        canonical_form(make(mu), RootSystemId("A", 3))


def test_levi_roots_examples():
    system = RootSystemId("A", 2)
    assert levi_roots(SemisimpleClassical(((1,),)), system) == frozenset({r(1, 0)})
    assert levi_roots(SemisimpleClassical(()), system) == frozenset()
    b2 = RootSystemId("B", 2)
    assert levi_roots(SemisimpleClassical(((2,),)), b2) == frozenset({r(0, 1)})


@pytest.mark.parametrize("system,blocks", [
    (RootSystemId("A", 3), ()),
    (RootSystemId("A", 3), ((1,),)),
    (RootSystemId("A", 3), ((1, 2),)),
    (RootSystemId("B", 3), ((2,),)),
    (RootSystemId("C", 3), ((1,), (3,))),
    (RootSystemId("D", 4), ((2, 4),)),
    (RootSystemId("D", 3), ((2,), (3,))),
    (RootSystemId("B", 2), ((1, 2),)),
], ids=lambda x: str(x))
def test_functional_vanishes_exactly_on_levi(system, blocks):
    spec = SemisimpleClassical(blocks)
    s = semisimple_functional(spec, system)
    zero = levi_roots(spec, system)
    for a in positive_roots(system):
        val = sum(v * x for v, x in zip(euclidean(system, a), s))
        assert (val == 0) == (a in zero)


def test_general_functional_constant_on_blocks():
    spec = TypeAGeneral((("x", (2, 1)), ("y", (2,))))
    system = RootSystemId("A", 4)
    s = semisimple_functional(spec, system)
    (lo1, hi1), (lo2, hi2) = block_ranges(spec.blocks)
    assert len({s[k - 1] for k in range(lo1, hi1)}) == 1
    assert len({s[k - 1] for k in range(lo2, hi2)}) == 1
    assert s[lo1 - 1] != s[lo2 - 1]


def test_general_functional_decreasing_across_blocks():
    spec = TypeAGeneral((("x", (1,)), ("y", (2, 1)), ("z", (2,))))
    system = RootSystemId("A", 5)
    s = semisimple_functional(spec, system)
    values = []
    for lo, hi in block_ranges(spec.blocks):
        assert len({s[k - 1] for k in range(lo, hi)}) == 1
        values.append(s[lo - 1])
    assert values == sorted(values, reverse=True) and len(set(values)) == 3
    zero = levi_roots(spec, system)
    for a in positive_roots(system):
        val = sum(v * x for v, x in zip(euclidean(system, a), s))
        assert (val == 0) == (a in zero)


def test_list_fields_become_tuples():
    # specs key the oracle's per-spec cache, so they must hash like tuples
    pairs = [
        (TypeANilpotent([2, 1]), TypeANilpotent((2, 1))),
        (TypeAGeneral([["x", [2]], ["y", [1]]]), TypeAGeneral((("x", (2,)), ("y", (1,))))),
        (SemisimpleClassical([[1, 2]]), SemisimpleClassical(((1, 2),))),
    ]
    for given, expected in pairs:
        assert given == expected
        assert hash(given) == hash(expected)
