import re

import pytest

from hesspave.hessenberg import (
    HessenbergSpace,
    HessFunction,
    all_hess_functions,
    borel_space,
    complement_roots,
    enumerate_spaces,
    from_h,
    full_space,
    peterson_space,
    to_h,
)
from hesspave.rootsys import (
    Root,
    RootSystemId,
    all_roots,
    negative_roots,
    positive_roots,
    root_index,
)
from hesspave.weyl import WeylElement, enumerate_weyl


def r(*coeffs):
    return Root(tuple(coeffs))


ENUM_COUNTS = [
    (RootSystemId("A", 1), 2),
    (RootSystemId("A", 2), 5),
    (RootSystemId("A", 3), 14),
    (RootSystemId("A", 4), 42),
    (RootSystemId("A", 5), 132),
    (RootSystemId("B", 2), 6),
    (RootSystemId("C", 2), 6),
    (RootSystemId("B", 3), 20),
    (RootSystemId("C", 3), 20),
    (RootSystemId("D", 3), 14),
    (RootSystemId("D", 4), 50),
]


@pytest.mark.parametrize("system,count", ENUM_COUNTS, ids=lambda x: str(x))
def test_enumeration_counts(system, count):
    assert len(enumerate_spaces(system)) == count


def test_closure_validation():
    system = RootSystemId("A", 2)
    pos = set(positive_roots(system))
    # -a1 plus a1+a2 yields a2, so -a1 alone with full negatives is fine
    # but {-a1-a2} without -a1 fails: -a1-a2 + a1 = -a2 not included
    with pytest.raises(ValueError):
        HessenbergSpace(system, frozenset(pos | {r(-1, -1)}))
    HessenbergSpace(system, frozenset(pos | {r(-1, 0)}))


def test_must_contain_positive_roots():
    system = RootSystemId("A", 2)
    with pytest.raises(ValueError):
        HessenbergSpace(system, frozenset({r(1, 0), r(0, 1)}))


@pytest.mark.parametrize("system", [s for s, _ in ENUM_COUNTS], ids=str)
def test_enumerated_spaces_are_closed_and_sorted(system):
    spaces = enumerate_spaces(system)
    assert spaces == tuple(sorted(
        spaces,
        key=lambda H: (len(H.roots), sorted(a.coeffs for a in H.roots)),
    ))
    pos = set(positive_roots(system))
    for H in spaces:
        assert pos <= set(H.roots)
        for a in H.roots:
            for b in pos:
                c = a + b
                if c in pos or c in set(negative_roots(system)):
                    assert c in H.roots


def test_peterson_borel_full():
    system = RootSystemId("B", 2)
    pos = set(positive_roots(system))
    assert set(peterson_space(system).roots) == pos | {r(-1, 0), r(0, -1)}
    assert set(borel_space(system).roots) == pos
    assert set(full_space(system).roots) == pos | set(negative_roots(system))


def test_h_bijection_roundtrip():
    for n in range(1, 6):
        system = RootSystemId("A", n)
        for h in all_hess_functions(n + 1):
            H = from_h(h)
            assert H.system == system
            assert to_h(H) == h
        spaces = enumerate_spaces(system)
        assert len({to_h(H) for H in spaces}) == len(spaces)


def test_h_special_values():
    system = RootSystemId("A", 3)
    n = 4
    assert from_h(HessFunction(tuple(range(1, n + 1)))) == borel_space(system)
    assert from_h(HessFunction((n,) * n)) == full_space(system)
    peterson_h = HessFunction(tuple(min(i + 1, n) for i in range(1, n + 1)))
    assert from_h(peterson_h) == peterson_space(system)


def test_hess_function_validation():
    HessFunction((1, 2, 3))
    with pytest.raises(ValueError):
        HessFunction((2, 1, 3))  # h(i) < i
    with pytest.raises(ValueError):
        HessFunction((1, 3, 2))  # not weakly increasing
    with pytest.raises(ValueError):
        HessFunction((1, 2, 4))  # exceeds n


@pytest.mark.parametrize("values, bad", [
    ((1.5, 2, 3), "1.5"),
    ((True, 2, 3), "True"),
    ((1, 2, 3.0), "3.0"),
    ((1, 2, "3"), "'3'"),
])
def test_hess_function_values_must_be_ints(values, bad):
    """1.5 and True pass the bounds check, and 3.0 equals 3: each would give
    an h that from_h cannot read or that prints differently."""
    with pytest.raises(ValueError, match=f"value {re.escape(bad)} is not an int"):
        HessFunction(values)


def test_containment_matches_h_order():
    system = RootSystemId("A", 3)
    for H in enumerate_spaces(system):
        for K in enumerate_spaces(system):
            contained = set(H.roots) <= set(K.roots)
            h_le = all(x <= y for x, y in zip(to_h(H).values, to_h(K).values))
            assert contained == h_le


@pytest.mark.parametrize("system", [
    RootSystemId("A", 3), RootSystemId("B", 3),
    RootSystemId("C", 3), RootSystemId("D", 4),
], ids=str)
def test_complement_roots_are_what_pi_inverse_sends_outside(system):
    """complement_roots reads pi's own window; the reference acts by the
    group inverse, root by root."""
    positive = positive_roots(system)
    spaces = enumerate_spaces(system)
    for pi in enumerate_weyl(system):
        inv = pi.inverse()
        images = {a: inv.act(a) for a in positive}
        for H in spaces:
            expected = {a for a, b in images.items()
                        if b.is_negative and b not in H.roots}
            assert complement_roots(H, pi) == expected, (str(H), str(pi))


@pytest.mark.parametrize("system", [
    RootSystemId("A", 3), RootSystemId("B", 3),
    RootSystemId("C", 3), RootSystemId("D", 4),
], ids=str)
def test_negative_pairs_split_the_negative_roots_by_the_space(system):
    index = root_index(system)
    negative = [a for a in all_roots(system) if a.is_negative]
    for H in enumerate_spaces(system):
        inside, outside = H.negative_pairs
        assert sorted(inside + outside) == sorted(index.pair[a] for a in negative)
        assert {index.root[p] for p in inside} == H.negative_part()
        assert {index.root[p] for p in outside} == set(negative) - H.roots


@pytest.mark.parametrize("h", [(1, 2, 3), (2, 3, 3), (3, 4, 5, 5, 5)])
def test_from_h_builds_in_the_callers_system(h):
    assert from_h(HessFunction(h)).system is RootSystemId("A", len(h) - 1)


def test_complement_roots_example():
    system = RootSystemId("A", 2)
    w0 = WeylElement(system, (3, 2, 1))
    H = peterson_space(system)
    assert complement_roots(H, w0) == frozenset({r(1, 1)})


def test_complement_roots_borel_full():
    system = RootSystemId("B", 2)
    for win in [(-1, -2), (2, -1)]:
        w = WeylElement(system, win)
        assert complement_roots(full_space(system), w) == frozenset()
        assert len(complement_roots(borel_space(system), w)) == w.length()


def test_str_form():
    system = RootSystemId("A", 2)
    assert str(borel_space(system)) == "Phi+"
    assert str(peterson_space(system)) == "Phi+ u -{a2, a1}"
