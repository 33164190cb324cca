import math

import pytest

from hesspave import weyl
from hesspave.hessenberg import full_space
from hesspave.operators import SemisimpleClassical
from hesspave.paving import pave
from hesspave.rootsys import Root, RootSystemId, positive_roots, weyl_order
from hesspave.weyl import (
    WeylElement,
    enumerate_weyl,
    identity,
    inversion_set,
)


def r(*coeffs):
    return Root(tuple(coeffs))


SMALL = [
    RootSystemId("A", 2), RootSystemId("A", 3),
    RootSystemId("B", 2), RootSystemId("B", 3),
    RootSystemId("C", 2), RootSystemId("C", 3),
    RootSystemId("D", 3),
]


@pytest.mark.parametrize("system", SMALL, ids=str)
def test_enumeration_count(system):
    assert len(list(enumerate_weyl(system))) == weyl_order(system)


def test_enumeration_is_lexicographic():
    wins = [w.window for w in enumerate_weyl(RootSystemId("B", 2))]
    assert wins == sorted(wins)
    assert len(wins) == 8


def test_window_validation():
    with pytest.raises(ValueError):
        WeylElement(RootSystemId("A", 2), (1, 2))  # wrong length
    with pytest.raises(ValueError):
        WeylElement(RootSystemId("A", 2), (1, 1, 2))  # not a permutation
    with pytest.raises(ValueError):
        WeylElement(RootSystemId("A", 2), (-1, 2, 3))  # A is unsigned
    with pytest.raises(ValueError):
        WeylElement(RootSystemId("D", 3), (-1, 2, 3))  # D needs even sign count
    WeylElement(RootSystemId("D", 3), (-1, -2, 3))
    WeylElement(RootSystemId("B", 2), (-2, 1))


@pytest.mark.parametrize("system", SMALL, ids=str)
def test_identity_and_inverse(system):
    e = identity(system)
    assert all(e.act(a) == a for a in positive_roots(system))
    for w in enumerate_weyl(system):
        assert w * w.inverse() == e
        assert w.inverse().inverse() == w


def test_simple_reflection_action():
    # s1 in A2 negates a1 and swaps the rest of the a1-string
    s1 = WeylElement(RootSystemId("A", 2), (2, 1, 3))
    assert s1.act(r(1, 0)) == r(-1, 0)
    assert s1.act(r(0, 1)) == r(1, 1)
    assert s1.act(r(1, 1)) == r(0, 1)


def test_action_is_homomorphism():
    system = RootSystemId("B", 2)
    elems = list(enumerate_weyl(system))
    for u in elems:
        for v in elems:
            for a in positive_roots(system):
                assert (u * v).act(a) == u.act(v.act(a))


@pytest.mark.parametrize("system", SMALL, ids=str)
def test_inversion_set_definition(system):
    pos = set(positive_roots(system))
    for w in enumerate_weyl(system):
        inv = inversion_set(w)
        assert inv == {a for a in pos if w.inverse().act(a).is_negative}
        assert w.length() == len(inv)


def test_inversion_examples():
    a2 = RootSystemId("A", 2)
    assert inversion_set(identity(a2)) == frozenset()
    s1 = WeylElement(a2, (2, 1, 3))
    assert inversion_set(s1) == frozenset({r(1, 0)})
    w0 = WeylElement(a2, (3, 2, 1))
    assert inversion_set(w0) == frozenset({r(1, 0), r(0, 1), r(1, 1)})


def test_weyl_caches_bounded_by_group_order():
    # one inversion set per element and a few per-system tables; nothing
    # kept per (element, root)
    system = RootSystemId("A", 3)
    caches = [f for f in vars(weyl).values() if hasattr(f, "cache_info")]
    for f in caches:
        f.cache_clear()
    pave(SemisimpleClassical(()), system, full_space(system))
    entries = sum(f.cache_info().currsize for f in caches)
    assert entries <= weyl_order(system) + 4


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_length_generating_function_type_a(n):
    # sum over W of q^len equals the q-factorial [n+1]_q!
    system = RootSystemId("A", n)
    counts = {}
    for w in enumerate_weyl(system):
        counts[w.length()] = counts.get(w.length(), 0) + 1
    qfact = [1]
    for m in range(2, n + 2):
        qfact = [sum(qfact[d - j] for j in range(m) if 0 <= d - j < len(qfact))
                 for d in range(len(qfact) + m - 1)]
    assert counts == {d: c for d, c in enumerate(qfact) if c}


def test_longest_element_length():
    assert WeylElement(RootSystemId("B", 2), (-1, -2)).length() == 4
    assert WeylElement(RootSystemId("D", 3), (-1, -2, 3)).length() == 6
    assert math.comb(4, 2) == WeylElement(RootSystemId("A", 3), (4, 3, 2, 1)).length()


def test_str_window():
    w = WeylElement(RootSystemId("B", 2), (-2, 1))
    assert str(w) == "[-2 1]"


def test_product_of_elements_of_two_systems_is_refused():
    b4 = WeylElement(RootSystemId("B", 4), (-1, 2, 3, 4))
    for family, window in (("C", (1, 2, 4, 3)), ("D", (1, 2, 4, 3))):
        other = WeylElement(RootSystemId(family, 4), window)
        for u, v in ((other, b4), (b4, other)):
            with pytest.raises(ValueError, match=f"{u.system}.*{v.system}"):
                u * v


def test_a_counted_length_is_invisible():
    """The element keeps no instance dict; its counted length sits in a slot
    that equality, hashing, ordering and printing all ignore."""
    system = RootSystemId("C", 3)
    counted = WeylElement(system, (2, -3, 1))
    assert not hasattr(counted, "__dict__")
    n = counted.length()
    fresh = WeylElement(system, (2, -3, 1))
    assert counted == fresh and hash(counted) == hash(fresh)
    assert not counted < fresh and not fresh < counted
    assert counted <= fresh <= counted
    assert repr(counted) == repr(fresh) and str(counted) == str(fresh)
    assert fresh.length() == n == 3

