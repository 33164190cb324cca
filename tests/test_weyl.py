import math
import re

import pytest

from hesspave import weyl
from hesspave.hessenberg import full_space
from hesspave.operators import SemisimpleClassical
from hesspave.paving import pave
from hesspave.rootsys import (
    Root,
    RootSystemId,
    positive_roots,
    root_index,
    weyl_order,
)
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


@pytest.mark.parametrize("family, window, bad", [
    ("A", (1.0, 2, 3), "1.0"),
    ("A", (True, 2, 3), "True"),
    ("A", (1, 2, "3"), "'3'"),
    ("B", (-2.0, 1), "-2.0"),
    ("D", (-1, False, 3), "False"),
])
def test_window_entries_must_be_ints(family, window, bad):
    """1.0 and True equal 1 and hash like it, so they would pass the
    signed-permutation checks and give an element that equals (1, 2, 3)'s
    but prints, and keys the oracle's trial streams, differently."""
    system = RootSystemId(family, 2 if family != "D" else 3)
    with pytest.raises(ValueError, match=f"entry {re.escape(bad)} is not an int"):
        WeylElement(system, window)


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


def _pair_walk_length(w):
    """|Phi_pi| by the definition: the positive roots, by signed position
    pair, that the element sends to negative ones."""
    s = [0, *w.window, *[-k for k in reversed(w.window)]]
    index = root_index(w.system)
    return sum(index.position[s[p]][s[q]] < 0 for p, q in index.positive_pairs)


def _q_product(degrees):
    """Coefficients of the product of the q-integers [d]_q = 1 + ... + q^(d-1)."""
    coeffs = [1]
    for d in degrees:
        coeffs = [sum(coeffs[e - j] for j in range(d) if 0 <= e - j < len(coeffs))
                  for e in range(len(coeffs) + d - 1)]
    return coeffs


def _length_counts(system):
    counts = {}
    for w in enumerate_weyl(system):
        counts[w.length()] = counts.get(w.length(), 0) + 1
    return counts


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_length_generating_function_type_a(n):
    # sum over W of q^len equals the q-factorial [n+1]_q!
    qfact = _q_product(range(2, n + 2))
    assert _length_counts(RootSystemId("A", n)) == {
        d: c for d, c in enumerate(qfact) if c}


BCD = [RootSystemId(f, n) for f in "BC" for n in (2, 3, 4, 5)] + [
    RootSystemId("D", n) for n in (3, 4, 5)]


@pytest.mark.parametrize("system", BCD, ids=str)
def test_length_generating_function_types_bcd(system):
    """sum over W of q^len is the product of [d_i]_q over the degrees of W:
    2, 4, ..., 2n in B_n and C_n, and 2, 4, ..., 2n - 2 and n in D_n."""
    n = system.rank
    degrees = [*range(2, 2 * n + 1, 2)]
    if system.family == "D":
        degrees[-1] = n
    assert _length_counts(system) == {
        d: c for d, c in enumerate(_q_product(degrees)) if c}


REFERENCE = [RootSystemId("A", n) for n in range(1, 7)] + BCD


@pytest.mark.parametrize("system", REFERENCE, ids=str)
def test_enumerated_elements_match_the_checked_constructor(system):
    """Each element enumerate_weyl builds unchecked is the one the validating
    constructor builds from its window, and the length it was built with is
    the pair walk's."""
    for w in enumerate_weyl(system):
        checked = WeylElement(system, w.window)
        assert w == checked and type(w.window) is tuple
        assert w.length() == checked.length() == _pair_walk_length(w)


@pytest.mark.slow
@pytest.mark.parametrize("system", [
    RootSystemId("A", 7), RootSystemId("B", 6), RootSystemId("C", 6),
    RootSystemId("D", 6),
], ids=str)
def test_length_count_matches_the_pair_walk_on_larger_groups(system):
    W = enumerate_weyl(system)
    assert len(W) == weyl_order(system)
    assert [w.length() for w in W] == list(map(_pair_walk_length, W))


@pytest.mark.parametrize("mutate", [
    lambda ws: ws[:3] + ws[4:],              # one window dropped
    lambda ws: ws[:3] + ws[2:],              # one window twice
    lambda ws: ws[:3] + ws[2:3] + ws[4:],    # one twice, one dropped
    lambda ws: ws[:3] + ws[4:5] + ws[3:4] + ws[5:],  # two swapped
], ids=["dropped", "duplicated", "replaced", "swapped"])
@pytest.mark.parametrize("system", [RootSystemId("A", 3), RootSystemId("D", 3)],
                         ids=str)
def test_enumeration_checks_the_group_once(monkeypatch, system, mutate):
    """The elements are built without per-window checks, so a generator that
    loses, repeats or misorders a window is caught by the one group check."""
    windows = weyl._windows
    monkeypatch.setattr(weyl, "_windows", lambda s: mutate(list(windows(s))))
    with pytest.raises(RuntimeError, match=str(system)):
        enumerate_weyl.__wrapped__(system)  # the uncached function


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

