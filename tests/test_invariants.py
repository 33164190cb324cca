"""Theorems from the literature as invariants of computed pavings.

Each expected side is computed here from the operator, the space's root
coefficients and the partition alone, without hesspave's root or Weyl code.

- Betti numbers of regular Hessenberg varieties are palindromic (M. Precup,
  Transform. Groups 23, 2018).
- H(M, H) is connected, for every operator, when M_H contains every
  negative simple root (M. Precup, J. Algebra 437, 2015), so b_0 = 1.
- The type-A Springer fibre of Jordan type lambda (H = Borel) has Euler
  characteristic n!/prod(lambda_i!) and dimension
  n(lambda) = sum (i - 1) lambda_i.
- A regular semisimple operator on the Peterson space has the W-Eulerian
  numbers as Betti numbers (De Mari-Procesi-Shayman, Trans. AMS 332, 1992).
- The type-A regular nilpotent on h has Poincare polynomial
  prod_j [h(j) - j + 1]_{x^2}.
- The type-A regular semisimple operator on h has sum_w x^{2 inv_h(w)} as
  Poincare polynomial, inv_h(w) = #{i < j : w(i) > w(j), w(i) <= h(w(j))}
  (Shareshian-Wachs, Adv. Math. 295, 2016).
- The regular nilpotent on H has Poincare polynomial prod_i [m_i + 1]_{x^2},
  m the dual partition of the height partition of the ideal
  M = {-a : a a negative root in M_H} (Sommers-Tymoczko, Trans. AMS 358,
  2006; every type: Abe-Horiguchi-Masuda-Murai-Sato).
"""

import itertools
import math

import pytest

from hesspave.hessenberg import (
    all_hess_functions,
    borel_space,
    enumerate_spaces,
    from_h,
    peterson_space,
)
from hesspave.operators import (
    RegularNilpotent,
    SemisimpleClassical,
    TypeAGeneral,
    TypeANilpotent,
)
from hesspave.paving import pave
from hesspave.rootsys import RootSystemId


def _general(label):
    return TypeAGeneral(tuple(
        (lab, tuple(int(p) for p in mu.split(",")))
        for lab, mu in (block.split(":") for block in label.split("|"))
    ))


REGULAR = [
    ("B3 semisimple", SemisimpleClassical(()), RootSystemId("B", 3)),
    ("B3 regular nilpotent", RegularNilpotent(), RootSystemId("B", 3)),
    ("D4 regular nilpotent", RegularNilpotent(), RootSystemId("D", 4)),
    ("A3 x:2|y:2", _general("x:2|y:2"), RootSystemId("A", 3)),
    ("A3 x:3|y:1", _general("x:3|y:1"), RootSystemId("A", 3)),
    ("A3 x:1|y:1|z:2", _general("x:1|y:1|z:2"), RootSystemId("A", 3)),
    ("A4 x:3|y:2", _general("x:3|y:2"), RootSystemId("A", 4)),
]


def _contains_negative_simples(H):
    n = H.system.rank
    coeffs = {a.coeffs for a in H.roots}
    return all(tuple(-1 if j == i else 0 for j in range(n)) in coeffs
               for i in range(n))


@pytest.mark.parametrize("label,spec,system", REGULAR, ids=[c[0] for c in REGULAR])
def test_regular_betti_numbers_are_palindromic_and_connected(label, spec, system):
    connected = 0
    for H in enumerate_spaces(system):
        betti = pave(spec, system, H).polynomial.as_list()
        assert betti == betti[::-1], (label, str(H))
        if _contains_negative_simples(H):
            assert betti[0] == 1, (label, str(H))
            connected += 1
    assert connected > 0


NON_REGULAR = [
    ("B3 semisimple 1", SemisimpleClassical(((1,),)), RootSystemId("B", 3)),
    ("C3 semisimple 1", SemisimpleClassical(((1,),)), RootSystemId("C", 3)),
    ("D4 semisimple 1", SemisimpleClassical(((1,),)), RootSystemId("D", 4)),
    ("A3 nilpotent 2,2", TypeANilpotent((2, 2)), RootSystemId("A", 3)),
    ("A3 nilpotent 2,1,1", TypeANilpotent((2, 1, 1)), RootSystemId("A", 3)),
]


@pytest.mark.parametrize("label,spec,system", NON_REGULAR,
                         ids=[c[0] for c in NON_REGULAR])
def test_connected_for_every_operator(label, spec, system):
    spaces = [H for H in enumerate_spaces(system) if _contains_negative_simples(H)]
    assert spaces
    for H in spaces:
        assert pave(spec, system, H).polynomial.as_list()[0] == 1, (label, str(H))


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


SPRINGER = [lam for n in (3, 4, 5) for lam in _partitions(n)]


@pytest.mark.parametrize("lam", SPRINGER, ids=lambda lam: ",".join(map(str, lam)))
def test_type_a_springer_fibre(lam):
    n = sum(lam)
    system = RootSystemId("A", n - 1)
    poly = pave(TypeANilpotent(lam), system, borel_space(system)).polynomial
    euler = math.factorial(n) // math.prod(math.factorial(p) for p in lam)
    assert poly.euler_characteristic() == euler
    n_lambda = sum(i * p for i, p in enumerate(lam))
    assert len(poly.as_list()) - 1 == 2 * n_lambda


def _signed_descents(family, n):
    """Number of signed permutations of {1..n} (even sign changes in type D)
    by descents: with key(x) = sgn(x)(n + 1 - |x|), position i < n is a
    descent when key(w_i) < key(w_{i+1}), and position n when w_n < 0 (B/C)
    or key(w_{n-1}) + key(w_n) < 0 (D)."""
    key = lambda x: (n + 1 - abs(x)) * (1 if x > 0 else -1)
    counts = [0] * (n + 1)
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            if family == "D" and signs.count(-1) % 2:
                continue
            w = [s * p for s, p in zip(signs, perm)]
            d = sum(key(w[i]) < key(w[i + 1]) for i in range(n - 1))
            if family == "D":
                d += key(w[-2]) + key(w[-1]) < 0
            else:
                d += w[-1] < 0
            counts[d] += 1
    return counts


W_EULERIAN = {
    "B3": [1, 23, 23, 1],
    "C3": [1, 23, 23, 1],
    "D4": [1, 44, 102, 44, 1],
    "B4": [1, 76, 230, 76, 1],
    "D5": [1, 157, 802, 802, 157, 1],
}


@pytest.mark.parametrize("name", W_EULERIAN)
def test_regular_semisimple_peterson_w_eulerian(name):
    family, n = name[0], int(name[1:])
    assert _signed_descents(family, n) == W_EULERIAN[name]
    system = RootSystemId(family, n)
    poly = pave(SemisimpleClassical(()), system, peterson_space(system)).polynomial
    assert poly.as_list()[::2] == W_EULERIAN[name]


def _q_product(h):
    """Coefficients of prod_j [h(j) - j + 1]_q, [m]_q = 1 + q + ... + q^{m-1}."""
    out = [1]
    for j, v in enumerate(h.values, start=1):
        m = v - j + 1
        new = [0] * (len(out) + m - 1)
        for i, c in enumerate(out):
            for k in range(m):
                new[i + k] += c
        out = new
    return out


@pytest.mark.parametrize("n", [3, 4, 5])
def test_type_a_regular_nilpotent_product_formula(n):
    system = RootSystemId("A", n - 1)
    checked = 0
    for h in all_hess_functions(n):
        poly = pave(RegularNilpotent(), system, from_h(h)).polynomial
        assert poly.as_list()[::2] == _q_product(h), str(h)
        checked += 1
    assert checked == math.comb(2 * n, n) // (n + 1)


def _inv_h_counts(h):
    """Permutations w of {1..n} by inv_h(w), n = len(h)."""
    n = len(h)
    counts = {}
    for w in itertools.permutations(range(1, n + 1)):
        k = sum(1 for i in range(n) for j in range(i + 1, n)
                if w[j] < w[i] <= h[w[j] - 1])
        counts[k] = counts.get(k, 0) + 1
    return [counts.get(k, 0) for k in range(max(counts) + 1)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_type_a_regular_semisimple_shareshian_wachs(n):
    system = RootSystemId("A", n - 1)
    checked = 0
    for h in all_hess_functions(n):
        poly = pave(SemisimpleClassical(()), system, from_h(h)).polynomial
        assert poly.as_list()[::2] == _inv_h_counts(h.values), str(h)
        checked += 1
    assert checked == math.comb(2 * n, n) // (n + 1)


def _ideal_exponent_product(heights):
    """Coefficients in q = x^2 of prod_i [m_i + 1]_q, m the dual partition
    of lambda_k = #{roots of height k in the ideal}."""
    lam = [heights.count(k) for k in range(1, max(heights, default=0) + 1)]
    m = [sum(1 for p in lam if p >= i) for i in range(1, max(lam, default=0) + 1)]
    out = [1]
    for e in m:
        new = [0] * (len(out) + e)
        for i, c in enumerate(out):
            for k in range(e + 1):
                new[i + k] += c
        out = new
    return out


IDEAL_SYSTEMS = [RootSystemId(f, n) for f, n in
                 (("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 2), ("C", 3),
                  ("D", 3), ("D", 4))]


@pytest.mark.parametrize("system", IDEAL_SYSTEMS, ids=str)
def test_regular_nilpotent_sommers_tymoczko(system):
    for H in enumerate_spaces(system):
        heights = [-sum(a.coeffs) for a in H.roots if sum(a.coeffs) < 0]
        poly = pave(RegularNilpotent(), system, H).polynomial
        assert poly.as_list()[::2] == _ideal_exponent_product(heights), str(H)
