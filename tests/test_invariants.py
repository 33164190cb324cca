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
"""

import math

import pytest

from hesspave.hessenberg import borel_space, enumerate_spaces
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
