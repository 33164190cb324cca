"""Orbit roots as an additive closure against the exact conjugation.

The formula path takes Phi_{(U_pi cap L).N} to be the closure of supp N
under adding roots of Phi_pi cap Phi_l through positive roots
(rootsys.root_closure).  Orbit roots always lie in that closure; that the
generic coefficients never cancel, so that every closure root is an orbit
root, is what these tests guard: on every Weyl element the closure must
equal orbit_roots(mode="symbolic"), the exact Poly conjugation, and on the
larger slow cases the randomized two-sample conjugation mod p.  In B/C/D
only the regular nilpotent has N != 0 (a semisimple operator has no orbit
roots), so it is the one operator checked there.
"""

import pytest

from hesspave.operators import (
    RegularNilpotent,
    TypeAGeneral,
    TypeANilpotent,
    canonical_form,
    levi_roots,
)
from hesspave.orbit_oracle import orbit_roots
from hesspave.rootsys import RootSystemId, root_closure, root_index
from hesspave.weyl import enumerate_weyl, inversion_set


def closure_orbit_roots(spec, system, pi):
    index = root_index(system)
    start = [index.at[b] for b in canonical_form(spec, system).support]
    steps = [index.at[a] for a in inversion_set(pi) & levi_roots(spec, system)]
    return frozenset(index.positive[k] for k in root_closure(system, start, steps))


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


GENERAL = {
    2: ((("x", (2,)), ("y", (1,))), (("x", (1,)), ("y", (2,)))),
    3: ((("x", (2,)), ("y", (1, 1))), (("x", (2, 1)), ("y", (1,)))),
    4: ((("x", (3,)), ("y", (2,))), (("x", (2, 1)), ("y", (1,)), ("z", (1,)))),
}


def _cases():
    out = []
    for n in (2, 3, 4):
        system = RootSystemId("A", n)
        out += [(TypeANilpotent(mu), system) for mu in _partitions(n + 1)]
        out += [(TypeAGeneral(blocks), system) for blocks in GENERAL[n]]
    # in B/C/D the regular nilpotent is the one operator with N != 0
    for fam, ranks in (("B", (2, 3)), ("C", (2, 3)), ("D", (3, 4))):
        out += [(RegularNilpotent(), RootSystemId(fam, n)) for n in ranks]
    return out


CASES = _cases()


@pytest.mark.parametrize("spec,system", CASES,
                         ids=[f"{system} {spec}" for spec, system in CASES])
def test_closure_equals_symbolic_orbit_roots(spec, system):
    levi = levi_roots(spec, system)
    for pi in enumerate_weyl(system):
        closure = closure_orbit_roots(spec, system, pi)
        assert closure == orbit_roots(spec, system, pi, mode="symbolic"), pi
        assert closure <= levi  # so cell_formula counts no root twice


SLOW = [
    (TypeANilpotent((2, 2, 1, 1, 1)), RootSystemId("A", 6)),
    (TypeANilpotent((4, 3)), RootSystemId("A", 6)),
    (RegularNilpotent(), RootSystemId("A", 6)),
    (RegularNilpotent(), RootSystemId("B", 5)),
    (RegularNilpotent(), RootSystemId("C", 5)),
    (RegularNilpotent(), RootSystemId("D", 5)),
]


@pytest.mark.slow
@pytest.mark.parametrize("spec,system", SLOW,
                         ids=[f"{system} {spec}" for spec, system in SLOW])
def test_closure_equals_randomized_orbit_roots(spec, system):
    for pi in enumerate_weyl(system):
        assert closure_orbit_roots(spec, system, pi) == \
            orbit_roots(spec, system, pi, mode="randomized", seed=5), pi
