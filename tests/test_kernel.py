"""The signed position pair kernel against a Euclidean reference.

The reference acts the way the Weyl group acts on R^m: the window permutes
and signs the coordinates of a root's Euclidean vector, and the image vector
is looked up as a root.  The action on every root, inversion sets, lengths,
complement roots and the Levi formula are checked against it for every
element of the small classical groups.
"""

import pytest

from hesspave.hessenberg import (
    borel_space,
    complement_roots,
    enumerate_spaces,
    full_space,
    peterson_space,
)
from hesspave.operators import RegularNilpotent, SemisimpleClassical, TypeAGeneral
from hesspave.orbit_oracle import _oracle_data, orbit_roots
from hesspave.paving import cell_formula
from hesspave.rootsys import RootSystemId, all_roots, euclidean, positive_roots
from hesspave.weyl import enumerate_weyl, inversion_set

SYSTEMS = [
    RootSystemId("A", 2), RootSystemId("A", 3), RootSystemId("A", 4),
    RootSystemId("B", 2), RootSystemId("B", 3),
    RootSystemId("C", 2), RootSystemId("C", 3),
    RootSystemId("D", 3), RootSystemId("D", 4),
]


def euclidean_action(system):
    """(pi, alpha) -> pi(alpha): pi sends e_i to sgn(w_i) e_{|w_i|}."""
    vector = {a: euclidean(system, a) for a in all_roots(system)}
    root = {v: a for a, v in vector.items()}

    def act(pi, alpha):
        v = vector[alpha]
        out = [0] * len(v)
        for i, w in enumerate(pi.window):
            out[abs(w) - 1] = v[i] if w > 0 else -v[i]
        return root[tuple(out)]

    return act


@pytest.mark.parametrize("system", SYSTEMS, ids=str)
def test_kernel_matches_euclidean_action(system):
    act = euclidean_action(system)
    pos = positive_roots(system)
    pos_set = set(pos)
    spaces = enumerate_spaces(system)
    for pi in enumerate_weyl(system):
        assert all(pi.act(a) == act(pi, a) for a in all_roots(system))
        inv = pi.inverse()
        images = {a: act(inv, a) for a in pos}
        expected = frozenset(a for a in pos if images[a] not in pos_set)
        assert inversion_set(pi) == expected
        assert pi.length() == len(expected)
        for H in spaces:
            assert complement_roots(H, pi) == frozenset(
                a for a in pos if images[a] not in H.roots
            )


def reference_cell(spec, system, H, pi, act):
    """The Levi formula with the Euclidean action: empty iff pi^{-1} maps
    supp N outside M_H, else |Phi_pi| minus the roots a of
    (Phi_pi minus Phi_l) u Phi_{(U_pi cap L).N} with pi^{-1} a outside M_H."""
    data = _oracle_data(spec, system)
    inv = pi.inverse()
    if any(act(inv, b) not in H.roots for b in data.support):
        return False, None
    inv_set = frozenset(a for a in positive_roots(system) if act(inv, a).is_negative)
    moved = (inv_set - data.levi) | orbit_roots(spec, system, pi)
    return True, len(inv_set) - sum(1 for a in moved if act(inv, a) not in H.roots)


def _levi_spec(system):
    if system.family == "A":  # N on the first block only
        return TypeAGeneral((("x", (2,)), ("y", (1,) * (system.rank - 1))))
    return SemisimpleClassical(((1,),))


@pytest.mark.parametrize("system", SYSTEMS, ids=str)
def test_cell_formula_matches_euclidean_reference(system):
    act = euclidean_action(system)
    if system.rank <= 3:
        spaces = enumerate_spaces(system)
    else:  # every space of A4 and D4 would add seconds of orbit roots
        spaces = (borel_space(system), peterson_space(system), full_space(system))
    for spec in (SemisimpleClassical(()), RegularNilpotent(), _levi_spec(system)):
        for H in spaces:
            for pi in enumerate_weyl(system):
                r = cell_formula(spec, system, H, pi)
                expected = reference_cell(spec, system, H, pi, act)
                assert (r.nonempty, r.dim) == expected, (spec, H, pi)
