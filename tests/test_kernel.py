"""The signed position pair kernel against a Euclidean reference.

The reference acts the way the Weyl group acts on R^m: the window permutes
and signs the coordinates of a root's Euclidean vector, and the image vector
is looked up as a root.  The action on every root, inversion sets, lengths,
complement roots and the Levi formula are checked against it for every
element of the small classical groups.
"""

import ast
import inspect
import pathlib

import pytest

import hesspave
from hesspave.hessenberg import (
    HessenbergSpace,
    borel_space,
    complement_roots,
    enumerate_spaces,
    full_space,
    peterson_space,
)
from hesspave.operators import (
    RegularNilpotent,
    SemisimpleClassical,
    TypeAGeneral,
    TypeANilpotent,
    canonical_form,
    levi_roots,
)
from hesspave.orbit_oracle import orbit_roots
from hesspave import paving
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
    inv = pi.inverse()
    if any(act(inv, b) not in H.roots for b in canonical_form(spec, system).support):
        return False, None
    inv_set = frozenset(a for a in positive_roots(system) if act(inv, a).is_negative)
    moved = (inv_set - levi_roots(spec, system)) | orbit_roots(spec, system, pi)
    return True, len(inv_set) - sum(1 for a in moved if act(inv, a) not in H.roots)


def _levi_spec(system):
    if system.family == "A":  # N on the first block only
        return TypeAGeneral((("x", (2,)), ("y", (1,) * (system.rank - 1))))
    return SemisimpleClassical(((1,),))


# supp N nonempty and Phi_l = Phi+, with N not regular: the closure runs
# from more than the simple roots
_NILPOTENT_SPECS = {
    RootSystemId("A", 3): (TypeANilpotent((2, 1, 1)),),
    RootSystemId("A", 4): (TypeANilpotent((3, 2)),),
}


@pytest.mark.parametrize("system", SYSTEMS, ids=str)
def test_cell_formula_matches_euclidean_reference(system):
    act = euclidean_action(system)
    if system.rank <= 3:
        spaces = enumerate_spaces(system)
    else:  # every space of A4 and D4 would add seconds of orbit roots
        spaces = (borel_space(system), peterson_space(system), full_space(system))
    specs = (SemisimpleClassical(()), RegularNilpotent(), _levi_spec(system),
             *_NILPOTENT_SPECS.get(system, ()))
    for spec in specs:
        for H in spaces:
            for pi in enumerate_weyl(system):
                r = cell_formula(spec, system, H, pi)
                expected = reference_cell(spec, system, H, pi, act)
                assert (r.nonempty, r.dim) == expected, (spec, H, pi)


def test_cell_formula_never_reads_the_length():
    """CellReport checks dim <= l(pi) with the element's own popcount; a
    formula that read pi.length() would make that check circular."""
    tree = ast.parse(inspect.getsource(paving.cell_formula))
    names = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert "length" not in names
    assert "_length" not in names


def _called(node) -> str | None:
    f = node.func
    return getattr(f, "id", getattr(f, "attr", None))


def test_cells_are_read_through_pis_own_window():
    """Every root-side cell question is read off HessenbergSpace.negative_pairs
    through pi's own window.  Only the tableau path, whose filling is pi^{-1}
    itself, reads pi^{-1}'s window, and a space keeps no image table."""
    calls, callers, kind_reads = 0, [], []
    for path in sorted(pathlib.Path(hesspave.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        calls += sum(isinstance(n, ast.Call) and _called(n) == "signed_inverse"
                     for n in ast.walk(tree))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            name = f"{path.stem}.{fn.name}"
            spaces = {a.arg for a in fn.args.args + fn.args.kwonlyargs
                      if a.annotation is not None
                      and ast.unparse(a.annotation) == "HessenbergSpace"}
            for n in ast.walk(fn):
                if isinstance(n, ast.Call) and _called(n) == "signed_inverse":
                    callers.append(name)
                if (isinstance(n, ast.Attribute) and n.attr == "kind"
                        and isinstance(n.value, ast.Name) and n.value.id in spaces):
                    kind_reads.append(name)
    assert calls == 1 and callers == ["paving.cell_tableau"]
    assert not kind_reads
    assert not hasattr(HessenbergSpace, "kind")
