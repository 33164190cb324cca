"""pave sets each path up once and maps one bound cell kernel over W.

The space's system, the method and, on the oracle path, trials and seed are
checked before W is built, the spec's and the space's data are looked up
once per paving, and each cell checks only that its pi belongs to the
system.  cell_report calls the same kernels, so a paving's reports are the
cell_report of each pi.
"""

import pytest

from hesspave import orbit_oracle, paving
from hesspave.hessenberg import (
    borel_space,
    enumerate_spaces,
    full_space,
    peterson_space,
)
from hesspave.operators import (
    RegularNilpotent,
    SemisimpleClassical,
    TypeAGeneral,
    TypeANilpotent,
)
from hesspave.paving import cell_report, pave
from hesspave.rootsys import RootSystemId
from hesspave.weyl import enumerate_weyl

A3 = RootSystemId("A", 3)
A3_SPECS = (TypeANilpotent((2, 1, 1)), TypeAGeneral((("x", (2,)), ("y", (1, 1)))),
            RegularNilpotent())
BCD = (RootSystemId("B", 3), RootSystemId("C", 3), RootSystemId("D", 4))
BCD_SPECS = (RegularNilpotent(), SemisimpleClassical(((1,),)))
SPACES = (peterson_space, borel_space, full_space)


def _cells(spec, system, H, method, seed=0):
    return tuple(cell_report(spec, system, H, pi, method, seed=seed)
                 for pi in enumerate_weyl(system))


@pytest.mark.parametrize("method", ["formula", "tableau"])
@pytest.mark.parametrize("spec", A3_SPECS, ids=repr)
def test_pave_is_cell_report_on_every_A3_space(spec, method):
    for H in enumerate_spaces(A3):
        assert pave(spec, A3, H, method=method).reports == _cells(
            spec, A3, H, method)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.__name__)
@pytest.mark.parametrize("spec", BCD_SPECS, ids=repr)
@pytest.mark.parametrize("system", BCD, ids=str)
def test_pave_is_cell_report_in_types_b_c_d(system, spec, space):
    H = space(system)
    assert pave(spec, system, H).reports == _cells(spec, system, H, "formula")


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("system", [A3, RootSystemId("B", 3)], ids=str)
def test_pave_is_cell_report_on_the_oracle_path(system, seed):
    spec, H = RegularNilpotent(), peterson_space(system)
    assert pave(spec, system, H, method="oracle", seed=seed).reports == _cells(
        spec, system, H, "oracle", seed)


def test_each_path_is_set_up_once_per_paving(monkeypatch):
    """_formula_data and _tableau_data are looked up once per pave, on A2's
    6 cells as on A4's 120."""
    looked_up = []
    for name in ("_formula_data", "_tableau_data"):
        def counted(*args, _name=name, _fn=getattr(paving, name)):
            looked_up.append(_name)
            return _fn(*args)

        monkeypatch.setattr(paving, name, counted)
    for system in (RootSystemId("A", 2), RootSystemId("A", 4)):
        for method in ("formula", "tableau"):
            looked_up.clear()
            pave(RegularNilpotent(), system, peterson_space(system),
                 method=method)
            assert looked_up == [f"_{method}_data"]


class _Untouched:
    """A stand-in for W whose iteration fails the test."""

    def __iter__(self):
        raise AssertionError("W was iterated")


A2 = RootSystemId("A", 2)
BAD_SETUPS = {
    "method": (dict(method="guess"), "unknown method 'guess'"),
    "space": (dict(H=peterson_space(RootSystemId("B", 2))),
              "space of B2 in a cell of A2"),
    "trials": (dict(method="oracle", trials=2.0), "got 2.0"),
    "seed": (dict(method="oracle", seed=True), "got True"),
}


@pytest.mark.parametrize("bad", BAD_SETUPS)
def test_a_bad_setup_raises_before_w_is_walked(monkeypatch, bad):
    monkeypatch.setattr(paving, "enumerate_weyl", lambda s: _Untouched())
    kwargs, message = BAD_SETUPS[bad]
    kwargs = {"H": peterson_space(A2), **kwargs}
    with pytest.raises(ValueError, match=message):
        pave(RegularNilpotent(), A2, **kwargs)
    with pytest.raises(AssertionError, match="W was iterated"):
        pave(RegularNilpotent(), A2, peterson_space(A2))


@pytest.mark.parametrize("trials", [2.0, "2", None, True, False, 0, -1],
                         ids=repr)
def test_trials_must_be_an_int_of_at_least_one(trials):
    H = peterson_space(A2)
    pi = enumerate_weyl(A2)[0]
    message = f"trials must be an int >= 1, got {trials!r}$"
    with pytest.raises(ValueError, match=message):
        pave(RegularNilpotent(), A2, H, method="oracle", trials=trials)
    with pytest.raises(ValueError, match=message):
        orbit_oracle.cell_dim_oracle(RegularNilpotent(), A2, H, pi,
                                     trials=trials)
    with pytest.raises(ValueError, match=message):
        cell_report(RegularNilpotent(), A2, H, pi, "oracle", trials=trials)
