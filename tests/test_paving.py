import copy
import dataclasses
import itertools
import json
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from hesspave import paving, weyl
from hesspave.hessenberg import (
    HessenbergSpace,
    HessFunction,
    borel_space,
    enumerate_spaces,
    from_h,
    full_space,
    peterson_space,
)
from hesspave.operators import (
    RegularNilpotent,
    SemisimpleClassical,
    TypeAGeneral,
    TypeANilpotent,
)
from hesspave.paving import (
    CellReport,
    OracleDisagreement,
    PoincarePolynomial,
    cell_report,
    hess_label,
    pave,
    poincare,
    result_to_json,
    spec_label,
)
from hesspave.rootsys import RootSystemId, positive_roots
from hesspave.weyl import WeylElement, enumerate_weyl, identity


def test_cell_report_invariants():
    system = RootSystemId("A", 2)
    e = identity(system)
    with pytest.raises(ValueError):
        CellReport(e, True, None, "x")
    with pytest.raises(ValueError):
        CellReport(e, False, 0, "x")
    with pytest.raises(ValueError):
        CellReport(e, True, 1, "x")  # identity has no inversions


def test_cell_report_bounds_dim_by_the_length():
    system = RootSystemId("B", 3)
    pi = WeylElement(system, (-3, 1, -2))  # built here, so nothing cached yet
    for _ in range(2):  # the first length() counts, the second reads it back
        for dim in (pi.length() + 1, -1):
            with pytest.raises(ValueError, match="outside"):
                CellReport(pi, True, dim, "x")
        assert CellReport(pi, True, pi.length(), "x").dim == pi.length() > 0
        assert CellReport(pi, True, 0, "x").dim == 0


def test_pave_counts_each_length_once(monkeypatch):
    """Two pavings over one W count every element's |Phi_pi| once between
    them: the count is kept on the element."""
    system = RootSystemId("A", 3)
    W = tuple(WeylElement(system, w.window) for w in enumerate_weyl(system))
    monkeypatch.setattr(paving, "enumerate_weyl", lambda s: W)
    windows = []
    count = weyl._count

    def counting(window, *masks):
        windows.append(window)
        return count(window, *masks)

    monkeypatch.setattr(weyl, "_count", counting)
    spec = SemisimpleClassical(())
    for H in (full_space(system), peterson_space(system)):
        assert len(pave(spec, system, H).reports) == len(W)
    assert sorted(windows) == sorted(pi.window for pi in W)


def test_polynomial_validation_and_accessors():
    p = PoincarePolynomial(((0, 1), (2, 3), (4, 1)))
    assert p.euler_characteristic() == 5
    assert p.as_list() == [1, 0, 3, 0, 1]
    assert str(p) == "1 + 3x^2 + x^4"
    with pytest.raises(ValueError):
        PoincarePolynomial(((1, 1),))
    with pytest.raises(ValueError):
        PoincarePolynomial(((2, -1),))


def test_poincare_requires_exact_coverage():
    system = RootSystemId("A", 2)
    reports = [CellReport(w, True, w.length(), "t") for w in enumerate_weyl(system)]
    assert str(poincare(reports, system)) == "1 + 2x^2 + 2x^4 + x^6"
    with pytest.raises(ValueError):
        poincare(reports[:-1], system)
    with pytest.raises(ValueError, match="duplicate"):
        poincare(reports + [reports[0]], system)  # the first window, last


def test_poincare_cover_check_is_exact_and_order_free():
    system = RootSystemId("A", 2)
    reports = [CellReport(w, True, w.length(), "t") for w in enumerate_weyl(system)]
    expected = poincare(reports, system)
    assert poincare(reports[::-1], system) == expected
    with pytest.raises(ValueError, match="duplicate"):
        poincare(reports[:-1] + [reports[0]], system)  # |W| reports, one twice
    with pytest.raises(ValueError, match="cover"):
        poincare(reports[1:], system)
    # the missing window (3, 2, 1) supplied by an element of B3
    b3_top = WeylElement(RootSystemId("B", 3), reports[-1].pi.window)
    with pytest.raises(ValueError, match="B3"):
        poincare(reports[:-1] + [CellReport(b3_top, False, None, "t")], system)



def test_poincare_reads_a_one_shot_iterator():
    system = RootSystemId("B", 2)
    reports = [CellReport(w, True, w.length(), "t") for w in enumerate_weyl(system)]
    assert poincare(iter(reports), system) == poincare(reports, system)


def test_poincare_keeps_no_set_of_windows():
    """The cover check sorts a list of the windows: aggregating A6's 5,040
    reports peaks far below a 5,040-entry set (about 640 KiB)."""
    system = RootSystemId("A", 6)
    reports = [CellReport(w, True, w.length(), "t") for w in enumerate_weyl(system)]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        p = poincare(reports, system)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert p.euler_characteristic() == 5040
    assert peak <= 128 * 1024


ROUND_TRIPS = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "replace": dataclasses.replace,
}


@pytest.mark.parametrize("how", ROUND_TRIPS)
@pytest.mark.parametrize("counted", [False, True])
def test_records_are_slotted_and_round_trip(how, counted):
    """Neither per-cell record keeps an instance dict, and each comes back
    equal, in the one interned system, with or without a counted length."""
    system = RootSystemId("D", 4)
    pi = WeylElement(system, (-4, 2, -1, 3))
    n = WeylElement(system, pi.window).length()
    if counted:
        pi.length()
    r = CellReport(pi, False, None, "formula")
    assert not hasattr(pi, "__dict__") and not hasattr(r, "__dict__")
    back = ROUND_TRIPS[how](pi)
    assert back == pi and hash(back) == hash(pi) and back.system is system
    assert back.length() == n
    back = ROUND_TRIPS[how](r)
    assert back == r and hash(back) == hash(r) and back.pi.system is system
    assert back.pi.length() == n


def test_tableau_data_is_built_once_per_spec_and_space(monkeypatch):
    import sys

    from hesspave import hessenberg, operators, paving

    calls = {"to_h": 0, "multidiagram_of": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, owner in (("to_h", hessenberg), ("multidiagram_of", operators)):
        fn = getattr(owner, name)
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("hesspave") and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counting(name, fn))
    paving._tableau_data.cache_clear()
    system = RootSystemId("A", 3)
    specs = (TypeANilpotent((2, 1, 1)), RegularNilpotent())
    spaces = (from_h(HessFunction((2, 3, 4, 4))), full_space(system))
    for spec in specs:
        for H in spaces:
            pave(spec, system, H, method="tableau")
    assert calls == {"to_h": 4, "multidiagram_of": 4}


@pytest.mark.parametrize("system", [
    RootSystemId("A", 2), RootSystemId("B", 2),
    RootSystemId("C", 2), RootSystemId("D", 3),
], ids=str)
def test_regular_springer_fiber_is_a_point(system):
    result = pave(RegularNilpotent(), system, borel_space(system))
    assert result.polynomial == PoincarePolynomial(((0, 1),))


@pytest.mark.parametrize("system", [
    RootSystemId("A", 2), RootSystemId("B", 2),
    RootSystemId("C", 2), RootSystemId("D", 3),
], ids=str)
def test_full_space_gives_flag_variety(system):
    # whole flag variety: cell dims are the Bruhat lengths
    expected = {}
    for w in enumerate_weyl(system):
        expected[2 * w.length()] = expected.get(2 * w.length(), 0) + 1
    result = pave(RegularNilpotent(), system, full_space(system))
    assert result.polynomial == PoincarePolynomial(tuple(sorted(expected.items())))


def test_peterson_variety_betti_numbers():
    a2 = RootSystemId("A", 2)
    result = pave(RegularNilpotent(), a2, peterson_space(a2))
    assert str(result.polynomial) == "1 + 2x^2 + x^4"
    a3 = RootSystemId("A", 3)
    result = pave(RegularNilpotent(), a3, peterson_space(a3))
    assert str(result.polynomial) == "1 + 3x^2 + 3x^4 + x^6"


def test_regular_semisimple_peterson_counts_descents():
    # h = (2, 3, ..., n, n): Betti numbers are the Eulerian numbers
    a2 = RootSystemId("A", 2)
    result = pave(SemisimpleClassical(()), a2, peterson_space(a2))
    assert result.polynomial.as_list() == [1, 0, 4, 0, 1]


def test_semisimple_levi_block_dims():
    # S with a1(S) = 0 in A2, H = Borel: dims alternate over the six cells
    a2 = RootSystemId("A", 2)
    result = pave(SemisimpleClassical(((1,),)), a2, borel_space(a2))
    dims = [r.dim for r in result.reports]
    assert sorted(dims) == [0, 0, 0, 1, 1, 1]
    assert all(r.nonempty for r in result.reports)


def test_three_paths_agree_on_a_nilpotent_paving():
    system = RootSystemId("A", 3)
    spec = TypeANilpotent((2, 2))
    H = from_h(HessFunction((2, 3, 4, 4)))
    by_formula = pave(spec, system, H, method="formula")
    by_tableau = pave(spec, system, H, method="tableau")
    by_oracle = pave(spec, system, H, method="oracle", trials=3, seed=11)
    key = lambda res: [(r.pi, r.nonempty, r.dim) for r in res.reports]
    assert key(by_formula) == key(by_tableau) == key(by_oracle)
    assert by_formula.polynomial == by_tableau.polynomial == by_oracle.polynomial


def test_typeA_general_equal_blocks_are_interchangeable():
    system = RootSystemId("A", 3)
    H = from_h(HessFunction((2, 3, 4, 4)))
    p1 = pave(TypeAGeneral((("x", (2,)), ("y", (1, 1)))), system, H)
    p2 = pave(TypeAGeneral((("y", (1, 1)), ("x", (2,)))), system, H)
    assert p1.polynomial == p2.polynomial


def test_monotonicity_in_the_hessenberg_space():
    # growing H keeps nonempty cells nonempty and never shrinks them
    system = RootSystemId("A", 2)
    spec = RegularNilpotent()
    spaces = enumerate_spaces(system)
    results = {H: pave(spec, system, H) for H in spaces}
    for H, K in itertools.product(spaces, spaces):
        if not set(H.roots) <= set(K.roots):
            continue
        for rh, rk in zip(results[H].reports, results[K].reports):
            if rh.nonempty:
                assert rk.nonempty and rh.dim <= rk.dim


@pytest.mark.parametrize("jobs", [0, -3, 2, True, 1.0, "2"], ids=repr)
def test_pave_accepts_only_jobs_one(jobs):
    # the keyword remains for the benchmark's jobs=1; nothing else runs
    system = RootSystemId("B", 2)
    H = peterson_space(system)
    with pytest.raises(ValueError, match=f"got {jobs!r}$"):
        pave(RegularNilpotent(), system, H, jobs=jobs)
    assert pave(RegularNilpotent(), system, H, jobs=1) == pave(
        RegularNilpotent(), system, H)


def test_importing_the_package_loads_no_pool():
    """No process-pool machinery loads: a fresh interpreter that imports
    the package and its CLI and paves A3's Peterson space through the
    oracle has none of it."""
    env = dict(os.environ, PYTHONPATH=str(Path(paving.__file__).parents[1]))
    code = ("import sys, hesspave, hesspave.cli; "
            "hesspave.cli.main(['pave', '--family', 'A', '--rank', '3',"
            " '--regular-nilpotent', '--hess', 'peterson',"
            " '--method', 'oracle']); "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing')"
            " if m in sys.modules), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    assert "poincare: " in proc.stdout
    assert proc.stderr.strip() == "[]"


def test_formula_does_not_depend_on_the_seed():
    # the seed reaches only the oracle: orbit roots are an exact closure
    system = RootSystemId("A", 5)
    spec = TypeANilpotent((2, 2, 1, 1))
    H = from_h(HessFunction((3, 3, 4, 5, 6, 6)))
    assert pave(spec, system, H, seed=0) == pave(spec, system, H, seed=7)


def test_oracle_disagreement_carries_pi(monkeypatch):
    import hesspave.paving as paving_mod
    from hesspave.orbit_oracle import OracleVerdict

    system = RootSystemId("A", 2)
    monkeypatch.setattr(paving_mod, "cell_dim_oracle",
                        lambda *a, **k: OracleVerdict("inconsistent"))
    w = WeylElement(system, (2, 1, 3))
    with pytest.raises(OracleDisagreement) as err:
        paving_mod.cell_oracle(RegularNilpotent(), system,
                               borel_space(system), w)
    assert err.value.pi == w


def test_oracle_disagreement_pickles():
    import pickle

    w = WeylElement(RootSystemId("A", 2), (2, 1, 3))
    e = pickle.loads(pickle.dumps(OracleDisagreement(w, "x")))
    assert e.pi == w
    assert str(e) == str(OracleDisagreement(w, "x"))


def test_labels():
    assert spec_label(RegularNilpotent()) == "regular-nilpotent"
    assert spec_label(TypeANilpotent((2, 1))) == "nilpotent:2,1"
    assert spec_label(SemisimpleClassical(())) == "semisimple:regular"
    assert spec_label(SemisimpleClassical(((1, 2), (4,)))) == "semisimple:1,2;4"
    assert spec_label(TypeAGeneral((("x", (2,)),))) == "general:x:2"
    a2 = RootSystemId("A", 2)
    assert hess_label(borel_space(a2)) == {"h": "1,2,3"}
    b2 = RootSystemId("B", 2)
    assert "M_H" in hess_label(borel_space(b2))


def test_result_json_shape():
    system = RootSystemId("A", 2)
    H = peterson_space(system)
    result = pave(RegularNilpotent(), system, H)
    obj = json.loads(result_to_json(RegularNilpotent(), H, result))
    assert obj["type"] == "A" and obj["rank"] == 2
    assert obj["operator"] == "regular-nilpotent"
    assert obj["h"] == "2,3,3"
    assert len(obj["cells"]) == 6
    assert obj["poincare"] == [1, 0, 2, 0, 1]
    empty = [c for c in obj["cells"] if not c["nonempty"]]
    assert all("dim" not in c for c in empty)


def test_unknown_method_rejected():
    system = RootSystemId("A", 2)
    with pytest.raises(ValueError):
        cell_report(RegularNilpotent(), system, borel_space(system),
                    identity(system), method="guess")


def test_oracle_disagreement_names_the_reason(monkeypatch):
    import pickle

    import hesspave.paving as paving_mod
    from hesspave.orbit_oracle import REASONS, OracleVerdict

    system = RootSystemId("A", 2)
    monkeypatch.setattr(paving_mod, "cell_dim_oracle", lambda *a, **k:
                        OracleVerdict("inconsistent", reason="late-pin"))
    w = WeylElement(system, (2, 1, 3))
    with pytest.raises(OracleDisagreement) as err:
        paving_mod.cell_oracle(RegularNilpotent(), system, borel_space(system), w)
    e = pickle.loads(pickle.dumps(err.value))
    assert e.pi == w and e.reason == "late-pin"
    assert str(e) == str(err.value)
    assert REASONS["late-pin"] in str(e) and "[late-pin]" in str(e)


@pytest.mark.parametrize("method", ["formula", "tableau", "oracle"])
def test_paths_accept_list_windows_and_set_spaces(method):
    system = RootSystemId("A", 2)
    spec = TypeANilpotent((2, 1))
    H = peterson_space(system)
    loose = HessenbergSpace(system, set(H.roots))
    assert loose == H and hash(loose) == hash(H)
    for pi in enumerate_weyl(system):
        listed = WeylElement(system, list(pi.window))
        assert listed == pi and hash(listed) == hash(pi)
        expected = cell_report(spec, system, H, pi, method)
        assert cell_report(spec, system, H, listed, method) == expected
        assert cell_report(spec, system, loose, pi, method) == expected


@pytest.mark.parametrize("method", ["formula", "tableau", "oracle"])
def test_a_space_or_element_of_another_system_is_refused(method):
    # Unchecked, the formula and oracle paths pave A3 over B3's Peterson
    # space to the polynomial 0, and the tableau path fails for an
    # unrelated reason; cell_report, which pave goes through, names both.
    A3, B3 = RootSystemId("A", 3), RootSystemId("B", 3)
    spec = RegularNilpotent()
    with pytest.raises(ValueError, match="space of B3 in a cell of A3"):
        pave(spec, A3, peterson_space(B3), method=method)
    with pytest.raises(ValueError, match="Weyl element of B3 in a cell of A3"):
        cell_report(spec, A3, peterson_space(A3), identity(B3), method)
    # an equal system built apart is the same system
    expected = cell_report(spec, A3, peterson_space(A3), identity(A3), method)
    assert cell_report(spec, A3, peterson_space(RootSystemId("A", 3)),
                       identity(RootSystemId("A", 3)), method) == expected
