import json

import pytest

from hesspave import cli
from hesspave.hessenberg import enumerate_spaces
from hesspave.orbit_oracle import _symbolic_rows
from hesspave.rootsys import ResourceCapError, RootSystemId, root_index, weyl_order
from hesspave.weyl import MAX_WEYL_ORDER, enumerate_weyl


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roots_text(capsys):
    code, out, _ = run(capsys, "roots", "--family", "B", "--rank", "2")
    assert code == 0
    assert "4 positive roots, 2 rows" in out
    assert "vertical=True" in out
    assert "row 1" in out and "row 2" in out


def test_roots_json(capsys):
    code, out, _ = run(capsys, "roots", "--family", "D", "--rank", "4",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 12 and obj["vertical"] is True
    assert len(obj["roots"]) == 12
    assert {r["row"] for r in obj["roots"]} == {1, 2, 3, 4}


def test_roots_long_root_shown(capsys):
    code, out, _ = run(capsys, "roots", "--family", "C", "--rank", "2")
    assert code == 0
    assert "long=2a1+a2" in out
    assert "Heisenberg" in out


def test_spaces_counts(capsys):
    code, out, _ = run(capsys, "spaces", "--family", "A", "--rank", "2")
    assert code == 0 and "5 Hessenberg spaces" in out
    code, out, _ = run(capsys, "spaces", "--family", "A", "--rank", "3",
                       "--list")
    assert code == 0 and "14 Hessenberg spaces" in out
    assert out.count("h=") == 14
    code, out, _ = run(capsys, "spaces", "--family", "B", "--rank", "2",
                       "--format", "json")
    assert json.loads(out)["count"] == 6


def test_spaces_resource_cap(capsys):
    code, _, err = run(capsys, "spaces", "--family", "B", "--rank", "9")
    assert code == 4
    assert "resource cap" in err


def test_pave_text(capsys):
    code, out, _ = run(capsys, "pave", "--family", "A", "--rank", "2",
                       "--nilpotent", "1,1,1", "--hess", "full")
    assert code == 0
    assert "poincare: 1 + 2x^2 + 2x^4 + x^6" in out
    assert "euler: 6" in out
    assert out.count("pi=[") == 6


def test_pave_peterson(capsys):
    code, out, _ = run(capsys, "pave", "--family", "A", "--rank", "3",
                       "--nilpotent", "4", "--hess", "peterson")
    assert code == 0
    assert "poincare: 1 + 3x^2 + 3x^4 + x^6" in out
    assert "euler: 8" in out


def test_pave_point(capsys):
    code, out, _ = run(capsys, "pave", "--family", "C", "--rank", "2",
                       "--regular-nilpotent", "--hess", "borel")
    assert code == 0
    assert "poincare: 1\n" in out


def test_pave_csv(capsys):
    code, out, _ = run(capsys, "pave", "--family", "B", "--rank", "2",
                       "--regular-nilpotent", "--hess", "full",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "window,length,nonempty,dim"
    assert len(lines) == 9
    assert lines[1].split(",")[0].count(" ") == 1  # space-separated window


def test_pave_json_roundtrip(capsys):
    argv = ("pave", "--family", "A", "--rank", "2", "--regular-nilpotent",
            "--hess", "h=2,3,3", "--format", "json")
    code, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code == code2 == 0
    assert out1 == out2  # deterministic
    obj = json.loads(out1)
    assert obj["h"] == "2,3,3"
    assert obj["poincare"] == [1, 0, 2, 0, 1]


def test_pave_oracle_method(capsys):
    code, out, _ = run(capsys, "pave", "--family", "D", "--rank", "3",
                       "--regular-nilpotent", "--hess", "peterson",
                       "--method", "oracle", "--trials", "3", "--seed", "5")
    assert code == 0
    assert "poincare: 1 + 3x^2 + 3x^4 + x^6" in out
    assert "euler: 8" in out


def test_pave_neg_hess(capsys):
    code, out, _ = run(capsys, "pave", "--family", "A", "--rank", "2",
                       "--regular-nilpotent", "--hess", "neg=-1,0;0,-1")
    assert code == 0
    assert "poincare: 1 + 2x^2 + x^4" in out


def test_config_errors(capsys):
    code, _, err = run(capsys, "pave", "--family", "A", "--rank", "2",
                       "--nilpotent", "2,2,1", "--hess", "full")
    assert code == 2
    assert "sum to 5, expected 3" in err
    code, _, err = run(capsys, "pave", "--family", "B", "--rank", "2",
                       "--nilpotent", "2,1", "--hess", "full")
    assert code == 2
    code, _, err = run(capsys, "pave", "--family", "A", "--rank", "2",
                       "--regular-nilpotent", "--nilpotent", "3",
                       "--hess", "full")
    assert code == 2 and "exactly one operator" in err
    code, _, err = run(capsys, "pave", "--family", "A", "--rank", "2",
                       "--regular-nilpotent")
    assert code == 2 and "--hess" in err
    code, _, err = run(capsys, "pave", "--family", "B", "--rank", "2",
                       "--regular-nilpotent", "--hess", "h=2,3,3")
    assert code == 2
    code, _, err = run(capsys, "verify", "--family", "A", "--rank", "2",
                       "--regular-nilpotent")
    assert code == 2


def test_bad_family_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["roots", "--family", "E", "--rank", "6"])
    assert err.value.code == 2


def test_pave_resource_cap(capsys):
    code, _, err = run(capsys, "pave", "--family", "B", "--rank", "11",
                       "--regular-nilpotent", "--hess", "borel")
    assert code == 4 and "resource cap" in err


def test_pave_weyl_cap(capsys):
    assert weyl_order(RootSystemId("A", 9)) > MAX_WEYL_ORDER
    code, _, err = run(capsys, "pave", "--family", "A", "--rank", "9",
                       "--regular-nilpotent", "--hess", "borel")
    assert code == 4 and "resource cap" in err


@pytest.mark.parametrize("argv", [
    ("--rank", "9", "--regular-nilpotent", "--hess", "peterson"),
    ("--rank", "8", "--regular-nilpotent", "--all-hess"),
], ids=["weyl-order", "space-enumeration"])
def test_verify_resource_caps(capsys, argv):
    code, out, err = run(capsys, "verify", "--family", "A", *argv)
    assert code == 4 and "resource cap" in err and not out


def test_malformed_operator_precedes_the_cap(capsys):
    code, _, err = run(capsys, "pave", "--family", "A", "--rank", "9",
                       "--nilpotent", "3,3", "--hess", "borel")
    assert code == 2 and "expected 10" in err


@pytest.mark.parametrize("command", ["pave", "verify"])
def test_cap_precedes_the_space(capsys, command):
    # the Weyl-order cap is checked from the order alone: a capped request
    # builds neither the space nor the root index
    before = root_index.cache_info().currsize
    code, out, err = run(capsys, command, "--family", "A", "--rank", "30",
                         "--semisimple", "1,2", "--hess", "peterson")
    assert code == 4 and "resource cap" in err and not out
    assert root_index.cache_info().currsize == before
    # a malformed space on a capped system is refused by the cap too
    code, _, err = run(capsys, command, "--family", "A", "--rank", "9",
                       "--regular-nilpotent", "--hess", "h=1,2")
    assert code == 4 and "resource cap" in err


@pytest.mark.parametrize("call", [
    lambda: enumerate_weyl(RootSystemId("A", 9)),
    lambda: enumerate_spaces(RootSystemId("A", 8)),
    lambda: _symbolic_rows(RootSystemId("B", 6), {}, frozenset()),
], ids=["enumerate_weyl", "enumerate_spaces", "symbolic_rows"])
def test_library_caps_raise_resource_cap_error(call):
    with pytest.raises(ResourceCapError):
        call()


def test_pave_oracle_jobs_disagreement(capsys, monkeypatch):
    # forked workers inherit the patch; the disagreement must reach the
    # parent as itself, not as a broken pool
    import hesspave.paving as paving_mod
    from hesspave.orbit_oracle import OracleVerdict

    monkeypatch.setattr(paving_mod, "cell_dim_oracle",
                        lambda *a, **k: OracleVerdict("inconsistent"))
    code, _, err = run(capsys, "pave", "--family", "A", "--rank", "2",
                       "--regular-nilpotent", "--hess", "full",
                       "--method", "oracle", "--jobs", "2")
    assert code == 3
    assert "oracle could not certify a dimension at pi=[1 2 3]" in err


def test_oracle_reason_in_pave_and_verify(capsys, monkeypatch):
    import hesspave.paving as paving_mod
    from hesspave.orbit_oracle import OracleVerdict

    monkeypatch.setattr(paving_mod, "cell_dim_oracle", lambda *a, **k:
                        OracleVerdict("inconsistent", reason="no-progress"))
    code, _, err = run(capsys, "pave", "--family", "A", "--rank", "2",
                       "--regular-nilpotent", "--hess", "full",
                       "--method", "oracle")
    assert code == 3
    assert "at pi=[1 2 3] (no-progress)" in err
    code, out, _ = run(capsys, "verify", "--family", "A", "--rank", "2",
                       "--regular-nilpotent", "--hess", "full")
    assert code == 3
    assert "FAIL" in out and "oracle=('inconsistent', 'no-progress')" in out


def test_verify_all_hess(capsys):
    code, out, _ = run(capsys, "verify", "--family", "A", "--rank", "2",
                       "--nilpotent", "2,1", "--all-hess",
                       "--trials", "3", "--seed", "3")
    assert code == 0
    lines = [ln for ln in out.strip().split("\n")]
    assert len(lines) == 5
    assert all(ln.startswith("pass hess=h=") for ln in lines)
    assert "tableau" in lines[0]


def test_verify_single_space_no_tableau_path(capsys):
    code, out, _ = run(capsys, "verify", "--family", "D", "--rank", "3",
                       "--regular-nilpotent", "--hess", "peterson",
                       "--trials", "3")
    assert code == 0
    assert "paths: formula, oracle" in out
    assert "tableau" not in out


def test_verify_names_first_disagreement(capsys, monkeypatch):
    real = cli.cell_report

    def corrupted(spec, system, H, pi, method="formula", **kw):
        r = real(spec, system, H, pi, method, **kw)
        if method == "formula" and pi.window == (3, 2, 1) and r.nonempty:
            return type(r)(pi, True, r.dim - 1, r.formula)
        return r

    monkeypatch.setattr(cli, "cell_report", corrupted)
    code, out, _ = run(capsys, "verify", "--family", "A", "--rank", "2",
                       "--regular-nilpotent", "--hess", "full", "--trials", "3")
    assert code == 3
    assert "FAIL" in out and "pi=[3 2 1]" in out


def _space_count(capsys, family, rank):
    _, out, _ = run(capsys, "spaces", "--family", family, "--rank", str(rank),
                    "--format", "json")
    return json.loads(out)["count"]


@pytest.mark.parametrize("family,rank,flags", [
    ("A", 3, ("--general", "x:2|y:1,1")),
    ("A", 3, ("--general", "x:2|y:1|z:1")),
    ("A", 3, ("--semisimple", "1")),
    ("B", 2, ("--semisimple", "1")),
    ("C", 3, ("--semisimple", "2")),
    ("D", 3, ("--semisimple", "2;3")),
], ids=str)
def test_verify_all_hess_levi_and_general(capsys, family, rank, flags):
    # only the oracle sees S, through semisimple_functional
    code, out, _ = run(capsys, "verify", "--family", family, "--rank", str(rank),
                       *flags, "--all-hess", "--trials", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == _space_count(capsys, family, rank)
    assert all(ln.startswith("pass hess=") for ln in lines)


@pytest.mark.parametrize("argv,message", [
    (("verify", "--family", "A", "--rank", "2", "--semisimple", "9",
      "--hess", "full"), "simple root index 9 out of range"),
    (("pave", "--family", "A", "--rank", "2", "--semisimple", "9",
      "--hess", "full"), "simple root index 9 out of range"),
    (("verify", "--family", "A", "--rank", "3", "--semisimple", "1,3",
      "--hess", "full"), "not connected"),
    (("verify", "--family", "A", "--rank", "1", "--regular-nilpotent",
      "--hess", "full", "--all-hess"), "exactly one of --hess and --all-hess"),
    (("pave", "--family", "B", "--rank", "2", "--regular-nilpotent",
      "--hess", "peterson", "--method", "tableau"), "no tableau path"),
    (("pave", "--family", "A", "--rank", "2", "--regular-nilpotent",
      "--hess", "neg=1,0"), "1,0 is not a negative root of A2"),
    (("pave", "--family", "A", "--rank", "2", "--regular-nilpotent",
      "--hess", "neg=-1,0;-1,-1,0"), "-1,-1,0 is not a negative root"),
])
def test_config_errors_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and message in err
    assert out == ""


@pytest.mark.parametrize("argv,message", [
    (("verify", "--trials", "0"), "argument --trials: expected a positive integer"),
    (("pave", "--trials", "-1"), "argument --trials: expected a positive integer"),
    (("pave", "--jobs", "0"), "argument --jobs: expected a positive integer"),
    (("pave", "--jobs", "-3"), "argument --jobs: expected a positive integer"),
    (("pave", "--jobs", "two"), "argument --jobs: expected a positive integer"),
    (("verify", "--jobs", "2"), "unrecognized arguments: --jobs 2"),
])
def test_bad_counts_are_usage_errors(capsys, argv, message):
    command, *rest = argv
    with pytest.raises(SystemExit) as err:
        cli.main([command, "--family", "A", "--rank", "2", "--regular-nilpotent",
                  "--hess", "full", *rest])
    assert err.value.code == 2
    assert message in capsys.readouterr().err


def test_internal_fault_is_not_a_config_error(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal invariant")

    monkeypatch.setattr(cli, "pave", broken)
    with pytest.raises(ValueError, match="internal invariant"):
        cli.main(["pave", "--family", "A", "--rank", "2", "--regular-nilpotent",
                  "--hess", "full"])
