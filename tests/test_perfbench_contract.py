"""The benchmark tracer in perfbench/ rebinds hesspave functions by name:
its SPANS and LEAVES tables and the positional ``mode`` of ``orbit_roots``.
A rename in the package that would crash a traced benchmark run fails
here."""

from pathlib import Path

from hesspave import RegularNilpotent, RootSystemId, cli, orbit_oracle, paving
from hesspave.hessenberg import peterson_space
from hesspave.weyl import identity

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_install_pave_uninstall(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    original = paving.pave
    tracer = Tracer("contract")
    tracer.install()
    try:
        assert paving.pave is not original
        for argv in (
            ["--rank", "2", "--regular-nilpotent", "--hess", "peterson"],
            ["--rank", "2", "--regular-nilpotent", "--hess", "peterson",
             "--method", "oracle"],
            ["--rank", "2", "--general", "x:2|y:1", "--hess", "full"],
            ["--rank", "4", "--nilpotent", "2,2,1", "--hess", "h=2,3,4,5,5"],
        ):
            assert cli.main(["pave", "--family", "A", *argv]) == 0
        # the call shape of perfbench/workloads.py, whose jobs=1 is the only
        # reason pave keeps the keyword
        a2 = RootSystemId("A", 2)
        result = paving.pave(RegularNilpotent(), a2, peterson_space(a2),
                             method="oracle", seed=1, jobs=1)
        assert result.polynomial.as_list() == [1, 0, 2, 0, 1]
        # the formula path's orbit roots are a closure, not a conjugation
        assert tracer.calls["orbit_oracle.orbit_roots.symbolic"] == 0
        assert tracer.calls["orbit_oracle.orbit_roots.randomized"] == 0
        # the tracer reads a positional mode at index 3
        orbit_oracle.orbit_roots(RegularNilpotent(), a2, identity(a2), "randomized")
        assert tracer.calls["orbit_oracle.orbit_roots.randomized"] == 1
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert paving.pave is original
    metrics = tracer.metrics(1.0)
    assert metrics["paving.cell_report.calls"] == 6 + 6 + 6 + 120 + 6
    assert metrics["orbit_oracle.cell_dim_oracle.calls"] == 6 + 6
