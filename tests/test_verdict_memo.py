"""The oracle's verdict memo: a verify run votes once per (cell, condition set).

A cell BpiB cap H(M, H) sees H only through its condition set, the roots of
Phi_pi that pi^{-1} sends outside M_H, and the oracle seeds its trials by
(seed, trial, pi).  verify --all-hess hands one memo dict to every
cell_dim_oracle call of the run; these tests count its votes, compare every
memoized verdict with a fresh call, and check that the key tells seeds,
trial counts and specs apart.
"""

import pytest

from hesspave import cli, orbit_oracle, paving
from hesspave.hessenberg import HessenbergSpace, borel_space, enumerate_spaces
from hesspave.operators import RegularNilpotent, SemisimpleClassical, TypeANilpotent
from hesspave.orbit_oracle import OracleVerdict, cell_dim_oracle
from hesspave.paving import OracleDisagreement, cell_oracle
from hesspave.rootsys import Root, RootSystemId, positive_roots
from hesspave.weyl import WeylElement, enumerate_weyl, inversion_set


def _condition_set(H, pi):
    """The roots of Phi_pi that pi^{-1} sends outside M_H, from Root objects
    and H's root set, not from the oracle's position tables."""
    inv = pi.inverse()
    return frozenset(a for a in inversion_set(pi) if inv.act(a) not in H.roots)


def test_verify_votes_once_per_condition_set(monkeypatch, capsys):
    system = RootSystemId("B", 3)
    votes, cells = [], []
    vote, oracle = orbit_oracle._vote, paving.cell_dim_oracle

    def counted_vote(*args):
        votes.append(args)
        return vote(*args)

    def counted_oracle(*args, **kwargs):
        cells.append(args[2:4])
        return oracle(*args, **kwargs)

    monkeypatch.setattr(orbit_oracle, "_vote", counted_vote)
    monkeypatch.setattr(paving, "cell_dim_oracle", counted_oracle)
    assert cli.main(["verify", "--family", "B", "--rank", "3",
                     "--regular-nilpotent", "--all-hess"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 20
    distinct = {(pi, _condition_set(H, pi)) for H, pi in cells}
    assert len(cells) == 20 * len(enumerate_weyl(system)) == 960
    assert len(votes) == len(distinct) == 343


@pytest.mark.parametrize("system,spec", [
    (RootSystemId("B", 3), RegularNilpotent()),
    (RootSystemId("C", 3), RegularNilpotent()),
    (RootSystemId("A", 3), TypeANilpotent((2, 1, 1))),
], ids=str)
@pytest.mark.parametrize("seed", [0, 1])
def test_memoized_verdicts_equal_fresh_ones(system, spec, seed):
    memo = {}
    calls = 0
    for H in enumerate_spaces(system):
        for pi in enumerate_weyl(system):
            got = cell_dim_oracle(spec, system, H, pi, seed=seed, memo=memo)
            assert got == cell_dim_oracle(spec, system, H, pi, seed=seed)
            calls += 1
    assert 0 < len(memo) < calls


def _seeded_trial(system, weights, M0, stages, reach, rng):
    # a stand-in trial whose outcome is its stream's first draw, so that
    # each seed, and each trial, reads its own dimension
    return "dim", rng.randrange(10**6)


def test_memo_key_tells_seeds_and_trials_apart(monkeypatch):
    monkeypatch.setattr(orbit_oracle, "_solve_once", _seeded_trial)
    system = RootSystemId("A", 2)
    H, pi = borel_space(system), WeylElement(system, (3, 2, 1))
    spec = RegularNilpotent()
    memo = {}
    runs = [{"seed": 0, "trials": 1}, {"seed": 1, "trials": 1},
            {"seed": 0, "trials": 2}]
    fresh = [cell_dim_oracle(spec, system, H, pi, **kw) for kw in runs]
    assert len(set(fresh)) == len(runs)  # each call has its own verdict
    assert fresh[2] == OracleVerdict("inconsistent", reason="trial-split")
    for kw, want in zip(runs, fresh):
        assert cell_dim_oracle(spec, system, H, pi, memo=memo, **kw) == want
    assert len(memo) == len(runs)


def test_memo_key_tells_specs_apart():
    # On the Borel space the regular nilpotent leaves only the identity
    # cell; the regular semisimple paves every cell as a point.
    system = RootSystemId("A", 2)
    H, pi = borel_space(system), WeylElement(system, (3, 2, 1))
    memo = {}
    assert cell_dim_oracle(RegularNilpotent(), system, H, pi,
                           memo=memo) == OracleVerdict("empty")
    assert cell_dim_oracle(SemisimpleClassical(()), system, H, pi,
                           memo=memo) == OracleVerdict("dim", 0)
    assert len(memo) == 2


def test_memoized_inconsistent_verdict_raises_every_time():
    # the D4 cell where verify --all-hess stops with late-pin
    d4 = RootSystemId("D", 4)
    neg = [Root(c) for c in ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0),
                             (1, 0, 0, 0), (0, 1, 1, 0))]
    H = HessenbergSpace(d4, frozenset(positive_roots(d4)) | {-a for a in neg})
    pi = WeylElement(d4, (-1, -2, -4, -3))
    memo = {}
    for _ in range(2):
        with pytest.raises(OracleDisagreement) as err:
            cell_oracle(RegularNilpotent(), d4, H, pi, memo=memo)
        assert err.value.reason == "late-pin"
    assert list(memo.values()) == [OracleVerdict("inconsistent", reason="late-pin")]
