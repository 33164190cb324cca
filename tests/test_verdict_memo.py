"""The oracle's verdict memo: a verify run votes once per (cell, condition set).

A cell BpiB cap H(M, H) sees H only through its condition set, the roots of
Phi_pi that pi^{-1} sends outside M_H, and the oracle seeds its trials by
(seed, trial, pi).  verify --all-hess hands one memo dict to every
cell_dim_oracle call of the run; these tests count its votes, compare every
memoized verdict with a fresh call, and check that the key tells seeds,
trial counts and specs apart.  The memo also keeps each cell's R
(_reachable_roots), one per (spec, system, pi), since a cell's variables
depend only on pi; a verify run builds R once per pi, not once per vote.
"""

import hashlib
import re

import pytest

from hesspave import cli, orbit_oracle, paving
from hesspave.hessenberg import (
    HessenbergSpace,
    borel_space,
    enumerate_spaces,
    peterson_space,
)
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


def _verdicts(memo):
    return [v for v in memo.values() if isinstance(v, OracleVerdict)]


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
    assert len(_verdicts(memo)) == len(runs)
    assert len(memo) == len(runs) + 1  # and the one pi's R


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
    assert len(_verdicts(memo)) == 2
    assert len(memo) == 4  # and an R per spec


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
    assert _verdicts(memo) == [OracleVerdict("inconsistent", reason="late-pin")]
    assert len(memo) == 2  # and the cell's R


@pytest.mark.parametrize("seed", [True, 1.0])
def test_a_seed_that_is_not_an_int_is_refused(seed):
    # seed=True and seed=1.0 would key their streams "cell:True:..." and
    # "cell:1.0:...", yet equal 1 in the memo key, so a memo filled at
    # seed=1 would hand them its verdict
    system = RootSystemId("B", 3)
    H, pi = peterson_space(system), WeylElement(system, (3, 2, 1))
    memo = {}
    cell_dim_oracle(RegularNilpotent(), system, H, pi, seed=1, memo=memo)
    for m in (memo, None):
        with pytest.raises(ValueError, match=re.escape(repr(seed))):
            cell_dim_oracle(RegularNilpotent(), system, H, pi, seed=seed,
                            memo=m)


# verify-sweep's two runs: (argv, Weyl group order, SHA-256 of stdout as in
# tests/test_golden.py)
SWEEP = [
    (["verify", "--family", "B", "--rank", "3", "--regular-nilpotent",
      "--all-hess", "--seed", "1"], 48,
     "768826fda153031daaa8942b67f872d1e79e2edbc6d685ec51bdf14304568fca"),
    (["verify", "--family", "A", "--rank", "3", "--nilpotent", "2,1,1",
      "--all-hess", "--seed", "1"], 24,
     "431ba4d56a7ada5baf7cf51701b995bb325783b70e398c5ec97e681acedf2946"),
]


@pytest.mark.parametrize("argv,order,digest", SWEEP, ids=["B3", "A3 2,1,1"])
def test_verify_builds_r_once_per_pi(monkeypatch, capsys, argv, order, digest):
    # R is walked once per pi of the run, 48 + 24 in all, against one walk
    # per vote (468) before the memo kept it; stdout is unchanged
    built = []
    real = orbit_oracle._reachable_roots

    def counted(system, data, var_at):
        built.append(tuple(var_at))
        return real(system, data, var_at)

    monkeypatch.setattr(orbit_oracle, "_reachable_roots", counted)
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert len(built) == len(set(built)) == order
