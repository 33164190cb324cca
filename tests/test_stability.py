"""The oracle's stability test: two fresh constrained towers from M_0.

_stability_stage runs both towers only up to the functional's cut.  The
reference below runs them over every stage of the cell.  Swapping it in
must not change any cell's verdict, the number of derived functionals of
any solve, or the stability values they got, and each of the library's two
towers must answer alone what the pair answers.  The tests below also
check that the late-pin check sees the values a tower takes after the
stage that produced the functional, that both towers stop exactly at the
functional's cut (against the full-length tower), and that each reason
code of an "inconsistent" verdict is reachable.  The library settles a
functional with no root in the cell's R (_reachable_roots) without towers,
and builds R once per vote, before its trials; the tower tests
widen R to all of Phi+ so every functional still runs them, and a sweep
runs the towers on every functional R settles and checks that they pin it
at 0.
"""

import random
from collections import Counter

import pytest

from hesspave import orbit_oracle
from hesspave.hessenberg import (
    HessFunction,
    borel_space,
    enumerate_spaces,
    from_h,
    peterson_space,
)
from hesspave.operators import (
    RegularNilpotent,
    SemisimpleClassical,
    TypeAGeneral,
    TypeANilpotent,
)
from hesspave.orbit_oracle import (
    PRIME,
    OracleVerdict,
    _conjugate,
    _feval,
    _solve_affine,
    _stage_funcs,
    _stage_system,
    cell_dim_oracle,
)
from hesspave.rootsys import RootSystemId, root_index, row_of
from hesspave.weyl import WeylElement, enumerate_weyl, inversion_set


def _full_tower(system, weights, M0, stages, extra, value, rng):
    """value(M) at M0 and after each stage of a fresh constrained tower run
    over every stage, not stopped at the cut."""
    M = list(M0)
    vals = [value(M)]
    broken = False
    for t, (vrs, conds, _) in enumerate(stages):
        if not vrs:
            vals.append(vals[-1])
            continue
        assign = None
        if not broken:
            funcs = _stage_funcs(conds, extra, t)
            if funcs:
                b, cols = _stage_system(system, weights, M, vrs, funcs)
                sol = _solve_affine(cols, b, rng)
                if sol[0] == "ok":
                    assign = sol[2]
                else:
                    broken = True
        if assign is None:
            assign = [rng.randrange(1, PRIME) for _ in vrs]
        M = _conjugate(system, weights, M, list(zip(vrs, assign)), PRIME)
        vals.append(value(M))
    return vals


def _fresh_replay_stability(system, weights, M0, stages, extra, fdict, rng):
    """Two full fresh constrained towers from M0 per derived functional."""
    def feval(M):
        return sum(c * M[k] for k, c in fdict.items()) % PRIME

    return max(_pinning_stage(_full_tower(system, weights, M0, stages, extra,
                                          feval, rng))
               for _ in range(2))


def _pinning_stage(vals):
    s = len(vals) - 1
    while s > 0 and vals[s - 1] == vals[-1]:
        s -= 1
    return s


def _a3(*h):
    return from_h(HessFunction(h))


def _towers_for_every_functional(monkeypatch):
    """Widen every cell's R to all of Phi+, so that no derived functional
    is settled without its towers and each one reaches _stability_stage."""
    monkeypatch.setattr(orbit_oracle, "_reachable_roots",
                        lambda system, *a: set(range(len(root_index(system).positive))))


LEVI = TypeAGeneral((("x", (2,)), ("y", (1, 1))))
CASES = [
    (RegularNilpotent(), RootSystemId("A", 3), peterson_space, False),
    (RegularNilpotent(), RootSystemId("B", 3), peterson_space, False),
    (RegularNilpotent(), RootSystemId("C", 3), peterson_space, False),
    # attaches derived functionals
    (RegularNilpotent(), RootSystemId("D", 4), peterson_space, True),
    (RegularNilpotent(), RootSystemId("D", 4), borel_space, False),
    (TypeANilpotent((2, 1, 1)), RootSystemId("A", 3), lambda _: _a3(2, 3, 4, 4),
     False),
    (TypeANilpotent((2, 2)), RootSystemId("A", 3), lambda _: _a3(3, 3, 4, 4),
     False),
    (LEVI, RootSystemId("A", 3), borel_space, False),
]
IDS = ["A3", "B3", "C3", "D4", "D4 borel", "A3 2,1,1", "A3 2,2", "A3 x:2|y:1,1"]


def _oracle_log(monkeypatch, spec, system, H, reference):
    """Per-cell verdicts and, per solve, (derived functionals attached,
    multiset of stability values), with the library's stability test or the
    reference swapped in."""
    solves = []
    real_solve = orbit_oracle._solve_once
    real_stability = orbit_oracle._stability_stage

    def solve(*args):
        solves.append({"extra": [], "values": []})
        return real_solve(*args)

    samples = []
    real_values = orbit_oracle._tower_values

    def values(*args):
        vals = real_values(*args)
        samples.append(_pinning_stage(vals))
        return vals

    def stability(system, weights, M0, stages, extra, fdict, rng):
        samples.clear()
        if reference:
            s = _fresh_replay_stability(system, weights, M0, stages, extra, fdict,
                                        rng)
        else:
            s = real_stability(system, weights, M0, stages, extra, fdict, rng)
            # each tower on its own answers like the pair; the maximum of
            # the two would hide one tower pinning too early
            first, second = samples
            assert first == second == s
        solves[-1]["extra"] = extra
        solves[-1]["values"].append(s)
        return s

    _towers_for_every_functional(monkeypatch)
    monkeypatch.setattr(orbit_oracle, "_solve_once", solve)
    monkeypatch.setattr(orbit_oracle, "_stability_stage", stability)
    monkeypatch.setattr(orbit_oracle, "_tower_values", values)
    verdicts = [cell_dim_oracle(spec, system, H, pi, trials=2, seed=3)
                for pi in enumerate_weyl(system)]
    monkeypatch.undo()
    return verdicts, [(len(s["extra"]), Counter(s["values"])) for s in solves]


@pytest.mark.parametrize("spec,system,space,attaches", CASES, ids=IDS)
def test_both_towers_match_the_full_fresh_replays(monkeypatch, spec, system,
                                                  space, attaches):
    H = space(system)
    got = _oracle_log(monkeypatch, spec, system, H, reference=False)
    want = _oracle_log(monkeypatch, spec, system, H, reference=True)
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert any(values for _, values in got[1])  # the stability test ran
    assert any(n for n, _ in got[1]) == attaches


def test_late_pin_is_checked_past_the_producing_stage(monkeypatch):
    # Perturb every value a tower takes after the stage t that produced the
    # functional: the functional then moves after t, which only a tower
    # continued past t can see.
    system = RootSystemId("D", 4)
    H = peterson_space(system)
    pi = WeylElement(system, (-1, -2, -3, -4))
    assert cell_dim_oracle(RegularNilpotent(), system, H, pi) == \
        orbit_oracle.OracleVerdict("dim", 4)
    real_run = orbit_oracle._run_tower
    real_values = orbit_oracle._tower_values
    produced = []
    perturbed = []

    def run(*args):
        status, payload = real_run(*args)
        if status == "infeasible":
            produced.append(payload[0])
        return status, payload

    def values(*args):
        vals = real_values(*args)
        t = produced[-1]
        perturbed.append(len(vals) > t + 1)
        return vals[:t + 1] + [(v + 1) % PRIME for v in vals[t + 1:]]

    monkeypatch.setattr(orbit_oracle, "_run_tower", run)
    monkeypatch.setattr(orbit_oracle, "_tower_values", values)
    verdict = cell_dim_oracle(RegularNilpotent(), system, H, pi)
    assert any(perturbed)
    assert verdict == orbit_oracle.OracleVerdict("inconsistent", reason="late-pin")


# --- the cut --------------------------------------------------------------------


def _rng_at(rng):
    # a generator at the state the trial's stream (orbit_oracle._Stream)
    # reads from next: seeding it early moves no value
    out = random.Random()
    out.setstate(rng.seeded().getstate())
    return out


CUT_CASES = [
    (RootSystemId("A", 3), peterson_space),
    (RootSystemId("B", 3), peterson_space),
    (RootSystemId("C", 3), peterson_space),  # the two-stage plan
    (RootSystemId("C", 4), peterson_space),
    (RootSystemId("D", 4), peterson_space),
    (RootSystemId("D", 4), borel_space),
]


@pytest.mark.parametrize("system,space", CUT_CASES,
                         ids=["A3", "B3", "C3", "C4", "D4", "D4 borel"])
def test_towers_stop_exactly_at_the_cut(monkeypatch, system, space):
    # The cut is the last stage on a row at least the functional's lowest
    # row.  Each tower the library runs must be the full tower up to and
    # including the value after the cut, every full-tower value past it must
    # equal that value, and from the same random state the library's s must
    # be the full two-tower answer.  On these cases no functional moves at
    # its cut stage, so s alone would not see towers stopped one stage
    # early; the value lists do.
    real_stability = orbit_oracle._stability_stage
    real_values = orbit_oracle._tower_values
    towers = []
    cuts = []

    def stability(system, weights, M0, stages, extra, fdict, rng):
        low = min(row_of(root_index(system).positive[k]) for k in fdict)
        cut = max(t for t, (*_, i) in enumerate(stages) if i >= low)
        full_rng = _rng_at(rng)
        full_s = max(_pinning_stage(_full_tower(
            system, weights, M0, stages, extra, lambda M: _feval(M, fdict),
            full_rng))
            for _ in range(2))
        towers[:] = [(stages, cut)] * 2
        s = real_stability(system, weights, M0, stages, extra, fdict, rng)
        assert not towers  # both towers ran
        assert s == full_s
        cuts.append((cut, len(stages)))
        return s

    def values(system, weights, M0, stages, extra, fdict, rng):
        full_stages, cut = towers.pop(0)
        full = _full_tower(system, weights, M0, full_stages, extra,
                           lambda M: _feval(M, fdict), _rng_at(rng))
        vals = real_values(system, weights, M0, stages, extra, fdict, rng)
        assert all(v == full[cut + 1] for v in full[cut + 1:])
        assert vals == full[:cut + 2]
        return vals

    _towers_for_every_functional(monkeypatch)
    monkeypatch.setattr(orbit_oracle, "_stability_stage", stability)
    monkeypatch.setattr(orbit_oracle, "_tower_values", values)
    for pi in enumerate_weyl(system):
        cell_dim_oracle(RegularNilpotent(), system, space(system), pi, trials=2,
                        seed=3)
    assert cuts
    assert any(cut < n - 1 for cut, n in cuts)  # the cut drops stages


# --- the reachable roots R --------------------------------------------------------


SWEEPS = [(spec, system, [space(system)]) for spec, system, space, _ in CASES] + [
    (TypeANilpotent((2, 1, 1)), RootSystemId("A", 3), None),
    (RegularNilpotent(), RootSystemId("B", 3), None),
    (SemisimpleClassical(((1,),)), RootSystemId("C", 3), None),
]
SWEEP_IDS = IDS + ["A3 2,1,1 all", "B3 all", "C3 semisimple 1 all"]


@pytest.mark.parametrize("spec,system,spaces", SWEEPS, ids=SWEEP_IDS)
def test_functionals_outside_reach_are_pinned_at_zero_by_both_towers(
        monkeypatch, spec, system, spaces):
    # Every derived functional goes through both towers, and each one the
    # cell's real R settles (no root in R) must come out s = 0 there.  R
    # lies in Phi+, and holds every variable root outside Phi_l (those S
    # moves).  On these sweeps the nilpotent specs settle 2,516 functionals
    # and tower 18; the Levi spec settles all 24 it derives, and C3
    # semisimple derives none.
    index = root_index(system)
    positive = set(range(len(index.positive)))
    real_reach = orbit_oracle._reachable_roots
    real_stability = orbit_oracle._stability_stage
    cell = {}
    moves = []
    settled = []
    towered = []

    def reach(system, data, var_at):
        R = real_reach(system, data, var_at)
        assert R <= positive
        if not all(data.levi_mask):
            outside = {k for k in var_at if not data.levi_mask[k]}
            assert outside <= R
            moves.append(bool(outside))
        cell["R"] = R
        return positive

    def stability(system, weights, M0, stages, extra, fdict, rng):
        s = real_stability(system, weights, M0, stages, extra, fdict, rng)
        (settled if cell["R"].isdisjoint(fdict) else towered).append(s)
        return s

    monkeypatch.setattr(orbit_oracle, "_reachable_roots", reach)
    monkeypatch.setattr(orbit_oracle, "_stability_stage", stability)
    for H in spaces or enumerate_spaces(system):
        for pi in enumerate_weyl(system):
            cell_dim_oracle(spec, system, H, pi, trials=2, seed=3)
    assert set(settled) <= {0}
    if spec == LEVI or isinstance(spec, SemisimpleClassical):
        assert any(moves)  # S moves: R took in the variable roots outside Phi_l
    else:
        assert settled and not moves
    if spec == LEVI:
        assert settled and not towered  # S does not move the Levi's roots



REACH_CASES = [
    (RegularNilpotent(), RootSystemId("A", 4)),
    (RegularNilpotent(), RootSystemId("B", 3)),
    (RegularNilpotent(), RootSystemId("C", 4)),
    (RegularNilpotent(), RootSystemId("D", 4)),
    (TypeANilpotent((2, 2, 1)), RootSystemId("A", 4)),
    (LEVI, RootSystemId("A", 3)),
    (SemisimpleClassical(((1,),)), RootSystemId("C", 3)),
]


@pytest.mark.parametrize("spec,system", REACH_CASES,
                         ids=["A4", "B3", "C4", "D4", "A4 2,2,1", "A3 x:2|y:1,1",
                              "C3 semisimple 1"])
def test_reach_holds_every_root_a_conjugation_moves(spec, system):
    # One random conjugation by the cell's variable roots, row by row from
    # M_0: every root whose coefficient moved must lie in R (the argument
    # of _reachable_roots).  For nilpotent specs R is no larger either, on
    # every cell here: the closure is taken through every step, not one.
    data = orbit_oracle._oracle_data(spec, system)
    M0 = data.coeffs
    for pi in enumerate_weyl(system):
        var = inversion_set(pi)
        R = orbit_oracle._reachable_roots(
            system, data, [root_index(system).at[a] for a in var])
        rng = random.Random(f"reach:{pi.window}")
        M = orbit_oracle._conjugate_rows(
            system, data.weights, M0, var, lambda a: rng.randrange(1, PRIME), PRIME)
        moved = {k for k, (x, x0) in enumerate(zip(M, M0)) if x != x0}
        assert moved <= R
        if all(data.levi_mask):
            assert moved == R


def test_reach_is_built_once_per_vote(monkeypatch):
    # R is built exactly once per vote, before its first trial, on cells
    # whose towers derive functionals and on cells whose towers derive none
    system = RootSystemId("D", 4)
    H = peterson_space(system)
    real_reach = orbit_oracle._reachable_roots
    real_run = orbit_oracle._run_tower
    events = []

    def reach(*args):
        events[-1].append("R")
        return real_reach(*args)

    def run(*args):
        status, payload = real_run(*args)
        events[-1].append(status)
        return status, payload

    monkeypatch.setattr(orbit_oracle, "_reachable_roots", reach)
    monkeypatch.setattr(orbit_oracle, "_run_tower", run)
    for pi in enumerate_weyl(system):
        events.append([])
        cell_dim_oracle(RegularNilpotent(), system, H, pi)
    assert all(cell[0] == "R" and cell.count("R") == 1 for cell in events)
    derives = sum("infeasible" in cell for cell in events)
    assert 0 < derives < len(events)


# --- reason codes ---------------------------------------------------------------


def _d4_top():
    system = RootSystemId("D", 4)
    return system, peterson_space(system), WeylElement(system, (-1, -2, -3, -4))


def _reason(system, H, pi, spec=RegularNilpotent()):
    verdict = cell_dim_oracle(spec, system, H, pi)
    assert verdict.kind == "inconsistent" and verdict.dim is None
    assert verdict.reason in orbit_oracle.REASONS
    return verdict.reason


def test_reason_nonaffine(monkeypatch):
    # a wrong column breaks the affineness probe's prediction
    real = orbit_oracle._stage_system

    def skewed(system, weights, M, vrs, funcs):
        b, cols = real(system, weights, M, vrs, funcs)
        if cols:
            cols[0][0] = (cols[0][0] + 1) % PRIME
        return b, cols

    monkeypatch.setattr(orbit_oracle, "_stage_system", skewed)
    assert _reason(*_d4_top()) == "nonaffine"


def test_reason_no_progress(monkeypatch):
    # every combination of an infeasible stage comes out empty
    monkeypatch.setattr(orbit_oracle, "_combine", lambda funcs, combo: {})
    assert _reason(*_d4_top()) == "no-progress"


def test_reason_max_derived(monkeypatch):
    monkeypatch.setattr(orbit_oracle, "MAX_DERIVED", 0)
    assert _reason(*_d4_top()) == "max-derived"


_EMPTY, _DIM3, _DIM4 = ("empty", None), ("dim", 3), ("dim", 4)
# _solve_once's two emptiness proofs: a functional with no root in R, or one
# the two towers pinned at 0
_EXACT, _TOWERED = ("empty", True), ("empty", False)
_NO_PROGRESS = ("inconsistent", "no-progress")
_SPLIT = OracleVerdict("inconsistent", reason="trial-split")


@pytest.mark.parametrize("answers, verdict, runs", [
    ([_EMPTY] * 5, OracleVerdict("empty"), 5),
    ([_DIM4] * 5, OracleVerdict("dim", 4), 5),
    ([_DIM4, _EMPTY] * 3, _SPLIT, 5),
    ([_DIM4, _DIM3] * 3, _SPLIT, 5),
    ([_DIM4, _NO_PROGRESS, _DIM4, _DIM4, _DIM4],
     OracleVerdict("inconsistent", reason="no-progress"), 2),
    ([_EXACT] + [_DIM4] * 4, OracleVerdict("empty"), 1),
    ([_TOWERED] * 5, OracleVerdict("empty"), 5),
    ([_DIM4] + [_EXACT] * 4, _SPLIT, 5),
    ([_EXACT, _NO_PROGRESS] + [_DIM4] * 3, OracleVerdict("empty"), 1),
    ([_TOWERED, _EXACT, _EXACT, _EXACT, _NO_PROGRESS],
     OracleVerdict("inconsistent", reason="no-progress"), 5),
], ids=["all-empty", "one-dim", "dim-then-empty", "two-dims", "inconsistent",
        "exact-empty-first", "all-towered-empty", "dim-then-exact-empty",
        "exact-empty-then-inconsistent", "exact-empty-after-the-first"])
def test_trial_vote(monkeypatch, answers, verdict, runs):
    # the trials' (kind, dim) outcomes form one set: a single member is the
    # verdict, more are a split; an inconsistent trial ends the vote at once,
    # and so does an exact emptiness proof on the first trial, while an
    # exact and a towered empty are the same outcome
    scripted = iter(answers)
    ran = []

    def solve_once(*a):
        ran.append(a)
        return next(scripted)

    monkeypatch.setattr(orbit_oracle, "_solve_once", solve_once)
    system, H, pi = _d4_top()
    assert cell_dim_oracle(RegularNilpotent(), system, H, pi) == verdict
    assert len(ran) == runs


def test_exact_empty_runs_one_trial(monkeypatch):
    # The real solver on every cell of D4 regular nilpotent, Peterson space:
    # a cell whose first trial proves it empty exactly runs that trial
    # alone, and the trials it skips, replayed on their own streams, would
    # each have proved it empty exactly too; every other cell runs all its
    # trials, or stops at its inconsistent one.
    system = RootSystemId("D", 4)
    H = peterson_space(system)
    real_solve = orbit_oracle._solve_once
    answers = []
    calls = []

    def solve(*args):
        calls.append(args)
        answers.append(real_solve(*args))
        return answers[-1]

    monkeypatch.setattr(orbit_oracle, "_solve_once", solve)
    trials = 5
    runs = Counter()
    for pi in enumerate_weyl(system):
        answers.clear()
        calls.clear()
        verdict = cell_dim_oracle(RegularNilpotent(), system, H, pi,
                                  trials=trials)
        if answers[0] == _EXACT:
            assert verdict == OracleVerdict("empty") and len(answers) == 1
            weights, M0, stages, reach = calls[0][1:5]
            for t in range(1, trials):
                rng = orbit_oracle._Stream(0, t, pi.window)
                assert real_solve(system, weights, M0, stages, reach, rng) == _EXACT
            runs["exact"] += 1
        elif answers[-1][0] == "inconsistent":
            assert verdict == OracleVerdict("inconsistent", reason=answers[-1][1])
            assert all(kind != "inconsistent" for kind, _ in answers[:-1])
            runs["inconsistent"] += 1
        else:
            assert len(answers) == trials
            runs[verdict.kind] += 1
    # 2^4 nonempty cells; every empty one is proved so on its first trial
    assert runs == {"exact": 176, "dim": 16}


def test_reason_late_pin(monkeypatch):
    # a derived functional that looks pinned only after its own stage
    monkeypatch.setattr(orbit_oracle, "_stability_stage",
                        lambda system, weights, M0, stages, *a: len(stages))
    assert _reason(*_d4_top()) == "late-pin"
