"""The oracle's per-cell set-up: from pi to the cell's stages and its R.

cell_dim_oracle maps the space's negative pairs through pi's own window
for the cell's variable and condition positions (the images in Phi+, and
those of the pairs outside M_H), and _cell_stages files each position
under the one plan stage _SpecData.var_stage or cond_stage names.  That
relies on the plan covering every positive position exactly once on each
side, which _oracle_data checks.  R's first steps from supp N come from the
per-spec table _SpecData.support_sums.  These tests hold both against the
way they were built before: per-stage filters over flag lists, and a start
set over all sums of every support root.
"""

import pytest

from hesspave import orbit_oracle
from hesspave.hessenberg import enumerate_spaces, peterson_space
from hesspave.operators import (
    RegularNilpotent,
    SemisimpleClassical,
    TypeAGeneral,
    TypeANilpotent,
)
from hesspave.orbit_oracle import OracleVerdict, cell_dim_oracle
from hesspave.rootsys import (
    RootSystemId,
    RowPartition,
    root_closure,
    root_index,
    row_partition,
)
from hesspave.weyl import enumerate_weyl


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if not n:
        yield ()
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _specs(system):
    """Every spec kind the system takes: the regular nilpotent, the regular
    semisimple, a semisimple with a one- and a two-root Levi block, and in
    type A every nilpotent and two general operators."""
    specs = [RegularNilpotent(), SemisimpleClassical(()),
             SemisimpleClassical(((1,),)), SemisimpleClassical(((1, 2),))]
    if system.family == "A":
        n = system.rank + 1
        specs += [TypeANilpotent(mu) for mu in _partitions(n)]
        specs += [TypeAGeneral((("x", (n - 1,)), ("y", (1,)))),
                  TypeAGeneral((("x", (1,) * (n - 1)), ("y", (1,))))]
    return specs


# D starts at rank 3
PLAN_SYSTEMS = [RootSystemId(f, n) for f in "ABCD" for n in range(2, 6)
                if (f, n) != ("D", 2)]


@pytest.mark.parametrize("system", PLAN_SYSTEMS, ids=str)
def test_plan_covers_each_position_once_on_each_side(system):
    size = len(root_index(system).positive)
    for spec in _specs(system):
        data = orbit_oracle._oracle_data(spec, system)
        for side, stage_of in ((0, data.var_stage), (1, data.cond_stage)):
            owned = [k for stage in data.plan for k in stage[side]]
            assert sorted(owned) == list(range(size)), spec
            assert len(stage_of) == size
            for t, stage in enumerate(data.plan):
                assert list(stage[side]) == sorted(stage[side])
                assert all(stage_of[k] == t for k in stage[side])


@pytest.mark.parametrize("broken", ["repeat", "miss"])
def test_a_plan_that_misses_or_repeats_a_root_is_refused(monkeypatch, broken):
    system = RootSystemId("B", 3)
    real = row_partition(system)
    rows = list(real.rows)
    if broken == "repeat":
        rows[0] = rows[0] + rows[1][:1]
    else:
        rows[1] = rows[1][1:]
    monkeypatch.setattr(orbit_oracle, "row_partition",
                        lambda s: RowPartition(s, tuple(rows), real.long_root))
    orbit_oracle._oracle_data.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="each positive root once"):
            orbit_oracle._oracle_data(RegularNilpotent(), system)
    finally:
        orbit_oracle._oracle_data.cache_clear()


def _reference_positions(H, pi):
    """The cell's variable and condition flags per position, from Root
    objects and H's root set: a variable is a root pi^{-1} sends negative,
    a condition one whose image lies outside M_H."""
    inv = pi.inverse()
    images = [inv.act(a) for a in root_index(pi.system).positive]
    return ([b.is_negative for b in images],
            [b.is_negative and b not in H.roots for b in images])


def _reference_stages(data, var, cond):
    return [([k for k in vs if var[k]], [k for k in cs if cond[k]], i)
            for vs, cs, i in data.plan]


def _reference_reach(system, data, var):
    index = root_index(system)
    steps = {k for k, v in enumerate(var) if v}
    start = {k for b in data.support_at for j, k in index.sums[b] if j in steps}
    start.update(k for k in steps if not data.levi_mask[k])
    return root_closure(system, start, steps)


SETUP_CASES = [
    (RegularNilpotent(), RootSystemId("A", 5), lambda s: [peterson_space(s)]),
    (RegularNilpotent(), RootSystemId("C", 4), lambda s: [peterson_space(s)]),
    (RegularNilpotent(), RootSystemId("D", 4), lambda s: [peterson_space(s)]),
    (RegularNilpotent(), RootSystemId("B", 3), enumerate_spaces),
    (TypeANilpotent((2, 1, 1)), RootSystemId("A", 3), enumerate_spaces),
    # S moves the variable roots outside Phi_l, so they start R too
    (SemisimpleClassical(((1, 2),)), RootSystemId("B", 3), enumerate_spaces),
]


@pytest.mark.parametrize("spec,system,spaces", SETUP_CASES,
                         ids=["A5 peterson", "C4 peterson", "D4 peterson",
                              "B3 all", "A3 2,1,1 all", "B3 semisimple 1,2 all"])
def test_cell_stages_and_reach_match_the_reference(monkeypatch, spec, system,
                                                   spaces):
    # Every cell's stages and R, as cell_dim_oracle hands them to the vote,
    # against the per-stage filters and the all-sums start set; the vote
    # itself is not run.
    seen = []

    def vote(system, data, var_at, cond_at, reach, window, trials, seed):
        seen.append((var_at, cond_at, reach,
                     orbit_oracle._cell_stages(data, var_at, cond_at)))
        return OracleVerdict("dim", 0)

    monkeypatch.setattr(orbit_oracle, "_vote", vote)
    data = orbit_oracle._oracle_data(spec, system)
    cells = 0
    for H in spaces(system):
        for pi in enumerate_weyl(system):
            cell_dim_oracle(spec, system, H, pi)
            var_at, cond_at, reach, stages = seen.pop()
            var, cond = _reference_positions(H, pi)
            assert var_at == [k for k, v in enumerate(var) if v]
            assert cond_at == [k for k, c in enumerate(cond) if c]
            assert stages == _reference_stages(data, var, cond)
            assert reach == _reference_reach(system, data, var)
            cells += 1
    assert cells == len(spaces(system)) * len(enumerate_weyl(system))
