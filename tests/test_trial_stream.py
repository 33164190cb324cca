"""Each oracle trial's stream (orbit_oracle._Stream): random.Random(key),
key cell:{seed}:{trial}:{window}, formatted and seeded at its first read,
with the draws whose values nobody reads owed.

The first read seeds the generator and draws what is owed first, so a
trial reads exactly the values an eagerly seeded random.Random(key) gives
it and every verdict is unchanged; a trial that reads nothing builds no
generator.  The only owed draw is the probe point of a tower at a shared
opening, whose affineness verdict is exact (orbit_oracle._opening).
"""

import random
import types

import pytest

from hesspave import orbit_oracle
from hesspave.hessenberg import borel_space, peterson_space
from hesspave.operators import RegularNilpotent, SemisimpleClassical
from hesspave.orbit_oracle import PRIME, _solve_affine, _Stream, cell_dim_oracle
from hesspave.rootsys import RootSystemId
from hesspave.weyl import enumerate_weyl

KEYS = [(0, 0, (1, 2, 3)), (1, 4, (-3, 1, -2, 4)),
        (7, 2, (6, 5, 4, 3, 2, 1))]


@pytest.mark.parametrize("key", KEYS)
@pytest.mark.parametrize("owed", [0, 1, 2, 5, 13])
def test_owed_draws_come_first(key, owed):
    ref = random.Random("cell:{}:{}:{}".format(*key))
    for _ in range(owed):
        ref.randrange(PRIME)
    stream = _Stream(*key)
    stream.owe(owed // 2)
    stream.owe(owed - owed // 2)
    assert stream.rng is None
    got = [stream.randrange(PRIME), stream.randrange(1, PRIME),
           stream.randrange(10)]
    assert got == [ref.randrange(PRIME), ref.randrange(1, PRIME),
                   ref.randrange(10)]
    # once seeded, an owed draw is drawn at once
    stream.owe(3)
    for _ in range(3):
        ref.randrange(PRIME)
    assert stream.randrange(PRIME) == ref.randrange(PRIME)
    assert stream.rng.getstate() == ref.getstate()


def test_a_determined_solve_seeds_nothing():
    # _solve_affine draws only for free columns, so a feasible system of
    # full column rank leaves its stream unseeded
    stream = _Stream(0, 0, (2, 1))
    assert _solve_affine([[1, 0], [0, 2]], [3, 4], stream)[:2] == ("ok", 2)
    assert stream.rng is None
    _, rank, x = _solve_affine([[1, 0], [2, 0]], [3, 0], stream)
    ref = random.Random("cell:0:0:(2, 1)")
    assert rank == 1 and x[1] == ref.randrange(PRIME) and stream.rng


class _Eager(_Stream):
    """A stream seeded at construction, as every trial's was before the
    draws nobody reads were owed."""

    def __init__(self, *key):
        super().__init__(*key)
        self.seeded()


# the five cases of test_oracle.DRAW_DIGESTS; the last three are pave-oracle's
CASES = [
    (RegularNilpotent(), RootSystemId("D", 4), peterson_space),
    (RegularNilpotent(), RootSystemId("C", 3), peterson_space),
    (SemisimpleClassical(((1, 2),)), RootSystemId("B", 3), borel_space),
    (RegularNilpotent(), RootSystemId("A", 5), peterson_space),
    (RegularNilpotent(), RootSystemId("C", 4), peterson_space),
]
IDS = ["D4 peterson", "C3 peterson", "B3 1,2 borel", "A5 peterson",
       "C4 peterson"]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("spec,system,space", CASES, ids=IDS)
def test_lazy_and_eager_streams_give_the_same_verdicts(monkeypatch, spec,
                                                       system, space, seed):
    H = space(system)
    cells = enumerate_weyl(system)
    lazy = [cell_dim_oracle(spec, system, H, pi, seed=seed) for pi in cells]
    monkeypatch.setattr(orbit_oracle, "_Stream", _Eager)
    assert [cell_dim_oracle(spec, system, H, pi, seed=seed)
            for pi in cells] == lazy


@pytest.mark.parametrize("system,never,trials", [
    (RootSystemId("A", 5), 518, 848),
    (RootSystemId("C", 4), 309, 448),
    (RootSystemId("D", 4), 141, 256),
], ids=str)
def test_trials_that_read_nothing_seed_nothing(monkeypatch, system, never,
                                               trials):
    # pave-oracle's cases at seed 1: 968 of the 1,552 trials never seed,
    # nearly all of them exact empties ended at a shared opening.  A stream
    # builds at most one generator, and only when read: a seeded stream
    # has drawn more values than it owed.
    class Counted(random.Random):
        def __init__(self, key):
            super().__init__(key)
            self.drawn = 0
            built.append(self)

        def randrange(self, *args):
            self.drawn += 1
            return super().randrange(*args)

    class Watched(_Stream):
        def __init__(self, *key):
            super().__init__(*key)
            self.owed_in_all = 0
            streams.append(self)

        def owe(self, k):
            self.owed_in_all += k
            super().owe(k)

    built, streams = [], []
    monkeypatch.setattr(orbit_oracle, "random",
                        types.SimpleNamespace(Random=Counted))
    monkeypatch.setattr(orbit_oracle, "_Stream", Watched)
    H = peterson_space(system)
    for pi in enumerate_weyl(system):
        cell_dim_oracle(RegularNilpotent(), system, H, pi, seed=1)
    seeded = [s for s in streams if s.rng is not None]
    assert len(built) == len(seeded)
    assert all(s.rng.drawn > s.owed_in_all for s in seeded)
    assert (len(streams) - len(seeded), len(streams)) == (never, trials)
