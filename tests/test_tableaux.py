import itertools
import math
import re

import pytest

from hesspave.hessenberg import HessFunction
from hesspave.tableaux import (
    Diagram,
    Filling,
    MultiDiagram,
    multidiagram_dimension,
    multidiagram_nonempty,
    peterson_cells,
)


def up_of(mu):
    return MultiDiagram((Diagram(mu),)).up


def test_indexing_321():
    # top row first: 6 / 5 4 / 3 2 1, so 2 is below 4, 3 below 5, 5 below 6
    assert up_of((3, 2, 1)) == {1: None, 2: 4, 3: 5, 4: None, 5: 6, 6: None}


def test_single_row_has_no_pairs():
    assert up_of((1, 1, 1, 1)) == dict.fromkeys(range(1, 5))


def test_single_column_pairs():
    assert up_of((4,)) == {1: 2, 2: 3, 3: 4, 4: None}


def test_partition_validation():
    with pytest.raises(ValueError):
        Diagram((2, 3))
    with pytest.raises(ValueError):
        Diagram((2, 0))
    with pytest.raises(ValueError):
        Diagram(())


def test_filling_validation():
    Filling((2, 1, 3))
    with pytest.raises(ValueError):
        Filling((1, 1, 2))


@pytest.mark.parametrize("values, bad", [
    ((1.0, 2, 3), "1.0"),
    ((True, 2, 3), "True"),
    ((2, 1, 3.0), "3.0"),
    ((1, 2, "3"), "'3'"),
])
def test_filling_entries_must_be_ints(values, bad):
    """1.0 and True equal 1, so they would pass the permutation check and
    give a filling that equals (1, 2, 3)'s but prints differently."""
    with pytest.raises(ValueError, match=f"entry {re.escape(bad)} is not an int"):
        Filling(values)


def test_single_column_nonempty():
    md = MultiDiagram((Diagram((3,)),))
    h = HessFunction((2, 3, 3))
    assert not multidiagram_nonempty(md, Filling((3, 1, 2)), h)
    assert multidiagram_nonempty(md, Filling((1, 2, 3)), h)


def test_nonempty_size_mismatch():
    with pytest.raises(ValueError):
        multidiagram_nonempty(MultiDiagram((Diagram((2,)),)), Filling((1, 2)),
                              HessFunction((1, 2, 3)))


def test_dimension_of_empty_cell_raises():
    md = MultiDiagram((Diagram((3,)),))
    with pytest.raises(ValueError):
        multidiagram_dimension(md, Filling((3, 1, 2)), HessFunction((2, 3, 3)))


def test_full_space_single_row_counts_inversions():
    # one-row diagram with h = n everywhere: dimension is the inversion count
    n = 4
    md = MultiDiagram((Diagram((1,) * n),))
    h = HessFunction((n,) * n)
    for vals in itertools.permutations(range(1, n + 1)):
        f = Filling(vals)
        assert multidiagram_nonempty(md, f, h)
        inv = sum(1 for i in range(n) for j in range(i + 1, n)
                  if vals[i] > vals[j])
        assert multidiagram_dimension(md, f, h) == inv


def test_peterson_cells_small():
    cells = peterson_cells(3)
    assert len(cells) == 4
    assert dict(cells) == {(3,): 2, (1, 2): 1, (2, 1): 1, (1, 1, 1): 0}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_peterson_betti_numbers(n):
    counts = {}
    for _, dim in peterson_cells(n):
        counts[dim] = counts.get(dim, 0) + 1
    assert counts == {d: math.comb(n - 1, d) for d in range(n)}


def test_peterson_betti_n5():
    counts = [0] * 5
    for _, dim in peterson_cells(5):
        counts[dim] += 1
    assert counts == [1, 4, 6, 4, 1]


def test_multidiagram_ordering():
    MultiDiagram((Diagram((2, 1)), Diagram((2,)), Diagram((1,))))
    with pytest.raises(ValueError):
        MultiDiagram((Diagram((1,)), Diagram((2,))))


def test_multidiagram_boxes_and_up():
    md = MultiDiagram((Diagram((2, 1)), Diagram((2,)), Diagram((2,))))
    assert md.n == 7 and vars(md)["n"] == 7  # summed once, then cached
    assert md.diagram_of == {1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 2, 7: 2}
    # the diagrams side by side, first one rightmost:  7   5     3
    #                                                  6   4   2 1
    assert md.up == {1: None, 2: 3, 3: None, 4: 5, 5: None, 6: 7, 7: None}


def test_multidiagram_distinct_eigenvalue_cells():
    # two 1-box diagrams: every filling is nonempty, the cross pair (1, 2)
    # contributes when value(2) < value(1) <= h(value(2))
    md = MultiDiagram((Diagram((1,)), Diagram((1,))))
    h = HessFunction((1, 2))
    assert multidiagram_nonempty(md, Filling((1, 2)), h)
    assert multidiagram_dimension(md, Filling((1, 2)), h) == 0
    assert multidiagram_dimension(md, Filling((2, 1)), h) == 0
    h2 = HessFunction((2, 2))
    assert multidiagram_dimension(md, Filling((2, 1)), h2) == 1


def test_regular_semisimple_cells_count_bounded_inversions():
    # n one-box diagrams: cell dimension is #{i < j : f(j) < f(i) <= h(f(j))}
    n = 3
    md = MultiDiagram(tuple(Diagram((1,)) for _ in range(n)))
    h = HessFunction((2, 3, 3))
    dims = sorted(
        multidiagram_dimension(md, Filling(v), h)
        for v in itertools.permutations(range(1, n + 1))
    )
    assert dims == [0, 1, 1, 1, 1, 2]
