"""Expected values computed without hesspave.

Nothing here imports the library: the workloads compare the library's
answers against these.
"""

from __future__ import annotations

import itertools
from math import comb, factorial


def descents(w: tuple[int, ...]) -> int:
    return sum(1 for a, b in zip(w, w[1:]) if a > b)


def inversions(w: tuple[int, ...]) -> int:
    return sum(1 for i, j in itertools.combinations(range(len(w)), 2) if w[i] > w[j])


def semisimple_cells(n: int, statistic) -> dict:
    """Per-window cell keys of the regular semisimple operator on GL_n.

    Every cell is nonempty.  On the Peterson space a cell's dimension is the
    descent count of its window (so the Betti numbers are the Eulerian
    numbers of S_n); on the full space it is the inversion count (Mahonian
    numbers).  ``statistic`` is ``descents`` or ``inversions``.
    """
    return {
        w: (True, statistic(w)) for w in itertools.permutations(range(1, n + 1))
    }


def betti_from_keys(keys) -> list[int]:
    """Poincare coefficient list (index = degree in x) of nonempty cells."""
    dims = [d for nonempty, d in keys if nonempty]
    out = [0] * (2 * max(dims) + 1)
    for d in dims:
        out[2 * d] += 1
    return out


def peterson_regular_nilpotent_betti(rank: int) -> list[int]:
    """(1 + x^2)^rank as a coefficient list: the Peterson variety's Betti
    numbers are binomial in every classical type."""
    out = [0] * (2 * rank + 1)
    for k in range(rank + 1):
        out[2 * k] = comb(rank, k)
    return out


def weyl_order(family: str, rank: int) -> int:
    if family == "A":
        return factorial(rank + 1)
    if family in ("B", "C"):
        return 2**rank * factorial(rank)
    if family == "D":
        return 2 ** (rank - 1) * factorial(rank)
    raise ValueError(family)


def hessenberg_space_count(family: str, rank: int) -> int:
    """Number of Hessenberg spaces = ad-nilpotent ideals of the Borel: the
    Catalan number of the Weyl group (Cellini-Papi)."""
    if family == "A":
        return comb(2 * rank + 2, rank + 1) // (rank + 2)
    if family in ("B", "C"):
        return comb(2 * rank, rank)
    raise ValueError(family)
