"""Type-A combinatorics: Young diagrams from Jordan types, multidiagrams (one
diagram per eigenvalue), box indexing, fillings, and the one rule that decides
a filling's cell: nonemptiness and a dimension count over pairs of boxes.

A partition mu gives a diagram whose columns have heights mu_1 >= mu_2 >= ...
(left-aligned, bottom-aligned).  Boxes are indexed from the bottom rightmost
box, incrementing leftwards along each row, then jumping to the rightmost box
of the next row up.  A filling assigns the value pi^{-1}(i) to box i.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .hessenberg import HessFunction

__all__ = [
    "Diagram",
    "Filling",
    "MultiDiagram",
    "peterson_cells",
    "compositions",
    "multidiagram_nonempty",
    "multidiagram_dimension",
]


def _check_partition(mu: tuple[int, ...]):
    for p in mu:  # 2.0 and True would pass the checks below
        if type(p) is not int:
            raise ValueError(f"partition part {p!r} is not an int")
    if not mu or any(p <= 0 for p in mu) or any(a < b for a, b in zip(mu, mu[1:])):
        raise ValueError(f"{mu} is not a partition (positive, weakly decreasing)")


@dataclass(frozen=True)
class Diagram:
    """Columns of heights mu; MultiDiagram.up numbers the boxes."""

    mu: tuple[int, ...]

    def __post_init__(self):
        _check_partition(self.mu)

    @property
    def n(self) -> int:
        return sum(self.mu)


@dataclass(frozen=True)
class Filling:
    """values[i-1] is the value in box i; a permutation of {1..n}."""

    values: tuple[int, ...]

    def __post_init__(self):
        for v in self.values:  # 1.0 and True would pass the check below
            if type(v) is not int:
                raise ValueError(f"filling entry {v!r} is not an int")
        if sorted(self.values) != list(range(1, len(self.values) + 1)):
            raise ValueError(f"{self.values} is not a permutation of 1..n")

    def __call__(self, i: int) -> int:
        return self.values[i - 1]

    @property
    def n(self) -> int:
        return len(self.values)


def compositions(n: int):
    """Ordered partitions of n, lexicographic by parts."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def peterson_cells(n: int) -> list[tuple[tuple[int, ...], int]]:
    """(composition, cell dimension n - #parts) for each of the 2^{n-1} cells."""
    if n < 1:
        raise ValueError("n must be positive")
    return [(c, n - len(c)) for c in compositions(n)]


@dataclass(frozen=True)
class MultiDiagram:
    """One diagram per eigenvalue, largest first; diagrams[0] is rightmost
    and holds the lowest global box indices."""

    diagrams: tuple[Diagram, ...]

    def __post_init__(self):
        sizes = [d.n for d in self.diagrams]
        if any(a < b for a, b in zip(sizes, sizes[1:])):
            raise ValueError("diagrams must be ordered largest to smallest")

    @cached_property
    def n(self) -> int:
        return sum(d.n for d in self.diagrams)

    @cached_property
    def diagram_of(self) -> dict[int, int]:
        """global box index -> position in self.diagrams."""
        which = [j for j, d in enumerate(self.diagrams) for _ in range(d.n)]
        return dict(enumerate(which, start=1))

    @cached_property
    def up(self) -> dict[int, int | None]:
        """global box index -> the box directly above it in its diagram, or
        None.  Each diagram numbers its boxes after the previous one's, bottom
        row first and each row right to left, so the box above box i in row r
        is i + (length of row r + 1) when row r + 1 reaches its column."""
        out: dict[int, int | None] = {}
        for d in self.diagrams:
            lengths = [sum(p >= r for p in d.mu) for r in range(1, d.mu[0] + 2)]
            for length, above in zip(lengths, lengths[1:]):
                for c in range(length, 0, -1):
                    i = len(out) + 1
                    out[i] = i + above if c <= above else None
        return out


def multidiagram_nonempty(md: MultiDiagram, f: Filling, h: HessFunction) -> bool:
    """Every box j below a box k must hold value(j) <= h(value(k))."""
    if f.n != md.n or h.n != md.n:
        raise ValueError("multidiagram, filling and h sizes must match")
    return all(k is None or f(j) <= h(f(k)) for j, k in md.up.items())


def multidiagram_dimension(md: MultiDiagram, f: Filling, h: HessFunction) -> int:
    """Pairs of boxes i < j with value(j) < value(i) <= bound, where the bound
    is h(value(k)) for the box k above j in the same diagram, none when j has
    no box above it, and h(value(j)) when i and j lie in different diagrams."""
    if not multidiagram_nonempty(md, f, h):
        raise ValueError("dimension of an empty cell")
    up, which = md.up, md.diagram_of
    total = 0
    for i, j in itertools.combinations(range(1, md.n + 1), 2):
        if which[i] != which[j]:
            bound = h(f(j))
        else:
            bound = md.n if up[j] is None else h(f(up[j]))
        total += f(j) < f(i) <= bound
    return total
