"""Type-A combinatorics: Young diagrams from Jordan types, box indexing,
fillings, cell nonemptiness and the configuration-counting dimension formula,
plus multidiagrams for operators with several eigenvalues.

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
    "vertical_pairs",
    "is_nonempty",
    "dimension",
    "peterson_cells",
    "compositions",
    "multidiagram_nonempty",
    "multidiagram_dimension",
]


def _check_partition(mu: tuple[int, ...]):
    if not mu or any(p <= 0 for p in mu) or any(a < b for a, b in zip(mu, mu[1:])):
        raise ValueError(f"{mu} is not a partition (positive, weakly decreasing)")


@dataclass(frozen=True)
class Diagram:
    """Columns of heights mu, with the bottom-right-to-top-left box indexing."""

    mu: tuple[int, ...]

    def __post_init__(self):
        _check_partition(self.mu)

    @property
    def n(self) -> int:
        return sum(self.mu)

    @property
    def rows(self) -> int:
        return self.mu[0]

    def row_length(self, r: int) -> int:
        """Number of boxes in row r (rows counted from the bottom, 1-based)."""
        return sum(1 for p in self.mu if p >= r)

    @cached_property
    def box_index(self) -> dict[tuple[int, int], int]:
        """(row, column) -> box index, columns 1-based from the left."""
        out = {}
        i = 0
        for r in range(1, self.rows + 1):
            for c in range(self.row_length(r), 0, -1):
                i += 1
                out[(r, c)] = i
        return out

    def render(self) -> str:
        """ASCII grid, top row first, box indices in the cells."""
        width = len(str(self.n))
        lines = []
        for r in range(self.rows, 0, -1):
            cells = [str(self.box_index[(r, c)]).rjust(width)
                     for c in range(1, self.row_length(r) + 1)]
            lines.append(" ".join(cells))
        return "\n".join(lines)


def vertical_pairs(d: Diagram) -> tuple[tuple[int, int], ...]:
    """(lower box, upper box) for every vertically adjacent pair."""
    out = []
    for (r, c), j in d.box_index.items():
        k = d.box_index.get((r + 1, c))
        if k is not None:
            out.append((j, k))
    out.sort()
    return tuple(out)


@dataclass(frozen=True)
class Filling:
    """values[i-1] is the value in box i; a permutation of {1..n}."""

    values: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.values) != list(range(1, len(self.values) + 1)):
            raise ValueError(f"{self.values} is not a permutation of 1..n")

    def __call__(self, i: int) -> int:
        return self.values[i - 1]

    @property
    def n(self) -> int:
        return len(self.values)


def _above(d: Diagram) -> dict[int, int | None]:
    """box index -> index of the box directly above it, if any."""
    up: dict[int, int | None] = {i: None for i in d.box_index.values()}
    for j, k in vertical_pairs(d):
        up[j] = k
    return up


def is_nonempty(d: Diagram, f: Filling, h: HessFunction) -> bool:
    """Every vertical pair (j below k) must satisfy value(j) <= h(value(k))."""
    if f.n != d.n or h.n != d.n:
        raise ValueError("diagram, filling and h sizes must match")
    return all(f(j) <= h(f(k)) for j, k in vertical_pairs(d))


def _pair_count(f: Filling, h: HessFunction, up: dict[int, int | None],
                pairs) -> int:
    """Configuration count over the given (i, j) index pairs with i < j.

    A pair contributes: with no box above j, when value(i) > value(j); with
    box k above j, when value(j) < value(i) <= h(value(k))."""
    total = 0
    for i, j in pairs:
        k = up[j]
        if k is None:
            if f(i) > f(j):
                total += 1
        elif f(j) < f(i) <= h(f(k)):
            total += 1
    return total


def dimension(d: Diagram, f: Filling, h: HessFunction) -> int:
    if not is_nonempty(d, f, h):
        raise ValueError("dimension of an empty cell")
    n = d.n
    pairs = [(i, j) for j in range(2, n + 1) for i in range(1, j)]
    return _pair_count(f, h, _above(d), pairs)


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

    @property
    def n(self) -> int:
        return sum(d.n for d in self.diagrams)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        out, acc = [], 0
        for d in self.diagrams:
            out.append(acc)
            acc += d.n
        return tuple(out)

    @cached_property
    def diagram_of(self) -> dict[int, int]:
        """global box index -> position in self.diagrams."""
        out = {}
        for j, (d, off) in enumerate(zip(self.diagrams, self.offsets)):
            for i in range(1, d.n + 1):
                out[off + i] = j
        return out

    def render(self) -> str:
        blocks = [d.render().split("\n") for d in self.diagrams]
        # shift local indices to global ones, display right to left
        shifted = []
        for d, off, lines in zip(self.diagrams, self.offsets, blocks):
            if off:
                lines = [
                    " ".join(str(int(t) + off) for t in ln.split()) for ln in lines
                ]
            shifted.append(lines)
        shifted.reverse()
        height = max(len(b) for b in shifted)
        widths = [max(len(ln) for ln in b) for b in shifted]
        rows = []
        for r in range(height):
            cells = []
            for b, w in zip(shifted, widths):
                pad = height - len(b)
                ln = b[r - pad] if r >= pad else ""
                cells.append(ln.rjust(w))
            rows.append("   ".join(cells).rstrip())
        return "\n".join(rows)


def _global_up(md: MultiDiagram) -> dict[int, int | None]:
    up: dict[int, int | None] = {}
    for d, off in zip(md.diagrams, md.offsets):
        for i, k in _above(d).items():
            up[off + i] = None if k is None else off + k
    return up


def multidiagram_nonempty(md: MultiDiagram, f: Filling, h: HessFunction) -> bool:
    if f.n != md.n or h.n != md.n:
        raise ValueError("multidiagram, filling and h sizes must match")
    up = _global_up(md)
    return all(
        f(j) <= h(f(up[j])) for j in up if up[j] is not None
    )


def multidiagram_dimension(md: MultiDiagram, f: Filling, h: HessFunction) -> int:
    """Within-diagram configuration count plus cross-diagram pairs (i, j),
    i < j in different diagrams, with value(j) < value(i) <= h(value(j))."""
    if not multidiagram_nonempty(md, f, h):
        raise ValueError("dimension of an empty cell")
    up = _global_up(md)
    which = md.diagram_of
    total = 0
    for i, j in itertools.combinations(range(1, md.n + 1), 2):
        if which[i] == which[j]:
            total += _pair_count(f, h, up, [(i, j)])
        elif f(j) < f(i) <= h(f(j)):
            total += 1
    return total
