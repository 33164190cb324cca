"""Classical root systems A/B/C/D in simple-root coordinates.

Roots are stored as integer coefficient vectors over the simple roots
alpha_1..alpha_n.  The positive roots are generated table-driven from the
string patterns of the classical families, which keeps height, the standard
partial order and row membership trivial to read off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

__all__ = [
    "RootSystemId",
    "Root",
    "RowPartition",
    "simple_roots",
    "positive_roots",
    "negative_roots",
    "all_roots",
    "row_partition",
    "row_structure_kind",
    "row_of",
    "extremal_roots",
    "verticality_check",
    "root_geq",
    "root_gt",
    "type_a_root",
    "euclidean",
    "RootIndex",
    "root_index",
    "sum_table",
    "root_closure",
    "weyl_order",
    "ResourceCapError",
]

_RANK_MIN = {"A": 1, "B": 2, "C": 2, "D": 3}


class ResourceCapError(ValueError):
    """A request past one of the library's resource caps (Weyl group order,
    space enumeration rank, symbolic conjugation rank)."""


@dataclass(frozen=True, order=True)
class RootSystemId:
    """A classical family together with its rank."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in _RANK_MIN:
            raise ValueError(f"unknown family {self.family!r}")
        if self.rank < _RANK_MIN[self.family]:
            raise ValueError(
                f"family {self.family} requires rank >= {_RANK_MIN[self.family]}"
            )

    def __str__(self):
        return f"{self.family}{self.rank}"


@dataclass(frozen=True, order=True)
class Root:
    """A root as a coefficient vector over the simple roots."""

    coeffs: tuple[int, ...]

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    @property
    def is_positive(self) -> bool:
        return any(c > 0 for c in self.coeffs) and all(c >= 0 for c in self.coeffs)

    @property
    def is_negative(self) -> bool:
        return (-self).is_positive

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coeffs))

    def __add__(self, other: "Root") -> "Root":
        return Root(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Root") -> "Root":
        return Root(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs, start=1):
            if c == 0:
                continue
            if c == 1:
                parts.append(f"a{i}")
            elif c == -1:
                parts.append(f"-a{i}")
            else:
                parts.append(f"{c}a{i}")
        return "+".join(parts).replace("+-", "-") if parts else "0"


def root_geq(alpha: Root, beta: Root) -> bool:
    """alpha >= beta in the standard order: the difference is a nonnegative
    combination of simple roots (every nonzero such vector is a sum of
    positive roots, so this is exactly the textbook order)."""
    return all(a >= b for a, b in zip(alpha.coeffs, beta.coeffs))


def root_gt(alpha: Root, beta: Root) -> bool:
    return alpha != beta and root_geq(alpha, beta)


def simple_root(system: RootSystemId, i: int) -> Root:
    if not 1 <= i <= system.rank:
        raise ValueError(f"simple root index {i} out of range for {system}")
    return Root(tuple(1 if j == i else 0 for j in range(1, system.rank + 1)))


def simple_roots(system: RootSystemId) -> tuple[Root, ...]:
    return tuple(simple_root(system, i) for i in range(1, system.rank + 1))


def _string(n: int, lo: int, hi: int, bump: dict[int, int] | None = None) -> Root:
    coeffs = [0] * n
    for j in range(lo, hi + 1):
        coeffs[j - 1] = 1
    if bump:
        for j, extra in bump.items():
            coeffs[j - 1] += extra
    return Root(tuple(coeffs))


def type_a_root(rank: int, i: int, j: int) -> Root:
    """The root e_i - e_j of A_rank in simple-root coordinates (i != j)."""
    if i > j:
        return -type_a_root(rank, j, i)
    return _string(rank, i, j - 1)


@lru_cache(maxsize=None)
def positive_roots(system: RootSystemId) -> tuple[Root, ...]:
    """All positive roots, ordered by (height, coefficients)."""
    fam, n = system.family, system.rank
    roots: list[Root] = []
    for i in range(1, n + 1):
        for k in range(i, n + 1):
            if fam == "D" and (i, k) == (n - 1, n):
                continue
            roots.append(_string(n, i, k))
    if fam == "B":
        for i in range(1, n + 1):
            for k in range(i + 1, n + 1):
                roots.append(_string(n, i, n, {j: 1 for j in range(k, n + 1)}))
    elif fam == "C":
        for i in range(1, n + 1):
            for k in range(i, n):
                roots.append(_string(n, i, n, {j: 1 for j in range(k, n)}))
    elif fam == "D":
        for i in range(1, n - 1):
            r = _string(n, i, n - 2)
            roots.append(r + simple_root(system, n))
        for i in range(1, n - 1):
            for k in range(i + 1, n - 1):
                roots.append(_string(n, i, n, {j: 1 for j in range(k, n - 1)}))
    roots.sort(key=lambda r: (r.height, r.coeffs))
    return tuple(roots)


def negative_roots(system: RootSystemId) -> tuple[Root, ...]:
    return tuple(-r for r in positive_roots(system))


def all_roots(system: RootSystemId) -> tuple[Root, ...]:
    return positive_roots(system) + negative_roots(system)


def row_of(alpha: Root) -> int:
    """Row index: position of the first nonzero coefficient (1-based)."""
    for i, c in enumerate(alpha.coeffs, start=1):
        if c != 0:
            return i
    raise ValueError("zero vector is not a root")


@dataclass(frozen=True)
class RowPartition:
    """The rows Phi^1..Phi^n of the positive roots, height-graded.

    ``rows[i-1]`` lists row i ordered by height; a type-D height tie is
    broken by putting the root containing alpha_{n-1} first.  ``long_root``
    holds the unique long root of each row in type C (``None`` elsewhere).
    """

    system: RootSystemId
    rows: tuple[tuple[Root, ...], ...]
    long_root: tuple[Root | None, ...] = field(default=None)

    def heights(self, i: int) -> dict[int, tuple[Root, ...]]:
        """Partition of row i by height: {k: Phi^i_k}."""
        out: dict[int, list[Root]] = {}
        for alpha in self.rows[i - 1]:
            out.setdefault(alpha.height, []).append(alpha)
        return {k: tuple(v) for k, v in out.items()}


def _row_sort_key(system: RootSystemId):
    n = system.rank

    def key(alpha: Root):
        # Tie-break (type D only): alpha_{n-1}-containing root first.
        return (alpha.height, 0 if alpha.coeffs[n - 2] > 0 else 1, alpha.coeffs)

    return key


@lru_cache(maxsize=None)
def row_partition(system: RootSystemId) -> RowPartition:
    n = system.rank
    rows: list[list[Root]] = [[] for _ in range(n)]
    for alpha in positive_roots(system):
        rows[row_of(alpha) - 1].append(alpha)
    key = _row_sort_key(system)
    for r in rows:
        r.sort(key=key)
    long_roots: list[Root | None] = [None] * n
    if system.family == "C":
        for i in range(1, n):
            gamma = _string(n, i, n, {j: 1 for j in range(i, n)})
            long_roots[i - 1] = gamma
    return RowPartition(system, tuple(tuple(r) for r in rows), tuple(long_roots))


def row_structure_kind(system: RootSystemId, i: int) -> str:
    """'Heisenberg' for rows i < n in type C, 'Abelian' otherwise."""
    if not 1 <= i <= system.rank:
        raise ValueError(f"row index {i} out of range for {system}")
    if system.family == "C" and i < system.rank:
        return "Heisenberg"
    return "Abelian"


def extremal_roots(system: RootSystemId, alpha: Root) -> frozenset[Root]:
    """Positive roots beta with alpha - beta again a positive root."""
    pos = root_index(system).positive_set
    if alpha not in pos:
        raise ValueError(f"{alpha} is not a positive root of {system}")
    return frozenset(b for b in pos if (alpha - b) in pos)


def verticality_check(partition: RowPartition) -> bool:
    """Conditions (1)-(3) of the vertical-row proposition."""
    system = partition.system
    n = system.rank
    by_row = [partition.heights(i) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        parts = by_row[i - 1]
        # (1) every member of Phi^i_k dominates every member of Phi^i_{k-1}
        for k, members in parts.items():
            for beta in parts.get(k - 1, ()):
                if not all(root_gt(alpha, beta) for alpha in members):
                    return False
        # (2) at most one height class of size two, none larger
        sizes = [len(v) for v in parts.values()]
        if any(s > 2 for s in sizes) or sizes.count(2) > 1:
            return False
    # (3) doubled classes propagate to the previous row
    for i in range(2, n - 1):
        for k, members in by_row[i - 1].items():
            if len(members) != 2:
                continue
            expected = {alpha + simple_root(system, i - 1) for alpha in members}
            above = set(by_row[i - 2].get(k + 1, ()))
            if above != expected or len(above) != 2:
                return False
    return True


# --- Euclidean realization and signed position pairs ------------------------
#
# A_n lives in R^{n+1} with alpha_i = e_i - e_{i+1}; B/C/D live in R^n with
# the usual simple roots.  Read once per system to build the root index,
# and by the semisimple functional.


def ambient_dim(system: RootSystemId) -> int:
    return system.rank + 1 if system.family == "A" else system.rank


def simple_root_euclidean(system: RootSystemId, i: int) -> tuple[int, ...]:
    fam, n = system.family, system.rank
    v = [0] * ambient_dim(system)
    if fam == "A" or i < n:
        v[i - 1], v[i] = 1, -1
    elif fam == "B":
        v[n - 1] = 1
    elif fam == "C":
        v[n - 1] = 2
    else:  # D
        v[n - 2], v[n - 1] = 1, 1
    return tuple(v)


def euclidean(system: RootSystemId, alpha: Root) -> tuple[int, ...]:
    m = ambient_dim(system)
    v = [0] * m
    for i, c in enumerate(alpha.coeffs, start=1):
        if c:
            for j, x in enumerate(simple_root_euclidean(system, i)):
                v[j] += c * x
    return tuple(v)


class RootIndex(NamedTuple):
    """Every root of a system read as a signed position pair.

    The pair lists the root's nonzero Euclidean coordinates as signed
    positions, smaller position first: e_i - e_j is (i, -j), e_i + e_j is
    (i, j), and e_i or 2e_i is (i, 0); the family fixes which of the last
    two exists.  A signed permutation w sends position k to sgn(k) w(|k|),
    so it acts on a pair entrywise."""

    positive: tuple[Root, ...]  # positive_roots(system), in that order
    positive_set: frozenset[Root]
    pair: dict[Root, tuple[int, int]]  # every root, positive and negative
    root: dict[tuple[int, int], Root]  # each pair, in either order
    positive_pairs: tuple[tuple[int, int], ...]  # the pairs of positive
    # negative[x][y], for signed positions read with Python's negative
    # indexing: whether (x, y) is the pair of a negative root, that is,
    # whether its entry of smaller |position| is negative
    negative: tuple[tuple[bool, ...], ...]


@lru_cache(maxsize=None)
def root_index(system: RootSystemId) -> RootIndex:
    """The one per-system root lookup, built once from the Euclidean
    realization."""
    positive = positive_roots(system)
    pair = {}
    for a in all_roots(system):
        v = euclidean(system, a)
        signed = [i if c > 0 else -i for i, c in enumerate(v, start=1) if c]
        pair[a] = (signed[0], signed[1] if len(signed) > 1 else 0)
    root = {}
    size = 2 * ambient_dim(system) + 1
    negative = [[False] * size for _ in range(size)]
    for a, (p, q) in pair.items():
        root[p, q] = root[q, p] = a
        negative[p][q] = negative[q][p] = a.is_negative
    return RootIndex(positive, frozenset(positive), pair, root,
                     tuple(pair[a] for a in positive),
                     tuple(tuple(row) for row in negative))


@lru_cache(maxsize=None)
def sum_table(system: RootSystemId) -> tuple[dict, tuple]:
    """Each positive root's position in root_index order, and per position
    the (j, k) pairs with positive[k] the sum of it and positive[j], for
    every such positive sum; built once per system, on first use."""
    positive = root_index(system).positive
    at = {a: i for i, a in enumerate(positive)}
    return at, tuple(tuple((j, at[a + b]) for j, b in enumerate(positive)
                           if a + b in at) for a in positive)


def root_closure(system: RootSystemId, start, steps) -> set[int]:
    """The smallest set of positive-root positions holding start and closed
    under k -> k + j for j in steps, when the sum is a positive root."""
    sums = sum_table(system)[1]
    steps = set(steps)
    out = set(start)
    todo = list(out)
    while todo:
        for j, k in sums[todo.pop()]:
            if j in steps and k not in out:
                out.add(k)
                todo.append(k)
    return out


def weyl_order(system: RootSystemId) -> int:
    import math

    n = system.rank
    if system.family == "A":
        return math.factorial(n + 1)
    if system.family in ("B", "C"):
        return (1 << n) * math.factorial(n)
    return (1 << (n - 1)) * math.factorial(n)
