"""Hessenberg spaces as root sets M_H, their enumeration, and the type-A
dictionary with Hessenberg functions h.

A Hessenberg space contains every positive root and is closed under adding
positive roots.  Its negative part is therefore determined by a down-closed
set of positive roots (closure under subtracting single positive roots),
which is what the enumerator walks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .rootsys import (
    ResourceCapError,
    Root,
    RootSystemId,
    extremal_roots,
    positive_roots,
    root_index,
    simple_roots,
    type_a_root,
)
from .weyl import WeylElement, signed_inverse

__all__ = [
    "HessenbergSpace",
    "HessFunction",
    "enumerate_spaces",
    "from_h",
    "to_h",
    "peterson_space",
    "borel_space",
    "full_space",
    "complement_roots",
    "all_hess_functions",
]

ENUM_RANK_CAP = 7


@dataclass(frozen=True)
class HessenbergSpace:
    """A root set M_H containing Phi+ and closed under adding positive roots."""

    system: RootSystemId
    roots: frozenset[Root]

    def __post_init__(self):
        if type(self.roots) is not frozenset:  # spaces hash as cache keys
            object.__setattr__(self, "roots", frozenset(self.roots))
        index = root_index(self.system)
        pos = index.positive_set
        if not pos <= self.roots:
            raise ValueError("Hessenberg space must contain all positive roots")
        if not self.roots.issubset(index.pair):
            raise ValueError("Hessenberg space contains non-roots")
        for a in self.roots:
            for g in pos:
                s = a + g
                if s in index.pair and s not in self.roots:
                    raise ValueError(
                        f"not closed under addition of positive roots: "
                        f"{a} + {g} = {s} missing"
                    )

    @cached_property
    def kind(self) -> tuple[tuple[int, ...], ...]:
        """kind[x][y], for signed positions indexed as root_index's
        position: 0 when (x, y) is the pair of a positive root, 1 of a
        negative root in M_H, 2 of a negative root outside it.  So whether
        pi^{-1} sends a negative, and into M_H or not, is one lookup of the
        image pair (M_H holds every positive root)."""
        index = root_index(self.system)
        kind = [[0] * len(row) for row in index.position]
        for a, (p, q) in index.pair.items():
            if a.is_negative:
                kind[p][q] = kind[q][p] = 1 if a in self.roots else 2
        return tuple(map(tuple, kind))

    @cached_property
    def negative_pairs(self) -> tuple[tuple[tuple[int, int], ...],
                                      tuple[tuple[int, int], ...]]:
        """(inside, outside): the signed position pairs of the negative
        roots in M_H and of those outside it, each ordered as their
        negatives in root_index's positive.  pi's own window maps them
        entrywise onto Phi_pi and Phi-, which is how the formula reads a
        cell (paving.cell_formula)."""
        index = root_index(self.system)
        inside, outside = [], []
        for a in index.positive:
            (inside if -a in self.roots else outside).append(index.pair[-a])
        return tuple(inside), tuple(outside)

    def negative_part(self) -> frozenset[Root]:
        return frozenset(a for a in self.roots if a.is_negative)

    def __str__(self):
        neg = sorted((-a for a in self.negative_part()), key=lambda r: (r.height, r.coeffs))
        if not neg:
            return "Phi+"
        return "Phi+ u -{" + ", ".join(str(a) for a in neg) + "}"


@dataclass(frozen=True)
class HessFunction:
    """A nondecreasing map h on {1..n} with h(i) >= i."""

    values: tuple[int, ...]

    def __post_init__(self):
        n = len(self.values)
        prev = 1
        for i, v in enumerate(self.values, start=1):
            if not max(i, prev) <= v <= n:
                raise ValueError(f"h violates h(i) >= max(i, h(i-1)): {self.values}")
            prev = v

    def __call__(self, i: int) -> int:
        return self.values[i - 1]

    @property
    def n(self) -> int:
        return len(self.values)

    def __str__(self):
        return ",".join(str(v) for v in self.values)


def all_hess_functions(n: int):
    """All Hessenberg functions on {1..n}, lexicographic."""
    for values in itertools.combinations_with_replacement(range(1, n + 1), n):
        if all(v >= i for i, v in enumerate(values, start=1)):
            yield HessFunction(values)


@lru_cache(maxsize=None)
def enumerate_spaces(system: RootSystemId) -> tuple[HessenbergSpace, ...]:
    """All Hessenberg spaces, as down-closed negative parts over Phi+."""
    if system.rank > ENUM_RANK_CAP:
        raise ResourceCapError(f"space enumeration capped at rank {ENUM_RANK_CAP}")
    index = root_index(system)
    pos = index.positive  # height-ascending
    pos_set = index.positive_set
    # preds[a] = roots that must already be chosen before a may be
    preds = {a: extremal_roots(system, a) for a in pos}
    spaces: list[frozenset[Root]] = []

    def rec(k: int, chosen: set[Root]):
        if k == len(pos):
            spaces.append(frozenset(chosen))
            return
        rec(k + 1, chosen)
        a = pos[k]
        if preds[a] <= chosen:
            chosen.add(a)
            rec(k + 1, chosen)
            chosen.remove(a)

    rec(0, set())
    out = [HessenbergSpace(system, pos_set | {-a for a in ideal})
           for ideal in spaces]
    out.sort(key=lambda H: (len(H.roots), sorted(a.coeffs for a in H.roots)))
    return tuple(out)


def from_h(h: HessFunction) -> HessenbergSpace:
    """Type A space with e_i - e_j present (i > j) exactly when i <= h(j)."""
    n = h.n
    system = RootSystemId("A", n - 1)
    roots = set(positive_roots(system))
    for j in range(1, n + 1):
        for i in range(j + 1, h(j) + 1):
            roots.add(type_a_root(n - 1, i, j))
    return HessenbergSpace(system, frozenset(roots))


def to_h(H: HessenbergSpace) -> HessFunction:
    if H.system.family != "A":
        raise ValueError("Hessenberg functions exist only in type A")
    n = H.system.rank + 1
    vals = []
    for j in range(1, n + 1):
        v = j
        for i in range(j + 1, n + 1):
            if type_a_root(n - 1, i, j) in H.roots:
                v = i
        vals.append(v)
    return HessFunction(tuple(vals))


def peterson_space(system: RootSystemId) -> HessenbergSpace:
    roots = set(positive_roots(system))
    roots.update(-a for a in simple_roots(system))
    return HessenbergSpace(system, frozenset(roots))


def borel_space(system: RootSystemId) -> HessenbergSpace:
    return HessenbergSpace(system, root_index(system).positive_set)


def full_space(system: RootSystemId) -> HessenbergSpace:
    return HessenbergSpace(system, frozenset(root_index(system).pair))


def complement_roots(H: HessenbergSpace, pi: WeylElement) -> frozenset[Root]:
    """C_{pi.H} = Phi+ minus pi(M_H)."""
    s = signed_inverse(pi)
    kind = H.kind
    index = root_index(H.system)
    return frozenset(
        a
        for a, (p, q) in zip(index.positive, index.positive_pairs)
        if kind[s[p]][s[q]] == 2
    )
