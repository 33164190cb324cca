"""Weyl groups of the classical families as (signed) permutation windows.

Type A_n elements are permutations of {1..n+1}; types B/C are signed
permutations of {1..n}; type D keeps only windows with an even number of
sign changes.  The action on roots reads the system's root table: pi sends
e_i to sign(w_i) e_{|w_i|} in the Euclidean realization, and the image
vector is looked up as a root.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .rootsys import (
    Root,
    RootSystemId,
    ambient_dim,
    positive_root_set,
    positive_roots,
    root_table,
    weyl_order,
)

__all__ = [
    "WeylElement",
    "identity",
    "enumerate_weyl",
    "inversion_set",
]

# Refuse to materialize groups past this size; full pavings iterate all of W
# and keep every cell's report and inversion set, about 2 KB per cell
# (A8 semisimple on the full space: 362,880 cells, 728 MB peak RSS).
MAX_WEYL_ORDER = 10**6


@dataclass(frozen=True, order=True)
class WeylElement:
    """A Weyl group element as its window (w(1), ..., w(m))."""

    system: RootSystemId
    window: tuple[int, ...]

    def __post_init__(self):
        m = ambient_dim(self.system)
        if len(self.window) != m:
            raise ValueError(f"window length {len(self.window)} != {m}")
        if sorted(abs(w) for w in self.window) != list(range(1, m + 1)):
            raise ValueError(f"{self.window} is not a signed permutation window")
        negs = sum(1 for w in self.window if w < 0)
        if self.system.family == "A" and negs:
            raise ValueError("type A windows must be unsigned")
        if self.system.family == "D" and negs % 2:
            raise ValueError("type D windows need an even number of sign changes")

    def inverse(self) -> "WeylElement":
        inv = [0] * len(self.window)
        for i, w in enumerate(self.window, start=1):
            inv[abs(w) - 1] = i if w > 0 else -i
        return WeylElement(self.system, tuple(inv))

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        # (self * other)(i) = self(other(i))
        win = []
        for w in other.window:
            s = self.window[abs(w) - 1]
            win.append(s if w > 0 else -s)
        return WeylElement(self.system, tuple(win))

    def act_euclidean(self, v: tuple[int, ...]) -> tuple[int, ...]:
        out = [0] * len(v)
        for i, w in enumerate(self.window):
            out[abs(w) - 1] = v[i] if w > 0 else -v[i]
        return tuple(out)

    def act(self, alpha: Root) -> Root:
        vector, root = root_table(self.system)
        return root[self.act_euclidean(vector[alpha])]

    def length(self) -> int:
        return len(inversion_set(self))

    def __str__(self):
        return "[" + " ".join(str(w) for w in self.window) + "]"


def identity(system: RootSystemId) -> WeylElement:
    return WeylElement(system, tuple(range(1, ambient_dim(system) + 1)))


def enumerate_weyl(system: RootSystemId) -> tuple[WeylElement, ...]:
    """All Weyl elements, windows in lexicographic order."""
    return _enumerate_cached(system)


@lru_cache(maxsize=None)
def _enumerate_cached(system: RootSystemId) -> tuple[WeylElement, ...]:
    if weyl_order(system) > MAX_WEYL_ORDER:
        raise ValueError(f"Weyl group of {system} exceeds {MAX_WEYL_ORDER} elements")
    fam = system.family
    m = ambient_dim(system)
    if fam == "A":
        windows = itertools.permutations(range(1, m + 1))
        return tuple(WeylElement(system, w) for w in windows)
    out = []
    for perm in itertools.permutations(range(1, m + 1)):
        for signs in itertools.product((1, -1), repeat=m):
            if fam == "D" and signs.count(-1) % 2:
                continue
            out.append(tuple(s * p for s, p in zip(signs, perm)))
    out.sort()
    return tuple(WeylElement(system, w) for w in out)


@lru_cache(maxsize=None)
def inversion_set(pi: WeylElement) -> frozenset[Root]:
    """Positive roots sent negative by pi^{-1}."""
    inv = pi.inverse()
    pos = positive_root_set(pi.system)
    return frozenset(a for a in positive_roots(pi.system) if inv.act(a) not in pos)
