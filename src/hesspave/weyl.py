"""Weyl groups of the classical families as (signed) permutation windows.

Type A_n elements are permutations of {1..n+1}; types B/C are signed
permutations of {1..n}; type D keeps only windows with an even number of
sign changes.  pi sends e_k to sgn(w_k) e_{|w_k|}, so it acts on a root's
signed position pair (rootsys.root_index) entrywise by k -> sgn(k) w(|k|):
the action, inversion sets and lengths are integer lookups on a window.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .rootsys import (
    ResourceCapError,
    Root,
    RootSystemId,
    ambient_dim,
    root_index,
    weyl_order,
)

__all__ = [
    "WeylElement",
    "identity",
    "enumerate_weyl",
    "inversion_set",
    "signed_inverse",
]

# Refuse to materialize groups past this size; full pavings iterate all of W
# and keep every cell's report, about 0.4 KB per cell (A8 semisimple on the
# full space: 362,880 cells, 14-19 s and 161 MB peak RSS with --format text,
# 15 s and 790 MB with --format json, on a 2-vCPU VM).
# The cap stays until A9 and D8 pavings are measured.
MAX_WEYL_ORDER = 10**6


@dataclass(frozen=True, order=True)
class WeylElement:
    """A Weyl group element as its window (w(1), ..., w(m))."""

    system: RootSystemId
    window: tuple[int, ...]

    def __post_init__(self):
        if type(self.window) is not tuple:  # windows hash as cache keys
            object.__setattr__(self, "window", tuple(self.window))
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

    def act(self, alpha: Root) -> Root:
        index = root_index(self.system)
        p, q = index.pair[alpha]
        s = _signed_window(self.window)
        return index.root[s[p], s[q]]

    def length(self) -> int:
        """|Phi_pi|: the positive roots pi sends negative (as many as pi^{-1}
        does), counted on the window."""
        s = _signed_window(self.window)
        index = root_index(self.system)
        negative = index.negative
        return sum([negative[s[p]][s[q]] for p, q in index.positive_pairs])

    def __str__(self):
        return "[" + " ".join(str(w) for w in self.window) + "]"


def _signed_window(window: tuple[int, ...]) -> list[int]:
    """The window extended to signed positions: entry k, for -m <= k <= m
    with Python's negative indexing, is sgn(k) w(|k|), and entry 0 is 0.
    The element sends the root with pair (p, q) to the one with (s[p], s[q])."""
    return [0, *window, *[-w for w in reversed(window)]]


def signed_inverse(pi: WeylElement) -> list[int]:
    """_signed_window of pi^{-1}, read off pi's window: pi sends position i
    to w(i), so pi^{-1} sends w(i) to i and -w(i) to -i."""
    s = [0] * (2 * len(pi.window) + 1)
    for i, w in enumerate(pi.window, start=1):
        s[w], s[-w] = i, -i
    return s


def identity(system: RootSystemId) -> WeylElement:
    return WeylElement(system, tuple(range(1, ambient_dim(system) + 1)))


def _check_order(system: RootSystemId) -> None:
    """The Weyl-order cap, checked from the order alone: the CLI calls it
    before it builds the system's space, and enumerate_weyl before W."""
    if weyl_order(system) > MAX_WEYL_ORDER:
        raise ResourceCapError(
            f"Weyl group of {system} exceeds {MAX_WEYL_ORDER} elements")


@lru_cache(maxsize=None)
def enumerate_weyl(system: RootSystemId) -> tuple[WeylElement, ...]:
    """All Weyl elements, windows in lexicographic order."""
    _check_order(system)
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
    s = signed_inverse(pi)
    index = root_index(pi.system)
    negative = index.negative
    return frozenset(
        a
        for a, (p, q) in zip(index.positive, index.positive_pairs)
        if negative[s[p]][s[q]]
    )
