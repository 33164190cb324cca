"""Weyl groups of the classical families as (signed) permutation windows.

Type A_n elements are permutations of {1..n+1}; types B/C are signed
permutations of {1..n}; type D keeps only windows with an even number of
sign changes.  pi sends e_k to sgn(w_k) e_{|w_k|}, so it acts on a root's
signed position pair (rootsys.root_index) entrywise by k -> sgn(k) w(|k|):
the action and inversion sets are integer lookups on a window, and a length
is counted on the window alone.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter, lt, mul

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
    "signed_window",
]

# Refuse to materialize groups past this size; full pavings iterate all of W
# and keep every cell's report, about 0.24 KB per cell (A8 semisimple on the
# full space: 362,880 cells, 8 s and 108 MB peak RSS with --format text, and
# when last measured 13 s and 738 MB with --format json, on a 2-vCPU VM).
# The cap stays until A9 and D8 pavings are measured.
MAX_WEYL_ORDER = 10**6


@dataclass(frozen=True, order=True, slots=True)
class WeylElement:
    """A Weyl group element as its window (w(1), ..., w(m))."""

    system: RootSystemId
    window: tuple[int, ...]
    _length: int | None = field(default=None, init=False, repr=False,
                                compare=False)

    def __post_init__(self):
        if type(self.window) is not tuple:  # windows hash as cache keys
            object.__setattr__(self, "window", tuple(self.window))
        m = ambient_dim(self.system)
        if len(self.window) != m:
            raise ValueError(f"window length {len(self.window)} != {m}")
        for w in self.window:  # 1.0 and True would pass the checks below
            if type(w) is not int:
                raise ValueError(f"window entry {w!r} is not an int")
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
        if other.system is not self.system:
            raise ValueError(
                f"product of elements of {self.system} and {other.system}")
        # (self * other)(i) = self(other(i))
        win = []
        for w in other.window:
            s = self.window[abs(w) - 1]
            win.append(s if w > 0 else -s)
        return WeylElement(self.system, tuple(win))

    def act(self, alpha: Root) -> Root:
        index = root_index(self.system)
        p, q = index.pair[alpha]
        s = signed_window(self)
        return index.root[s[p], s[q]]

    def length(self) -> int:
        """|Phi_pi|: the positive roots pi sends negative (as many as pi^{-1}
        does), counted by _count on the window alone, with no root table
        read, and kept in the element's _length slot: every nonempty
        CellReport checks its dim against it.  enumerate_weyl fills the slot
        as it builds W; other elements count on first use.  The count is the
        element's own, not the formula's, so that the bound checks every
        path independently."""
        n = self._length
        if n is None:
            n = _count(self.window, *_length_masks(self.system))
            object.__setattr__(self, "_length", n)
        return n

    def __str__(self):
        return "[" + " ".join(str(w) for w in self.window) + "]"


def signed_window(pi: WeylElement) -> list[int]:
    """pi's window extended to signed positions: entry k, for -m <= k <= m
    with Python's negative indexing, is sgn(k) w(|k|), and entry 0 is 0.
    pi sends the root with pair (p, q) to the one with (s[p], s[q])."""
    window = pi.window
    return [0, *window, *[-w for w in reversed(window)]]


def signed_inverse(pi: WeylElement) -> list[int]:
    """signed_window of pi^{-1}, read off pi's window: pi sends position i
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
def _length_masks(system: RootSystemId) -> tuple[list[int], list[int], int]:
    """The bitmasks _count reads, indexed by window entry like signed_window.

    Entry k gets the key of the root order 1 < 2 < ... < m < -m < ... < -1,
    and a window's entries are placed left to right.  An entry k after an
    earlier entry j is an inversion of an e_i - e_j root when j's key is above
    k's, and in B/C/D of an e_i + e_j root when j's key is above -k's; in B/C a
    negative entry also inverts its e_i or 2e_i (Bjorner-Brenti, GTM 231,
    8.1-8.2).  The placed keys sit twice in one integer, at bit key(j) and at
    bit 2m + key(j), so query[k] selects both kinds of inversion at once, and
    in B/C a start bit at 4m, selected by query[k] for negative k, adds the
    short root."""
    m = ambient_dim(system)
    keys = 2 * m
    query, place = [0] * (keys + 1), [0] * (keys + 1)
    for k in (*range(1, m + 1), *range(-m, 0)):
        key, negated = (k - 1, keys - k) if k > 0 else (keys + k, -k - 1)
        query[k] = (1 << keys) - (2 << key)
        place[k] = 1 << key
        if system.family != "A":
            query[k] |= ((1 << keys) - (2 << negated)) << keys
            place[k] |= place[k] << keys
            if k < 0 and system.family in "BC":
                query[k] |= 1 << 2 * keys
    return query, place, (1 << 2 * keys if system.family in "BC" else 0)


def _count(window: tuple[int, ...], query: list[int], place: list[int],
           placed: int) -> int:
    """The length of the element with this window, one popcount per entry."""
    n = 0
    for k in window:
        n += (placed & query[k]).bit_count()
        placed |= place[k]
    return n


def _windows(system: RootSystemId) -> Iterable[tuple[int, ...]]:
    """Every window of the family, in lexicographic order: permutations in
    type A, and in B/C/D each permutation under every admissible sign
    pattern, sorted."""
    m = ambient_dim(system)
    perms = itertools.permutations(range(1, m + 1))
    if system.family == "A":
        return perms
    signs = [s for s in itertools.product((1, -1), repeat=m)
             if system.family != "D" or s.count(-1) % 2 == 0]
    windows = [tuple(map(mul, s, p)) for p in perms for s in signs]
    windows.sort()
    return windows


# The slot setters enumerate_weyl builds elements with, skipping __post_init__.
_new = object.__new__
_set_system = WeylElement.system.__set__
_set_window = WeylElement.window.__set__
_set_length = WeylElement._length.__set__
_window = attrgetter("window")


@lru_cache(maxsize=None)
def enumerate_weyl(system: RootSystemId) -> tuple[WeylElement, ...]:
    """All Weyl elements, windows in lexicographic order, lengths counted.

    _windows only yields signed permutation windows of the family, so the
    elements are built without WeylElement's per-window checks, and the
    group is checked once instead: |W| windows, strictly increasing."""
    _check_order(system)
    masks = _length_masks(system)

    def build(window):
        w = _new(WeylElement)
        _set_system(w, system)
        _set_window(w, window)
        _set_length(w, _count(window, *masks))
        return w

    W = tuple(map(build, _windows(system)))
    if len(W) != weyl_order(system):
        raise RuntimeError(
            f"{len(W)} windows built for {system}, whose Weyl group has "
            f"{weyl_order(system)} elements")
    later = itertools.islice(W, 1, None)
    if not all(map(lt, map(_window, W), map(_window, later))):
        raise RuntimeError(f"the windows built for {system} are not "
                           "strictly increasing")
    return W


@lru_cache(maxsize=None)
def inversion_set(pi: WeylElement) -> frozenset[Root]:
    """Positive roots sent negative by pi^{-1}: the images pi(-a) in Phi+,
    read as position[-w(p)][-w(q)] for each positive pair (p, q)."""
    w = signed_window(pi)
    index = root_index(pi.system)
    return frozenset(index.positive[k] for p, q in index.positive_pairs
                     if (k := index.position[-w[p]][-w[q]]) >= 0)
