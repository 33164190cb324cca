"""Operator specifications M = S + N and their canonical forms.

Supported operators: regular nilpotent (any classical family), type-A
nilpotent of Jordan type mu, type-A general (one nilpotent block per
eigenvalue), and semisimple with zero pattern given by simple-root subsets.
The nilpotent support is read off the Young diagram: a box k directly above
box j contributes the root e_j - e_k, giving the non-overlapping support of
the canonical Jordan form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rootsys import (
    Root,
    RootSystemId,
    ambient_dim,
    euclidean,
    positive_roots,
    root_gt,
    simple_roots,
    type_a_root,
)
from .tableaux import Diagram, MultiDiagram, vertical_pairs

__all__ = [
    "RegularNilpotent",
    "TypeANilpotent",
    "TypeAGeneral",
    "SemisimpleClassical",
    "CanonicalNilpotent",
    "canonical_form",
    "semisimple_functional",
    "levi_roots",
    "blocks_of",
    "block_ranges",
    "multidiagram_of",
]


@dataclass(frozen=True)
class RegularNilpotent:
    """N = sum of simple root vectors; valid in every classical family."""


@dataclass(frozen=True)
class TypeANilpotent:
    """Nilpotent of Jordan type mu in gl_{n+1} (family A only)."""

    mu: tuple[int, ...]

    def __post_init__(self):  # tuples, so that specs hash as cache keys
        object.__setattr__(self, "mu", tuple(self.mu))


@dataclass(frozen=True)
class TypeAGeneral:
    """One Jordan block structure per eigenvalue; labels are opaque tokens."""

    blocks: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks",
                           tuple((lab, tuple(mu)) for lab, mu in self.blocks))
        labels = [lab for lab, _ in self.blocks]
        if len(set(labels)) != len(labels):
            raise ValueError("eigenvalue labels must be distinct")


@dataclass(frozen=True)
class SemisimpleClassical:
    """Semisimple S with alpha(S) = 0 exactly on the span of the given
    pairwise disjoint, Dynkin-connected simple-root index subsets."""

    levi_blocks: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "levi_blocks", tuple(map(tuple, self.levi_blocks)))


@dataclass(frozen=True)
class CanonicalNilpotent:
    """Ordered non-overlapping support of the canonical nilpotent."""

    system: RootSystemId
    support: tuple[Root, ...]

    def __post_init__(self):
        for a in self.support:
            for b in self.support:
                if root_gt(a, b):
                    raise ValueError(f"overlapping support: {a} > {b}")


def _check_family_a(spec, system: RootSystemId, total: int):
    if system.family != "A":
        raise ValueError(f"{type(spec).__name__} requires family A")
    if total != system.rank + 1:
        raise ValueError(
            f"partition sizes sum to {total}, expected {system.rank + 1} for {system}"
        )


def blocks_of(spec: TypeAGeneral) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """Blocks sorted by size descending, equal sizes in input order."""
    return tuple(
        sorted(spec.blocks, key=lambda b: -sum(b[1]))
    )


def block_ranges(spec: TypeAGeneral) -> tuple[tuple[int, int], ...]:
    """Half-open global index ranges (lo, hi), largest block first at 1."""
    out, off = [], 0
    for _, mu in blocks_of(spec):
        out.append((off + 1, off + sum(mu) + 1))
        off += sum(mu)
    return tuple(out)


def multidiagram_of(spec, system: RootSystemId | None = None) -> MultiDiagram:
    if isinstance(spec, RegularNilpotent):
        if system is None or system.family != "A":
            raise ValueError("regular nilpotent diagram needs a type-A system")
        return MultiDiagram((Diagram((system.rank + 1,)),))
    if isinstance(spec, SemisimpleClassical):
        if system is None or system.family != "A" or spec.levi_blocks:
            raise ValueError("diagram exists only for regular semisimple in type A")
        return MultiDiagram((Diagram((1,)),) * (system.rank + 1))
    if isinstance(spec, TypeANilpotent):
        return MultiDiagram((Diagram(spec.mu),))
    if isinstance(spec, TypeAGeneral):
        return MultiDiagram(tuple(Diagram(mu) for _, mu in blocks_of(spec)))
    raise ValueError(f"no diagram for {type(spec).__name__}")


def _diagram_support(system: RootSystemId, mu: tuple[int, ...], offset: int):
    d = Diagram(mu)
    return [
        type_a_root(system.rank, offset + j, offset + k)
        for j, k in vertical_pairs(d)
    ]


def canonical_form(spec, system: RootSystemId) -> CanonicalNilpotent:
    """Support of the canonical nilpotent part of the operator."""
    if isinstance(spec, RegularNilpotent):
        return CanonicalNilpotent(system, simple_roots(system))
    if isinstance(spec, TypeANilpotent):
        _check_family_a(spec, system, sum(spec.mu))
        return CanonicalNilpotent(
            system, tuple(_diagram_support(system, spec.mu, 0))
        )
    if isinstance(spec, TypeAGeneral):
        _check_family_a(spec, system, sum(sum(mu) for _, mu in spec.blocks))
        support = []
        for (lo, _), (_, mu) in zip(block_ranges(spec), blocks_of(spec)):
            support.extend(_diagram_support(system, mu, lo - 1))
        return CanonicalNilpotent(system, tuple(support))
    if isinstance(spec, SemisimpleClassical):
        return CanonicalNilpotent(system, ())
    raise ValueError(f"unknown operator spec {spec!r}")


def _levi_simple_indices(spec, system: RootSystemId) -> frozenset[int]:
    """Simple roots on which S vanishes: all of them for a nilpotent spec
    (S = 0, so the Levi is the whole group)."""
    n = system.rank
    if isinstance(spec, (RegularNilpotent, TypeANilpotent)):
        return frozenset(range(1, n + 1))
    if isinstance(spec, SemisimpleClassical):
        seen: set[int] = set()
        for block in spec.levi_blocks:
            for i in block:
                if not 1 <= i <= n:
                    raise ValueError(f"simple root index {i} out of range")
                if i in seen:
                    raise ValueError("levi blocks must be pairwise disjoint")
                seen.add(i)
        _check_connected(spec, system)
        return frozenset(seen)
    if isinstance(spec, TypeAGeneral):
        idx = set()
        for lo, hi in block_ranges(spec):
            idx.update(range(lo, hi - 1))
        return frozenset(idx)
    raise ValueError(f"no Levi data for {type(spec).__name__}")


def _check_connected(spec: SemisimpleClassical, system: RootSystemId):
    """Simple roots span a connected piece of the Dynkin diagram exactly
    when their sum is a root."""
    positive = positive_roots(system)
    for block in spec.levi_blocks:
        if not block:
            raise ValueError("empty levi block")
        total = Root(tuple(int(i in block) for i in range(1, system.rank + 1)))
        if total not in positive:
            raise ValueError(f"levi block {block} not connected in the Dynkin diagram")


def levi_roots(spec, system: RootSystemId) -> frozenset[Root]:
    """Phi_l: positive roots on which S vanishes, the span of the operator's
    simple-root blocks (all of Phi+ for a nilpotent spec)."""
    idx = _levi_simple_indices(spec, system)
    return frozenset(
        a for a in positive_roots(system)
        if all(c == 0 for k, c in enumerate(a.coeffs, start=1) if k not in idx)
    )


def semisimple_functional(spec, system: RootSystemId) -> tuple[int, ...]:
    """Integer vector s with alpha(s) = sum_k v_k s_k (v = Euclidean form of
    alpha) vanishing exactly on the Levi roots: the sum of the Euclidean
    vectors of the positive roots outside Phi_l.

    The Levi's simple reflections permute those roots, so s pairs to zero
    with each Levi simple root; it pairs positively with every other simple
    root (2 rho minus 2 rho_l), so a positive root pairs to zero exactly when
    it lies in Phi_l.  In type A, s is constant on each eigenvalue block and
    strictly decreasing across blocks."""
    levi = levi_roots(spec, system)
    s = [0] * ambient_dim(system)
    for a in positive_roots(system):
        if a not in levi:
            for k, v in enumerate(euclidean(system, a)):
                s[k] += v
    return tuple(s)
