"""Cell-by-cell pavings of Hessenberg varieties and their Poincare
polynomials.

Each Weyl element pi indexes a cell.  Every operator M = S + N enters the
closed formula through the Levi Phi_l (the positive roots on which S
vanishes, all of Phi+ when S = 0) and the support of N, both built once per
spec, and through the orbit roots Phi_{(U_pi cap L).N} of N under the part
of U_pi inside the Levi.  The cell is empty iff pi^{-1} maps supp N outside
M_H; both that and its dimension are read on the domain side.  As Phi_pi =
pi(Phi-) cap Phi+, Phi_pi is the images pi b of the negative roots b that
pi sends positive, split into C1 (b in M_H) and C2 (b outside M_H), and the
dimension is

    |C1| + |(C2 cap Phi_l) minus Phi_{(U_pi cap L).N}|.

For a regular semisimple operator (N = 0, Phi_l empty) this is |C1|, the
De Mari-Procesi-Shayman count #{a in Phi_pi : pi^{-1} a in M_H}; for a
nilpotent one (S = 0) every root of C2 is in Phi_l and only orbit roots
are taken away.

The formula reads roots as signed position pairs (rootsys.root_index).
pi's own window maps the space's negative roots, split by M_H
(HessenbergSpace.negative_pairs), onto positions in Phi+
(RootIndex.position).  A root is pi b exactly when pi^{-1} sends it to b,
so the support test asks whether supp N meets the outside roots' images.
The orbit roots are an exact additive closure (cell_formula).  Each cell is
then integer lookups, with no Root object, matrix or random draw: the seed
reaches only the oracle.

Three computation paths are exposed (closed formula, tableau count in type
A, probabilistic solver) so they can certify each other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import islice

from .hessenberg import HessenbergSpace, to_h
from .operators import (
    RegularNilpotent,
    SemisimpleClassical,
    TypeAGeneral,
    TypeANilpotent,
    canonical_form,
    levi_roots,
    multidiagram_of,
)
from .orbit_oracle import REASONS, cell_dim_oracle
from .rootsys import RootSystemId, root_closure, root_index, weyl_order
from .tableaux import Filling, multidiagram_dimension, multidiagram_nonempty
from .weyl import WeylElement, enumerate_weyl, signed_inverse, signed_window

__all__ = [
    "CellReport",
    "PoincarePolynomial",
    "PavingResult",
    "cell_formula",
    "cell_tableau",
    "cell_oracle",
    "cell_report",
    "poincare",
    "pave",
    "spec_label",
    "hess_label",
    "result_to_json",
]


@dataclass(frozen=True, slots=True)
class CellReport:
    pi: WeylElement
    nonempty: bool
    dim: int | None
    formula: str

    def __post_init__(self):
        if self.nonempty != (self.dim is not None):
            raise ValueError("dim must be present exactly when nonempty")
        if self.dim is not None and not 0 <= self.dim <= self.pi.length():
            raise ValueError(f"dim {self.dim} outside [0, |Phi_pi|]")


@dataclass(frozen=True)
class PoincarePolynomial:
    """Coefficient of x^{2d} counts nonempty cells of dimension d."""

    coefficients: tuple[tuple[int, int], ...]  # (degree in x, coefficient)

    def __post_init__(self):
        if any(d % 2 or c < 0 for d, c in self.coefficients):
            raise ValueError("only even degrees with nonnegative coefficients")

    def euler_characteristic(self) -> int:
        return sum(c for _, c in self.coefficients)

    def as_list(self) -> list[int]:
        if not self.coefficients:
            return [0]
        top = max(d for d, _ in self.coefficients)
        out = [0] * (top + 1)
        for d, c in self.coefficients:
            out[d] = c
        return out

    def __str__(self):
        if not self.coefficients:
            return "0"
        parts = []
        for d, c in self.coefficients:
            if d == 0:
                parts.append(str(c))
            else:
                co = "" if c == 1 else str(c)
                parts.append(f"{co}x^{d}")
        return " + ".join(parts)


def poincare(reports, system: RootSystemId) -> PoincarePolynomial:
    """Aggregate CellReports covering W exactly once, in one pass over any
    iterable.  Every WeylElement checks its window when built, so |W|
    distinct windows of the system are all of W.  A repeat shows as equal
    neighbours once the windows are sorted (linear on pave's order)."""
    windows = []
    counts: dict[int, int] = {}
    for r in reports:
        if r.pi.system is not system:
            raise ValueError(f"report for {r.pi.system} in a paving of {system}")
        windows.append(r.pi.window)
        if r.nonempty:
            counts[2 * r.dim] = counts.get(2 * r.dim, 0) + 1
    windows.sort()
    if any(map(tuple.__eq__, windows, islice(windows, 1, None))):
        raise ValueError("duplicate Weyl element in reports")
    if len(windows) != weyl_order(system):
        raise ValueError("reports do not cover the Weyl group")
    return PoincarePolynomial(tuple(sorted(counts.items())))


# --- the closed formula -------------------------------------------------------


@lru_cache(maxsize=None)
def _formula_data(spec, system: RootSystemId) -> tuple:
    """supp N and Phi_l as frozensets of positions in root_index order, and
    the pair -> position table (RootIndex.position) the cell's image pairs
    are read through; built once per spec."""
    index = root_index(system)
    support = canonical_form(spec, system).support
    levi = levi_roots(spec, system)
    return (frozenset(index.at[b] for b in support),
            frozenset(k for k, a in enumerate(index.positive) if a in levi),
            index.position)


def cell_formula(
    spec,
    system: RootSystemId,
    H: HessenbergSpace,
    pi: WeylElement,
) -> CellReport:
    """The one Levi formula for M = S + N, read on the domain side (see
    the module docstring): pi's own window maps H.negative_pairs' inside
    and outside pairs to C1 and C2, keeping the images in Phi+
    (RootIndex.position reads -1 off it).  C2 is the positive roots pi^{-1}
    sends outside M_H, so the cell is empty iff supp N meets it, and else
    |C1| + |(C2 cap Phi_l) minus Phi_{(U_pi cap L).N}|.

    This is |Phi_pi| minus the roots a of (Phi_pi minus Phi_l) u
    Phi_{(U_pi cap L).N} with pi^{-1} a outside M_H, as the orbit roots lie
    in Phi_l.  With supp N and Phi_l empty (N = 0, S regular) the outside
    pairs are never read, and the closure runs only when supp N is
    nonempty and C2 meets Phi_l; its steps Phi_pi cap Phi_l are
    (C1 u C2) cap Phi_l.  The count never reads pi.length(), so
    CellReport's bound dim <= l(pi) checks it independently.

    The orbit roots are taken as the closure of supp N under adding roots
    of Phi_pi cap Phi_l through positive roots (rootsys.root_closure), a
    subset of Phi_l.  Every orbit root lies in it: an element of U_pi cap L
    moves a root a only to roots a + (a sum of roots of Phi_pi cap Phi_l),
    and S commutes with U_pi cap L.  Conversely, with u = exp(X) and
    X = sum of t_g E_g over Phi_pi cap Phi_l, the E_a coefficient of
    u^{-1}.N sums, over the pairs (beta in supp N, multiset of steps g)
    with beta + (their sum) = a, the pair's monomial times a sum over the
    orderings of its multiset.  Different pairs have different monomials,
    so a cancellation can only happen among the orderings of one multiset.
    That none does, so the two sets are equal, has no proof here;
    tests/test_orbit_closure.py guards it against the exact conjugation
    (orbit_oracle.orbit_roots)."""
    support, levi, position = _formula_data(spec, system)
    w = signed_window(pi)
    inside, outside = H.negative_pairs
    if support or levi:
        c2 = [position[w[p]][w[q]] for p, q in outside]  # -1 where pi b < 0
        if not support.isdisjoint(c2):
            return CellReport(pi, False, None, "formula")
    c1 = [position[w[p]][w[q]] for p, q in inside]
    dim = len(c1) - c1.count(-1)
    if levi:
        c2 = [k for k in c2 if k in levi]
        if support and c2:
            steps = [k for k in c1 if k in levi] + c2
            closure = root_closure(system, support, steps)
            c2 = [k for k in c2 if k not in closure]
        dim += len(c2)
    return CellReport(pi, True, dim, "formula")


def cell_tableau(
    spec,
    system: RootSystemId,
    H: HessenbergSpace,
    pi: WeylElement,
) -> CellReport:
    """Type-A combinatorial path through the (multi)diagram filling."""
    md, h = _tableau_data(spec, H)
    f = Filling(tuple(signed_inverse(pi)[1:len(pi.window) + 1]))
    if not multidiagram_nonempty(md, f, h):
        return CellReport(pi, False, None, "tableau")
    return CellReport(pi, True, multidiagram_dimension(md, f, h), "tableau")


@lru_cache(maxsize=None)
def _tableau_data(spec, H: HessenbergSpace):
    """The (multi)diagram of the spec and the Hessenberg function of H,
    built once per (spec, space)."""
    return multidiagram_of(spec, H.system), to_h(H)


class OracleDisagreement(RuntimeError):
    """The oracle could not certify a cell; reason is the verdict's code
    (orbit_oracle.REASONS), None when the verdict named none."""

    def __init__(self, pi: WeylElement, reason: str | None):
        # args holds the constructor's arguments, so the exception pickles
        super().__init__(pi, reason)
        self.pi = pi
        self.reason = reason

    def __str__(self):
        detail = REASONS.get(self.reason, "no reason given")
        code = f" [{self.reason}]" if self.reason else ""
        return f"oracle inconsistent at pi={self.pi}: {detail}{code}"


def cell_oracle(
    spec,
    system: RootSystemId,
    H: HessenbergSpace,
    pi: WeylElement,
    trials: int = 5,
    seed: int = 0,
    *,
    memo: dict | None = None,
) -> CellReport:
    """The oracle's verdict as a CellReport; raises OracleDisagreement on an
    inconsistent one, whether memo held it or not."""
    v = cell_dim_oracle(spec, system, H, pi, trials=trials, seed=seed,
                        memo=memo)
    if v.kind == "inconsistent":
        raise OracleDisagreement(pi, v.reason)
    return CellReport(pi, v.kind == "dim", v.dim, "oracle")


def cell_report(
    spec,
    system: RootSystemId,
    H: HessenbergSpace,
    pi: WeylElement,
    method: str = "formula",
    seed: int = 0,
    trials: int = 5,
    *,
    memo: dict | None = None,
) -> CellReport:
    """The cell by one path; memo reaches only the oracle (cell_dim_oracle).
    H and pi must belong to system: the formula and the oracle read them
    through system's root index and would answer silently wrong."""
    if H.system is not system:
        raise ValueError(f"space of {H.system} in a cell of {system}")
    if pi.system is not system:
        raise ValueError(f"Weyl element of {pi.system} in a cell of {system}")
    if method == "formula":
        return cell_formula(spec, system, H, pi)
    if method == "tableau":
        return cell_tableau(spec, system, H, pi)
    if method == "oracle":
        return cell_oracle(spec, system, H, pi, trials=trials, seed=seed,
                           memo=memo)
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class PavingResult:
    system: RootSystemId
    reports: tuple[CellReport, ...]
    polynomial: PoincarePolynomial


def pave(
    spec,
    system: RootSystemId,
    H: HessenbergSpace,
    method: str = "formula",
    seed: int = 0,
    trials: int = 5,
    jobs: int = 1,
) -> PavingResult:
    """Compute every cell over W, in enumeration order, and aggregate.
    jobs remains only for the benchmark's workloads (perfbench/workloads.py),
    which pass jobs=1; any other value raises ValueError."""
    if type(jobs) is not int or jobs != 1:
        raise ValueError(f"jobs must be the int 1, got {jobs!r}")
    cell = partial(cell_report, spec, system, H, method=method, seed=seed,
                   trials=trials)
    reports = tuple(map(cell, enumerate_weyl(system)))
    return PavingResult(system, reports, poincare(reports, system))


# --- labels and JSON ----------------------------------------------------------


def spec_label(spec) -> str:
    if isinstance(spec, RegularNilpotent):
        return "regular-nilpotent"
    if isinstance(spec, TypeANilpotent):
        return "nilpotent:" + ",".join(str(p) for p in spec.mu)
    if isinstance(spec, TypeAGeneral):
        return "general:" + "|".join(
            f"{lab}:{','.join(str(p) for p in mu)}" for lab, mu in spec.blocks
        )
    if isinstance(spec, SemisimpleClassical):
        if not spec.levi_blocks:
            return "semisimple:regular"
        return "semisimple:" + ";".join(
            ",".join(str(i) for i in block) for block in spec.levi_blocks
        )
    raise ValueError(f"unknown spec {spec!r}")


def hess_label(H: HessenbergSpace) -> dict:
    if H.system.family == "A":
        return {"h": str(to_h(H))}
    return {"M_H": sorted(list(a.coeffs) for a in H.roots)}


def result_to_json(spec, H: HessenbergSpace, result: PavingResult) -> str:
    obj = {
        "type": result.system.family,
        "rank": result.system.rank,
        "operator": spec_label(spec),
        **hess_label(H),
        "cells": [
            {
                "pi": list(r.pi.window),
                "nonempty": r.nonempty,
                **({"dim": r.dim} if r.nonempty else {}),
            }
            for r in result.reports
        ],
        "poincare": result.polynomial.as_list(),
    }
    return json.dumps(obj, indent=2, sort_keys=False)
