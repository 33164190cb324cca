"""Cell-by-cell pavings of Hessenberg varieties and their Poincare
polynomials.

Each Weyl element pi indexes a cell.  Every operator M = S + N enters the
closed formula through the Levi Phi_l (the positive roots on which S
vanishes, all of Phi+ when S = 0) and the support of N, both built once per
spec, and through the orbit roots Phi_{(U_pi cap L).N} of N under the part
of U_pi inside the Levi.  The cell is empty iff pi^{-1} maps supp N outside
M_H; otherwise its dimension is

    |Phi_pi| - #{a in (Phi_pi minus Phi_l) u Phi_{(U_pi cap L).N} :
                 pi^{-1} a not in M_H}.

For a regular semisimple operator (N = 0, Phi_l empty) this is the De
Mari-Procesi-Shayman count #{a in Phi_pi : pi^{-1} a in M_H}; for a
nilpotent one (S = 0) the first set is empty and only orbit roots remain.

The formula reads roots as signed position pairs (rootsys.root_index):
pi^{-1}'s signed window maps a pair entrywise, a per-system table says
whether the image is negative (a in Phi_pi), and a per-space pair set says
whether it lies in M_H.  The orbit roots are an exact additive closure
(cell_formula).  Each cell is then integer lookups over Phi+, with no Root
object, matrix or random draw: the seed reaches only the oracle.

Three computation paths are exposed (closed formula, tableau count in type
A, probabilistic solver) so they can certify each other.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial

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
from .weyl import WeylElement, enumerate_weyl, signed_inverse

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


@dataclass(frozen=True)
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
    """Aggregate CellReports covering W exactly once.  Every WeylElement
    checks its window when built, so |W| distinct windows of the system are
    all of W."""
    windows = set()
    counts: dict[int, int] = {}
    for r in reports:
        if r.pi.system != system:
            raise ValueError(f"report for {r.pi.system} in a paving of {system}")
        if r.pi.window in windows:
            raise ValueError("duplicate Weyl element in reports")
        windows.add(r.pi.window)
        if r.nonempty:
            counts[2 * r.dim] = counts.get(2 * r.dim, 0) + 1
    if len(windows) != weyl_order(system):
        raise ValueError("reports do not cover the Weyl group")
    return PoincarePolynomial(tuple(sorted(counts.items())))


# --- the closed formula -------------------------------------------------------


@lru_cache(maxsize=None)
def _formula_data(spec, system: RootSystemId) -> tuple:
    """supp N as signed position pairs and as positions in root_index order,
    and whether each positive root lies in Phi_l; built once per spec."""
    index = root_index(system)
    support = canonical_form(spec, system).support
    levi = levi_roots(spec, system)
    return (tuple(index.pair[b] for b in support),
            tuple(index.at[b] for b in support),
            tuple(a in levi for a in index.positive))


def cell_formula(
    spec,
    system: RootSystemId,
    H: HessenbergSpace,
    pi: WeylElement,
) -> CellReport:
    """The one Levi formula for M = S + N: empty iff pi^{-1} maps supp N
    outside M_H, else |Phi_pi| minus the roots a of
    (Phi_pi minus Phi_l) u Phi_{(U_pi cap L).N} with pi^{-1} a outside M_H.

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
    support_pairs, support_at, levi_mask = _formula_data(spec, system)
    s = signed_inverse(pi)
    in_H = H.pairs
    if any((s[p], s[q]) not in in_H for p, q in support_pairs):
        return CellReport(pi, False, None, "formula")
    index = root_index(system)
    negative = index.negative
    length = outside = 0
    levi_inversions = []
    for k, (p, q) in enumerate(index.positive_pairs):
        x, y = s[p], s[q]
        if negative[x][y]:
            length += 1
            if levi_mask[k]:
                levi_inversions.append(k)
            elif (x, y) not in in_H:
                outside += 1
    if support_at:  # N = 0 has no orbit roots
        # the orbit roots lie in Phi_l, so none was counted above
        for k in root_closure(system, support_at, levi_inversions):
            p, q = index.positive_pairs[k]
            if (s[p], s[q]) not in in_H:
                outside += 1
    return CellReport(pi, True, length - outside, "formula")


def cell_tableau(
    spec,
    system: RootSystemId,
    H: HessenbergSpace,
    pi: WeylElement,
) -> CellReport:
    """Type-A combinatorial path through the (multi)diagram filling."""
    md, h = _tableau_data(spec, H)
    f = Filling(pi.inverse().window)
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
        # args holds the constructor's arguments so that the exception
        # pickles back from a pave(jobs > 1) worker
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
    if H.system is not system and H.system != system:
        raise ValueError(f"space of {H.system} in a cell of {system}")
    if pi.system is not system and pi.system != system:
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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    jobs > 1 runs the cells in a process pool of at most the usable CPUs:
    a fork-started pool launches every worker at its first task."""
    W = enumerate_weyl(system)
    cell = partial(cell_report, spec, system, H, method=method, seed=seed,
                   trials=trials)
    workers = min(jobs, _usable_cpus())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            reports = tuple(ex.map(cell, W, chunksize=64))
    else:
        reports = tuple(map(cell, W))
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
