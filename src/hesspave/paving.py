"""Cell-by-cell pavings of Hessenberg varieties and their Poincare
polynomials.

Each Weyl element pi indexes a cell; the closed formulas give nonemptiness
and dimension per operator variant:

* regular nilpotent / type-A nilpotent: nonempty iff pi^{-1} maps the
  canonical support into M_H; dimension |Phi_pi| minus the complementary
  orbit-root count,
* semisimple: always nonempty; pure set arithmetic,
* type-A general: per-eigenvalue-block nilpotent contributions plus the
  cross-block term.

Three computation paths are exposed (closed formula, tableau count in type
A, probabilistic solver) so they can certify each other.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .hessenberg import HessenbergSpace, complement_roots, to_h
from .operators import (
    RegularNilpotent,
    SemisimpleClassical,
    TypeAGeneral,
    TypeANilpotent,
    blocks_of,
    block_ranges,
    canonical_form,
    levi_roots,
    multidiagram_of,
)
from .orbit_oracle import (
    cell_dim_oracle,
    orbit_roots,
    restricted_orbit_roots,
)
from .rootsys import RootSystemId, positive_roots
from .tableaux import Filling, multidiagram_dimension, multidiagram_nonempty
from .weyl import WeylElement, enumerate_weyl, inversion_set

__all__ = [
    "CellReport",
    "PoincarePolynomial",
    "PavingResult",
    "cell_regular_nilpotent",
    "cell_typeA",
    "cell_semisimple",
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
        if self.dim is not None and not 0 <= self.dim <= len(inversion_set(self.pi)):
            raise ValueError(f"dim {self.dim} outside [0, |Phi_pi|]")


@dataclass(frozen=True)
class PoincarePolynomial:
    """Coefficient of x^{2d} counts nonempty cells of dimension d."""

    coefficients: tuple[tuple[int, int], ...]  # (degree in x, coefficient)

    def __post_init__(self):
        if any(d % 2 or c < 0 for d, c in self.coefficients):
            raise ValueError("only even degrees with nonnegative coefficients")

    def coeff(self, degree: int) -> int:
        return dict(self.coefficients).get(degree, 0)

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
    """Aggregate CellReports covering W exactly once."""
    seen = [r.pi for r in reports]
    if len(set(seen)) != len(seen):
        raise ValueError("duplicate Weyl element in reports")
    if set(seen) != set(enumerate_weyl(system)):
        raise ValueError("reports do not cover the Weyl group")
    counts: dict[int, int] = {}
    for r in reports:
        if r.nonempty:
            counts[2 * r.dim] = counts.get(2 * r.dim, 0) + 1
    return PoincarePolynomial(tuple(sorted(counts.items())))


# --- closed formulas ----------------------------------------------------------


def _support_in_H(support, H: HessenbergSpace, pi: WeylElement) -> bool:
    inv = pi.inverse()
    return all(inv.act(beta) in H.roots for beta in support)


def _nilpotent_cell(spec, system, H, pi, seed, tag) -> CellReport:
    support = canonical_form(spec, system).support
    if not _support_in_H(support, H, pi):
        return CellReport(pi, False, None, tag)
    orbit = orbit_roots(spec, system, pi, seed=seed)
    c = complement_roots(H, pi)
    dim = len(inversion_set(pi)) - len(c & orbit)
    return CellReport(pi, True, dim, tag)


def cell_regular_nilpotent(
    system: RootSystemId,
    H: HessenbergSpace,
    pi: WeylElement,
    seed: int = 0,
) -> CellReport:
    return _nilpotent_cell(
        RegularNilpotent(), system, H, pi, seed, "regular-nilpotent"
    )


def cell_semisimple(
    system: RootSystemId,
    spec: SemisimpleClassical,
    H: HessenbergSpace,
    pi: WeylElement,
) -> CellReport:
    phi_l = levi_roots(spec, system)
    inv_set = inversion_set(pi)
    piinv = pi.inverse()
    dim = sum(
        1 for a in inv_set
        if a in phi_l or piinv.act(a) in H.roots
    )
    return CellReport(pi, True, dim, "semisimple")


def cell_typeA(
    spec,
    system: RootSystemId,
    H: HessenbergSpace,
    pi: WeylElement,
    seed: int = 0,
) -> CellReport:
    if isinstance(spec, TypeANilpotent):
        return _nilpotent_cell(spec, system, H, pi, seed, "typeA-nilpotent")
    if not isinstance(spec, TypeAGeneral):
        raise ValueError("cell_typeA requires a type-A operator spec")
    support = canonical_form(spec, system).support
    if not _support_in_H(support, H, pi):
        return CellReport(pi, False, None, "typeA-general")
    inv_set = inversion_set(pi)
    piinv = pi.inverse()
    phi_l = levi_roots(spec, system)
    cross = sum(
        1 for a in inv_set if a not in phi_l and piinv.act(a) in H.roots
    )
    c = complement_roots(H, pi)
    total = cross
    n1 = system.rank + 1
    for (lo, hi), (_, mu) in zip(block_ranges(spec), blocks_of(spec)):
        block_idx = set(range(lo, hi - 1))
        block_roots = frozenset(
            a for a in positive_roots(system)
            if all(c_ == 0 for k, c_ in enumerate(a.coeffs, start=1)
                   if k not in block_idx)
        )
        vars_j = inv_set & block_roots
        support_j = tuple(b for b in support if b in block_roots)
        orbit_j = restricted_orbit_roots(system, support_j, vars_j, seed=seed)
        total += len(vars_j) - len(c & orbit_j)
    return CellReport(pi, True, total, "typeA-general")


def cell_tableau(
    spec,
    system: RootSystemId,
    H: HessenbergSpace,
    pi: WeylElement,
) -> CellReport:
    """Type-A combinatorial path through the (multi)diagram filling."""
    md = multidiagram_of(spec, system)
    h = to_h(H)
    f = Filling(pi.inverse().window)
    if not multidiagram_nonempty(md, f, h):
        return CellReport(pi, False, None, "tableau")
    return CellReport(pi, True, multidiagram_dimension(md, f, h), "tableau")


class OracleDisagreement(RuntimeError):
    def __init__(self, pi: WeylElement, detail: str):
        super().__init__(f"oracle inconsistent at pi={pi}: {detail}")
        self.pi = pi


def cell_oracle(
    spec,
    system: RootSystemId,
    H: HessenbergSpace,
    pi: WeylElement,
    trials: int = 5,
    seed: int = 0,
) -> CellReport:
    v = cell_dim_oracle(spec, system, H, pi, trials=trials, seed=seed)
    if v.kind == "inconsistent":
        raise OracleDisagreement(pi, "trial disagreement or non-affine stage")
    if v.kind == "empty":
        return CellReport(pi, False, None, "oracle")
    return CellReport(pi, True, v.dim, "oracle")


def cell_report(
    spec,
    system: RootSystemId,
    H: HessenbergSpace,
    pi: WeylElement,
    method: str = "formula",
    seed: int = 0,
    trials: int = 5,
) -> CellReport:
    if method == "formula":
        if isinstance(spec, RegularNilpotent):
            return cell_regular_nilpotent(system, H, pi, seed)
        if isinstance(spec, SemisimpleClassical):
            return cell_semisimple(system, spec, H, pi)
        return cell_typeA(spec, system, H, pi, seed)
    if method == "tableau":
        return cell_tableau(spec, system, H, pi)
    if method == "oracle":
        return cell_oracle(spec, system, H, pi, trials=trials, seed=seed)
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class PavingResult:
    system: RootSystemId
    reports: tuple[CellReport, ...]
    polynomial: PoincarePolynomial


def _cell_worker(args):
    spec, system, H, pi, method, seed, trials = args
    return cell_report(spec, system, H, pi, method, seed, trials)


def pave(
    spec,
    system: RootSystemId,
    H: HessenbergSpace,
    method: str = "formula",
    seed: int = 0,
    trials: int = 5,
    jobs: int = 1,
) -> PavingResult:
    """Compute every cell over W, in enumeration order, and aggregate."""
    W = enumerate_weyl(system)
    if jobs > 1:
        args = [(spec, system, H, pi, method, seed, trials) for pi in W]
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            reports = tuple(ex.map(_cell_worker, args, chunksize=64))
    else:
        reports = tuple(
            cell_report(spec, system, H, pi, method, seed, trials)
            for pi in W
        )
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
