"""The four benchmark workloads: inputs, the timed library calls, and the
correctness check against hesspave-free references.

A workload's ``setup`` builds the RootSystemId, operator spec and
HessenbergSpace objects.  ``run`` is the timed region: it goes through the
entry points a user calls (``paving.pave`` or ``cli.main``) with ``jobs=1``,
looked up on their modules at call time so that the traced run sees these
calls too.  ``check`` runs after timing and returns (decisions attempted,
decisions failed, problem messages).  A decision is one cell on one path.
"""

from __future__ import annotations

import contextlib
import io
import re
from dataclasses import dataclass

import reference
from hesspave import (
    RegularNilpotent,
    RootSystemId,
    SemisimpleClassical,
    TypeANilpotent,
    cli,
    from_h,
    full_space,
    paving,
    peterson_space,
)
from hesspave.hessenberg import HessFunction


@dataclass
class PaveCase:
    label: str
    spec: object
    system: RootSystemId
    H: object
    method: str
    reference: object  # (case, seed) -> {window: (nonempty, dim)}
    betti: list[int] | None = None  # expected Poincare coefficient list


def _keys(result) -> dict:
    return {r.pi.window: (r.nonempty, r.dim) for r in result.reports}


def _semisimple_reference(statistic):
    def ref(case, seed):
        return reference.semisimple_cells(case.system.rank + 1, statistic)

    return ref


def _path_reference(method):
    """Per-cell keys from another certification path, run after timing."""

    def ref(case, seed):
        return _keys(paving.pave(case.spec, case.system, case.H,
                                 method=method, seed=seed, jobs=1))

    return ref


def setup_formula_weyl(seed):
    A6 = RootSystemId("A", 6)
    spec = SemisimpleClassical(())
    return [
        PaveCase("A6 semisimple peterson", spec, A6, peterson_space(A6),
                 "formula", _semisimple_reference(reference.descents)),
        PaveCase("A6 semisimple full", spec, A6, full_space(A6),
                 "formula", _semisimple_reference(reference.inversions)),
    ]


def setup_formula_orbit(seed):
    A6 = RootSystemId("A", 6)
    tableau = _path_reference("tableau")
    return [
        PaveCase(f"A6 nilpotent {mu} h={h}", TypeANilpotent(mu), A6,
                 from_h(HessFunction(h)), "formula", tableau)
        for mu, h in (((2, 2, 1, 1, 1), (3, 4, 5, 6, 7, 7, 7)),
                      ((4, 3), (4, 5, 6, 7, 7, 7, 7)))
    ]


def setup_oracle(seed):
    formula = _path_reference("formula")
    cases = []
    for family, rank in (("A", 5), ("C", 4), ("D", 4)):
        system = RootSystemId(family, rank)
        cases.append(PaveCase(
            f"{family}{rank} regular-nilpotent peterson", RegularNilpotent(),
            system, peterson_space(system), "oracle", formula,
            reference.peterson_regular_nilpotent_betti(rank)))
    return cases


def run_pave(cases, seed):
    out = []
    for case in cases:
        try:
            out.append(paving.pave(case.spec, case.system, case.H,
                                   method=case.method, seed=seed, jobs=1))
        except Exception as e:  # a raised paving fails all of its cells
            out.append(e)
    return out


def check_pave(cases, results, seed):
    attempted = failed = 0
    problems = []
    for case, result in zip(cases, results):
        cells = reference.weyl_order(case.system.family, case.system.rank)
        attempted += cells
        if isinstance(result, Exception):
            failed += cells
            problems.append(f"{case.label}: raised {result!r}")
            continue
        expected = case.reference(case, seed)
        got = _keys(result)
        bad = sum(1 for w, key in expected.items() if got.get(w) != key)
        bad += sum(1 for w in got if w not in expected)
        if len(expected) != cells:
            problems.append(f"{case.label}: reference has {len(expected)} cells")
            bad = cells
        if bad:
            problems.append(f"{case.label}: {bad} of {cells} cells disagree")
        betti = result.polynomial.as_list()
        if betti != reference.betti_from_keys(expected.values()) or (
            case.betti is not None and betti != case.betti
        ):
            problems.append(f"{case.label}: Poincare coefficients {betti}")
            if not bad:  # the cells agree, so the aggregate is what is wrong
                bad = cells
        failed += min(bad, cells)
    return attempted, failed, problems


@dataclass
class VerifyCase:
    system: RootSystemId
    spec: object  # the operator the flags name; cli.main builds its own
    flags: list[str]
    paths: int  # certification paths verify runs on each cell

    def argv(self, seed):
        return ["verify", "--family", self.system.family,
                "--rank", str(self.system.rank), *self.flags,
                "--all-hess", "--seed", str(seed)]


def setup_verify(seed):
    return [
        VerifyCase(RootSystemId("B", 3), RegularNilpotent(),
                   ["--regular-nilpotent"], 2),
        VerifyCase(RootSystemId("A", 3), TypeANilpotent((2, 1, 1)),
                   ["--nilpotent", "2,1,1"], 3),
    ]


def run_verify(cases, seed):
    out = []
    for case in cases:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                rc = cli.main(case.argv(seed))
            except Exception as e:  # a raised verify fails every cell it left
                rc = repr(e)
        out.append((rc, buf.getvalue()))
    return out


_PASS = re.compile(r"^pass hess=.* \((\d+) cells, paths: ([a-z, ]+)\)$")


def check_verify(cases, results, seed):
    attempted = failed = 0
    problems = []
    for case, (rc, text) in zip(cases, results):
        family, rank = case.system.family, case.system.rank
        spaces = reference.hessenberg_space_count(family, rank)
        cells = reference.weyl_order(family, rank)
        per_space = cells * case.paths
        attempted += spaces * per_space
        passed = 0
        for line in text.splitlines():
            m = _PASS.match(line)
            if m and int(m[1]) == cells and len(m[2].split(", ")) == case.paths:
                passed += 1
        if rc != 0 or passed != spaces:
            failed += max(spaces - passed, 1) * per_space
            problems.append(
                f"verify {family}{rank}: exit {rc}, "
                f"{passed} of {spaces} spaces passed"
            )
    return attempted, failed, problems


@dataclass
class Workload:
    setup: object
    run: object
    check: object


WORKLOADS = {
    "pave-formula-weyl": Workload(setup_formula_weyl, run_pave, check_pave),
    "pave-formula-orbit": Workload(setup_formula_orbit, run_pave, check_pave),
    "pave-oracle": Workload(setup_oracle, run_pave, check_pave),
    "verify-sweep": Workload(setup_verify, run_verify, check_verify),
}
