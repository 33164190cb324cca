"""Matrix realizations of the classical Lie algebras plus two engines:

* conjugation u^{-1}.M down the rows of U_pi, one walk over any scalar
  domain (Poly variables, Fractions, residues mod PRIME) whose every row step
  is the exact two-bracket form M + [X, M] + 1/2 [X, [X, M]] (the row lemma
  (ad X)^3 = 0 on the Borel), which yields the orbit root set
  Phi_{(U_pi cap L) . M} by zero-testing polynomial coefficients or by
  random evaluation, and
* a probabilistic row-by-row affine solver over a large prime field that
  certifies cell dimensions independently of any closed formula.

Realizations use the antidiagonal bilinear forms (symmetric for B/D, skew
for C) so that the Borel is upper triangular.  Each root vector has a pivot
entry in rows 1..n (or the middle row for short B roots) that no other root
vector or diagonal element touches, so coefficient extraction is a single
dictionary lookup.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .hessenberg import HessenbergSpace, complement_roots
from .operators import canonical_form, levi_roots, semisimple_functional
from .polynomial import Poly
from .rootsys import (
    Root,
    RootSystemId,
    euclidean,
    positive_roots,
    root_table,
    row_partition,
    simple_roots,
)
from .weyl import WeylElement, inversion_set

__all__ = [
    "PRIME",
    "matrix_dim",
    "root_entries",
    "operator_matrix",
    "generic_conjugate",
    "orbit_roots",
    "cell_dim_oracle",
    "OracleVerdict",
    "verify_adform",
    "nonoverlap_check",
    "unitriangular_conjugate",
]

# Largest prime below 2^63; comfortably above the 2^61 sampling floor.
PRIME = 9223372036854775783
SYMBOLIC_RANK_CAP = 5
AUTO_SYMBOLIC_RANK = 3


def matrix_dim(system: RootSystemId) -> int:
    fam, n = system.family, system.rank
    if fam == "A":
        return n + 1
    if fam == "B":
        return 2 * n + 1
    return 2 * n


@lru_cache(maxsize=None)
def root_entries(system: RootSystemId, alpha: Root) -> tuple:
    """((row, col), coeff) pairs of E_alpha; the first entry is the pivot."""
    v = euclidean(system, alpha)
    if alpha.is_negative:
        return tuple(((c, r), x) for (r, c), x in root_entries(system, -alpha))
    fam, n = system.family, system.rank
    N = matrix_dim(system)
    bar = lambda k: N + 1 - k
    nz = [(k, x) for k, x in enumerate(v, start=1) if x]
    if fam == "A":
        (i, _), (j, _) = nz
        return (((i, j), 1),)
    if len(nz) == 1:
        (i, x) = nz[0]
        if x == 2:  # type C long root 2e_i
            return (((i, bar(i)), 1),)
        return (((i, n + 1), 1), ((n + 1, bar(i)), -1))  # type B short root e_i
    (i, xi), (j, xj) = nz
    if xj == -1:  # e_i - e_j
        return (((i, j), 1), ((bar(j), bar(i)), -1))
    if fam == "C":  # e_i + e_j
        return (((i, bar(j)), 1), ((j, bar(i)), 1))
    return (((i, bar(j)), 1), ((j, bar(i)), -1))  # e_i + e_j in B/D


def coeff_at(system: RootSystemId, M: dict, alpha: Root):
    return M.get(root_entries(system, alpha)[0][0], 0)


def cartan_matrix(system: RootSystemId, svec) -> dict:
    """Diagonal element with alpha(S) = <euclidean(alpha), svec>."""
    N = matrix_dim(system)
    out = {}
    for k, s in enumerate(svec, start=1):
        if s:
            out[(k, k)] = s
            if system.family != "A":
                out[(N + 1 - k, N + 1 - k)] = -s
    return out


def _support_matrix(system: RootSystemId, support) -> dict:
    """Sum of E_beta over the support."""
    out: dict = {}
    for beta in support:
        for rc, x in root_entries(system, beta):
            out[rc] = out.get(rc, 0) + x
    return out


def operator_matrix(spec, system: RootSystemId) -> dict:
    """Integer matrix of the canonical M = S + N (S = 0 for nilpotent specs)."""
    out = _support_matrix(system, canonical_form(spec, system).support)
    for rc, x in cartan_matrix(system, semisimple_functional(spec, system)).items():
        out[rc] = out.get(rc, 0) + x
    return {rc: x for rc, x in out.items() if x}


# --- sparse matrix arithmetic ------------------------------------------------


def _is_zero(v) -> bool:
    return v.is_zero() if isinstance(v, Poly) else not v


def _pruned(D: dict, mod=None) -> dict:
    """D without its zero entries, reduced mod `mod` when given."""
    if mod:
        return {rc: v % mod for rc, v in D.items() if v % mod}
    return {rc: v for rc, v in D.items() if not _is_zero(v)}


def _mat_mul(A: dict, B: dict) -> dict:
    brows: dict = {}
    for (r, c), v in B.items():
        brows.setdefault(r, []).append((c, v))
    out: dict = {}
    for (r, k), a in A.items():
        for c, b in brows.get(k, ()):
            out[r, c] = out.get((r, c), 0) + a * b
    return _pruned(out)


def _bracket(A: dict, B: dict, mod=None) -> dict:
    """[A, B] = AB - BA of sparse matrices, reduced mod `mod` when given.
    One pass over B against row and column indices of A, so A should be the
    smaller one (a row element)."""
    arows: dict = {}
    acols: dict = {}
    for (r, c), v in A.items():
        arows.setdefault(r, []).append((c, v))
        acols.setdefault(c, []).append((r, v))
    out: dict = {}
    for (k, c), b in B.items():
        for r, a in acols.get(k, ()):
            out[r, c] = out.get((r, c), 0) + a * b
        for j, a in arows.get(c, ()):
            out[k, j] = out.get((k, j), 0) - b * a
    return _pruned(out, mod)


def _row_element(system: RootSystemId, assignment: dict) -> dict:
    """Sum of x_beta E_beta over an assignment {Root: value}."""
    X: dict = {}
    for beta, x in assignment.items():
        for rc, c in root_entries(system, beta):
            X[rc] = X.get(rc, 0) + x * c
    return _pruned(X)


@lru_cache(maxsize=None)
def _row_sets(system: RootSystemId) -> tuple[frozenset[Root], ...]:
    return tuple(frozenset(row) for row in row_partition(system).rows)


def _conjugate(system: RootSystemId, M: dict, assignment: dict, mod=None) -> dict:
    """exp(X) M exp(-X) for X = sum of x_beta E_beta over the assignment
    {Root: scalar}: the adjoint action of u^{-1} = exp(X).

    The assignment's roots must lie in one row and M in the Borel; then
    (ad X)^3 M = 0 (the row lemma, checked by verify_adform), so the action
    is exactly M + [X, M] + 1/2 [X, [X, M]]."""
    if not any(row.issuperset(assignment) for row in _row_sets(system)):
        raise RuntimeError("conjugation by roots outside a single row")
    if any(r > c for r, c in M):
        raise RuntimeError("conjugated matrix is not in the Borel")
    X = _row_element(system, assignment)
    XM = _bracket(X, M, mod)
    half = pow(2, -1, mod) if mod else Fraction(1, 2)
    out = dict(M)
    for rc, v in XM.items():
        out[rc] = out.get(rc, 0) + v
    for rc, v in _bracket(X, XM, mod).items():
        out[rc] = out.get(rc, 0) + half * v
    return _pruned(out, mod)


# --- conjugation down the rows -------------------------------------------------


def _conjugate_rows(system: RootSystemId, M: dict, roots, draw, mod=None) -> dict:
    """Conjugate M by one row element per row of the given roots, rows in
    decreasing order, with the scalar draw(root) on each root: a Poly
    variable (generic), a Fraction, or a residue mod PRIME.  Each step is
    the two-bracket form of _conjugate, so it has degree at most two in its
    row's variables."""
    for row in reversed(row_partition(system).rows):
        chosen = [a for a in row if a in roots]
        if chosen:
            M = _conjugate(system, M, {a: draw(a) for a in chosen}, mod)
    return M


def _symbolic_rows(system: RootSystemId, M0: dict, roots) -> dict:
    """Exact generic conjugate over Poly, within SYMBOLIC_RANK_CAP."""
    if system.rank > SYMBOLIC_RANK_CAP:
        raise ValueError(f"symbolic conjugation capped at rank {SYMBOLIC_RANK_CAP}")
    return _conjugate_rows(system, M0, roots, lambda a: Poly.var(f"x[{a}]"))


def _orbit_support(system: RootSystemId, M0: dict, var_roots, mode: str,
                   key: str) -> frozenset[Root]:
    """Positive roots whose coefficient in u^{-1}.M0 is not identically zero,
    u generic in the group of var_roots: exact over Poly ("symbolic"), or the
    union over two random points mod PRIME seeded by key ("randomized").
    "auto" is symbolic up to AUTO_SYMBOLIC_RANK."""
    if mode == "auto":
        mode = "symbolic" if system.rank <= AUTO_SYMBOLIC_RANK else "randomized"
    pos = positive_roots(system)
    if mode == "symbolic":
        M = _symbolic_rows(system, M0, var_roots)
        return frozenset(a for a in pos if not _is_zero(coeff_at(system, M, a)))
    if mode != "randomized":
        raise ValueError(f"unknown orbit mode {mode!r}")
    found: set[Root] = set()
    for t in range(2):
        rng = random.Random(f"{key}:{t}")
        M = _conjugate_rows(system, {rc: v % PRIME for rc, v in M0.items()},
                            var_roots, lambda a: rng.randrange(1, PRIME), PRIME)
        found.update(a for a in pos if coeff_at(system, M, a))
    return frozenset(found)


def generic_conjugate(spec, system: RootSystemId, pi: WeylElement) -> dict:
    """Exact coefficient polynomials {alpha: Poly for alpha in Phi+} of
    u^{-1}.M for generic u in U_pi."""
    M = _symbolic_rows(system, dict(_oracle_data(spec, system).matrix),
                       inversion_set(pi))
    return {a: Poly() + coeff_at(system, M, a) for a in positive_roots(system)}


def orbit_roots(
    spec,
    system: RootSystemId,
    pi: WeylElement,
    mode: str = "auto",
    seed: int = 0,
    *,
    levi_inversions: frozenset[Root] | None = None,
) -> frozenset[Root]:
    """Phi_{(U_pi cap L) . M}: positive roots with a not-identically-zero
    coefficient in u^{-1}.M for generic u in U_pi cap L, the root groups of
    the inversion set inside the Levi Phi_l.  S commutes with U_pi cap L, so
    only N moves and S adds no root; a nilpotent spec has L = G, so this is
    Phi_{U_pi . N}.  A caller that already has Phi_pi cap Phi_l passes it
    as levi_inversions; it is trusted, so a set that is not pi's gives
    wrong orbit roots."""
    data = _oracle_data(spec, system)
    if levi_inversions is None:
        levi_inversions = inversion_set(pi) & data.levi
    return _orbit_support(system, dict(data.matrix), levi_inversions,
                          mode, f"orbit:{seed}:{pi.window}")


def restricted_orbit_roots(
    system: RootSystemId,
    support: tuple[Root, ...],
    var_roots: frozenset[Root],
    seed: int = 0,
) -> frozenset[Root]:
    """Orbit roots of N = sum of E_beta over the support, for u ranging over
    the subgroup generated by var_roots: in type A, the per-block reference
    that orbit_roots of a general operator is tested against."""
    key = f"orbitR:{seed}:{sorted(a.coeffs for a in var_roots)}"
    return _orbit_support(system, _support_matrix(system, support), var_roots,
                          "auto", key)


# --- probabilistic dimension solver -------------------------------------------


@dataclass(frozen=True)
class OracleVerdict:
    kind: str  # "empty" | "dim" | "inconsistent"
    dim: int | None = None


EMPTY = OracleVerdict("empty")
INCONSISTENT = OracleVerdict("inconsistent")


class _SpecData(NamedTuple):
    """Everything the formula path and the oracle read about M = S + N."""

    residues: tuple  # M mod PRIME, ((row, col), residue) pairs
    plan: tuple  # the oracle's stages, (variable roots, condition roots)
    matrix: tuple  # M over the integers, ((row, col), int) pairs
    support: tuple[Root, ...]  # supp N, in canonical order
    levi: frozenset[Root]  # Phi_l, the positive roots on which S vanishes
    support_pairs: tuple[tuple[int, int], ...]  # supp N as signed position pairs
    levi_mask: tuple[bool, ...]  # a in Phi_l, for a in positive_roots order


@lru_cache(maxsize=None)
def _oracle_data(spec, system: RootSystemId) -> _SpecData:
    """Per-spec data, built once per (spec, system) and immutable.  The
    stage plan lists (variable roots, condition roots) pairs in solving
    order, each sorted by height.

    Type C rows below the last get the two-stage refinement: the long root
    gamma_i (and gamma_i - alpha_i when the nilpotent part contains alpha_i
    and gamma_i - alpha_i lies in the Levi, i.e. (gamma_i - alpha_i)(S) = 0)
    is deferred to a second stage whose only condition is gamma_i itself.
    """
    rp = row_partition(system)
    n = system.rank
    matrix = tuple(operator_matrix(spec, system).items())
    support = canonical_form(spec, system).support
    levi = levi_roots(spec, system)
    plan = []
    for i in range(n, 0, -1):
        row = tuple(sorted(rp.rows[i - 1], key=lambda a: (a.height, a.coeffs)))
        if system.family == "C" and i < n:
            gamma = rp.long_root[i - 1]
            alpha_i = simple_roots(system)[i - 1]
            defer = {gamma}
            if alpha_i in support and gamma - alpha_i in levi:
                defer.add(gamma - alpha_i)
            plan.append((tuple(a for a in row if a not in defer),
                         tuple(a for a in row if a != gamma)))
            plan.append((tuple(a for a in row if a in defer), (gamma,)))
        else:
            plan.append((row, row))
    residues = tuple((rc, v % PRIME) for rc, v in matrix)
    pair = root_table(system)[0]
    return _SpecData(residues, tuple(plan), matrix, support, levi,
                     tuple(pair[b] for b in support),
                     tuple(a in levi for a in positive_roots(system)))


def _solve_affine(cols, b, rng):
    """Solve sum_j cols[j] x_j = -b over F_PRIME.

    Returns ("ok", rank, random solution) on success or ("bad", combos)
    when infeasible, where each combo is a row-combination vector over the
    input equations whose linear part vanished but whose constant did not."""
    p = PRIME
    m = len(cols)
    k = len(b)
    rows = [[cols[j][i] for j in range(m)] + [(-b[i]) % p] for i in range(k)]
    trace = [[int(i == j) for j in range(k)] for i in range(k)]
    pivots = []
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, k) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        trace[r], trace[piv] = trace[piv], trace[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        trace[r] = [(x * inv) % p for x in trace[r]]
        for i in range(k):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * bb) % p for a, bb in zip(rows[i], rows[r])]
                trace[i] = [(a - f * bb) % p for a, bb in zip(trace[i], trace[r])]
        pivots.append(c)
        r += 1
    combos = [trace[i] for i in range(r, k) if rows[i][m]]
    if combos:
        return "bad", combos
    x = [0] * m
    for c in range(m):
        if c not in pivots:
            x[c] = rng.randrange(p)
    for i, c in enumerate(reversed(pivots)):
        ri = len(pivots) - 1 - i
        x[c] = (rows[ri][m] - sum(rows[ri][j] * x[j] for j in range(m) if j != c)) % p
    return "ok", r, x


# Conditions are handled as functionals: linear combinations of coefficient
# projections rho_alpha of the running conjugate.  Each starts as a unit
# functional {alpha: 1} attached to the stage owning alpha.  When a stage
# system is infeasible, the eliminated combinations with vanished linear part
# are new functionals free of that stage's variables; they constrain earlier
# stages and get re-attached to the first stage after which their value is
# pinned.  (In type D a height set of size two inside the condition set
# produces exactly such a difference condition on the next row up.)

MAX_DERIVED = 12


def _feval(system, M, fdict):
    return sum(c * coeff_at(system, M, a) for a, c in fdict.items()) % PRIME


def _combine(funcs, combo):
    out: dict = {}
    for c, fd in zip(combo, funcs):
        if not c:
            continue
        for a, v in fd.items():
            out[a] = (out.get(a, 0) + c * v) % PRIME
    return {a: v for a, v in out.items() if v}


def _stage_funcs(stage_conds, cond_set, extra, t):
    funcs = [{a: 1} for a in stage_conds if a in cond_set]
    funcs.extend(fd for s, fd in extra if s == t)
    return funcs


def _stage_system(system, M, vrs, funcs):
    """Baseline values and per-variable columns of the stage's affine system.

    Column v is f(conj(M, {v: 1})) - f(M) = f([E_v, M]) + 1/2 f([E_v, [E_v, M]]).
    The quadratic term stays: _stability_stage solves stage systems without
    the affineness probe, so dropping it would change its answers."""
    b = [_feval(system, M, fd) for fd in funcs]
    half = pow(2, -1, PRIME)
    cols = []
    for v_root in vrs:
        Ev = dict(root_entries(system, v_root))
        Z1 = _bracket(Ev, M, PRIME)
        Z2 = _bracket(Ev, Z1, PRIME)
        cols.append([(_feval(system, Z1, fd) + half * _feval(system, Z2, fd)) % PRIME
                     for fd in funcs])
    return b, cols


def _run_tower(system, M0, plan, var_set, cond_set, extra, rng):
    M = dict(M0)
    total_rank = 0
    for t, (stage_vars, stage_conds) in enumerate(plan):
        vrs = [a for a in stage_vars if a in var_set]
        funcs = _stage_funcs(stage_conds, cond_set, extra, t)
        if not funcs:
            if vrs:
                M = _conjugate(system, M, {a: rng.randrange(PRIME) for a in vrs},
                               PRIME)
            continue
        b, cols = _stage_system(system, M, vrs, funcs)
        if not vrs:
            if any(b):
                return "infeasible", (t, funcs, [
                    [int(i == j) for j in range(len(funcs))]
                    for i, v in enumerate(b) if v
                ])
            continue
        # affineness probe at a random point
        xp = [rng.randrange(PRIME) for _ in vrs]
        Mp = _conjugate(system, M, dict(zip(vrs, xp)), PRIME)
        for idx, fd in enumerate(funcs):
            pred = (b[idx] + sum(cols[j][idx] * xp[j] for j in range(len(vrs)))) % PRIME
            if _feval(system, Mp, fd) != pred:
                return "nonaffine", None
        sol = _solve_affine(cols, b, rng)
        if sol[0] == "bad":
            return "infeasible", (t, funcs, sol[1])
        _, rank, xstar = sol
        total_rank += rank
        M = _conjugate(system, M, dict(zip(vrs, xstar)), PRIME)
    if any(coeff_at(system, M, a) for a in cond_set):
        return "nonaffine", None
    return "dim", len(var_set) - total_rank


def _stability_stage(system, M0, plan, var_set, cond_set, extra, fdict, rng):
    """Smallest s such that the functional's value is unchanged by stages
    s+1, s+2, ... along towers that satisfy the conditions enforced so far
    (so plan[s-1] is the stage pinning it).  Replaying constrained towers
    matters: a dependence on a later stage can vanish exactly on the locus
    the earlier conditions cut out."""
    best = 0
    for _ in range(2):
        M = dict(M0)
        vals = [_feval(system, M, fdict)]
        broken = False
        for t, (stage_vars, stage_conds) in enumerate(plan):
            vrs = [a for a in stage_vars if a in var_set]
            if not vrs:
                vals.append(vals[-1])
                continue
            assign = None
            if not broken:
                funcs = _stage_funcs(stage_conds, cond_set, extra, t)
                if funcs:
                    b, cols = _stage_system(system, M, vrs, funcs)
                    sol = _solve_affine(cols, b, rng)
                    if sol[0] == "ok":
                        assign = sol[2]
                    else:
                        broken = True
            if assign is None:
                assign = [rng.randrange(1, PRIME) for _ in vrs]
            M = _conjugate(system, M, dict(zip(vrs, assign)), PRIME)
            vals.append(_feval(system, M, fdict))
        s = len(plan)
        while s > 0 and vals[s - 1] == vals[-1]:
            s -= 1
        best = max(best, s)
    return best


def _solve_once(system, M0, plan, var_set, cond_set, rng):
    extra: list[tuple[int, dict]] = []
    seen: set[frozenset] = set()
    for _ in range(MAX_DERIVED):
        status, payload = _run_tower(
            system, M0, plan, var_set, cond_set, extra, rng
        )
        if status == "nonaffine":
            return "inconsistent", None
        if status != "infeasible":
            return status, payload
        t, funcs, combos = payload
        progress = False
        for combo in combos:
            fd = _combine(funcs, combo)
            if not fd:
                continue
            key = frozenset(fd.items())
            if key in seen:
                continue
            s = _stability_stage(system, M0, plan, var_set, cond_set, extra,
                                 fd, rng)
            if s == 0:
                # pinned before any variable acts; nonzero means no solutions
                if _feval(system, dict(M0), fd):
                    return "empty", None
                continue
            if s > t:
                return "inconsistent", None
            seen.add(key)
            extra.append((s - 1, fd))
            progress = True
        if not progress:
            return "inconsistent", None
    return "inconsistent", None


def cell_dim_oracle(
    spec,
    system: RootSystemId,
    H: HessenbergSpace,
    pi: WeylElement,
    trials: int = 5,
    seed: int = 0,
) -> OracleVerdict:
    """Probabilistic dimension of the cell BpiB intersected with H(M,H)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    data = _oracle_data(spec, system)
    cond_set = complement_roots(H, pi)
    var_set = inversion_set(pi)
    dims = set()
    empties = 0
    for t in range(trials):
        rng = random.Random(f"cell:{seed}:{t}:{pi.window}")
        kind, d = _solve_once(system, data.residues, data.plan, var_set, cond_set, rng)
        if kind == "inconsistent":
            return INCONSISTENT
        if kind == "empty":
            empties += 1
        else:
            dims.add(d)
    if empties == trials:
        return EMPTY
    if empties == 0 and len(dims) == 1:
        return OracleVerdict("dim", dims.pop())
    return INCONSISTENT


# --- structural verification --------------------------------------------------


def _borel_basis(system: RootSystemId):
    """Cartan diagonal generators followed by positive root vectors."""
    N = matrix_dim(system)
    out = []
    if system.family == "A":
        for k in range(1, N + 1):
            out.append({(k, k): 1})
    else:
        for k in range(1, system.rank + 1):
            out.append({(k, k): 1, (N + 1 - k, N + 1 - k): -1})
    for a in positive_roots(system):
        out.append(dict(root_entries(system, a)))
    return out


def verify_adform(system: RootSystemId, i: int, samples: int = 3,
                  seed: int = 0) -> bool:
    """Check the structural facts about ad X for X in row i: (ad X)^3 = 0 on
    the Borel; rows below i are untouched; (ad X)^2 kills row i except, in
    type C, the gamma_i line."""
    if not 1 <= i <= system.rank:
        raise ValueError(f"row {i} out of range for {system}")
    rp = row_partition(system)
    row = rp.rows[i - 1]
    rng = random.Random(f"adform:{seed}:{system}:{i}")
    gamma = rp.long_root[i - 1] if system.family == "C" else None
    basis = _borel_basis(system)
    later_rows = [a for j in range(i + 1, system.rank + 1)
                  for a in rp.rows[j - 1]]
    for _ in range(samples):
        X = _row_element(
            system, {a: rng.choice([-3, -2, -1, 1, 2, 3]) for a in row}
        )
        for Y in basis:
            Z1 = _bracket(X, Y)
            Z2 = _bracket(X, Z1)
            Z3 = _bracket(X, Z2)
            if Z3:
                return False
            for Z in (Z1, Z2):
                if any(coeff_at(system, Z, a) for a in later_rows):
                    return False
            for a in row:
                if a == gamma:
                    continue
                if coeff_at(system, Z2, a):
                    return False
    return True


def nonoverlap_check(spec, system: RootSystemId, pi: WeylElement,
                     samples: int = 100, seed: int = 0) -> bool:
    """Phi_M is contained in Phi_{u^-1.M} with unchanged coefficients, for
    random u in U_pi (exact rational arithmetic)."""
    data = _oracle_data(spec, system)
    M0 = dict(data.matrix)
    base = {b: coeff_at(system, M0, b) for b in data.support}
    rng = random.Random(f"nonoverlap:{seed}:{system}:{pi.window}")
    for _ in range(samples):
        M = _conjugate_rows(system, M0, inversion_set(pi),
                            lambda a: Fraction(rng.randint(-9, 9)))
        for b in data.support:
            if coeff_at(system, M, b) != base[b]:
                return False
    return True


def unitriangular_conjugate(m: int) -> dict:
    """u^{-1} N u in gl_m for the regular nilpotent N and the full upper
    unitriangular u with entries a_ij; returns {(i, j): Poly}."""
    N = {(k, k + 1): Poly.const(1) for k in range(1, m)}
    A = {
        (i, j): Poly.var(f"a{i}{j}")
        for i in range(1, m + 1)
        for j in range(i + 1, m + 1)
    }
    u = {(k, k): Poly.const(1) for k in range(1, m + 1)}
    for rc, v in A.items():
        u[rc] = v
    # Neumann series for u^{-1} = I - A + A^2 - ...
    uinv = {(k, k): Poly.const(1) for k in range(1, m + 1)}
    term = {rc: v for rc, v in A.items()}
    sign = -1
    while term:
        for rc, v in term.items():
            s = uinv.get(rc, Poly()) + sign * v
            if _is_zero(s):
                uinv.pop(rc, None)
            else:
                uinv[rc] = s
        term = _mat_mul(term, A)
        sign = -sign
    return _mat_mul(_mat_mul(uinv, N), u)
