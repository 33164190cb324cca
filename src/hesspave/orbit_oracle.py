"""Matrix realizations of the classical Lie algebras plus two engines:

* conjugation u^{-1}.M down the rows of U_pi, one walk over any scalar
  domain (Poly variables, Fractions, residues mod PRIME) whose every row step
  adds to M the exact two-bracket delta [X, M] + 1/2 [X, [X, M]] of one
  kernel, _adjoint (the row lemma: (ad X)^3 = 0 on the Borel).
  Zero-testing its polynomial coefficients gives the orbit roots
  Phi_{(U_pi cap L) . M}, the exact reference for the formula path's
  additive closure; random evaluation cross-checks it.
* a seeded probabilistic row-by-row affine solver over a large prime field
  that certifies cell dimensions independently of any closed formula.  A
  stage that comes out infeasible yields derived functionals; each is
  re-attached to the stage that pins it.  Most are constant: a functional
  with no root in the cell's R, the roots whose coefficient a conjugation
  by the cell's variable roots can change (_reachable_roots), is pinned
  before any stage, exactly; if it is nonzero at M_0, the cell is empty and
  the trial vote ends.  Any other is pinned where two fresh
  constrained towers from M_0 say.  Both stop at the functional's cut, the
  last stage on a row that can move it: by the row lemma, a stage on row j
  leaves the coefficients of rows > j untouched.  A cell the solver cannot
  certify gets an "inconsistent" verdict naming its cause (REASONS).

Realizations use the antidiagonal bilinear forms (symmetric for B/D, skew
for C) so that the Borel is upper triangular.  Each root vector has a pivot
entry in rows 1..n (or the middle row for short B roots) that no other root
vector or diagonal element touches.  So a Borel element M = S + sum of
c_alpha E_alpha enters root coordinates once (_coordinates): one coefficient
c_alpha per root_index position, its pivot entry, with S entering as
weights, the E_v coefficient of [E_v, S].  Both engines run on those
coordinates, and so do the stages' functionals, keyed by position.  Since
[E_v, E_b] = n E_g when v + b = g is a root and 0 otherwise, one table per
system (_kernel_table) lists each positive root's row and its (b, g, n); it
is read off the matrix commutators, each checked entry for entry, not off
the sum table.  Only _adjoint reads its brackets: a row step adds its delta
to M, and a stage's column for a variable v is its functionals at the delta
of X = E_v, computed only at the positions they read.  A stage opened at
M_0 with only its unit conditions has the same system in every cell that
shares its variables and conditions, so it is built once (_opening), with
its derived functionals when infeasible and an exact affineness verdict in
place of the random probe, and shared by every cell, trial and tower.  Each
trial draws from its own stream (_Stream), keyed by (seed, trial, pi) and
seeded only at its first read; the probe point a tower takes at a shared
opening is owed, not drawn, so a trial that reads no value (one that ends
at a shared opening with an exact emptiness proof, or a cell without
variables) seeds nothing, and every value read is unchanged.  A
cell's set-up maps the space's negative pairs through pi's own window, as
the formula does: the images in Phi+ are its variable positions, those of
the pairs outside M_H its condition positions.  Each goes to the one plan
stage that owns it (_SpecData.var_stage, cond_stage), and R starts from a
per-spec table of the sums with supp N (_SpecData.support_sums).  R is
walked by rootsys.root_closure over rootsys.root_index's sum table, the
walk the formula path's orbit roots share; a memo keeps one R per pi.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .hessenberg import HessenbergSpace
from .operators import canonical_form, levi_roots, semisimple_functional
from .polynomial import Poly
from .rootsys import (
    ResourceCapError,
    Root,
    RootSystemId,
    ambient_dim,
    positive_roots,
    root_closure,
    root_index,
    row_of,
    row_partition,
    simple_roots,
)
from .weyl import WeylElement, inversion_set, signed_window

__all__ = [
    "PRIME",
    "matrix_dim",
    "root_entries",
    "operator_matrix",
    "generic_conjugate",
    "orbit_roots",
    "cell_dim_oracle",
    "OracleVerdict",
    "REASONS",
    "verify_adform",
    "nonoverlap_check",
    "unitriangular_conjugate",
]

# Largest prime below 2^63; comfortably above the 2^61 sampling floor.
PRIME = 9223372036854775783
SYMBOLIC_RANK_CAP = 5


def matrix_dim(system: RootSystemId) -> int:
    fam, n = system.family, system.rank
    if fam == "A":
        return n + 1
    if fam == "B":
        return 2 * n + 1
    return 2 * n


@lru_cache(maxsize=None)
def root_entries(system: RootSystemId, alpha: Root) -> tuple:
    """((row, col), coeff) pairs of E_alpha; the first entry is the pivot.

    A positive root with signed pair (p, q) is eps_p + eps_q, where
    eps_k = sgn(k) e_|k| and eps_0 = 0 (in type C, (p, 0) is 2 eps_p).
    Signed position k is matrix index k, -k is its mirror N + 1 - k, and 0
    is type B's middle row, so E_alpha sends the basis vector at -q to p
    and the one at -p to q."""
    if alpha.is_negative:
        return tuple(((c, r), x) for (r, c), x in root_entries(system, -alpha))
    p, q = root_index(system).pair[alpha]
    if system.family == "A":  # e_p - e_{-q}
        return (((p, -q), 1),)
    N = matrix_dim(system)
    place = lambda k: k if k > 0 else N + 1 + k if k else system.rank + 1
    if system.family == "C" and not q:  # 2e_p
        return (((p, place(-p)), 1),)
    sign = 1 if system.family == "C" and q > 0 else -1
    return (((p, place(-q)), 1), ((place(q), place(-p)), sign))


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


def _root_matrix(system: RootSystemId, assignment: dict) -> dict:
    """X = sum of x_beta E_beta over the assignment {Root: scalar}."""
    out: dict = {}
    for beta, x in assignment.items():
        for rc, s in root_entries(system, beta):
            out[rc] = out.get(rc, 0) + x * s
    return out


def operator_matrix(spec, system: RootSystemId) -> dict:
    """Integer matrix of the canonical M = S + N (S = 0 for nilpotent specs)."""
    out = _root_matrix(system, dict.fromkeys(canonical_form(spec, system).support, 1))
    for rc, x in cartan_matrix(system, semisimple_functional(spec, system)).items():
        out[rc] = out.get(rc, 0) + x
    return _pruned(out)


# --- sparse matrix arithmetic ------------------------------------------------


def _pruned(D: dict) -> dict:
    """D without its zero entries."""
    return {rc: v for rc, v in D.items() if v}


def _mat_mul(A: dict, B: dict) -> dict:
    brows: dict = {}
    for (r, c), v in B.items():
        brows.setdefault(r, []).append((c, v))
    out: dict = {}
    for (r, k), a in A.items():
        for c, b in brows.get(k, ()):
            out[r, c] = out.get((r, c), 0) + a * b
    return _pruned(out)


def _bracket(A: dict, B: dict) -> dict:
    """[A, B] = AB - BA."""
    out = _mat_mul(A, B)
    for rc, v in _mat_mul(B, A).items():
        out[rc] = out.get(rc, 0) - v
    return _pruned(out)


# --- root coordinates ----------------------------------------------------------


@lru_cache(maxsize=None)
def _kernel_table(system: RootSystemId) -> dict:
    """root_index position v -> (row, brackets) for each positive root v:
    its row index, and {g: (b, n)} over the positive b with
    [E_v, E_b] = n E_g, n != 0.  The one table the conjugation kernel and the
    stage columns read; a position missing from it is outside Phi+.

    It is read off the matrix realization: every commutator of two positive
    root vectors must be exactly n E_g, entry for entry, or the build
    raises.  Each unordered pair is bracketed once, and [E_b, E_v] = -n E_g
    fills the reverse entry.  It does not read RootIndex.sums, so the
    conjugation stays independent of the table the formula's closure walks."""
    positive = root_index(system).positive
    vectors = [dict(root_entries(system, a)) for a in positive]
    pivots = [root_entries(system, a)[0][0] for a in positive]
    pivot_at = {rc: k for k, rc in enumerate(pivots)}
    brackets = [{} for _ in positive]
    for v, V in enumerate(vectors):
        for b in range(v + 1, len(vectors)):
            Z = _bracket(V, vectors[b])
            if not Z:
                continue
            g = [pivot_at[rc] for rc in Z if rc in pivot_at]
            n = Z[pivots[g[0]]] if g else 0
            if len(g) != 1 or Z != {rc: n * x for rc, x in vectors[g[0]].items()}:
                raise RuntimeError(f"[E_{positive[v]}, E_{positive[b]}] is not a "
                                   "multiple of a root vector")
            brackets[v][g[0]] = (b, n)
            brackets[b][g[0]] = (v, -n)
    return {v: (row_of(a), brackets[v]) for v, a in enumerate(positive)}


def _coordinates(system: RootSystemId, M: dict) -> tuple[tuple, tuple]:
    """A Borel element M = S + sum of c_alpha E_alpha in root coordinates:
    per root_index position v, the weight w_v, the E_v coefficient of
    [E_v, S], and the coefficient c_v, M's entry at v's pivot.  E_v's pivot
    (r, c) holds 1, so w_v = S_cc - S_rr.  Raises unless M lies in the
    Borel: conjugation by positive root groups keeps it there, so this is
    the one check."""
    if any(r > c for r, c in M):
        raise RuntimeError("conjugated matrix is not in the Borel")
    pivots = [root_entries(system, a)[0][0] for a in root_index(system).positive]
    return (tuple(M.get((c, c), 0) - M.get((r, r), 0) for r, c in pivots),
            tuple(M.get(rc, 0) for rc in pivots))


def _adjoint(system: RootSystemId, weights, M, assignment, half,
             at=None) -> dict:
    """[X, M] + 1/2 [X, [X, M]] as a sparse {position: value}, for X = sum of
    x_v E_v over the assignment's (position, scalar) pairs, M the coefficients
    of a Borel element whose Cartan part has the given weights
    ([E_v, S] = w_v E_v), and half the domain's 1/2.  The positions must lie
    in one row; then (ad X)^3 M = 0 (the row lemma, checked by verify_adform),
    so M plus this delta is exactly exp(X) M exp(-X).

    Given positions at and a single-variable assignment, the delta is
    computed only at those positions: at g, [X, M] is x w_v when g = v plus
    x n M[b] for [E_v, E_b] = n E_g, and [X, [X, M]] is x n [X, M] at that
    b, where b != v leaves no weight term.  Any other assignment gets the
    whole delta."""
    table = _kernel_table(system)
    entries = [table.get(v) for v, _ in assignment]
    if None in entries or len({row for row, _ in entries}) > 1:
        raise RuntimeError("conjugation by roots outside a single row")
    if at is not None and len(assignment) == 1:
        (v, x), = assignment
        brackets = entries[0][1]
        w = x * weights[v]
        out = {}
        for g in at:
            y = w if g == v else 0
            e = brackets.get(g)
            if e:
                b, n = e
                if M[b]:
                    y += x * n * M[b]
                e = brackets.get(b)
                if e and M[e[0]]:
                    y += half * x * n * x * e[1] * M[e[0]]
            if y:
                out[g] = y
        return out
    XM: dict = {}
    for (v, x), (_, brackets) in zip(assignment, entries):
        if weights[v]:
            XM[v] = XM.get(v, 0) + x * weights[v]
        for g, (b, n) in brackets.items():
            if M[b]:
                XM[g] = XM.get(g, 0) + x * n * M[b]
    out = dict(XM)
    for (v, x), (_, brackets) in zip(assignment, entries):
        hx = half * x
        for g, (b, n) in brackets.items():
            if XM.get(b):
                out[g] = out.get(g, 0) + hx * n * XM[b]
    return out


def _conjugate(system: RootSystemId, weights, M, assignment, mod=None) -> list:
    """exp(X) M exp(-X), the action of u^{-1} = exp(X), as M plus _adjoint's
    delta.  Under mod only the positions the delta touches are reduced,
    exact since every caller passes residues (M_0 is 0/1, each step returns
    residues, _orbit_support reduces its M_0 first)."""
    half = pow(2, -1, mod) if mod else Fraction(1, 2)
    out = list(M)
    for g, y in _adjoint(system, weights, M, assignment, half).items():
        out[g] = (out[g] + y) % mod if mod else out[g] + y
    return out


# --- conjugation down the rows -------------------------------------------------


def _conjugate_rows(system: RootSystemId, weights, M, roots, draw,
                    mod=None) -> list:
    """Conjugate the coefficients M by one row element per row of the given
    roots, rows in decreasing order, with the scalar draw(root) on each
    root: a Poly variable (generic), a Fraction, or a residue mod PRIME.
    Each step is the two-bracket form of _conjugate, so it has degree at
    most two in its row's variables."""
    at = root_index(system).at
    for row in reversed(row_partition(system).rows):
        chosen = [(at[a], draw(a)) for a in row if a in roots]
        if chosen:
            M = _conjugate(system, weights, M, chosen, mod)
    return M


def _symbolic_rows(system: RootSystemId, weights, M0, roots) -> list:
    """Exact generic conjugate over Poly, within SYMBOLIC_RANK_CAP."""
    if system.rank > SYMBOLIC_RANK_CAP:
        raise ResourceCapError(
            f"symbolic conjugation capped at rank {SYMBOLIC_RANK_CAP}")
    return _conjugate_rows(system, weights, M0, roots,
                           lambda a: Poly.var(f"x[{a}]"))


def _orbit_support(system: RootSystemId, weights, M0, var_roots,
                   mode: str = "symbolic", key: str = "") -> frozenset[Root]:
    """Positive roots whose coefficient in u^{-1}.M0 is not identically zero,
    u generic in the group of var_roots: exact over Poly ("symbolic"), or the
    union over two random points mod PRIME seeded by key ("randomized")."""
    positive = root_index(system).positive
    if mode == "symbolic":
        M = _symbolic_rows(system, weights, M0, var_roots)
        return frozenset(a for a, v in zip(positive, M) if v)
    if mode != "randomized":
        raise ValueError(f"unknown orbit mode {mode!r}")
    found: set[Root] = set()
    for t in range(2):
        rng = random.Random(f"{key}:{t}")
        M = _conjugate_rows(system, weights, [v % PRIME for v in M0], var_roots,
                            lambda a: rng.randrange(1, PRIME), PRIME)
        found.update(a for a, v in zip(positive, M) if v)
    return frozenset(found)


def generic_conjugate(spec, system: RootSystemId, pi: WeylElement) -> dict:
    """Exact coefficient polynomials {alpha: Poly for alpha in Phi+} of
    u^{-1}.M for generic u in U_pi."""
    data = _oracle_data(spec, system)
    M = _symbolic_rows(system, data.weights, data.coeffs, inversion_set(pi))
    return {a: Poly() + v for a, v in zip(root_index(system).positive, M)}


def orbit_roots(
    spec,
    system: RootSystemId,
    pi: WeylElement,
    mode: str = "symbolic",
    seed: int = 0,
) -> frozenset[Root]:
    """Phi_{(U_pi cap L) . M}: positive roots with a not-identically-zero
    coefficient in u^{-1}.M for generic u in U_pi cap L, the root groups of
    the inversion set inside the Levi Phi_l.  S commutes with U_pi cap L, so
    only N moves and S adds no root; a nilpotent spec has L = G, so this is
    Phi_{U_pi . N}.  The library computes these roots as an additive closure
    (paving.cell_formula); this conjugation is the exact reference that
    closure is tested against."""
    data = _oracle_data(spec, system)
    return _orbit_support(system, data.weights, data.coeffs,
                          inversion_set(pi) & levi_roots(spec, system), mode,
                          f"orbit:{seed}:{pi.window}")


def restricted_orbit_roots(
    system: RootSystemId,
    support: tuple[Root, ...],
    var_roots: frozenset[Root],
) -> frozenset[Root]:
    """Exact orbit roots of N = sum of E_beta over the support, u ranging over
    the subgroup generated by var_roots: in type A, the per-block reference
    that orbit_roots of a general operator is tested against."""
    weights, M0 = _coordinates(system, _root_matrix(system, dict.fromkeys(support, 1)))
    return _orbit_support(system, weights, M0, var_roots)


# --- probabilistic dimension solver -------------------------------------------


@dataclass(frozen=True)
class OracleVerdict:
    """A cell's oracle verdict.  An "inconsistent" verdict names its cause in
    reason, one of REASONS."""

    kind: str  # "empty" | "dim" | "inconsistent"
    dim: int | None = None
    reason: str | None = None


REASONS = {
    "nonaffine": "a stage system failed the affineness check, or a condition "
                 "was still unmet after the last stage",
    "late-pin": "a derived functional still moved after the stage that "
                "produced it",
    "no-progress": "an infeasible stage yielded no new derived functional",
    "max-derived": "the trial ran out of derived functionals (MAX_DERIVED)",
    "trial-split": "the trials disagreed on emptiness or dimension",
}


class _SpecData(NamedTuple):
    """What the oracle and the reference conjugations read about M = S + N,
    in root coordinates (_coordinates): tuples indexed by root_index
    position."""

    # the oracle's stages: (variable positions, condition positions, row)
    plan: tuple
    coeffs: tuple  # M's coefficients: 1 on supp N, else 0, so residues too
    weights: tuple  # per position v, the E_v coefficient of [E_v, S]
    support_at: tuple[int, ...]  # supp N's positions
    levi_mask: tuple[bool, ...]  # whether each positive root lies in Phi_l
    var_stage: tuple[int, ...]  # per position, the plan stage it is a variable of
    cond_stage: tuple[int, ...]  # per position, the stage it is a condition of
    # per position j, the positions b + j over b in supp N that are roots
    support_sums: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def _oracle_data(spec, system: RootSystemId) -> _SpecData:
    """Per-spec data, built once per (spec, system) and immutable.  The
    stage plan lists (variable positions, condition positions, row) triples
    in solving order, positions ascending, so roots sorted by height; rows
    run n, n-1, ..., 1.

    Type C rows below the last get the two-stage refinement: the long root
    gamma_i (and gamma_i - alpha_i when the nilpotent part contains alpha_i
    and gamma_i - alpha_i lies in the Levi, i.e. (gamma_i - alpha_i)(S) = 0)
    is deferred to a second stage whose only condition is gamma_i itself.

    The plan must cover every positive position exactly once as a variable
    and once as a condition, or the build raises: _cell_stages files each
    of a cell's positions under the one stage var_stage or cond_stage
    names."""
    rp = row_partition(system)
    n = system.rank
    weights, coeffs = _coordinates(system, operator_matrix(spec, system))
    support = canonical_form(spec, system).support
    levi = levi_roots(spec, system)
    index = root_index(system)
    at = index.at
    plan = []
    for i in range(n, 0, -1):
        row = sorted(at[a] for a in rp.rows[i - 1])
        if system.family == "C" and i < n:
            gamma = rp.long_root[i - 1]
            alpha_i = simple_roots(system)[i - 1]
            g = at[gamma]
            defer = {g}
            if alpha_i in support and gamma - alpha_i in levi:
                defer.add(at[gamma - alpha_i])
            plan.append((tuple(k for k in row if k not in defer),
                         tuple(k for k in row if k != g), i))
            plan.append((tuple(k for k in row if k in defer), (g,), i))
        else:
            plan.append((tuple(row), tuple(row), i))
    size = len(index.positive)
    stage_of = []
    for side in (0, 1):
        if sorted(k for stage in plan for k in stage[side]) != list(range(size)):
            raise RuntimeError(f"the oracle's plan for {system} does not cover "
                               "each positive root once on each side")
        of = [0] * size
        for t, stage in enumerate(plan):
            for k in stage[side]:
                of[k] = t
        stage_of.append(tuple(of))
    support_at = tuple(at[b] for b in support)
    sums: list[list[int]] = [[] for _ in range(size)]
    for b in support_at:
        for j, k in index.sums[b]:
            sums[j].append(k)
    return _SpecData(tuple(plan), coeffs, weights, support_at,
                     tuple(a in levi for a in index.positive), *stage_of,
                     tuple(map(tuple, sums)))


def _solve_affine(cols, b, rng):
    """Solve sum_j cols[j] x_j = -b over F_PRIME.

    Returns ("ok", rank, random solution) on success or ("bad", combos)
    when infeasible, where each combo is a row-combination vector over the
    input equations whose linear part vanished but whose constant did not.
    With rng None a feasible system draws nothing and has no solution."""
    p = PRIME
    m = len(cols)
    k = len(b)
    # row i: equation i, its constant, then its combination of the equations
    rows = [[cols[j][i] for j in range(m)] + [(-b[i]) % p]
            + [int(i == j) for j in range(k)] for i in range(k)]
    pivots = []
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, k) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(k):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * bb) % p for a, bb in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    combos = [rows[i][m + 1:] for i in range(r, k) if rows[i][m]]
    if combos:
        return "bad", combos
    if rng is None:
        return "ok", r, None
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


def _feval(M, fdict):
    """Value at the coefficients M of the functional {position: coeff}."""
    return sum(c * M[k] for k, c in fdict.items()) % PRIME


def _combine(funcs, combo):
    out: dict = {}
    for c, fd in zip(combo, funcs):
        if not c:
            continue
        for a, v in fd.items():
            out[a] = (out.get(a, 0) + c * v) % PRIME
    return {a: v for a, v in out.items() if v}


def _cell_stages(data: _SpecData, var_at, cond_at) -> list:
    """The plan restricted to one cell: per stage, the cell's variable
    positions var_at and condition positions cond_at that it owns and its
    row, in plan order.  Each position is filed under its one stage
    (_SpecData.var_stage, cond_stage) in ascending order, as the plan lists
    them.  Lists: tuples built from generators here raised the peak RSS of
    the pave-oracle benchmark cases by about 0.4 MB."""
    stages = [([], [], i) for *_, i in data.plan]
    var_stage, cond_stage = data.var_stage, data.cond_stage
    for k in var_at:
        stages[var_stage[k]][0].append(k)
    for k in cond_at:
        stages[cond_stage[k]][1].append(k)
    return stages


def _reachable_roots(system: RootSystemId, data: _SpecData, var_at) -> set[int]:
    """R, as root_index positions: the positive roots whose coefficient a
    conjugation by the cell's variable roots (their positions var_at) can
    change.  Those are the roots reached from supp N by adding one or more
    variable roots, every partial sum a positive root, and every variable
    root outside Phi_l and what it reaches the same way.  The first steps
    from supp N are read off the per-spec table _SpecData.support_sums.

    exp(ad X) for X in the span of the E_v, v a variable root, adds to
    M = S + N only brackets [E_v1, [..., [E_vk, E_beta]]], in the root
    space of beta + vk + ... + v1 when every partial sum is a root, and
    [E_v1, [..., [E_vk, S]]], in that of vk + ... + v1, where
    [E_vk, S] = -vk(S) E_vk vanishes for vk in Phi_l.  Each conjugate is
    again a sum of M's terms and such brackets, so down any tower the
    coefficient of a root outside R keeps its value at M_0."""
    sums, levi_mask = data.support_sums, data.levi_mask
    start = {k for j in var_at for k in sums[j]}
    start.update(k for k in var_at if not levi_mask[k])
    return root_closure(system, start, var_at)


def _stage_funcs(conds, extra, t):
    funcs = [{k: 1} for k in conds]
    funcs.extend(fd for s, fd in extra if s == t)
    return funcs


def _fdelta(system, weights, M, assignment, funcs, at=None):
    """f(conj(M)) - f(M) mod PRIME for each functional f {position: coeff}
    of funcs: f at _adjoint's delta, restricted to the positions at when
    they are given (all that funcs read)."""
    delta = _adjoint(system, weights, M, assignment, (PRIME + 1) // 2, at)
    return [sum(c * delta.get(k, 0) for k, c in fd.items()) % PRIME for fd in funcs]


def _stage_system(system, weights, M, vrs, funcs):
    """Baseline values and per-variable columns of the stage's affine system
    for the stage's functionals {position: coeff}.

    Column v is f(conj(M, {v: 1})) - f(M), quadratic term included:
    _tower_values solves stage systems without the affineness probe, so
    dropping it would change its answers.  Each column's delta is computed
    only at the positions the functionals read."""
    at = {k for fd in funcs for k in fd}
    return ([_feval(M, fd) for fd in funcs],
            [_fdelta(system, weights, M, [(v, 1)], funcs, at) for v in vrs])


def _affine_exactly(system, weights, M, vrs, funcs, cols) -> bool:
    """Whether each functional of funcs moves affinely in the stage's
    variables at M, exactly: f(conj(M, x)) - f(M) is f at _adjoint's delta,
    of degree at most two in x and without a constant term, and the column
    of v is its value at x = e_v.  It is linear, so equal to the columns
    times x everywhere, exactly when D(2e_v) = 2 D(e_v) for every variable v
    (no x_v^2 term) and D(e_v + e_u) = D(e_v) + D(e_u) for every pair (no
    x_v x_u term), D being the funcs' values at the delta."""
    for j, v in enumerate(vrs):
        if _fdelta(system, weights, M, [(v, 2)], funcs) != \
                [2 * c % PRIME for c in cols[j]]:
            return False
        for i in range(j):
            if _fdelta(system, weights, M, [(vrs[i], 1), (v, 1)], funcs) != \
                    [(c + d) % PRIME for c, d in zip(cols[i], cols[j])]:
                return False
    return True


@lru_cache(maxsize=4096)
def _opening(system, weights, M0, vrs, conds):
    """A stage system built once and shared: the baseline values and columns
    at M_0 of a stage whose functionals are its unit conditions alone, its
    derived functionals when _solve_affine finds it infeasible (the combos
    combined, _combine), else None, and its exact affineness verdict
    (_affine_exactly), which stands in for the random probe.  An infeasible
    solve draws nothing, so its functionals hold on every stream; a
    feasible system is solved again on each tower's own stream.  Every
    cell, trial and tower of a spec that opens with such a stage reads it."""
    funcs = [{k: 1} for k in conds]
    b, cols = _stage_system(system, weights, M0, vrs, funcs)
    sol = _solve_affine(cols, b, None)
    derived = [_combine(funcs, c) for c in sol[1]] if sol[0] == "bad" else None
    return b, cols, derived, _affine_exactly(system, weights, M0, vrs, funcs, cols)


def _open_stage(system, weights, M, M0, vrs, conds, funcs):
    """(b, cols, derived, affine) of a stage at M with functionals funcs:
    the shared _opening while M is M_0 and funcs are the unit conditions
    alone, else a fresh _stage_system, with derived and affine None, left
    for the caller to solve and probe."""
    if M is M0 and len(funcs) == len(conds):
        return _opening(system, weights, M0, tuple(vrs), tuple(conds))
    return (*_stage_system(system, weights, M, vrs, funcs), None, None)


class _Stream:
    """One trial's random draws: random.Random(key), built only when a
    caller first reads a value.  A randrange(PRIME) draw whose value nobody
    reads is owed (owe), not drawn; the first read seeds the generator and
    draws what is owed first, in order, and once seeded an owed draw is
    drawn at once.  So every value read is the value an eagerly seeded
    random.Random(key) gives, and a trial that reads nothing seeds
    nothing."""

    def __init__(self, key: str):
        self.key, self.owed, self.rng = key, 0, None

    def owe(self, k: int) -> None:
        if self.rng is None:
            self.owed += k
        else:
            for _ in range(k):
                self.rng.randrange(PRIME)

    def seeded(self) -> random.Random:
        """The generator, seeded and past the owed draws."""
        if self.rng is None:
            self.rng = random.Random(self.key)
            for _ in range(self.owed):
                self.rng.randrange(PRIME)
            # later reads go straight to the generator's bound method
            self.randrange = self.rng.randrange
        return self.rng

    def randrange(self, *args) -> int:
        return self.seeded().randrange(*args)


def _run_tower(system, weights, M0, stages, extra, rng):
    """One trial: solve the cell's stages in order.  Returns ("dim", d);
    ("infeasible", (t, derived)) at an infeasible stage t, with the derived
    functionals of its eliminated combinations with vanished linear part;
    or ("inconsistent", "nonaffine").  A stage without variables is a
    system without columns: _solve_affine turns its nonzero constants into
    unit combinations and draws nothing.  Every stage with variables takes
    a probe point.  A fresh stage draws it from rng and compares the
    functionals at the point's delta with the columns times the point; a
    shared opening answers with its exact verdict and owes the point's
    draws to rng (_Stream.owe), which reads nothing and leaves every later
    value as a drawn point would."""
    M = M0
    total_rank = 0
    for t, (vrs, conds, _) in enumerate(stages):
        funcs = _stage_funcs(conds, extra, t)
        if not funcs:
            if vrs:
                M = _conjugate(system, weights, M,
                               [(v, rng.randrange(PRIME)) for v in vrs], PRIME)
            continue
        b, cols, derived, affine = _open_stage(system, weights, M, M0, vrs,
                                               conds, funcs)
        if vrs:
            if affine is None:
                xp = [rng.randrange(PRIME) for _ in vrs]
                moved = [sum(c * x for c, x in zip(row, xp)) % PRIME
                         for row in zip(*cols)]
                affine = _fdelta(system, weights, M, list(zip(vrs, xp)),
                                 funcs) == moved
            else:
                rng.owe(len(vrs))  # the probe point, which the verdict replaces
            if not affine:
                return "inconsistent", "nonaffine"
        if derived is not None:
            return "infeasible", (t, derived)
        sol = _solve_affine(cols, b, rng)
        if sol[0] == "bad":
            return "infeasible", (t, [_combine(funcs, c) for c in sol[1]])
        _, rank, xstar = sol
        total_rank += rank
        if vrs:
            M = _conjugate(system, weights, M, list(zip(vrs, xstar)), PRIME)
    if any(M[k] for _, conds, _ in stages for k in conds):
        return "inconsistent", "nonaffine"
    return "dim", sum(len(vrs) for vrs, _, _ in stages) - total_rank


def _tower_values(system, weights, M0, stages, extra, fdict, rng):
    """The functional's value at M_0 and after each of the given stages,
    along a fresh constrained tower from M_0: each stage takes a random
    solution of its stage system until one is infeasible, and nonzero
    random draws from then on.  The caller passes the stages up to the
    functional's cut, so the last value is its value at the end of the
    full tower."""
    M = M0
    vals = [_feval(M, fdict)]
    broken = False
    for t, (vrs, conds, _) in enumerate(stages):
        if not vrs:
            vals.append(vals[-1])
            continue
        assign = None
        if not broken:
            funcs = _stage_funcs(conds, extra, t)
            if funcs:
                b, cols, derived, _ = _open_stage(system, weights, M, M0, vrs,
                                                  conds, funcs)
                sol = None if derived else _solve_affine(cols, b, rng)
                if sol and sol[0] == "ok":
                    assign = sol[2]
                else:
                    broken = True
        if assign is None:
            assign = [rng.randrange(1, PRIME) for _ in vrs]
        M = _conjugate(system, weights, M, list(zip(vrs, assign)), PRIME)
        vals.append(_feval(M, fdict))
    return vals


def _stability_stage(system, weights, M0, stages, extra, fdict, rng):
    """Smallest s such that the functional's value is unchanged by stages
    s+1, s+2, ... along towers that satisfy the conditions enforced so far
    (so stages[s-1] is the stage pinning it).  Constrained towers matter: a
    dependence on a later stage can vanish exactly on the locus the earlier
    conditions cut out.  _solve_once calls it only for a functional with a
    root in the cell's R (_reachable_roots); on any other it would return 0.

    s is the larger answer of two fresh towers from M_0.  A tower draws at
    random from its first infeasible stage on, so a dependence on stages
    after the one that produced the functional shows as s > t.  Both
    stop at the functional's cut, the last stage whose row is at least the
    lowest row r of its roots.  Stage rows decrease, and by the row lemma
    (verify_adform) conjugating by row j < r leaves the coefficients of
    rows >= r untouched, so every later value equals the value at the cut,
    exactly."""
    table = _kernel_table(system)
    low = min(table[k][0] for k in fdict)
    stages = stages[:sum(1 for *_, i in stages if i >= low)]
    best = 0
    for _ in range(2):
        vals = _tower_values(system, weights, M0, stages, extra, fdict, rng)
        s = len(stages)
        while s > 0 and vals[s - 1] == vals[-1]:
            s -= 1
        best = max(best, s)
    return best


def _solve_once(system, weights, M0, stages, reach, rng):
    """One trial: ("dim", d), ("empty", exact) or ("inconsistent", reason).

    Each infeasible tower (_run_tower) yields derived functionals.  reach
    is the cell's R (_reachable_roots).  A derived functional with no root
    in R is constant on every tower, so its stability stage is 0, exactly,
    without running one; any other goes to _stability_stage.  Either way a
    functional pinned at 0 and nonzero at M_0 has no solution, so the cell
    is empty; one that is 0 there (the empty combination among them) adds
    nothing.  exact tells the two proofs apart: True when the functional has
    no root in R, so that the cell is empty whatever the draws, False when
    its s = 0 was read off the two towers.

    rng is the trial's stream (_Stream): the towers' conjugations and
    free columns, and the stability towers, read from it, and a trial
    that reads nothing never seeds it."""
    extra: list[tuple[int, dict]] = []
    seen: set[frozenset] = set()
    for _ in range(MAX_DERIVED):
        status, payload = _run_tower(system, weights, M0, stages, extra, rng)
        if status != "infeasible":
            return status, payload
        t, derived = payload
        progress = False
        for fd in derived:
            key = frozenset(fd.items())
            if key in seen:
                continue
            exact = reach.isdisjoint(fd)
            s = 0 if exact else _stability_stage(system, weights, M0, stages,
                                                 extra, fd, rng)
            if s == 0:
                # pinned before any variable acts; nonzero means no solutions
                if _feval(M0, fd):
                    return "empty", exact
                continue
            if s > t:
                return "inconsistent", "late-pin"
            seen.add(key)
            extra.append((s - 1, fd))
            progress = True
        if not progress:
            return "inconsistent", "no-progress"
    return "inconsistent", "max-derived"


def _vote(system, data, var_at, cond_at, reach, window, trials,
          seed) -> OracleVerdict:
    """The trial vote of cell_dim_oracle on the cell's variable and
    condition positions and its R.  Trial t solves on a _Stream keyed
    cell:{seed}:{t}:{window}, which builds its random.Random only when the
    trial first reads a value."""
    stages = _cell_stages(data, var_at, cond_at)
    outcomes = set()
    for t in range(trials):
        kind, d = _solve_once(system, data.weights, data.coeffs, stages, reach,
                              _Stream(f"cell:{seed}:{t}:{window}"))
        if kind == "inconsistent":
            return OracleVerdict(kind, reason=d)
        if kind == "empty":
            if d and not t:
                return OracleVerdict(kind)
            d = None
        outcomes.add((kind, d))
    if len(outcomes) == 1:
        return OracleVerdict(*outcomes.pop())
    return OracleVerdict("inconsistent", reason="trial-split")


def cell_dim_oracle(
    spec,
    system: RootSystemId,
    H: HessenbergSpace,
    pi: WeylElement,
    trials: int = 5,
    seed: int = 0,
    *,
    memo: dict | None = None,
) -> OracleVerdict:
    """Probabilistic dimension of the cell BpiB intersected with H(M,H).

    The cell's set-up maps H.negative_pairs through pi's own window, as
    paving.cell_formula does: a positive root pi b (b negative) is a
    variable, and carries a condition when b lies outside M_H.  So the
    verdict is decided by the spec, the system, pi, the condition
    positions, trials and seed, and H enters only through the conditions.
    With a memo dict, a verdict found there under that key is returned as
    it is, and a new one is stored there: spaces that give pi the same
    conditions share one vote.  The cell's R depends only on pi, so the
    memo also keeps it under (spec, system, pi's window), one per pi.

    The vote runs _solve_once once per trial, each on its own stream,
    keyed by (seed, trial, pi) and seeded only if the trial reads a draw;
    seed must be an int, since the memo key would take True or 1.0 for 1
    while the stream's key would not.  An exact emptiness proof on the first
    trial (a derived functional with no root in R, nonzero at M_0) is the
    verdict, and no other trial runs: such a cell can no longer show a
    trial split.  Otherwise the first inconsistent trial is the verdict,
    and the trials' (kind, dim) outcomes, an exact and a towered empty
    alike, form one set, whose only member is the verdict when they all
    agree, and a trial split when they do not.  R is built before the
    trials, once per vote, or once per pi with a memo."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if type(seed) is not int:
        raise ValueError(f"seed must be an int, got {seed!r}")
    data = _oracle_data(spec, system)
    position = root_index(system).position
    w = signed_window(pi)
    inside, outside = H.negative_pairs
    cond_at = sorted(k for p, q in outside if (k := position[w[p]][w[q]]) >= 0)
    var_at = sorted(cond_at + [k for p, q in inside
                               if (k := position[w[p]][w[q]]) >= 0])
    if memo is None:
        return _vote(system, data, var_at, cond_at,
                     _reachable_roots(system, data, var_at), pi.window, trials,
                     seed)
    key = (spec, system, pi.window, tuple(cond_at), trials, seed)
    if key not in memo:
        reach_key = (spec, system, pi.window)
        if reach_key not in memo:
            memo[reach_key] = _reachable_roots(system, data, var_at)
        memo[key] = _vote(system, data, var_at, cond_at, memo[reach_key],
                          pi.window, trials, seed)
    return memo[key]


# --- structural verification --------------------------------------------------


def _borel_basis(system: RootSystemId):
    """Cartan diagonal generators followed by positive root vectors."""
    d = ambient_dim(system)
    return ([cartan_matrix(system, [int(j == k) for j in range(d)])
             for k in range(d)]
            + [dict(root_entries(system, a)) for a in positive_roots(system)])


def verify_adform(system: RootSystemId, i: int) -> bool:
    """Check the structural facts about ad X for X in row i: (ad X)^3 = 0 on
    the Borel; rows below i are untouched; (ad X)^2 kills row i except, in
    type C, the gamma_i line."""
    if not 1 <= i <= system.rank:
        raise ValueError(f"row {i} out of range for {system}")
    rp = row_partition(system)
    row = rp.rows[i - 1]
    rng = random.Random(f"adform:0:{system}:{i}")
    gamma = rp.long_root[i - 1] if system.family == "C" else None
    basis = _borel_basis(system)
    later_rows = [a for j in range(i + 1, system.rank + 1)
                  for a in rp.rows[j - 1]]
    for _ in range(3):
        X = _root_matrix(
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
                     samples: int = 100) -> bool:
    """Phi_M is contained in Phi_{u^-1.M} with unchanged coefficients, for
    random u in U_pi (exact rational arithmetic)."""
    data = _oracle_data(spec, system)
    rng = random.Random(f"nonoverlap:0:{system}:{pi.window}")
    for _ in range(samples):
        M = _conjugate_rows(system, data.weights, data.coeffs, inversion_set(pi),
                            lambda a: Fraction(rng.randint(-9, 9)))
        if any(M[k] != data.coeffs[k] for k in data.support_at):
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
    eye = {(k, k): Poly.const(1) for k in range(1, m + 1)}
    # Neumann series for u^{-1} = I - A + A^2 - ...
    uinv = dict(eye)
    term, sign = A, -1
    while term:
        for rc, v in term.items():
            uinv[rc] = uinv.get(rc, Poly()) + sign * v
        term = _mat_mul(term, A)
        sign = -sign
    return _mat_mul(_mat_mul(_pruned(uinv), N), {**eye, **A})
