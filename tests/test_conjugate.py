"""The two-bracket row conjugation against the exponential definition.

_adjoint computes [X, M] + 1/2 [X, [X, M]] in root coordinates, and M plus
it equals exp(X) M exp(-X) only for X in one row and M in the Borel.  That
sum, through _conjugate and added up here from _adjoint's delta, rebuilt as
a full matrix (M's diagonal plus the sum of c_alpha E_alpha), is compared
with the definition itself, on dense matrices with a truncated exponential
series, written without the library's arithmetic.
The bracket table the kernel reads is compared with plain matrix
commutators and with the sum table, and _adjoint is its one reader of
bracket entries.  The sparse toolkit under it (one product, one commutator,
one builder of sums of root vectors, one Borel basis) is compared with dense
arithmetic, root coordinates and literal matrices.
"""

import ast
import hashlib
import inspect
import random
from fractions import Fraction

import pytest

from hesspave.operators import (
    RegularNilpotent,
    SemisimpleClassical,
    TypeAGeneral,
    TypeANilpotent,
    semisimple_functional,
)
from hesspave import orbit_oracle
from hesspave.orbit_oracle import (
    PRIME,
    _adjoint,
    _borel_basis,
    _bracket,
    _conjugate,
    _coordinates,
    _kernel_table,
    _oracle_data,
    _root_matrix,
    _stage_system,
    cartan_matrix,
    coeff_at,
    matrix_dim,
    operator_matrix,
    restricted_orbit_roots,
    root_entries,
)
from hesspave.polynomial import Poly
from hesspave.rootsys import (
    RootSystemId,
    euclidean,
    positive_roots,
    root_index,
    row_of,
    row_partition,
)

SYSTEMS = [RootSystemId("A", 3), RootSystemId("B", 3), RootSystemId("C", 3),
           RootSystemId("D", 4)]
DOMAINS = ["fraction", "modp", "poly"]


def _zero(v):
    return not v


def _reduce(v, mod):
    return v % mod if mod else v


def _dense_mul(A, B, mod):
    n = len(A)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if _zero(A[i][k]):
                continue
            for j in range(n):
                if not _zero(B[k][j]):
                    out[i][j] = _reduce(out[i][j] + A[i][k] * B[k][j], mod)
    return out


def _dense_exp(X, mod):
    """sum_k X^k / k! of a nilpotent dense matrix."""
    n = len(X)
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    term = [row[:] for row in out]
    for k in range(1, n + 1):
        inv = pow(k, -1, mod) if mod else Fraction(1, k)
        term = [[_reduce(v * inv, mod) for v in row] for row in _dense_mul(term, X, mod)]
        if all(_zero(v) for row in term for v in row):
            return out
        out = [[_reduce(a + b, mod) for a, b in zip(ra, rb)]
               for ra, rb in zip(out, term)]
    raise AssertionError("row element is not nilpotent")


def reference_conjugate(system, M, assignment, mod=None):
    """exp(X) M exp(-X) for X = sum of x_beta E_beta, as a sparse dict."""
    n = matrix_dim(system)
    X = [[0] * n for _ in range(n)]
    D = [[0] * n for _ in range(n)]
    for beta, x in assignment.items():
        for (r, c), s in root_entries(system, beta):
            X[r - 1][c - 1] = _reduce(X[r - 1][c - 1] + x * s, mod)
    for (r, c), v in M.items():
        D[r - 1][c - 1] = v
    neg_X = [[_reduce(-v, mod) for v in row] for row in X]
    out = _dense_mul(_dense_mul(_dense_exp(X, mod), D, mod), _dense_exp(neg_X, mod), mod)
    return {(i + 1, j + 1): v for i, row in enumerate(out) for j, v in enumerate(row)
            if not _zero(v)}


def _random_borel(system, rng, mod):
    """Random Cartan part plus random multiples of positive root vectors."""
    dim = len(euclidean(system, positive_roots(system)[0]))
    M = dict(cartan_matrix(system, [rng.randint(-5, 5) for _ in range(dim)]))
    for a in positive_roots(system):
        if rng.random() < 0.6:
            x = rng.randrange(PRIME) if mod else rng.randint(-4, 4)
            for rc, s in root_entries(system, a):
                M[rc] = M.get(rc, 0) + x * s
    return {rc: _reduce(v, mod) for rc, v in M.items() if _reduce(v, mod)}


def _rebuilt(system, M, coeffs, mod):
    """M's diagonal plus the sum of c_alpha E_alpha over the coefficients, as
    a sparse dict."""
    out = {(r, c): v for (r, c), v in M.items() if r == c}
    for a, x in zip(positive_roots(system), coeffs):
        for rc, s in root_entries(system, a):
            out[rc] = _reduce(out.get(rc, 0) + x * s, mod)
    return {rc: v for rc, v in out.items() if not _zero(v)}


def _scalar(domain, rng, name):
    if domain == "modp":
        return rng.randrange(PRIME)
    if domain == "poly":
        return Poly.var(name)
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("system", SYSTEMS, ids=str)
def test_two_bracket_form_equals_exponential(system, domain):
    mod = PRIME if domain == "modp" else None
    rng = random.Random(f"conj:{system}:{domain}")
    rows = row_partition(system).rows
    at = root_index(system).at
    for trial in range(3):
        M = _random_borel(system, rng, mod)
        weights, coeffs = _coordinates(system, M)
        assert _rebuilt(system, M, coeffs, mod) == M
        for row in rows:
            chosen = [a for a in row if rng.random() < 0.7] or [row[-1]]
            assignment = {a: _scalar(domain, rng, f"x[{a}]") for a in chosen}
            pairs = [(at[a], x) for a, x in assignment.items()]
            want = reference_conjugate(system, M, assignment, mod)
            got = _conjugate(system, weights, coeffs, pairs, mod)
            assert _rebuilt(system, M, got, mod) == want, (trial, row)
            delta = _adjoint(system, weights, coeffs, pairs,
                             pow(2, -1, mod) if mod else Fraction(1, 2))
            summed = [c + delta.get(k, 0) for k, c in enumerate(coeffs)]
            assert _rebuilt(system, M, summed, mod) == want, (trial, row)


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("system", SYSTEMS, ids=str)
def test_restricted_delta_is_the_whole_delta_at_its_positions(system, domain):
    # Given positions, a single-variable delta is computed only there and
    # equals the whole delta at each of them, zeros included; positions
    # the whole delta touches and positions it does not are both drawn.  A
    # two-variable assignment gets the whole delta whatever the positions.
    mod = PRIME if domain == "modp" else None
    half = pow(2, -1, mod) if mod else Fraction(1, 2)
    rng = random.Random(f"restricted:{system}:{domain}")
    n = len(root_index(system).positive)
    at = root_index(system).at
    checked = 0
    for trial in range(3):
        weights, coeffs = _coordinates(system, _random_borel(system, rng, mod))
        for v in range(n):
            x = _scalar(domain, rng, f"x[{v}]")
            whole = _adjoint(system, weights, coeffs, [(v, x)], half)
            for size in (0, 1, n // 2, n):
                positions = set(rng.sample(range(n), size))
                got = _adjoint(system, weights, coeffs, [(v, x)], half, positions)
                assert set(got) <= positions
                for k in positions:
                    assert not whole.get(k, 0) - got.get(k, 0), (trial, v, k)
                checked += len(positions & set(whole))
        for row in row_partition(system).rows:
            if len(row) < 2:
                continue
            pairs = [(at[a], _scalar(domain, rng, f"x[{a}]")) for a in row[:2]]
            assert _adjoint(system, weights, coeffs, pairs, half, {0}) == \
                _adjoint(system, weights, coeffs, pairs, half)
    assert checked


@pytest.mark.parametrize("system", SYSTEMS, ids=str)
def test_stage_columns_are_unit_conjugation_differences(system):
    rng = random.Random(f"cols:{system}")
    pos = positive_roots(system)
    at = root_index(system).at
    for _ in range(3):
        M = _random_borel(system, rng, PRIME)
        weights, coeffs = _coordinates(system, M)
        funcs = [{a: 1} for a in rng.sample(pos, 4)]
        funcs.append({a: rng.randrange(PRIME) for a in rng.sample(pos, 3)})

        def f(fd, D):
            return sum(c * coeff_at(system, D, a) for a, c in fd.items()) % PRIME

        for row in row_partition(system).rows:
            b, cols = _stage_system(system, weights, coeffs, [at[a] for a in row],
                                    [{at[a]: c for a, c in fd.items()}
                                     for fd in funcs])
            assert b == [f(fd, M) for fd in funcs]
            for v, col in zip(row, cols):
                Mv = reference_conjugate(system, M, {v: 1}, PRIME)
                assert col == [(f(fd, Mv) - f(fd, M)) % PRIME for fd in funcs]


def _calls(node, name):
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
               and n.func.id == name for n in ast.walk(node))


def test_adjoint_is_the_one_reader_of_bracket_entries():
    # Of the functions in orbit_oracle, only _adjoint and _stability_stage
    # look _kernel_table up, and _stability_stage reads only rows, as
    # table[k][0]; _conjugate, the stage columns and the affineness probe
    # go through _adjoint.
    tree = ast.parse(inspect.getsource(orbit_oracle))
    funcs = {f.name: f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}
    readers = {name for name, f in funcs.items() if _calls(f, "_kernel_table")}
    assert readers == {"_adjoint", "_stability_stage"}
    stability = funcs["_stability_stage"]
    loads = [n for n in ast.walk(stability)
             if isinstance(n, ast.Name) and n.id == "table"
             and isinstance(n.ctx, ast.Load)]
    rows = [n for n in ast.walk(stability)
            if isinstance(n, ast.Subscript) and isinstance(n.value, ast.Subscript)
            and isinstance(n.value.value, ast.Name) and n.value.value.id == "table"
            and isinstance(n.slice, ast.Constant) and n.slice.value == 0]
    assert loads and len(rows) == len(loads)
    assert _calls(funcs["_conjugate"], "_adjoint")
    assert _calls(funcs["_fdelta"], "_adjoint")
    for name in ("_stage_system", "_run_tower"):
        assert _calls(funcs[name], "_fdelta"), name


def test_conjugate_rejects_two_rows():
    system = RootSystemId("B", 3)
    rows = row_partition(system).rows
    at = root_index(system).at
    data = _oracle_data(RegularNilpotent(), system)
    with pytest.raises(RuntimeError):
        _conjugate(system, data.weights, data.coeffs,
                   [(at[rows[0][0]], 1), (at[rows[1][0]], 1)])
    # a position outside Phi+, Python's negative indexing included
    for k in (-1, len(at)):
        with pytest.raises(RuntimeError):
            _conjugate(system, data.weights, data.coeffs, [(k, 1)])
    # the guard is the kernel's own
    with pytest.raises(RuntimeError):
        _adjoint(system, data.weights, data.coeffs,
                 [(at[rows[0][0]], 1), (at[rows[1][0]], 1)], Fraction(1, 2))


def test_conjugate_rejects_matrix_outside_borel():
    system = RootSystemId("C", 3)
    M = dict(operator_matrix(RegularNilpotent(), system))
    M[3, 1] = 1
    with pytest.raises(RuntimeError):
        _coordinates(system, M)
    # the reference entry point that takes a support: a negative root
    with pytest.raises(RuntimeError):
        restricted_orbit_roots(system, (-positive_roots(system)[0],), frozenset())


def test_oracle_data_is_built_once_and_immutable():
    system = RootSystemId("D", 4)
    data = _oracle_data(RegularNilpotent(), system)
    M0, plan = data.coeffs, data.plan
    assert _oracle_data(RegularNilpotent(), system).coeffs is M0
    M = operator_matrix(RegularNilpotent(), system)
    assert M0 == tuple(coeff_at(system, M, a) % PRIME for a in positive_roots(system))
    assert isinstance(M0, tuple) and isinstance(plan, tuple)
    assert all(isinstance(vs, tuple) and isinstance(cs, tuple) for vs, cs, _ in plan)


# --- the bracket table ------------------------------------------------------------


UP_TO_RANK_6 = [RootSystemId(family, rank)
                for family, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
                for rank in range(low, 7)]


def _commutator(system, a, b):
    """[E_a, E_b] = E_a E_b - E_b E_a by plain sparse matrix products."""
    A, B = root_entries(system, a), root_entries(system, b)
    out = {}
    for P, Q, sign in ((A, B, 1), (B, A, -1)):
        for (i, k), x in P:
            for (k2, j), y in Q:
                if k == k2:
                    out[i, j] = out.get((i, j), 0) + sign * x * y
    return {rc: v for rc, v in out.items() if v}


@pytest.mark.parametrize("system", UP_TO_RANK_6, ids=str)
def test_kernel_table_brackets_are_matrix_commutators(system):
    # Every entry (b, g, n) of v's brackets, rebuilt as n E_g, is the matrix
    # commutator [E_v, E_b] entry for entry; every pair it leaves out
    # commutes; and it lists exactly the pairs the sum table lists.
    index = root_index(system)
    table = _kernel_table(system)
    assert sorted(table) == list(range(len(index.positive)))
    for v, a in enumerate(index.positive):
        row, brackets = table[v]
        assert row == row_of(a)
        listed = {b: (g, n) for g, (b, n) in brackets.items()}
        assert len(listed) == len(brackets)
        for b, beta in enumerate(index.positive):
            Z = _commutator(system, a, beta)
            if b in listed:
                g, n = listed[b]
                assert n and Z == {rc: n * x for rc, x
                                   in root_entries(system, index.positive[g])}
            else:
                assert not Z
        assert sorted((b, g) for b, (g, _) in listed.items()) == \
            sorted(index.sums[v])


def test_kernel_tables_are_pinned():
    # The tables of A1-A6, B2-B6, C2-C6 and D3-D6, dict order included,
    # as built when every ordered pair was bracketed on its own.
    digest = hashlib.sha256()
    for system in UP_TO_RANK_6:
        digest.update(repr(_kernel_table(system)).encode())
    assert digest.hexdigest() == \
        "fd70b898f3fdad55281082c2988a4a5a5b22397b95d194913b0f524f83fe8dad"


@pytest.mark.parametrize("system", UP_TO_RANK_6, ids=str)
def test_weights_are_minus_the_semisimple_functional(system):
    # w_v, the E_v coefficient of [E_v, S], is -v(S); a regular S moves
    # every root
    blocks = [(), ((1,),)] + ([((1, 2),)] if system.rank > 2 else [])
    for spec in map(SemisimpleClassical, blocks):
        svec = semisimple_functional(spec, system)
        weights = _oracle_data(spec, system).weights
        assert weights == tuple(-sum(e * s for e, s in zip(euclidean(system, a), svec))
                                for a in positive_roots(system))
        assert all(weights) or spec.levi_blocks


@pytest.mark.parametrize("system", UP_TO_RANK_6, ids=str)
def test_oracle_coefficients_are_the_support_indicator(system):
    # Each pivot entry of M = S + N is touched by its own root vector only,
    # and S is diagonal, so M's coefficients are 1 on supp N and 0
    # elsewhere: already residues mod PRIME, which the oracle reads as is.
    n = system.rank
    specs = [RegularNilpotent()] + [SemisimpleClassical(blocks) for blocks in
                                    [(), ((1,),)] + ([((1, 2),)] if n > 2 else [])]
    if system.family == "A":
        specs += [TypeANilpotent(((n + 2) // 2, (n + 1) // 2)),
                  TypeANilpotent((2,) + (1,) * (n - 1)),
                  TypeAGeneral((("x", (n,)), ("y", (1,))))]
    for spec in specs:
        data = _oracle_data(spec, system)
        on = set(data.support_at)
        assert data.coeffs == tuple(int(k in on) for k in range(len(data.coeffs)))


def _sparse(D):
    return {(i + 1, j + 1): v for i, row in enumerate(D) for j, v in enumerate(row)
            if v}


def _dense(system, A):
    n = matrix_dim(system)
    out = [[0] * n for _ in range(n)]
    for (r, c), v in A.items():
        out[r - 1][c - 1] = v
    return out


def _random_matrix(system, rng, borel):
    """Random integer and Fraction entries, on or above the diagonal when
    borel, anywhere otherwise."""
    n = matrix_dim(system)
    out = {}
    for r in range(1, n + 1):
        for c in range(r if borel else 1, n + 1):
            if rng.random() < 0.4:
                out[r, c] = rng.choice([rng.randint(-4, 4),
                                        Fraction(rng.randint(-6, 6), rng.randint(1, 4))])
    return {rc: v for rc, v in out.items() if v}


@pytest.mark.parametrize("system", SYSTEMS, ids=str)
def test_bracket_is_the_dense_commutator(system):
    rng = random.Random(f"bracket:{system}")
    for trial in range(8):
        A = _random_matrix(system, rng, trial % 2 == 0)
        B = _random_matrix(system, rng, trial % 4 == 0)
        if trial % 3 == 0:
            B = _random_borel(system, rng, None)
        dA, dB = _dense(system, A), _dense(system, B)
        AB, BA = _dense_mul(dA, dB, None), _dense_mul(dB, dA, None)
        want = _sparse([[x - y for x, y in zip(ra, rb)] for ra, rb in zip(AB, BA)])
        got = _bracket(A, B)
        assert got == want, trial
        assert all(got.values())
        # cancellation leaves nothing behind
        assert _bracket(A, A) == {}
        assert _bracket(got, got) == {}


@pytest.mark.parametrize("system", SYSTEMS, ids=str)
def test_root_matrix_reads_back_its_scalars(system):
    # sum of x_beta E_beta has coordinate x_beta at beta and no Cartan part
    rng = random.Random(f"root-matrix:{system}")
    pos = positive_roots(system)
    for _ in range(3):
        assignment = {a: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                      for a in rng.sample(pos, 4)}
        weights, coeffs = _coordinates(system, _root_matrix(system, assignment))
        assert not any(weights)
        assert coeffs == tuple(assignment.get(a, 0) for a in pos)


def test_borel_basis_is_cartan_diagonals_then_positive_root_vectors():
    diagonals = {
        RootSystemId("A", 2): [{(1, 1): 1}, {(2, 2): 1}, {(3, 3): 1}],
        RootSystemId("B", 2): [{(1, 1): 1, (5, 5): -1}, {(2, 2): 1, (4, 4): -1}],
        RootSystemId("C", 2): [{(1, 1): 1, (4, 4): -1}, {(2, 2): 1, (3, 3): -1}],
        RootSystemId("D", 3): [{(1, 1): 1, (6, 6): -1}, {(2, 2): 1, (5, 5): -1},
                               {(3, 3): 1, (4, 4): -1}],
    }
    for system, diagonal in diagonals.items():
        assert _borel_basis(system) == diagonal + [
            dict(root_entries(system, a)) for a in positive_roots(system)]
