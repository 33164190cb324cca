"""The two-bracket row conjugation against the exponential definition.

_conjugate computes M + [X, M] + 1/2 [X, [X, M]], which equals
exp(X) M exp(-X) only for X in one row and M in the Borel.  The reference
below is the definition itself, on dense matrices with a truncated
exponential series, written without the library's sparse arithmetic.
"""

import random
from fractions import Fraction

import pytest

from hesspave.operators import RegularNilpotent
from hesspave.orbit_oracle import (
    PRIME,
    _conjugate,
    _oracle_data,
    _kernel_table,
    _pivots,
    _row_index,
    _stage_system,
    cartan_matrix,
    coeff_at,
    matrix_dim,
    operator_matrix,
    root_entries,
)
from hesspave.polynomial import Poly
from hesspave.rootsys import RootSystemId, euclidean, positive_roots, row_partition

SYSTEMS = [RootSystemId("A", 3), RootSystemId("B", 3), RootSystemId("C", 3),
           RootSystemId("D", 4)]
DOMAINS = ["fraction", "modp", "poly"]


def _zero(v):
    return v.is_zero() if isinstance(v, Poly) else not v


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
    for trial in range(3):
        M = _random_borel(system, rng, mod)
        for row in rows:
            chosen = [a for a in row if rng.random() < 0.7] or [row[-1]]
            assignment = {a: _scalar(domain, rng, f"x[{a}]") for a in chosen}
            got = _conjugate(system, M, assignment, mod)
            assert got == reference_conjugate(system, M, assignment, mod), (trial, row)


@pytest.mark.parametrize("system", SYSTEMS, ids=str)
def test_stage_columns_are_unit_conjugation_differences(system):
    rng = random.Random(f"cols:{system}")
    pos = positive_roots(system)
    for _ in range(3):
        M = _random_borel(system, rng, PRIME)
        funcs = [{a: 1} for a in rng.sample(pos, 4)]
        funcs.append({a: rng.randrange(PRIME) for a in rng.sample(pos, 3)})

        def f(fd, D):
            return sum(c * coeff_at(system, D, a) for a, c in fd.items()) % PRIME

        for row in row_partition(system).rows:
            b, cols = _stage_system(system, M, list(row),
                                    [_pivots(system, fd) for fd in funcs])
            assert b == [f(fd, M) for fd in funcs]
            for v, col in zip(row, cols):
                Mv = reference_conjugate(system, M, {v: 1}, PRIME)
                assert col == [(f(fd, Mv) - f(fd, M)) % PRIME for fd in funcs]


def test_conjugate_rejects_two_rows():
    system = RootSystemId("B", 3)
    rows = row_partition(system).rows
    M = operator_matrix(RegularNilpotent(), system)
    with pytest.raises(RuntimeError):
        _conjugate(system, M, {rows[0][0]: 1, rows[1][0]: 1})
    with pytest.raises(RuntimeError):
        _conjugate(system, M, {-rows[0][0]: 1})


def test_conjugate_rejects_matrix_outside_borel():
    system = RootSystemId("C", 3)
    row = row_partition(system).rows[0]
    M = dict(operator_matrix(RegularNilpotent(), system))
    M[3, 1] = 1
    with pytest.raises(RuntimeError):
        _conjugate(system, M, {row[0]: 2}, PRIME)


def test_oracle_data_is_built_once_and_immutable():
    system = RootSystemId("D", 4)
    M0, plan, *_ = _oracle_data(RegularNilpotent(), system)
    assert _oracle_data(RegularNilpotent(), system)[0] is M0
    assert dict(M0) == {rc: v % PRIME
                        for rc, v in operator_matrix(RegularNilpotent(), system).items()}
    assert isinstance(M0, tuple) and isinstance(plan, tuple)
    assert all(isinstance(vs, tuple) and isinstance(cs, tuple) for vs, cs, _ in plan)


@pytest.mark.parametrize("system", [RootSystemId("A", 4), RootSystemId("B", 3),
                                    RootSystemId("C", 4), RootSystemId("D", 4)],
                         ids=str)
def test_kernel_table_unit_is_the_row_index_of_e_alpha(system):
    table = _kernel_table(system)
    assert set(table) == set(positive_roots(system))
    for a in positive_roots(system):
        assert table[a][3] == _row_index(system, {a: 1})
