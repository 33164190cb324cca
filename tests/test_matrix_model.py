"""The matrix model of each root vector, checked with dense matrices built
here: E_alpha preserves the antidiagonal form (types B/C/D), is a weight
vector of weight alpha for a generic diagonal S, and E_{-alpha} is its
transpose.  Only root_entries is read from the model; the form, S and the
weights come from the Euclidean realization."""

import pytest

from hesspave.orbit_oracle import root_entries
from hesspave.rootsys import RootSystemId, all_roots, euclidean

SYSTEMS = (
    [RootSystemId("A", n) for n in range(1, 6)]
    + [RootSystemId(f, n) for f in "BC" for n in range(2, 6)]
    + [RootSystemId("D", n) for n in range(3, 6)]
)


def _size(system):
    n = system.rank
    return {"A": n + 1, "B": 2 * n + 1}.get(system.family, 2 * n)


def _dense(system, alpha):
    N = _size(system)
    E = [[0] * N for _ in range(N)]
    for (r, c), x in root_entries(system, alpha):
        E[r - 1][c - 1] += x
    return E


def _form(system):
    """J[i, N+1-i] = 1, except -1 for i > n in type C (1-based)."""
    N, n = _size(system), system.rank
    J = [[0] * N for _ in range(N)]
    for i in range(N):
        J[i][N - 1 - i] = -1 if system.family == "C" and i >= n else 1
    return J


def _mul(X, Y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*Y)] for row in X]


def _transpose(X):
    return [list(col) for col in zip(*X)]


@pytest.mark.parametrize("system", SYSTEMS, ids=str)
def test_root_vectors_preserve_the_form_and_carry_their_weight(system):
    N, n = _size(system), system.rank
    s = [5 ** k for k in range(1, n + 2)]  # generic: weights pair apart
    if system.family == "A":
        diag = s
    else:
        diag = s[:n] + [0] * (N - 2 * n) + [-x for x in reversed(s[:n])]
    J = _form(system)
    for alpha in all_roots(system):
        E = _dense(system, alpha)
        assert any(any(row) for row in E), alpha
        weight = sum(v * x for v, x in zip(euclidean(system, alpha), s))
        bracket = [[(diag[r] - diag[c]) * E[r][c] for c in range(N)] for r in range(N)]
        assert bracket == [[weight * x for x in row] for row in E], alpha
        assert _dense(system, -alpha) == _transpose(E), alpha
        if system.family != "A":
            EtJ, JE = _mul(_transpose(E), J), _mul(J, E)
            assert all(a + b == 0 for ra, rb in zip(EtJ, JE)
                       for a, b in zip(ra, rb)), alpha
