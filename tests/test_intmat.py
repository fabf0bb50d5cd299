import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlab import _intmat


def _matrices(n, m, max_entry):
    row = st.lists(st.integers(-max_entry, max_entry), min_size=m, max_size=m)
    return st.lists(row, min_size=n, max_size=n)


def square_int_matrices(max_dim=4, max_entry=9):
    return st.integers(1, max_dim).flatmap(lambda n: _matrices(n, n, max_entry))


def int_matrices(max_dim=4, max_entry=9):
    """n x m integer matrices, n and m drawn independently from 1..max_dim."""
    dims = st.tuples(st.integers(1, max_dim), st.integers(1, max_dim))
    return dims.flatmap(lambda nm: _matrices(*nm, max_entry))


@given(int_matrices())
@settings(max_examples=150, deadline=None)
def test_smith_normal_form_invariants(mat):
    u, s, v = _intmat.smith_normal_form(mat)
    n, m = len(mat), len(mat[0])
    # U is n x n and V is m x m
    assert len(u) == n and all(len(row) == n for row in u)
    assert len(v) == m and all(len(row) == m for row in v)
    # S = U * mat * V
    assert _intmat.mat_mul(_intmat.mat_mul(u, mat), v) == s
    # U, V unimodular
    assert abs(_intmat.det(u)) == 1
    assert abs(_intmat.det(v)) == 1
    # S diagonal, nonnegative, divisibility chain
    for i in range(n):
        for j in range(m):
            if i != j:
                assert s[i][j] == 0
    diag = [s[i][i] for i in range(min(n, m))]
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0


@given(square_int_matrices())
@settings(max_examples=100, deadline=None)
def test_det_matches_numpy(mat):
    expected = round(float(np.linalg.det(np.array(mat, dtype=float))))
    got = _intmat.det(_intmat.int_matrix(mat))
    if abs(expected) < 10**6:  # float det is exact well below this
        assert got == expected


def test_mat_power():
    m = [[2, 1], [1, 1]]
    assert _intmat.mat_power(m, 0) == [[1, 0], [0, 1]]
    assert _intmat.mat_power(m, 4) == [[34, 21], [21, 13]]
    with pytest.raises(ValueError, match="negative powers not supported"):
        _intmat.mat_power(m, -1)


def _coefficients(vec, basis):
    """Coefficients of ``vec`` over an upper-triangular basis, or None when
    they are not all integers."""
    rest, coefficients = list(vec), []
    for j, b in enumerate(basis):
        c, r = divmod(rest[j], b[j])
        if r:
            return None
        rest = [x - c * y for x, y in zip(rest, b)]
        coefficients.append(c)
    return coefficients


@given(square_int_matrices(), st.integers(1, 60))
@settings(max_examples=150, deadline=None)
def test_echelon_basis_spans_the_lattice(rows, modulus):
    n = len(rows)
    basis = _intmat.echelon_basis(rows, modulus)
    for j, b in enumerate(basis):
        assert all(x == 0 for x in b[:j])
        assert b[j] > 0 and modulus % b[j] == 0
        assert all(0 <= x < modulus for x in b[j + 1 :])
    # the input rows and modulus * Z^n lie in the span of the basis ...
    generators = [list(r) for r in rows] + [
        [modulus if k == i else 0 for k in range(n)] for i in range(n)
    ]
    assert all(_coefficients(g, basis) is not None for g in generators)
    # ... and both spans have the same index in Z^n, so they are equal and
    # each basis row is an integer combination of the generators
    _, s, _ = _intmat.smith_normal_form(generators)
    assert abs(_intmat.det(basis)) == math.prod(s[i][i] for i in range(n))
