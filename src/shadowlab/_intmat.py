"""Exact integer matrix utilities (Python ints, no overflow).

Used by the periodic-point enumerator and the toral automorphism check:
Smith normal form with unimodular transforms, echelon lattice bases,
integer determinants and integer matrix powers.
"""

from __future__ import annotations

IntMatrix = list[list[int]]


def int_matrix(rows) -> IntMatrix:
    return [[int(v) for v in row] for row in rows]


def identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def mat_power(a: IntMatrix, k: int) -> IntMatrix:
    if k < 0:
        raise ValueError("negative powers not supported")
    result = identity(len(a))
    base = [row[:] for row in a]
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        k >>= 1
    return result


def mat_sub(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def det(a: IntMatrix) -> int:
    """Exact determinant by fraction-free Gaussian elimination (Bareiss)."""
    n = len(a)
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def echelon_basis(rows: IntMatrix, modulus: int) -> IntMatrix:
    """Upper-triangular basis b_0 .. b_{n-1} of the lattice spanned by ``rows``
    and modulus * Z^n (``modulus`` > 0).

    b_j[j] = h_j > 0 divides ``modulus``, b_j[k] = 0 for k < j and
    0 <= b_j[k] < modulus for k > j.  Column j is cleared by folding every
    pending row into the pivot modulus * e_j through unimodular 2 x 2 steps
    [[x, y], [-b/g, a/g]] (x a + y b = g = gcd(a, b)), so the span never
    changes and the rows left after column n - 1 are zero.  Entries are kept
    reduced mod modulus by the generators modulus * e_k, k > j, that no step
    has used yet; a folded pivot h_j < modulus is left as it is.
    """
    n = len(rows[0])
    pending = [[x % modulus for x in row] for row in rows]
    basis = []
    for j in range(n):
        pivot = [modulus if k == j else 0 for k in range(n)]
        for i, row in enumerate(pending):
            a, b = pivot[j], row[j]
            if b == 0:
                continue
            g, x, y = _extended_gcd(a, b)
            pivot, pending[i] = (
                [(x * p + y * r) % modulus for p, r in zip(pivot, row)],
                [((a // g) * r - (b // g) * p) % modulus for p, r in zip(pivot, row)],
            )
        basis.append(pivot)
    return basis


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x a + y b = g = gcd(a, b) > 0, for a > 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, y0, x1, y1 = x1, y1, x0 - q * x1, y0 - q * y1
    return (a, x0, y0) if a > 0 else (-a, -x0, -y0)


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, S, V) with S = U a V diagonal, U and V unimodular.

    The diagonal of S is nonnegative with s_i dividing s_{i+1}.  Row i of U
    follows row i of S, so a row operation is one list operation on [S | U];
    a column operation touches the first m entries of its rows and of V's.
    """
    n, m = len(a), len(a[0])
    s = [list(row) + e for row, e in zip(a, identity(n))]
    v = identity(m)
    rows = s + v  # rows are updated in place, so this list stays valid
    for t in range(min(n, m)):
        while True:
            # move a minimal-magnitude nonzero entry of the trailing block to the pivot
            pivot = best = None
            for i in range(t, n):
                for j in range(t, m):
                    val = abs(s[i][j])
                    if val and (best is None or val < best):
                        best, pivot = val, (i, j)
            if pivot is None:
                break
            i, j = pivot
            if i != t:
                s[t], s[i] = s[i], s[t]
            if j != t:
                for row in rows:
                    row[t], row[j] = row[j], row[t]
            for i in range(t + 1, n):
                q = s[i][t] // s[t][t]
                if q:
                    s[i][:] = [x - q * y for x, y in zip(s[i], s[t])]
            for j in range(t + 1, m):
                q = s[t][j] // s[t][t]
                if q:
                    for row in rows:
                        row[j] -= q * row[t]
            if any(s[i][t] for i in range(t + 1, n)) or any(s[t][t + 1 : m]):
                continue
            # enforce that the pivot divides the whole trailing block
            for i in range(t + 1, n):
                if any(s[i][j] % s[t][t] for j in range(t + 1, m)):
                    s[t][:] = [x + y for x, y in zip(s[t], s[i])]
                    break
            else:
                break
        if s[t][t] < 0:
            s[t][:] = [-x for x in s[t]]
    return [row[m:] for row in s], [row[:m] for row in s], v
