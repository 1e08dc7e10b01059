"""Textbook linear algebra that the tests use as references for the library.

None of this is on a library path: each routine here computes, by a
different method, something the library computes itself.
"""

from fractions import Fraction

from lielike.linalg import Matrix

F = Fraction


def det(m: Matrix) -> Fraction:
    """Determinant by fraction-free (Bareiss) elimination."""
    assert m.nrows == m.ncols, "determinant of a non-square matrix"
    n = m.nrows
    if n == 0:
        return F(1)
    a = [list(r) for r in m.rows]
    sign = 1
    prev = F(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            pr = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pr is None:
                return F(0)
            a[k], a[pr] = a[pr], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
            a[i][k] = F(0)
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def reference_rref(rows) -> tuple[list[tuple], list[int]]:
    """Reduced row-echelon form by Gauss-Jordan on Fraction rows; returns
    (nonzero rows, pivot columns)."""
    work = [list(r) for r in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = F(1) / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return [tuple(row) for row in work[:r]], pivots


def rank(m: Matrix) -> int:
    return len(reference_rref(m.rows)[0])


def scalar_matrix(n: int, c) -> Matrix:
    """c times the n x n identity, written out entry by entry."""
    return Matrix([[F(c) if i == j else F(0) for j in range(n)] for i in range(n)])
