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


# Textbook subspace operations over Fraction rows.  Each subspace is a pair
# (basis rows, pivots) from reference_rref; every result is re-spanned.

def apply(m: Matrix, v) -> tuple:
    return tuple(sum((x * y for x, y in zip(row, v)), F(0)) for row in m.rows)


def null_vectors(rows, ncols: int) -> list[tuple]:
    """One vector per free column j of the reduced rows: 1 at j, minus the
    reduced rows' entries in column j at their pivots."""
    red, pivots = reference_rref(rows)
    out = []
    for j in range(ncols):
        if j in pivots:
            continue
        v = [F(0)] * ncols
        v[j] = F(1)
        for row, p in zip(red, pivots):
            v[p] = -row[j]
        out.append(tuple(v))
    return out


def combinations(coeff_rows, basis, n: int) -> list[tuple]:
    """sum c_i b_i for each coefficient row c (zip stops at len(basis))."""
    return [
        tuple(sum((c * b[j] for c, b in zip(coeffs, basis)), F(0)) for j in range(n))
        for coeffs in coeff_rows
    ]


def reference_kernel(m: Matrix):
    return reference_rref(null_vectors(m.rows, m.ncols))


def reference_intersect(a_basis, b_basis, n: int):
    """Kernel of the system with columns a_i, then -b_j: its a-parts
    combine the a_i into the intersection."""
    cols = list(a_basis) + [tuple(-x for x in w) for w in b_basis]
    rows = [tuple(col[i] for col in cols) for i in range(n)]
    return reference_rref(combinations(null_vectors(rows, len(cols)), a_basis, n))


def reference_eigenspace(m: Matrix, lam, w_basis, n: int):
    """{v in span(w_basis) : Mv = lam v}: the kernel of the system with
    columns Mb - lam b, combined back into Q^n."""
    cols = [tuple(x - lam * y for x, y in zip(apply(m, b), b)) for b in w_basis]
    rows = [tuple(col[i] for col in cols) for i in range(n)]
    return reference_rref(combinations(null_vectors(rows, len(cols)), w_basis, n))
