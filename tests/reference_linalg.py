"""Textbook linear algebra that the tests use as references for the library.

None of this is on a library path: each routine here computes, by a
different method, something the library computes itself.
"""

from fractions import Fraction
from math import isqrt, lcm

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


def reference_charpoly(m: Matrix) -> tuple[F, ...]:
    """Coefficients of det(tI - M), low degree first, by the Hessenberg
    method over Q (Cohen, *A Course in Computational Algebraic Number
    Theory*, §2.2): the reduction to upper Hessenberg form divides by each
    pivot in Fraction arithmetic, where the library's rescales integers."""
    assert m.nrows == m.ncols, "charpoly of a non-square matrix"
    n = m.nrows
    h = [list(r) for r in m.rows]
    for c in range(n - 2):
        # pivot: first nonzero entry below the subdiagonal of column c
        p = next((i for i in range(c + 1, n) if h[i][c] != 0), None)
        if p is None:
            continue
        k = c + 1
        if p != k:
            # swap rows and the matching columns (conjugation by a permutation)
            h[p], h[k] = h[k], h[p]
            for row in h:
                row[p], row[k] = row[k], row[p]
        inv = F(1) / h[k][c]
        for i in range(k + 1, n):
            u = h[i][c] * inv
            if u == 0:
                continue
            # row_i -= u row_k with col_k += u col_i is one similarity step
            hi, hk = h[i], h[k]
            for j in range(c, n):
                if hk[j] != 0:
                    hi[j] -= u * hk[j]
            for row in h:
                if row[i] != 0:
                    row[k] += u * row[i]
    # p_j = det(tI - H[:j, :j]); polynomials as coefficient lists, low first
    polys: list[list[F]] = [[F(1)]]
    for j in range(n):
        nxt = [F(0)] + polys[j]  # t * p_{j}
        for d, x in enumerate(polys[j]):
            nxt[d] -= h[j][j] * x
        # - sum_i h[j-i][j] * h[j][j-1] ... h[j-i+1][j-i] * p_{j-i}
        sub = F(1)
        for i in range(1, j + 1):
            sub *= h[j - i + 1][j - i]
            if sub == 0:
                break
            f = sub * h[j - i][j]
            if f != 0:
                for d, x in enumerate(polys[j - i]):
                    nxt[d] -= f * x
        polys.append(nxt)
    return tuple(polys[n])


def poly_eval(coeffs, x) -> F:
    """The polynomial with coefficients `coeffs`, low degree first, at x."""
    out = F(0)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def reference_rational_roots(coeffs) -> list[tuple[F, int]]:
    """Rational roots with multiplicities of a nonzero polynomial (low
    degree first): after t^m is split off, each p/q with p | a_0 and
    q | a_n for its integer multiple a is tried on the Fraction
    polynomial, by value, and divided out by synthetic division while it
    is a root."""
    c = [F(x) for x in coeffs]
    while c[-1] == 0:
        c.pop()
    m0 = next(i for i, x in enumerate(c) if x)
    roots = {F(0): m0} if m0 else {}
    c = c[m0:]
    scale = lcm(*(x.denominator for x in c))
    a0, an = (abs(int(x * scale)) for x in (c[0], c[-1]))

    def divisors(n):
        return [d for k in range(1, isqrt(n) + 1) if n % k == 0 for d in (k, n // k)]

    cands = {F(sign * p, q) for p in divisors(a0) for q in divisors(an) for sign in (1, -1)}
    for r in sorted(cands):
        while len(c) > 1 and poly_eval(c, r) == 0:
            carry, quotient = F(0), []
            for x in reversed(c[1:]):
                carry = x + r * carry
                quotient.append(carry)
            c = quotient[::-1]
            roots[r] = roots.get(r, 0) + 1
    return sorted(roots.items())


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


# Textbook matrix arithmetic on rows of Fractions, for the integer form the
# library keeps.

def product_rows(a, b) -> tuple:
    """The rows of AB."""
    return tuple(tuple(sum((x * y for x, y in zip(r, col)), F(0)) for col in zip(*b))
                 for r in a)


def combination_rows(terms, n: int) -> tuple:
    """The rows of sum c*A over (c, rows of A) pairs of n x n matrices."""
    acc = [[F(0)] * n for _ in range(n)]
    for c, rows in terms:
        for out, r in zip(acc, rows):
            for j, x in enumerate(r):
                out[j] += c * x
    return tuple(map(tuple, acc))


def restriction_rows(a, basis, pivots) -> tuple:
    """The rows of A on span(basis), for an A-invariant span of reduced
    rows: each image of a basis row, read at the pivots."""
    images = [tuple(sum((x * y for x, y in zip(r, b)), F(0)) for r in a) for b in basis]
    return tuple(tuple(y[p] for y in images) for p in pivots)


def inverse_rows(a) -> tuple | None:
    """The rows of A^-1 by Gauss-Jordan on (A | I); None if A is singular."""
    n = len(a)
    aug = [tuple(r) + tuple(F(int(i == j)) for j in range(n)) for i, r in enumerate(a)]
    rows, pivots = reference_rref(aug)
    return tuple(r[n:] for r in rows) if pivots == list(range(n)) else None


def combine(terms, n: int) -> tuple:
    """Sum of c*v over the (c, v) pairs, v in Q^n, in Fraction arithmetic;
    zero coefficients and zero entries are skipped."""
    acc = [F(0)] * n
    for c, v in terms:
        if c:
            for j, x in enumerate(v):
                if x:
                    acc[j] += c * x
    return tuple(acc)


def reference_bracket(L, x, y, k: int) -> tuple:
    """<x, y>_k summed from the Fraction structure constants L.c."""
    ck = L.c[k]
    return combine(((xi * yj, ck[i][j]) for i, xi in enumerate(x) if xi
                    for j, yj in enumerate(y) if yj), L.dim)


# Textbook subspace operations over Fraction rows.  Each subspace is a pair
# (basis rows, pivots) from reference_rref; every result is re-spanned.

def vadd(a, b) -> tuple:
    return tuple(x + y for x, y in zip(a, b, strict=True))


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
