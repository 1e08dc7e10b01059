"""Exact rational linear algebra: vectors, matrices, canonical subspaces,
rational eigen-computations, and joint-eigenvector search.

Vectors are ``fractions.Fraction`` tuples.  Matrices (one denominator over
integer rows) and subspaces (canonical integer rows) build their Fractions
when read; only this module and ``modules._ProductTable`` read the integer
rows.  An algebra's structure constants are one Matrix, whose rows give the
bilinear maps that brackets and bracket spans read; `bilinear_operators`
builds the adjoint's operators from the same rows.  No floating point
appears anywhere: `vec` refuses floats.  Values are immutable and
operations are pure functions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatch,
    EmptySubspace,
    NonSplitSpectrum,
    NotInvariant,
    Singular,
)

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

def vec(entries: Iterable) -> Vector:
    # Fraction is immutable, so entries that already are one are shared
    return tuple(e if type(e) is Fraction else _exact(e) for e in entries)


def _exact(e) -> Fraction:
    if isinstance(e, float):  # its binary value is not the decimal it was written as
        raise TypeError(f"float {e!r} is inexact: pass an int, a Fraction or a string")
    return Fraction(e)


def zero_vec(n: int) -> Vector:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def is_zero_vec(a: Vector) -> bool:
    return all(x == 0 for x in a)


# Matrix, the subspaces and the axiom checks' product table scale rational
# data by a common denominator and work on rows of int; these helpers stay
# private to them.

def _common_denominator(values: Iterable) -> int:
    """The lcm of the denominators (1 for no values)."""
    return lcm(*{x.denominator for x in values})


def _scaled_ints(values: Iterable, d: int) -> tuple[int, ...]:
    """d*x for each x; d must be a multiple of every denominator."""
    return tuple(x.numerator * (d // x.denominator) for x in values)


def _sparse(values: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """The (index, entry) pairs of the nonzero entries."""
    return tuple((j, x) for j, x in enumerate(values) if x)


def _over(values: Iterable[int], d: int) -> Vector:
    """The integers divided by d > 0, sharing the common ZERO and ONE."""
    return tuple(ZERO if not x else ONE if x == d else Fraction(x, d) for x in values)


# Dense integer results are lists, not tuples: CPython keeps up to 2000
# freed tuples of each small length alive for reuse, which would hold on to
# that memory.

def _int_combine(terms: Iterable[tuple], n: int) -> list[int]:
    """Sum of c*v over (c, v) pairs, v a sparse integer vector of length n."""
    acc = [0] * n
    for c, v in terms:
        if c:
            for j, x in v:
                acc[j] += c * x
    return acc


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class Matrix:
    """Dense immutable matrix over the rationals, held as (D, DM): D > 0 the
    lcm of its entry denominators and DM as rows of int, so that D and the
    entries of DM are coprime.  `rows` and `column` build `Fraction`s."""

    __slots__ = ("_d", "_rows")

    def __init__(self, rows: Iterable[Iterable]):
        rows = [vec(r) for r in rows]
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise DimensionMismatch("ragged matrix rows")
        # no prime of the lcm divides every scaled entry
        d = _common_denominator(chain.from_iterable(rows))
        self._d, self._rows = d, tuple(_scaled_ints(r, d) for r in rows)

    @classmethod
    def _lowest(cls, d: int, rows: Iterable[Sequence[int]]) -> "Matrix":
        """The matrix with integer rows `rows` over d > 0, in lowest terms."""
        rows = tuple(map(tuple, rows))
        g, m = gcd(d, *chain.from_iterable(rows)), cls.__new__(cls)
        m._d, m._rows = d // g, rows if g == 1 else tuple(tuple(x // g for x in r) for r in rows)
        return m

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        return cls._lowest(1, [(0,) * ncols] * nrows)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._lowest(1, ([int(i == j) for j in range(n)] for i in range(n)))

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return len(self._rows[0]) if self._rows else 0

    @property
    def rows(self) -> tuple[Vector, ...]:
        return tuple(_over(r, self._d) for r in self._rows)

    def column(self, j: int) -> Vector:
        return _over((r[j] for r in self._rows), self._d)

    def apply(self, v: Vector) -> Vector:
        """Matrix-vector product (vectors are coordinate columns)."""
        if len(v) != self.ncols:
            raise DimensionMismatch("matrix/vector shape mismatch")
        # Mv = (DM)(ev) / (De) for e the lcm of v's denominators
        y = _scaled_ints(v, e := _common_denominator(v))
        return _over((sum(map(mul, r, y)) for r in self._rows), self._d * e)

    def _integer(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(D, D*M as rows of int), the matrix's own state."""
        return self._d, self._rows

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise DimensionMismatch("matrix product shape mismatch")
        cols = list(zip(*other._rows))
        return Matrix._lowest(self._d * other._d, (
            [sum(map(mul, r, c)) for c in cols] for r in self._rows))

    def __add__(self, other: "Matrix") -> "Matrix":
        return linear_combination(((1, self), (1, other)), self.nrows, self.ncols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return linear_combination(((1, self), (-1, other)), self.nrows, self.ncols)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self._integer() == other._integer()

    def __hash__(self) -> int:
        return hash((self._d, self._rows))

    def __repr__(self) -> str:
        return f"Matrix({[list(map(str, r)) for r in self.rows]})"


def linear_combination(terms: Iterable[tuple], nrows: int, ncols: int) -> Matrix:
    """Sum of c*A over the (c, A) pairs with c nonzero, each A nrows x ncols,
    on integer rows over the lcm of the denominators of the c/D_A."""
    terms = [(c.numerator, c.denominator * a._d, a) for c, a in terms if c]
    if any((a.nrows, a.ncols) != (nrows, ncols) for _, _, a in terms):
        raise DimensionMismatch("matrix combination shape mismatch")
    l = lcm(*(den for _, den, _ in terms))
    ks = [(num * (l // den), a._rows) for num, den, a in terms]
    return Matrix._lowest(l, (_int_combine(((k, enumerate(rows[i])) for k, rows in ks), ncols)
                              for i in range(nrows)))


def block_diagonal(a: Matrix, b: Matrix) -> Matrix:
    """The block-diagonal matrix with blocks a and b."""
    d, za, zb = lcm(a._d, b._d), (0,) * a.ncols, (0,) * b.ncols
    return Matrix._lowest(d, [*(tuple(d // a._d * x for x in r) + zb for r in a._rows),
                              *(za + tuple(d // b._d * x for x in r) for r in b._rows)])


# ---------------------------------------------------------------------------
# row reduction and subspaces
# ---------------------------------------------------------------------------

def _primitive_ints(values: Sequence[Fraction]) -> list[int] | None:
    """The values scaled to coprime integers with the same ratios and signs;
    None if every value is zero."""
    ratios = [x.as_integer_ratio() for x in values]
    d = lcm(*{q for _, q in ratios})
    ints = [n * (d // q) for n, q in ratios]
    g = gcd(*ints)
    if not g:
        return None
    return [x // g for x in ints] if g != 1 else ints


def _normalized(row: Sequence[int], c: int) -> tuple[int, ...]:
    """The nonzero integer row divided by the gcd of its entries, signed so
    that entry c is positive."""
    g = gcd(*row)
    if row[c] < 0:
        g = -g
    return tuple(row) if g == 1 else tuple(x // g for x in row)


def _reduce(rows: Iterable[Sequence[int]]) -> tuple[tuple, tuple[int, ...]]:
    """Reduced row-echelon form over Q of integer rows; returns (rows,
    pivot columns), each row primitive with a positive pivot.

    The one elimination routine of the library.  It is fraction-free in
    the style of Bareiss (*Math. Comp.* 22, 1968): Gauss-Jordan runs with
    integer row operations, and each combined row is divided by the gcd
    of its entries, which keeps them small.  Each row of the reduced form
    over Q has exactly one primitive multiple with a positive pivot, so
    the result is canonical.
    """
    work = [list(row) for row in rows if any(row)]
    pivots: list[int] = []
    r = 0
    for c in range(len(work[0]) if work else 0):
        pr = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        pivot_row = work[r]
        p = pivot_row[c]
        # rows at or below r are zero left of column c
        nonzero = [(j, x) for j, x in enumerate(pivot_row[c:], c) if x]
        for i, row in enumerate(work):
            a = row[c]
            if not a or i == r:
                continue
            # row <- (p/g) row - (a/g) pivot_row clears column c
            g = gcd(p, a)
            pg, ag = p // g, a // g
            if pg != 1:
                row = [pg * x for x in row]
            for j, x in nonzero:
                row[j] -= ag * x
            g = gcd(*row)  # 0 when the row became zero
            work[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(map(_normalized, work, pivots)), tuple(pivots)


def rref(rows: Sequence[Vector]) -> tuple[list[Vector], list[int]]:
    """Reduced row-echelon form over Q; returns (nonzero rows, pivot columns)."""
    red, pivots = _reduce(filter(None, map(_primitive_ints, rows)))
    return [_over(r, r[p]) for r, p in zip(red, pivots)], list(pivots)


def _null_space(rows: Iterable[Sequence[int]], n: int) -> tuple[tuple, tuple[int, ...]]:
    """Canonical rows and pivots of {v in Q^n : r.v = 0 for each integer row r}.

    The elimination runs on the column-reversed rows.  There the textbook
    null vector of a free column (1 there, minus the reduced rows' entries
    at their pivots) has its last nonzero entry at that column and is zero
    at the other free columns; reversed back, it is a canonical row.
    """
    red, piv = _reduce(r[::-1] for r in rows)
    out, pivots = [], []
    for k in range(n - 1, -1, -1):
        if k in piv:
            continue
        j = n - 1 - k  # reversed column k is column j
        above = [(row, c) for row, c in zip(red, piv) if row[k]]
        l = lcm(*(row[c] for row, c in above))
        v = [0] * n
        v[j] = l
        for row, c in above:
            v[n - 1 - c] = -(l // row[c]) * row[k]
        out.append(_normalized(v, j))
        pivots.append(j)
    return tuple(out), tuple(pivots)


class Subspace:
    """Subspace of Q^n held as a reduced row-echelon basis.

    The representation is canonical: two subspaces are equal as sets iff
    their basis matrices are identical.  The basis is kept as integer rows,
    each the primitive multiple of a reduced row with a positive pivot
    (so it is zero at the other pivots); `basis`, over Q, is built from
    them on first read.
    """

    __slots__ = ("ambient", "pivots", "_rows", "_basis")

    def __init__(
        self, ambient: int, rows: tuple[tuple[int, ...], ...], pivots: tuple[int, ...]
    ):
        self.ambient = ambient
        self.pivots = pivots
        self._rows = rows
        self._basis: tuple[Vector, ...] | None = None

    @classmethod
    def span(cls, ambient: int, vectors: Iterable[Vector]) -> "Subspace":
        rows = []
        for v in vectors:
            v = vec(v)
            if len(v) != ambient:
                raise DimensionMismatch("spanning vector has wrong length")
            rows.append(_primitive_ints(v))
        return cls(ambient, *_reduce(filter(None, rows)))

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, (), ())

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, Matrix.identity(ambient)._rows, tuple(range(ambient)))

    @property
    def basis(self) -> tuple[Vector, ...]:
        if self._basis is None:
            self._basis = tuple(_over(r, r[p]) for r, p in zip(self._rows, self.pivots))
        return self._basis

    @property
    def dim(self) -> int:
        return len(self._rows)

    def is_full(self) -> bool:
        return self.dim == self.ambient

    def contains(self, v: Vector) -> bool:
        return self.coords(v) is not None

    def coords(self, v: Vector) -> Vector | None:
        """Coordinates of v in the canonical basis, or None if v is outside.

        Basis rows have 1 at their pivot column and 0 at the other pivots,
        so the candidate coefficients can be read off directly.
        """
        if len(v) != self.ambient:
            raise DimensionMismatch("vector/ambient mismatch")
        y = _primitive_ints(v)
        if y is not None and not self._holds(y):
            return None
        return tuple(v[p] for p in self.pivots)

    def _holds(self, y: Sequence[int]) -> bool:
        """Whether the integer vector y is the sum of the rows r times
        y[p]/r[p] over their pivots p, i.e. lies in the space."""
        l = lcm(*(r[p] for r, p in zip(self._rows, self.pivots)))
        terms = (
            (y[p] * (l // r[p]), enumerate(r)) for r, p in zip(self._rows, self.pivots)
        )
        return _int_combine(terms, self.ambient) == [l * x for x in y]

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise DimensionMismatch("ambient dimension mismatch")
        return Subspace(self.ambient, *_reduce(self._rows + other._rows))

    def plus_column_spaces(self, pairs: Iterable[tuple[Matrix, Matrix]]) -> "Subspace":
        """This space plus the column space of A - B for each (A, B) pair of
        operators on Q^ambient, in one elimination."""
        cols = list(self._rows)
        for a, b in pairs:
            if not a.nrows == b.nrows == self.ambient or a.ncols != b.ncols:
                raise DimensionMismatch("operator/subspace ambient mismatch")
            (da, ra), (db, rb) = a._integer(), b._integer()
            # the columns of lcm(da, db) (A - B), as integer rows
            g = gcd(da, db)
            p, q = db // g, da // g
            cols += zip(*([p * u - q * v for u, v in zip(x, y)] for x, y in zip(ra, rb)))
        return Subspace(self.ambient, *_reduce(cols))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the kernel of the stacked coefficient system."""
        if self.ambient != other.ambient:
            raise DimensionMismatch("ambient dimension mismatch")
        if self.is_full():
            return other
        if other.is_full():
            return self
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient)
        # the columns are self's rows, then other's negated: a kernel vector
        # (a | b) has sum a_i u_i = sum b_j w_j, and b is fixed by a, so the
        # pivots lie in the a-part and the a-parts are a canonical basis
        minus = (tuple(-x for x in w) for w in other._rows)
        coeffs = _null_space(zip(*self._rows, *minus), self.dim + other.dim)
        return self._combination(coeffs)

    def _combination(self, coeffs: tuple[tuple, tuple[int, ...]]) -> "Subspace":
        """The span of the combinations c.rows for the canonical (rows,
        pivots) of coefficient vectors c (zip stops at dim).  The rows are
        zero left of their pivots and at the other pivots, so each c.rows
        is canonical already, with pivot self.pivots[t] for c's pivot t."""
        rows, cpivots = coeffs
        pivots = tuple(self.pivots[t] for t in cpivots)
        n = self.ambient
        return Subspace(n, tuple(
            _normalized(_int_combine(zip(c, map(enumerate, self._rows)), n), p)
            for c, p in zip(rows, pivots)
        ), pivots)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.ambient, self._rows))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of {self.ambient})"


def kernel(m: Matrix) -> Subspace:
    """Null space {v : Mv = 0} in canonical form."""
    return Subspace(m.ncols, *_null_space(m._integer()[1], m.ncols))


def inverse(m: Matrix) -> Matrix:
    if m.nrows != m.ncols:
        raise DimensionMismatch("inverse of a non-square matrix")
    n = m.nrows
    aug = [tuple(list(row) + list(unit_vec(n, i))) for i, row in enumerate(m.rows)]
    rows, pivots = rref(aug)
    if pivots != list(range(n)):
        raise Singular("matrix is singular")
    return Matrix([row[n:] for row in rows])


def _bilinear(t: Matrix, k: int, x: Sequence[int], y: Sequence[int]) -> list[int]:
    """D times the k-th map of t at the integer vectors (x, y), for t's integer
    form (D, Dt): s*n^2 rows in Q^n give s bilinear maps on Q^n, and row
    (k*n + i)*n + j of t is the k-th map at (e_i, e_j)."""
    n, rows = len(x), t._rows
    return _int_combine(((xi * yj, enumerate(rows[(k * n + i) * n + j]))
                         for i, xi in _sparse(x) for j, yj in _sparse(y)), n)


def bilinear(t: Matrix, k: int, x: Vector, y: Vector) -> Vector:
    """The k-th map of t at (x, y), on the integer vectors ex*x and ey*y."""
    ex, ey = _common_denominator(x), _common_denominator(y)
    return _over(_bilinear(t, k, _scaled_ints(x, ex), _scaled_ints(y, ey)), t._d * ex * ey)


def bilinear_span(t: Matrix, a: Subspace, b: Subspace) -> Subspace:
    """The span of every map of t at every pair of A's and B's vectors: one
    elimination over the maps at the pairs of their integer rows."""
    n = a.ambient
    if b.ambient != n or t.nrows and t.ncols != n:
        raise DimensionMismatch("structure constants/subspace ambient mismatch")
    maps = range(t.nrows // (n * n)) if n else ()
    return Subspace(n, *_reduce(
        _bilinear(t, k, x, y) for k in maps for x in a._rows for y in b._rows))


def bilinear_operators(t: Matrix, maps: int) -> tuple[tuple, tuple]:
    """(F, G) for the `maps` bilinear maps of t, as `_bilinear` reads them:
    G[k][i] is the operator v -> (k-th map at (e_i, v)), whose column j is
    row (k*n + i)*n + j of t, and F[k][i] is v -> -(k-th map at (v, e_i)),
    whose column j is minus row (k*n + j)*n + i."""
    n, d, rows = t.ncols, t._d, t._rows
    G = tuple(tuple(Matrix._lowest(d, zip(*rows[(k * n + i) * n:(k * n + i + 1) * n]))
                    for i in range(n)) for k in range(maps))
    F = tuple(tuple(Matrix._lowest(d, zip(*([-x for x in rows[(k * n + j) * n + i]]
                                              for j in range(n))))
                    for i in range(n)) for k in range(maps))
    return F, G


# ---------------------------------------------------------------------------
# characteristic polynomial and rational eigenvalues
# ---------------------------------------------------------------------------

def charpoly(m: Matrix) -> tuple[Fraction, ...]:
    """Coefficients of det(tI - M), low degree first; always monic."""
    if m.nrows != m.ncols:
        raise DimensionMismatch("charpoly of a non-square matrix")
    poly = _int_charpoly(*m._integer())
    return tuple(Fraction(c, poly[-1]) for c in poly)


def _int_charpoly(d: int, a: Sequence[Sequence[int]]) -> list[int]:
    """c p_M(t), low degree first, with c = num^n > 0 and M = A/d, A a square
    integer matrix: Hessenberg's method (Cohen, *A Course in Computational
    Algebraic Number Theory*, §2.2) on H ~ (num/den) M.  Where a pivot p does
    not divide the entries a below it, H is conjugated by diag(1..1, q..q) and
    scaled by q = |p|/gcd(p, a); after each column, H is divided by its content."""
    n = len(a)
    h = [list(r) for r in a]
    num, den = d, 1
    for c in range(n - 2):
        # pivot: first nonzero entry below the subdiagonal of column c
        p = next((i for i in range(c + 1, n) if h[i][c]), None)
        if p is None:
            continue
        k = c + 1
        if p != k:
            # swap rows and the matching columns (conjugation by a permutation)
            h[p], h[k] = h[k], h[p]
            for row in h:
                row[p], row[k] = row[k], row[p]
        q = abs(h[k][c]) // gcd(h[k][c], *(h[i][c] for i in range(k + 1, n)))
        if q != 1:
            # entry (i, j) of q S H S^-1 for S = diag(1..1, q..q), q past k
            num *= q
            for i, row in enumerate(h):
                for j in range(n):
                    row[j] *= q ** ((i > k) + (j <= k))
        for i in range(k + 1, n):
            u = h[i][c] // h[k][c]
            if not u:
                continue
            # row_i -= u row_k with col_k += u col_i is one similarity step
            hi, hk = h[i], h[k]
            for j in range(c, n):
                if hk[j]:
                    hi[j] -= u * hk[j]
            for row in h:
                if row[i]:
                    row[k] += u * row[i]
        g = gcd(*chain.from_iterable(h))
        if g > 1:
            den *= g
            for row in h:
                for j in range(n):
                    row[j] //= g
    # p_j = det(tI - H[:j, :j]); polynomials as coefficient lists, low first
    polys: list[list[int]] = [[1]]
    for j in range(n):
        nxt = [0] + polys[j]  # t * p_{j}
        for d, x in enumerate(polys[j]):
            nxt[d] -= h[j][j] * x
        # - sum_i h[j-i][j] * h[j][j-1] ... h[j-i+1][j-i] * p_{j-i}
        sub = 1
        for i in range(1, j + 1):
            sub *= h[j - i + 1][j - i]
            if not sub:
                break
            f = sub * h[j - i][j]
            if f:
                for d, x in enumerate(polys[j - i]):
                    nxt[d] -= f * x
        polys.append(nxt)
    return [x * num**k * den ** (n - k) for k, x in enumerate(polys[n])]


def _divisors(n: int) -> set[int]:
    n = abs(n)
    return {e for d in range(1, isqrt(n) + 1) if n % d == 0 for e in (d, n // d)}


def rational_roots(coeffs: Sequence) -> list[tuple[Fraction, int]]:
    """Rational roots with multiplicities via the rational-root theorem."""
    p = _primitive_ints(coeffs)
    if p is None:
        raise ValueError("zero polynomial has every root")
    while p[-1] == 0:
        p.pop()
    roots: dict[Fraction, int] = {}
    # factor out t^m
    m0 = next((i for i, c in enumerate(p) if c != 0), len(p))
    if m0:
        roots[ZERO] = m0
        p = p[m0:]
    if len(p) > 1:
        cands = set()
        for num in _divisors(p[0]):
            for den in _divisors(p[-1]):
                cands.add(Fraction(num, den))
                cands.add(Fraction(-num, den))
        for cand in sorted(cands):
            mult = 0
            while len(p) > 1 and (quotient := _root_quotient(p, cand)) is not None:
                p, mult = quotient, mult + 1
            if mult:
                roots[cand] = mult
    return sorted(roots.items())


def _root_quotient(p: list[int], r: Fraction) -> list[int] | None:
    """p/(bt - a) for r = a/b, or None when r is not a root of p."""
    a, b = r.numerator, r.denominator
    out, carry = [0] * (len(p) - 1), 0
    for i in range(len(p) - 1, 0, -1):
        # coefficient i of (bt - a)q is b q[i-1] - a q[i]; as p is
        # primitive, q has integer coefficients (Gauss's lemma)
        carry, rest = divmod(p[i] + a * carry, b)
        if rest:
            return None
        out[i - 1] = carry
    return out if p[0] + a * carry == 0 else None


def rational_eigenvalues(m: Matrix) -> tuple[list[tuple[Fraction, int]], bool]:
    """All rational eigenvalues with algebraic multiplicities.

    The flag is True iff the multiplicities sum to the dimension, i.e. the
    whole spectrum is rational.
    """
    roots = rational_roots(charpoly(m))
    return roots, sum(mult for _, mult in roots) == m.nrows


def eigenspace(m: Matrix, lam, within: Subspace) -> Subspace:
    """{v in within : Mv = lam v}; M need not preserve `within`."""
    return _eigen_step(_images(m, within), Fraction(lam), within)


def _images(m: Matrix, within: Subspace) -> tuple[int, list[tuple[int, ...]]]:
    """(D, the images (DM)r of the rows r of `within`) for M's integer form
    (D, DM); M must be square on Q^n."""
    if m.nrows != m.ncols or m.ncols != within.ambient:
        raise DimensionMismatch("operator/subspace ambient mismatch")
    d, dm = m._integer()
    if within.is_full():  # its rows are the identity's, so the images are DM's columns
        return d, list(zip(*dm))
    return d, [tuple(sum(map(mul, row, r)) for row in dm) for r in within._rows]


def _eigen_columns(images: tuple, lam: Fraction, within: Subspace) -> list[list[int]]:
    """The columns q(DM)r - pDr = qD(M - lam I)r for lam = p/q, over the rows
    r of `within`, from the images `_images(M, within)`."""
    d, ys = images
    q, pd = lam.denominator, lam.numerator * d
    return [[q * y - pd * x for y, x in zip(image, r)] for image, r in zip(ys, within._rows)]


def _eigen_step(images: tuple, lam: Fraction, within: Subspace) -> Subspace:
    """{v in within : Mv = lam v}: the kernel of the `_eigen_columns` system,
    combined back into Q^n (the rows of the whole space are the identity)."""
    coeffs = _null_space(zip(*_eigen_columns(images, lam, within)), within.dim)
    if within.is_full():
        return Subspace(within.ambient, *coeffs)
    return within._combination(coeffs)


def common_eigenspace(
    pairs: Iterable[tuple[Matrix, Fraction]], within: Subspace
) -> Subspace:
    """{v in within : op v = lam v for every (op, lam) pair}, one eigen-step
    per pair in order; reads no pair after a step leaves the zero space."""
    space = within
    for op, lam in pairs:
        space = eigenspace(op, lam, space)
        if space.dim == 0:
            break
    return space


def is_common_eigenvector(pairs: Iterable[tuple[Matrix, Fraction]], v: Vector) -> bool:
    """True iff v != 0 and op v = lam v for every (op, lam) pair: on the line
    through v, each pair's eigen-step column is zero."""
    line = Subspace.span(len(v), [v])
    if line.dim == 0:
        return False
    return not any(any(_eigen_columns(_images(op, line), lam, line)[0]) for op, lam in pairs)


def is_invariant(ops: Iterable[Matrix], space: Subspace) -> bool:
    """True iff every operator maps `space` into itself."""
    return all(space._holds(y) for op in ops for y in _images(op, space)[1])


# ---------------------------------------------------------------------------
# restrictions and joint eigenvectors
# ---------------------------------------------------------------------------

def restrict_operator(m: Matrix, s: Subspace) -> Matrix:
    """Matrix of M in the canonical basis of an M-invariant subspace."""
    return Matrix._lowest(*_restricted(_images(m, s), s))


def _restricted(images: tuple, s: Subspace) -> tuple[int, list[list[int]]]:
    """(L, LR) for R the restriction to s of M, from `_images(M, s)`: b = r/r[p]
    has Mb = (DM)r / (D r[p]), read at the pivots; L is the lcm of the D r[p]."""
    d, ys = images
    # every operator preserves the whole space
    if not s.is_full() and not all(map(s._holds, ys)):
        raise NotInvariant("operator does not preserve the subspace")
    dens = [d * r[p] for r, p in zip(s._rows, s.pivots)]
    l = lcm(*dens)
    return l, [[y[q] * (l // e) for y, e in zip(ys, dens)] for q in s.pivots]


def joint_eigenspace(
    family: Sequence[Matrix], within: Subspace
) -> tuple[Subspace, list[Fraction]]:
    """Iterative eigenspace refinement over the family, in the given order.

    At each step the smallest rational eigenvalue of the restricted operator
    is taken (its eigenspace is automatically nonzero), keeping the choice
    deterministic.  Raises NotInvariant when an operator fails to preserve
    the current subspace and NonSplitSpectrum when a restriction has no
    rational eigenvalue.
    """
    if within.dim == 0:
        raise EmptySubspace("joint eigenvector search needs a nonzero subspace")
    current = within
    eigs: list[Fraction] = []
    for op in family:
        # one set of images gives the invariance check, the restricted
        # spectrum and the eigen-step
        images = _images(op, current)
        roots = rational_roots(_int_charpoly(*_restricted(images, current)))
        if not roots:
            raise NonSplitSpectrum("restricted operator has no rational eigenvalue")
        lam = roots[0][0]
        current = _eigen_step(images, lam, current)
        eigs.append(lam)
    return current, eigs


def joint_eigenvector(
    family: Sequence[Matrix], within: Subspace
) -> tuple[Vector, list[Fraction]]:
    """A common eigenvector of the family inside `within`.

    Deterministic: the first canonical basis vector of the surviving joint
    eigenspace.  An empty family returns the first basis vector of `within`.
    """
    space, eigs = joint_eigenspace(family, within)
    return space.basis[0], eigs
