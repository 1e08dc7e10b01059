"""Exact rational linear algebra: vectors, matrices, canonical subspaces,
rational eigen-computations, and joint-eigenvector search.

Everything is built on ``fractions.Fraction``; no floating point appears
anywhere.  All values are immutable after construction and every operation
is a pure function of its inputs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatch,
    EmptySubspace,
    NonSplitSpectrum,
    NotInvariant,
    Singular,
)

Scalar = Fraction
Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

def vec(entries: Iterable) -> Vector:
    # Fraction is immutable, so entries that already are one are shared
    return tuple(e if type(e) is Fraction else Fraction(e) for e in entries)


def zero_vec(n: int) -> Vector:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vadd(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: Vector, b: Vector) -> Vector:
    # operators are sparse: a zero y leaves x as it is
    return tuple(x - y if y else x for x, y in zip(a, b, strict=True))


def vscale(c, a: Vector) -> Vector:
    c = Fraction(c)
    return tuple(c * x for x in a)


def vdot(a: Vector, b: Vector) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), ZERO)


def is_zero_vec(a: Vector) -> bool:
    return all(x == 0 for x in a)


def combine(terms: Iterable[tuple], n: int) -> Vector:
    """Sum of c*v over the (c, v) pairs, v in Q^n.

    Zero coefficients and zero entries are skipped: the operands here are
    typically sparse.
    """
    acc = [ZERO] * n
    for c, v in terms:
        if c:
            for j, x in enumerate(v):
                if x:
                    acc[j] += c * x
    return tuple(acc)


# The axiom checks scale rational data by a common denominator and compare
# rows of int; these helpers stay private to them, and every residual they
# report is still built as an exact Matrix or Vector.

def _common_denominator(values: Iterable) -> int:
    """The lcm of the denominators (1 for no values)."""
    return lcm(*{x.denominator for x in values})


def _scaled_ints(values: Iterable, d: int) -> tuple[int, ...]:
    """d*x for each x; d must be a multiple of every denominator."""
    return tuple(x.numerator * (d // x.denominator) for x in values)


def _sparse(values: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """The (index, entry) pairs of the nonzero entries."""
    return tuple((j, x) for j, x in enumerate(values) if x)


# Dense integer results are lists, not tuples: the checks build many of a
# few lengths, and CPython keeps up to 2000 freed tuples of each small
# length alive for reuse, which would hold on to that memory.

def _int_combine(terms: Iterable[tuple], n: int) -> list[int]:
    """Sum of c*v over (c, v) pairs, v a sparse integer vector of length n."""
    acc = [0] * n
    for c, v in terms:
        if c:
            for j, x in v:
                acc[j] += c * x
    return acc


def _int_matmul(a: Sequence, b: Sequence, n: int) -> list[int]:
    """Row-major entries of AB for integer matrices given as sparse rows,
    B with n columns."""
    out: list[int] = []
    for row in a:
        out.extend(_int_combine(((x, b[l]) for l, x in row), n))
    return out


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class Matrix:
    """Dense immutable matrix over the rationals."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        self.rows: tuple[Vector, ...] = tuple(vec(r) for r in rows)
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise DimensionMismatch("ragged matrix rows")

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        return cls([zero_vec(ncols) for _ in range(nrows)])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([unit_vec(n, i) for i in range(n)])

    @classmethod
    def from_columns(cls, cols: Sequence[Vector], nrows: int) -> "Matrix":
        return cls([[col[i] for col in cols] for i in range(nrows)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.ncols)]

    def apply(self, v: Vector) -> Vector:
        """Matrix-vector product (vectors are coordinate columns)."""
        if len(v) != self.ncols:
            raise DimensionMismatch("matrix/vector shape mismatch")
        # Mv is the combination of M's columns by the entries of v
        return combine(zip(v, zip(*self.rows)), self.nrows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise DimensionMismatch("matrix product shape mismatch")
        # row i of AB is the combination of B's rows by row i of A
        n = other.ncols
        return Matrix([combine(zip(row, other.rows), n) for row in self.rows])

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("matrix sum shape mismatch")
        return Matrix([vadd(a, b) for a, b in zip(self.rows, other.rows)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("matrix difference shape mismatch")
        return Matrix([vsub(a, b) for a, b in zip(self.rows, other.rows)])

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Matrix({[list(map(str, r)) for r in self.rows]})"


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return a @ b - b @ a


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


def rref(rows: Sequence[Vector]) -> tuple[list[Vector], list[int]]:
    """Reduced row-echelon form over Q; returns (nonzero rows, pivot columns).

    The one elimination routine of the library.  It is fraction-free in
    the style of Bareiss (*Math. Comp.* 22, 1968): each row is scaled to
    primitive integers, Gauss-Jordan runs on integer rows (each combined
    row is divided by the gcd of its entries, which keeps them small), and
    each row is divided by its pivot once at the end.  The reduced form
    over Q is unique, so the result is the one any exact elimination gives.
    """
    work = [row for row in map(_primitive_ints, rows) if row is not None]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
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
    out = []
    for row, c in zip(work, pivots):
        p = row[c]
        # zeros and entries equal to the pivot are common: share ZERO and ONE
        out.append(tuple(
            ZERO if not x else ONE if x == p else Fraction(x, p) for x in row
        ))
    return out, pivots


class Subspace:
    """Subspace of Q^n held as a reduced row-echelon basis.

    The representation is canonical: two subspaces are equal as sets iff
    their basis matrices are identical.
    """

    __slots__ = ("ambient", "basis", "pivots")

    def __init__(self, ambient: int, basis: tuple[Vector, ...], pivots: tuple[int, ...]):
        self.ambient = ambient
        self.basis = basis
        self.pivots = pivots

    @classmethod
    def span(cls, ambient: int, vectors: Iterable[Vector]) -> "Subspace":
        vs = [vec(v) for v in vectors]
        for v in vs:
            if len(v) != ambient:
                raise DimensionMismatch("spanning vector has wrong length")
        rows, pivots = rref(vs)
        return cls(ambient, tuple(rows), tuple(pivots))

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, (), ())

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls.span(ambient, [unit_vec(ambient, i) for i in range(ambient)])

    @property
    def dim(self) -> int:
        return len(self.basis)

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
        coeffs = tuple(v[p] for p in self.pivots)
        if tuple(v) != combine(zip(coeffs, self.basis), self.ambient):
            return None
        return coeffs

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise DimensionMismatch("ambient dimension mismatch")
        return Subspace.span(self.ambient, list(self.basis) + list(other.basis))

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
        # columns: basis of self, then basis of other, as column vectors;
        # kernel elements (a | b) satisfy sum a_i u_i = sum b_j w_j
        cols = [v for v in self.basis] + [vscale(-1, w) for w in other.basis]
        m = Matrix.from_columns(cols, self.ambient)
        # zip stops at self.dim: the a-part of each kernel vector
        vectors = [
            combine(zip(coeffs, self.basis), self.ambient)
            for coeffs in kernel(m).basis
        ]
        return Subspace.span(self.ambient, vectors)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ambient, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of {self.ambient})"


def kernel(m: Matrix) -> Subspace:
    """Null space {v : Mv = 0} in canonical form."""
    rows, pivots = rref(m.rows)
    ncols = m.ncols
    pivset = set(pivots)
    basis = []
    for j in range(ncols):
        if j in pivset:
            continue
        v = [ZERO] * ncols
        v[j] = ONE
        for r, p in enumerate(pivots):
            v[p] = -rows[r][j]
        basis.append(tuple(v))
    return Subspace.span(ncols, basis)


def inverse(m: Matrix) -> Matrix:
    if m.nrows != m.ncols:
        raise DimensionMismatch("inverse of a non-square matrix")
    n = m.nrows
    aug = [tuple(list(row) + list(unit_vec(n, i))) for i, row in enumerate(m.rows)]
    rows, pivots = rref(aug)
    if pivots != list(range(n)):
        raise Singular("matrix is singular")
    return Matrix([row[n:] for row in rows])


# ---------------------------------------------------------------------------
# characteristic polynomial and rational eigenvalues
# ---------------------------------------------------------------------------

def charpoly(m: Matrix) -> tuple[Fraction, ...]:
    """Coefficients of det(tI - M), low degree first; always monic.

    Hessenberg method (Cohen, *A Course in Computational Algebraic Number
    Theory*, §2.2): reduce M to upper Hessenberg form H by a
    similarity over Q, then expand det(tI - H) by the recurrence on its
    leading principal minors.  O(n^3) field operations, no determinants
    and no division by polynomials.
    """
    if m.nrows != m.ncols:
        raise DimensionMismatch("charpoly of a non-square matrix")
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
        inv = ONE / h[k][c]
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
    polys: list[list[Fraction]] = [[ONE]]
    for j in range(n):
        nxt = [ZERO] + polys[j]  # t * p_{j}
        for d, x in enumerate(polys[j]):
            nxt[d] -= h[j][j] * x
        # - sum_i h[j-i][j] * h[j][j-1] ... h[j-i+1][j-i] * p_{j-i}
        sub = ONE
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


def poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    out = ZERO
    for c in reversed(coeffs):
        out = out * x + c
    return out


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def rational_roots(coeffs: Sequence[Fraction]) -> list[tuple[Fraction, int]]:
    """Rational roots with multiplicities via the rational-root theorem."""
    p = _primitive_ints(coeffs) or []
    while p and p[-1] == 0:
        p.pop()
    if not p:
        raise ValueError("zero polynomial has every root")
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
        frac_p = [Fraction(c) for c in p]
        for cand in sorted(cands):
            mult = 0
            work = frac_p
            while len(work) > 1 and poly_eval(work, cand) == 0:
                work = _synthetic_div(work, cand)
                mult += 1
            if mult:
                roots[cand] = mult
    return sorted(roots.items())


def _synthetic_div(coeffs: list[Fraction], r: Fraction) -> list[Fraction]:
    """Divide by (t - r); assumes r is a root (remainder discarded)."""
    out = [ZERO] * (len(coeffs) - 1)
    carry = ZERO
    for i in range(len(coeffs) - 1, 0, -1):
        carry = coeffs[i] + r * carry
        out[i - 1] = carry
    return out


def rational_eigenvalues(m: Matrix) -> tuple[list[tuple[Fraction, int]], bool]:
    """All rational eigenvalues with algebraic multiplicities.

    The flag is True iff the multiplicities sum to the dimension, i.e. the
    whole spectrum is rational.
    """
    if m.nrows != m.ncols:
        raise DimensionMismatch("eigenvalues of a non-square matrix")
    if m.nrows == 0:
        return [], True
    roots = rational_roots(charpoly(m))
    total = sum(mult for _, mult in roots)
    return roots, total == m.nrows


def eigenspace(m: Matrix, lam, within: Subspace) -> Subspace:
    """{v in within : Mv = lam v}; M need not preserve `within`."""
    return _eigen_step(_images(m, within), Fraction(lam), within)


def _images(m: Matrix, within: Subspace) -> list[Vector]:
    """Mb for each basis vector b of `within`; M must be square on Q^n."""
    if m.nrows != m.ncols or m.ncols != within.ambient:
        raise DimensionMismatch("operator/subspace ambient mismatch")
    return [m.apply(b) for b in within.basis]


def _eigen_step(images: Sequence[Vector], lam: Fraction, within: Subspace) -> Subspace:
    """{v in within : Mv = lam v} from the images Mb of the basis of `within`.

    The kernel of the system whose columns are (M - lam I)b = Mb - lam b,
    combined back into Q^n.  The canonical basis of the whole space is the
    identity, so there the kernel is the answer.
    """
    n = within.ambient
    cols = [
        tuple(x - lam * y if y else x for x, y in zip(image, b))
        for image, b in zip(images, within.basis)
    ]
    coeffs = kernel(Matrix.from_columns(cols, n))
    if within.is_full():
        return coeffs
    vectors = [combine(zip(c, within.basis), n) for c in coeffs.basis]
    return Subspace.span(n, vectors)


def common_eigenspace(
    pairs: Iterable[tuple[Matrix, Fraction]], within: Subspace
) -> Subspace:
    """{v in within : op v = lam v for every (op, lam) pair}, one eigen-step
    per pair in order; stops consuming pairs once the space is zero."""
    space = within
    for op, lam in pairs:
        if space.dim == 0:
            break
        space = eigenspace(op, lam, space)
    return space


def is_invariant(ops: Iterable[Matrix], space: Subspace) -> bool:
    """True iff every operator maps `space` into itself."""
    return all(space.contains(op.apply(b)) for op in ops for b in space.basis)


# ---------------------------------------------------------------------------
# restrictions and joint eigenvectors
# ---------------------------------------------------------------------------

def restrict_operator(m: Matrix, s: Subspace) -> Matrix:
    """Matrix of M in the canonical basis of an M-invariant subspace."""
    if m.ncols != s.ambient:
        raise DimensionMismatch("operator/subspace ambient mismatch")
    return _restricted([m.apply(b) for b in s.basis], s)


def _restricted(images: Sequence[Vector], s: Subspace) -> Matrix:
    """The restriction to s of the operator with images Mb of s's basis."""
    cols = []
    for image in images:
        c = s.coords(image)
        if c is None:
            raise NotInvariant("operator does not preserve the subspace")
        cols.append(c)
    return Matrix.from_columns(cols, s.dim)


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
        roots, _ = rational_eigenvalues(_restricted(images, current))
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
