"""Ordinary modules over Lie-like algebras.

A module stores the operator families in curried form: F[k][i] is the
matrix of f_k(e_i) and G[k][i] the matrix of g_k(e_i); linearity in the
algebra argument holds by construction.  The defining axioms are

    f_h(<x,y>_k) = [f_h(x), f_k(y)]                       (right maps)
    g_h(<x,y>_k) = [g_h(x), f_k(y)]                       (left maps)
    g_k(x)g_h(y) = g_h(x)f_k(y) = g_k(x)f_h(y)
    f_k(x)f_h(y) = f_h(x)f_k(y),  f_k(x)g_h(y) = f_h(x)g_k(y)

The algebra's own identities are checked here too: check_algebra reads
them off the product table of the adjoint module, whose operators
`linalg.bilinear_operators` builds from L's constants.  The table holds each
integer matrix of the checks packed into one int, so that every
comparison is one int equality; it is the one place here that holds
integer rows, and the annihilator only names operator pairs for
`Subspace.plus_column_spaces`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Sequence

from .algebra import AlgebraViolation, LieLikeAlgebra
from .errors import DimensionMismatch
from .linalg import (
    ZERO,
    Matrix,
    Subspace,
    Vector,
    _sparse,
    bilinear_operators,
    block_diagonal,
    inverse,
    is_invariant,
    linear_combination,
)

OperatorFamily = tuple[tuple[Matrix, ...], ...]  # [k][i]


@dataclass(frozen=True)
class OrdinaryModule:
    """Operator-family presentation of an ordinary module."""

    algebra: LieLikeAlgebra
    vdim: int
    F: OperatorFamily
    G: OperatorFamily

    def __post_init__(self):
        n, s, m = self.algebra.dim, self.algebra.s, self.vdim
        for fam in (self.F, self.G):
            if len(fam) != s or any(len(fk) != n for fk in fam):
                raise DimensionMismatch("operator family shape must be s*n")
            for fk in fam:
                for op in fk:
                    if op.nrows != m or op.ncols != m:
                        raise DimensionMismatch("operator must be vdim*vdim")

    def f(self, k: int, z: Vector) -> Matrix:
        """Matrix of f_k(z) for an arbitrary algebra element z."""
        return _linear_combination(self.F[k], z, self.vdim)

    def g(self, k: int, z: Vector) -> Matrix:
        return _linear_combination(self.G[k], z, self.vdim)

    @cached_property
    def _product_table(self) -> "_ProductTable":
        """The one table that check_module and check_derived_identities
        read; the operators never change, so it is built once."""
        return _ProductTable(self)


def _linear_combination(ops: Sequence[Matrix], z: Vector, m: int) -> Matrix:
    return linear_combination(zip(z, ops, strict=True), m, m)


@dataclass(frozen=True)
class ModuleViolation:
    """A failed module axiom at a basis pair and index pair."""

    axiom: str  # "eq-1.3" | "eq-1.4" | "eq-1.5" | "eq-1.6a" | "eq-1.6b"
    witness: tuple[int, int, int, int]  # (k, h, i, j)
    residual: Matrix


class _ProductTable:
    """Packed integer images of one module's operators, for the axiom checks.

    Every operator X is held as X' = D*X, D the lcm of all operator
    denominators, and every structure constant w as E*w, E the lcm of
    theirs, as the integer form of `L.constants` holds it.  Each integer
    matrix of the checks is one int (Kronecker substitution): its entries,
    row-major, are the balanced base-2^width digits, entry (r, c) at digit
    r*m + c.  The table forms

        products      X'Y' = sum_l (column l of X') * (row l of Y'),
                      entries at most m*a^2,
        differences   E*(X'Y' - Z'U'), entries at most 2*E*m*a^2,
        combinations  D * sum_l (E w_l) X'_l, entries at most D*n*b*a,

    with a the largest |X'| entry, b the largest |E*w| entry, m = vdim and
    n = dim.  Every entry is at most B = max(2*E*m*a^2, D*n*b*a), so the
    difference of two values has entries at most 2B < 2^(width-1) for
    width = bitlength(2B) + 1.  Digits below 2^(width-1) in absolute value
    pack into one int in one way only: two values are equal exactly when
    their matrices are, each axiom is one int comparison, and the
    difference of two values decodes to its exact entries, which are read
    only for a failing tuple's residual.

    Equal operators and equal constants share one index.  For the adjoint
    module D = E, since every constant is an entry of some G_k(e_i).
    """

    def __init__(self, M: OrdinaryModule):
        L = M.algebra
        n, s = L.dim, L.s
        # row (k*n + i)*n + j of the constants' integer form is E*c[k][i][j]
        e, rows = L.constants._integer()
        self.e = e
        w_ids: dict[tuple, int] = {}
        ids = [w_ids.setdefault(w, len(w_ids)) for w in rows]
        self.c = tuple(tuple(tuple(ids[(k * n + i) * n:(k * n + i + 1) * n]) for i in range(n))
                       for k in range(s))
        self.w = list(w_ids)  # each distinct E*w, by index
        ops = [op for fam in (M.F, M.G) for fk in fam for op in fk]
        self.d = d = lcm(*(op._integer()[0] for op in ops))
        self.m = M.vdim
        fams = tuple(
            [[rows if dx == d else tuple(tuple(d // dx * x for x in r) for r in rows)
              for dx, rows in (op._integer() for op in fk)] for fk in fam]
            for fam in (M.F, M.G))
        op_ids: dict[tuple, int] = {}
        # ops[0][k][i] indexes F'[k][i], ops[1][k][i] indexes G'[k][i]
        self.ops = tuple(
            tuple(tuple(op_ids.setdefault(x, len(op_ids)) for x in fk) for fk in fam)
            for fam in fams)
        m = self.m
        a = max((abs(x) for key in op_ids for r in key for x in r), default=0)
        b = max((abs(x) for w in self.w for x in w), default=0)
        bound = max(2 * e * m * a * a, self.d * n * b * a)
        self.width = width = (2 * bound).bit_length() + 1
        # per distinct X': its packed rows, its nonzero packed columns (row
        # r at digit r*m), and the whole matrix
        self.rows = [[self._pack(r, width) for r in key] for key in op_ids]
        self.cols = [_sparse(self._pack(c, width * m) for c in zip(*key))
                     for key in op_ids]
        self.packed = [self._pack(rows, width * m) for rows in self.rows]
        self._combos: dict[int, list] = {}

    @staticmethod
    def _pack(digits, width: int) -> int:
        """sum_i digits[i] << (width*i)."""
        out = 0
        for x in reversed(digits):
            out = (out << width) + x
        return out

    def grid(self, a: int, b: int) -> list[list[int]]:
        """X'_p Y'_q at [p][q], over families X = a and Y = b (0 for F, 1 for
        G) and the flattened index p = k*dim + i of X_k(e_i); each product is
        sum_l (column l of X') * (row l of Y'), one int per term."""
        xs = [x for fk in self.ops[a] for x in fk]
        ys = [y for fk in self.ops[b] for y in fk]
        rows, distinct_ys, by_x = self.rows, set(ys), {}
        for x in set(xs):
            cols = self.cols[x]
            prods = {y: sum(col * rows[y][l] for l, col in cols) for y in distinct_ys}
            by_x[x] = [prods[y] for y in ys]
        return [by_x[x] for x in xs]

    def combos(self, fam: int) -> list[list[int]]:
        """D * sum_l (E w_l) X'_l over X'_l = ops[fam][h][l], at [h][w]."""
        if fam not in self._combos:
            d, packed = self.d, self.packed
            self._combos[fam] = [
                [sum(d * wl * packed[x] for wl, x in zip(w, fh) if wl) for w in self.w]
                for fh in self.ops[fam]]
        return self._combos[fam]

    def residual(self, diff: int, e: int) -> Vector:
        """The m*m entries of a packed difference of two values that carry
        the scale D^2 e (e = E for a combination or a difference, 1 for a
        product), row-major and divided by that scale: the exact residual.
        Its entries are mostly zero, and those share ZERO."""
        width, scale = self.width, self.d * self.d * e
        mask, half = (1 << width) - 1, 1 << (width - 1)
        out = []
        for _ in range(self.m * self.m):
            x = ((diff + half) & mask) - half  # the balanced digit
            out.append(Fraction(x, scale) if x else ZERO)
            diff = (diff - x) >> width
        return tuple(out)


def check_module(M: OrdinaryModule) -> list[ModuleViolation]:
    """All axiom violations on basis pairs; empty iff M is a module.

    Both sides of each axiom are packed ints of the module's _ProductTable,
    read from its four product grids and its combinations by list index,
    and a failing axiom's exact residual is decoded from their difference.
    """
    L = M.algebra
    n, m = L.dim, M.vdim
    t = M._product_table
    FF, GF, FG, GG = (t.grid(a, b) for a, b in ((0, 0), (1, 0), (0, 1), (1, 1)))
    CF, CG = t.combos(0), t.combos(1)
    c, e = t.c, t.e
    out = []
    for k in range(L.s):
        for h in range(L.s):
            for i in range(n):
                hi, ki = h * n + i, k * n + i
                for j, w in enumerate(c[k][i]):
                    kj, hj = k * n + j, h * n + j
                    # each shared by two axioms
                    fhi_fkj, ghi_fkj = FF[hi][kj], GF[hi][kj]
                    sides = (
                        ("eq-1.3", CF[h][w], e * (fhi_fkj - FF[kj][hi]), e),
                        ("eq-1.4", CG[h][w], e * (ghi_fkj - FG[kj][hi]), e),
                        ("eq-1.5", GG[ki][hj], ghi_fkj, 1),
                        ("eq-1.5", ghi_fkj, GF[ki][hj], 1),
                        ("eq-1.6a", FF[ki][hj], fhi_fkj, 1),
                        ("eq-1.6b", FG[ki][hj], FG[hi][kj], 1),
                    )
                    for axiom, a, b, scale in sides:
                        if a != b:
                            r = t.residual(a - b, scale)
                            out.append(ModuleViolation(axiom, (k, h, i, j), Matrix(
                                r[p:p + m] for p in range(0, m * m, m))))
    return out


def check_algebra(L: LieLikeAlgebra) -> list[AlgebraViolation]:
    """All violations of the defining identities on basis triples.

    By multilinearity an empty result implies the identities for all
    x, y, z.  Both identities are read off the _ProductTable of the adjoint
    module, where G_k(x) = <x,.>_k and F_k(y) = -<.,y>_k: column l of

        G_h(<e_i,e_j>_k)                     is <<e_i,e_j>_k, e_l>_h,
        G_k(e_i)G_h(e_j) - F_k(e_j)G_h(e_i)  is <e_i,<e_j,e_l>_h>_k
                                                + <<e_i,e_l>_h, e_j>_k,
        G_k(<e_i,e_j>_h)                     is <<e_i,e_j>_h, e_l>_k,

    so a failing column l is the Jacobi-like (first two) or index-swap
    (first and last) identity at (i, j, l, k, h).
    """
    n = L.dim
    t = adjoint(L)._product_table
    FG, GG, CG = t.grid(0, 1), t.grid(1, 1), t.combos(1)
    c, e = t.c, t.e
    out = []
    for k in range(L.s):
        for h in range(L.s):
            for i in range(n):
                for j in range(n):
                    lhs = CG[h][c[k][i][j]]
                    rhs = e * (GG[k * n + i][h * n + j] - FG[k * n + j][h * n + i])
                    # the swap identity is symmetric in (k, h)
                    other = CG[k][c[h][i][j]] if h < k else lhs
                    if lhs == rhs == other:
                        continue
                    jacobi, swap = t.residual(lhs - rhs, e), t.residual(lhs - other, e)
                    for l in range(n):
                        for identity, r in (("jacobi-like", jacobi[l::n]),
                                            ("index-swap", swap[l::n])):
                            if any(r):
                                out.append(AlgebraViolation(identity, (i, j, l, k, h), r))
    return out


def check_derived_identities(M: OrdinaryModule) -> list[str]:
    """Every failure of f_h(<x,y>_k) = f_k(<x,y>_h) and the g analogue on
    basis pairs; empty iff both hold.

    These follow from the axioms over a valid algebra; a failure signals an
    internal inconsistency, never a user error, so it is listed rather than
    raised.  Each side is a combination of the module's _ProductTable, which
    check_module has usually built already.
    """
    L = M.algebra
    if L.s < 2:  # the identities pair two distinct indices
        return []
    t = M._product_table
    CF, CG, c = t.combos(0), t.combos(1), t.c
    failures = []
    for k in range(L.s):
        for h in range(k + 1, L.s):
            for i in range(L.dim):
                for j in range(L.dim):
                    wk, wh = c[k][i][j], c[h][i][j]
                    if CF[h][wk] != CF[k][wh]:
                        failures.append(f"f-swap at (k={k}, h={h}, i={i}, j={j})")
                    if CG[h][wk] != CG[k][wh]:
                        failures.append(f"g-swap at (k={k}, h={h}, i={i}, j={j})")
    return failures


def adjoint(L: LieLikeAlgebra) -> OrdinaryModule:
    """The adjoint module (L, -r_k, l_k) on the algebra itself."""
    return OrdinaryModule(L, L.dim, *bilinear_operators(L.constants, L.s))


def _annihilator_pairs(fs: Sequence[Matrix], gs: Sequence[Matrix]) -> list:
    """(g_h(z), f_0(z)) for every h and (f_k(z), f_0(z)) for k >= 1, from
    fs = (f_k(z)) and gs = (g_h(z)) for one algebra element z."""
    return [(op, fs[0]) for op in (*gs, *fs[1:])]


def plus_annihilator(M: OrdinaryModule) -> Subspace:
    """Span of (g_h(e_i) - f_k(e_i))(b) over all basis elements and indices.

    Since g_h - f_k = (g_h - f_0) - (f_k - f_0), the images of g_h - f_0
    for every h and of f_k - f_0 for k >= 1 span the same space: 2s - 1
    operators per basis index instead of s^2.
    """
    return Subspace.zero(M.vdim).plus_column_spaces(
        pair for i in range(M.algebra.dim)
        for pair in _annihilator_pairs([fk[i] for fk in M.F], [gh[i] for gh in M.G]))


def is_submodule(M: OrdinaryModule, U: Subspace) -> bool:
    """True iff every operator of the module maps U into U."""
    if U.ambient != M.vdim:
        raise DimensionMismatch("subspace ambient mismatch")
    return is_invariant((op for fam in (M.F, M.G) for fk in fam for op in fk), U)


def restrict_module(
    M: OrdinaryModule, A: Subspace, LA: LieLikeAlgebra
) -> OrdinaryModule:
    """Reindex the operator families to the canonical basis of a subalgebra."""
    if A.ambient != M.algebra.dim or LA.dim != A.dim or LA.s != M.algebra.s:
        raise DimensionMismatch("subalgebra does not match the subspace")
    F = tuple(
        tuple(M.f(k, b) for b in A.basis) for k in range(M.algebra.s)
    )
    G = tuple(
        tuple(M.g(k, b) for b in A.basis) for k in range(M.algebra.s)
    )
    return OrdinaryModule(LA, M.vdim, F, G)


def change_basis(M: OrdinaryModule, P: Matrix) -> OrdinaryModule:
    """Conjugate every operator by P (raises Singular when P is not)."""
    if P.nrows != M.vdim or P.ncols != M.vdim:
        raise DimensionMismatch("change of basis must be vdim*vdim")
    Pinv = inverse(P)
    conj = lambda X: P @ X @ Pinv
    F = tuple(tuple(conj(op) for op in fk) for fk in M.F)
    G = tuple(tuple(conj(op) for op in gk) for gk in M.G)
    return OrdinaryModule(M.algebra, M.vdim, F, G)


def direct_sum(M1: OrdinaryModule, M2: OrdinaryModule) -> OrdinaryModule:
    """Block-diagonal sum of two modules over the same algebra."""
    if M1.algebra != M2.algebra:
        raise DimensionMismatch("direct sum needs the same underlying algebra")
    F, G = (tuple(tuple(map(block_diagonal, a, b)) for a, b in zip(fam1, fam2))
            for fam1, fam2 in ((M1.F, M2.F), (M1.G, M2.G)))
    return OrdinaryModule(M1.algebra, M1.vdim + M2.vdim, F, G)
