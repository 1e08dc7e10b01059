"""Ordinary modules over Lie-like algebras.

A module stores the operator families in curried form: F[k][i] is the
matrix of f_k(e_i) and G[k][i] the matrix of g_k(e_i); linearity in the
algebra argument holds by construction.  The defining axioms are

    f_h(<x,y>_k) = [f_h(x), f_k(y)]                       (right maps)
    g_h(<x,y>_k) = [g_h(x), f_k(y)]                       (left maps)
    g_k(x)g_h(y) = g_h(x)f_k(y) = g_k(x)f_h(y)
    f_k(x)f_h(y) = f_h(x)f_k(y),  f_k(x)g_h(y) = f_h(x)g_k(y)

The algebra's own identities are checked here too: check_algebra reads
them off the product table of the adjoint module.  That table is the one
place here that holds integer rows; the annihilator only names operator
pairs for `Subspace.plus_column_spaces`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .algebra import AlgebraViolation, LieLikeAlgebra
from .errors import DimensionMismatch
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    _common_denominator,
    _int_combine,
    _int_matmul,
    _scaled_ints,
    _sparse,
    combine,
    inverse,
    is_invariant,
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


def _linear_combination(ops: Sequence[Matrix], z: Vector, m: int) -> Matrix:
    terms = [(zi, op.rows) for zi, op in zip(z, ops, strict=True) if zi]
    return Matrix([combine(((zi, rows[r]) for zi, rows in terms), m)
                   for r in range(m)])


@dataclass(frozen=True)
class ModuleViolation:
    """A failed module axiom at a basis pair and index pair."""

    axiom: str  # "eq-1.3" | "eq-1.4" | "eq-1.5" | "eq-1.6a" | "eq-1.6b"
    witness: tuple[int, int, int, int]  # (k, h, i, j)
    residual: Matrix


@dataclass(frozen=True)
class Report:
    """Outcome of a check that lists its failures instead of raising."""

    ok: bool
    failures: tuple[str, ...] = ()


class _ProductTable:
    """Integer images of one module's operators, for the life of one check.

    Every operator X is held as X' = D*X, D the lcm of all operator
    denominators, read off its own integer form d*X as (D/d)(d*X); every
    structure constant w is held as E*w, E the lcm of theirs.  Equal
    operators and equal constants share one index.  Products X'Y' (D^2 XY)
    and combinations D * sum_l (E w_l) X'_l (D^2 E sum_l w_l X_l) are
    computed on first use and kept.
    """

    def __init__(self, M: OrdinaryModule):
        fams = (M.F, M.G)
        self.d = d = lcm(*(op._integer()[0] for fam in fams for fk in fam for op in fk))
        self.rows: list[tuple] = []  # sparse rows of each distinct X'
        self.flat: list[tuple] = []  # sparse row-major entries of each X'
        op_ids: dict[tuple, int] = {}

        def op_index(op: Matrix) -> int:
            dx, key = op._integer()
            if dx != d:
                f = d // dx
                key = tuple(tuple(f * x for x in r) for r in key)
            if key not in op_ids:
                op_ids[key] = len(self.rows)
                self.rows.append(tuple(_sparse(r) for r in key))
                self.flat.append(_sparse(x for r in key for x in r))
            return op_ids[key]

        # ops[0][k][i] indexes F[k][i], ops[1][k][i] indexes G[k][i]
        self.ops = tuple(
            tuple(tuple(op_index(op) for op in fk) for fk in fam) for fam in fams)
        L = M.algebra
        self.e = e = _common_denominator(
            x for tk in L.c for ti in tk for w in ti for x in w)
        w_ids: dict[tuple, int] = {}
        self.c = tuple(
            tuple(tuple(w_ids.setdefault(_scaled_ints(w, e), len(w_ids)) for w in ti)
                  for ti in tk)
            for tk in L.c)
        self.w = list(w_ids)  # each distinct E*w, by index
        self.m = M.vdim
        self._products: dict[tuple[int, int], list[int]] = {}
        self._combos: dict[tuple[int, int, int], list[int]] = {}

    def product(self, x: int, y: int) -> list[int]:
        """X'Y', row-major."""
        key = (x, y)
        if key not in self._products:
            self._products[key] = _int_matmul(self.rows[x], self.rows[y], self.m)
        return self._products[key]

    def difference(self, x: int, y: int, z: int, u: int) -> list[int]:
        """E * (X'Y' - Z'U'), on the scale of `combo`."""
        e = self.e
        return [e * (a - b) for a, b in zip(self.product(x, y), self.product(z, u))]

    def combo(self, fam: int, h: int, w: int) -> list[int]:
        """D * sum_l (E w_l) X'_l over X'_l = ops[fam][h][l], row-major."""
        key = (fam, h, w)
        if key not in self._combos:
            d, flat = self.d, self.flat
            terms = ((d * wl, flat[x]) for wl, x in zip(self.w[w], self.ops[fam][h]))
            self._combos[key] = _int_combine(terms, self.m * self.m)
        return self._combos[key]

    def residual(self, a: Sequence[int], b: Sequence[int], e: int) -> Vector:
        """(A - B) / (D^2 e) entrywise: the exact difference of two rows that
        carry the scale D^2 e (e = E for a combination, 1 for a product)."""
        scale = self.d * self.d * e
        return tuple(Fraction(x - y, scale) for x, y in zip(a, b))


def check_module(M: OrdinaryModule) -> list[ModuleViolation]:
    """All axiom violations on basis pairs; empty iff M is a module.

    Both sides of each axiom are rows of int over one _ProductTable, and
    a failing axiom's exact residual is read off the same two rows.
    """
    L = M.algebra
    m = M.vdim
    t = _ProductTable(M)
    (F, G), c, P, e = t.ops, t.c, t.product, t.e
    out = []
    for k in range(L.s):
        for h in range(L.s):
            for i in range(L.dim):
                for j in range(L.dim):
                    # each shared by two axioms
                    fhi_fkj = P(F[h][i], F[k][j])
                    ghi_fkj = P(G[h][i], F[k][j])
                    sides = (
                        ("eq-1.3", t.combo(0, h, c[k][i][j]),
                         t.difference(F[h][i], F[k][j], F[k][j], F[h][i]), e),
                        ("eq-1.4", t.combo(1, h, c[k][i][j]),
                         t.difference(G[h][i], F[k][j], F[k][j], G[h][i]), e),
                        ("eq-1.5", P(G[k][i], G[h][j]), ghi_fkj, 1),
                        ("eq-1.5", ghi_fkj, P(G[k][i], F[h][j]), 1),
                        ("eq-1.6a", P(F[k][i], F[h][j]), fhi_fkj, 1),
                        ("eq-1.6b", P(F[k][i], G[h][j]), P(F[h][i], G[k][j]), 1),
                    )
                    for axiom, a, b, scale in sides:
                        if a != b:
                            r = t.residual(a, b, scale)
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
    t = _ProductTable(adjoint(L))
    (F, G), c = t.ops, t.c
    out = []
    for k in range(L.s):
        for h in range(L.s):
            for i in range(n):
                for j in range(n):
                    lhs = t.combo(1, h, c[k][i][j])
                    rhs = t.difference(G[k][i], G[h][j], F[k][j], G[h][i])
                    # the swap identity is symmetric in (k, h)
                    other = t.combo(1, k, c[h][i][j]) if h < k else lhs
                    if lhs == rhs and lhs == other:
                        continue
                    for l in range(n):
                        a = lhs[l::n]
                        for identity, b in (("jacobi-like", rhs[l::n]),
                                            ("index-swap", other[l::n])):
                            if a != b:
                                out.append(AlgebraViolation(
                                    identity, (i, j, l, k, h), t.residual(a, b, t.e)))
    return out


def check_derived_identities(M: OrdinaryModule) -> Report:
    """Confirm f_h(<x,y>_k) = f_k(<x,y>_h) and the g analogue.

    These follow from the axioms over a valid algebra; a failure signals an
    internal inconsistency, never a user error, so the outcome is reported
    rather than raised.
    """
    L = M.algebra
    if L.s < 2:  # the identities pair two distinct indices
        return Report(True)
    t = _ProductTable(M)
    failures = []
    for k in range(L.s):
        for h in range(k + 1, L.s):
            for i in range(L.dim):
                for j in range(L.dim):
                    wk, wh = t.c[k][i][j], t.c[h][i][j]
                    if t.combo(0, h, wk) != t.combo(0, k, wh):
                        failures.append(f"f-swap at (k={k}, h={h}, i={i}, j={j})")
                    if t.combo(1, h, wk) != t.combo(1, k, wh):
                        failures.append(f"g-swap at (k={k}, h={h}, i={i}, j={j})")
    return Report(not failures, tuple(failures))


def adjoint(L: LieLikeAlgebra) -> OrdinaryModule:
    """The adjoint module (L, -r_k, l_k) on the algebra itself."""
    n = L.dim
    F, G = [], []
    for k in range(L.s):
        fk, gk = [], []
        for i in range(n):
            # a -> -<a, e_i>_k has columns -c[k][j][i]
            fk.append(Matrix.from_columns(
                [tuple(-x for x in L.c[k][j][i]) for j in range(n)], n))
            # a -> <e_i, a>_k has columns c[k][i][j]
            gk.append(Matrix.from_columns(list(L.c[k][i]), n))
        F.append(tuple(fk))
        G.append(tuple(gk))
    return OrdinaryModule(L, n, tuple(F), tuple(G))


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
    m1, m2 = M1.vdim, M2.vdim

    def block(a: Matrix, b: Matrix) -> Matrix:
        rows = [list(r) + [0] * m2 for r in a.rows]
        rows += [[0] * m1 + list(r) for r in b.rows]
        return Matrix(rows)

    F = tuple(
        tuple(block(x, y) for x, y in zip(f1, f2))
        for f1, f2 in zip(M1.F, M2.F)
    )
    G = tuple(
        tuple(block(x, y) for x, y in zip(g1, g2))
        for g1, g2 in zip(M1.G, M2.G)
    )
    return OrdinaryModule(M1.algebra, m1 + m2, F, G)
