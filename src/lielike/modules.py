"""Ordinary modules over Lie-like algebras.

A module stores the operator families in curried form: F[k][i] is the
matrix of f_k(e_i) and G[k][i] the matrix of g_k(e_i); linearity in the
algebra argument holds by construction.  The defining axioms are

    f_h(<x,y>_k) = [f_h(x), f_k(y)]                       (right maps)
    g_h(<x,y>_k) = [g_h(x), f_k(y)]                       (left maps)
    g_k(x)g_h(y) = g_h(x)f_k(y) = g_k(x)f_h(y)
    f_k(x)f_h(y) = f_h(x)f_k(y),  f_k(x)g_h(y) = f_h(x)g_k(y)
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .algebra import LieLikeAlgebra, _integer_constants
from .errors import DimensionMismatch
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    _common_denominator,
    _int_combine,
    _int_matmul,
    _reduce,
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
    denominators, and every structure constant w as E*w, E the lcm of
    theirs; equal operators and equal constants share one index.  Products
    X'Y' (D^2 XY) and combinations D * sum_l (E w_l) X'_l (D^2 E sum_l w_l X_l)
    are computed on first use and kept.
    """

    def __init__(self, M: OrdinaryModule):
        ops = [op for fam in (M.F, M.G) for fk in fam for op in fk]
        self.d = d = _common_denominator(x for op in ops for r in op.rows for x in r)
        self.e, C = _integer_constants(M.algebra)
        self.rows: list[tuple] = []  # sparse rows of each distinct X'
        self.flat: list[tuple] = []  # sparse row-major entries of each X'
        op_ids: dict[tuple, int] = {}

        def op_index(op: Matrix) -> int:
            key = tuple(_scaled_ints(r, d) for r in op.rows)
            if key not in op_ids:
                op_ids[key] = len(self.rows)
                self.rows.append(tuple(_sparse(r) for r in key))
                self.flat.append(_sparse(x for r in key for x in r))
            return op_ids[key]

        # ops[0][k][i] indexes F[k][i], ops[1][k][i] indexes G[k][i]
        self.ops = tuple(
            tuple(tuple(op_index(op) for op in fk) for fk in fam)
            for fam in (M.F, M.G))
        w_ids: dict[tuple, int] = {}
        self.c = tuple(
            tuple(tuple(w_ids.setdefault(w, len(w_ids)) for w in ti) for ti in tk)
            for tk in C)
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

    def commutator(self, x: int, y: int) -> list[int]:
        """E * (X'Y' - Y'X'), on the scale of `combo`."""
        e = self.e
        return [e * (a - b) for a, b in zip(self.product(x, y), self.product(y, x))]

    def combo(self, fam: int, h: int, w: int) -> list[int]:
        """D * sum_l (E w_l) X'_l over X'_l = ops[fam][h][l], row-major."""
        key = (fam, h, w)
        if key not in self._combos:
            d, flat = self.d, self.flat
            terms = ((d * wl, flat[x]) for wl, x in zip(self.w[w], self.ops[fam][h]))
            self._combos[key] = _int_combine(terms, self.m * self.m)
        return self._combos[key]


# the module axioms in the order check_module lists them at one (k, h, i, j)
_AXIOMS = ("eq-1.3", "eq-1.4", "eq-1.5", "eq-1.5", "eq-1.6a", "eq-1.6b")


def _residuals(M: OrdinaryModule, k: int, h: int, i: int, j: int) -> tuple:
    """The exact residual of each of _AXIOMS at (k, h, i, j), deferred."""
    F, G, w = M.F, M.G, M.algebra.c[k][i][j]
    return (
        lambda: M.f(h, w) - (F[h][i] @ F[k][j] - F[k][j] @ F[h][i]),
        lambda: M.g(h, w) - (G[h][i] @ F[k][j] - F[k][j] @ G[h][i]),
        lambda: G[k][i] @ G[h][j] - G[h][i] @ F[k][j],
        lambda: G[h][i] @ F[k][j] - G[k][i] @ F[h][j],
        lambda: F[k][i] @ F[h][j] - F[h][i] @ F[k][j],
        lambda: F[k][i] @ G[h][j] - F[h][i] @ G[k][j],
    )


def check_module(M: OrdinaryModule) -> list[ModuleViolation]:
    """All axiom violations on basis pairs; empty iff M is a module.

    Each axiom is compared as a row of int over one _ProductTable; only
    a failing axiom gets its exact residual.
    """
    L = M.algebra
    n, s = L.dim, L.s
    t = _ProductTable(M)
    (F, G), c, P = t.ops, t.c, t.product
    out = []
    for k in range(s):
        for h in range(s):
            for i in range(n):
                for j in range(n):
                    # each shared by two axioms
                    fhi_fkj = P(F[h][i], F[k][j])
                    ghi_fkj = P(G[h][i], F[k][j])
                    holds = (
                        t.combo(0, h, c[k][i][j]) == t.commutator(F[h][i], F[k][j]),
                        t.combo(1, h, c[k][i][j]) == t.commutator(G[h][i], F[k][j]),
                        P(G[k][i], G[h][j]) == ghi_fkj,
                        ghi_fkj == P(G[k][i], F[h][j]),
                        P(F[k][i], F[h][j]) == fhi_fkj,
                        P(F[k][i], G[h][j]) == P(F[h][i], G[k][j]),
                    )
                    if all(holds):
                        continue
                    residuals = _residuals(M, k, h, i, j)
                    out.extend(
                        ModuleViolation(axiom, (k, h, i, j), residual())
                        for axiom, residual, ok in zip(_AXIOMS, residuals, holds)
                        if not ok
                    )
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


def plus_annihilator(M: OrdinaryModule) -> Subspace:
    """Span of (g_h(e_i) - f_k(e_i))(b) over all basis elements and indices.

    Since g_h - f_k = (g_h - f_0) - (f_k - f_0), the images of g_h - f_0
    for every h and of f_k - f_0 for k >= 1 span the same space: 2s - 1
    operators per basis index instead of s^2.
    """
    gens = []
    for i in range(M.algebra.dim):
        d0, f0 = M.F[0][i]._integer()
        for op in [*(gh[i] for gh in M.G), *(fk[i] for fk in M.F[1:])]:
            d, rows = op._integer()
            # the columns of lcm(d, d0) (op - f0), as integer rows
            a, b = d0 // gcd(d, d0), d // gcd(d, d0)
            gens.extend(zip(*([a * u - b * v for u, v in zip(r, r0)]
                              for r, r0 in zip(rows, f0))))
    return Subspace(M.vdim, *_reduce(gens))


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
