"""Lie-like algebras given by structure constants.

An algebra of dimension n carries a family of brackets <.,.>_k for
k = 0..s-1, given by the constants c[k][i][j] = <e_i, e_j>_k.  The defining
identities are the Jacobi-like identity

    <<x,y>_k, z>_h = <x, <y,z>_h>_k + <<x,z>_h, y>_k

and the index-swap identity <<x,y>_k, z>_h = <<x,y>_h, z>_k.

The constants are the algebra's one state: a `Matrix`, `constants`, with row
(k*n + i)*n + j the vector c[k][i][j].  Every bracket and bracket span reads
it; the nested view `c` is built from it on each read.

Codimension-1 splits run on subalgebras A held as subspaces of L: each
spans A's brackets once, as D^2 A, and an elimination on the at most
dim A column-reversed coordinate rows of D^2 A's basis decides how A's
basis extends it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .errors import DimensionMismatch, NotClosed, NotSolvable
from .linalg import (
    ZERO, Matrix, Subspace, Vector, bilinear, bilinear_span, vec, zero_vec)

Tensor = tuple[tuple[Vector, ...], ...]  # [i][j] -> coordinate vector


@dataclass(frozen=True)
class LieLikeAlgebra:
    """Structure-constant presentation of a Lie-like algebra: row
    (k*dim + i)*dim + j of `constants` is c[k][i][j]."""

    dim: int
    s: int
    constants: Matrix

    def __post_init__(self):
        if self.dim < 0 or self.s < 0 or (self.s < 1 and self.dim > 0):
            raise DimensionMismatch("need s >= 1 unless dim = 0")
        if not isinstance(self.constants, Matrix):
            raise TypeError("structure constants must be a Matrix")
        n = self.dim
        if (self.constants.nrows, self.constants.ncols) != (self.s * n * n, n):
            raise DimensionMismatch("structure constants must be (s*n*n) x n")

    @classmethod
    def from_constants(
        cls, dim: int, s: int, entries: Mapping[tuple[int, int, int], Iterable]
    ) -> "LieLikeAlgebra":
        """Sparse builder: unspecified (k, i, j) brackets are zero."""
        rows = [zero_vec(dim)] * (s * dim * dim)
        for (k, i, j), v in entries.items():
            if not (0 <= k < s and 0 <= i < dim and 0 <= j < dim):
                raise DimensionMismatch(f"bracket index {(k, i, j)} out of range")
            rows[(k * dim + i) * dim + j] = vec(v)
        return cls(dim, s, Matrix(rows))

    @property
    def c(self) -> tuple[Tensor, ...]:
        """The constants as c[k][i][j], built from `constants` on each read."""
        n, rows = self.dim, self.constants.rows
        return tuple(tuple(rows[(k * n + i) * n:(k * n + i + 1) * n] for i in range(n))
                     for k in range(self.s))


@dataclass(frozen=True)
class AlgebraViolation:
    """A failed defining identity at a basis triple and index pair."""

    identity: str  # "jacobi-like" | "index-swap"
    witness: tuple[int, int, int, int, int]  # (i, j, l, k, h)
    residual: Vector


def bracket(L: LieLikeAlgebra, x: Vector, y: Vector, k: int) -> Vector:
    """Bilinear extension of the structure constants."""
    if k < 0 or k >= L.s:
        raise DimensionMismatch("bracket index out of range")
    if len(x) != L.dim or len(y) != L.dim:
        raise DimensionMismatch("bracket operands have wrong length")
    return bilinear(L.constants, k, x, y)


def is_trivial(L: LieLikeAlgebra) -> tuple[bool, tuple[int, tuple] | None]:
    """Whether all brackets are scalar multiples of a single bracket.

    Returns (True, (base_index, scalars)) with c[k] = scalars[k] * c[base]
    when trivial, (False, None) otherwise.  An algebra with s = 1 or with
    all constants zero is always trivial.
    """
    n2, rows = L.dim * L.dim, L.constants.rows
    flats = [[x for v in rows[k * n2:(k + 1) * n2] for x in v] for k in range(L.s)]
    line = Subspace.span(L.dim ** 3, flats)
    if line.dim > 1:
        return False, None
    # each flat is a multiple of the line's basis row, read at its pivot p
    p = line.pivots[0] if line.dim else None
    base = next((k for k, f in enumerate(flats) if p is not None and f[p]), 0)
    return True, (base, tuple(ZERO if p is None else f[p] / flats[base][p] for f in flats))


def is_ideal(L: LieLikeAlgebra, I: Subspace) -> bool:
    """True iff <I, L>_k and <L, I>_k land in I for every k."""
    if I.ambient != L.dim:
        raise DimensionMismatch("subspace ambient mismatch")
    full = Subspace.full(L.dim)
    return all(I.add(bilinear_span(L.constants, a, b)) == I for a, b in ((I, full), (full, I)))


def derived_algebra(L: LieLikeAlgebra) -> Subspace:
    """D^2 L = sum_k <L, L>_k: the span of every structure-constant vector."""
    full = Subspace.full(L.dim)
    return bilinear_span(L.constants, full, full)


def derived_series(L: LieLikeAlgebra) -> list[Subspace]:
    """D^1 L = L, D^{n+1} L = sum_k <D^n L, D^n L>_k, up to stabilization."""
    series = [Subspace.full(L.dim)]
    nxt = derived_algebra(L)
    while nxt != series[-1]:
        series.append(nxt)
        nxt = bilinear_span(L.constants, nxt, nxt)
    return series


def is_solvable(L: LieLikeAlgebra) -> tuple[bool, int]:
    """Solvability with the first n such that D^n L = 0 (or the depth at
    which the series stabilizes at a nonzero subspace)."""
    series = derived_series(L)
    return series[-1].dim == 0, len(series)


def split_codim1(L: LieLikeAlgebra) -> tuple[Subspace, Vector]:
    """An ideal A of codimension 1 containing D^2 L, plus x with L = A + kx.

    Deterministic: the canonical basis of D^2 L is extended by standard
    basis vectors in index order; x is the last vector appended.
    """
    if L.dim < 1:
        raise DimensionMismatch("split needs dim >= 1")
    return _split_codim1(L, Subspace.full(L.dim))


def _split_codim1(L: LieLikeAlgebra, A: Subspace) -> tuple[Subspace, Vector]:
    """split_codim1 of a nonzero subalgebra A of L, with A's canonical basis
    for the standard one: basis vector i is appended iff no vector of D^2 A
    has its last nonzero coordinate (entries at A's pivots) at i."""
    m, basis = A.dim, A.basis
    d2a = bilinear_span(L.constants, A, A)
    # D^2 A lies in A, so its coordinates are its entries at A's pivots
    rev = Subspace.span(m, [[w[p] for p in reversed(A.pivots)] for w in d2a.basis])
    appended = [i for i in range(m) if m - 1 - i not in rev.pivots]
    if not appended:
        raise NotSolvable("D^2 L = L blocks the codimension-1 split")
    ideal = d2a.add(Subspace.span(L.dim, [basis[i] for i in appended[:-1]]))
    return ideal, basis[appended[-1]]


def restrict_algebra(L: LieLikeAlgebra, A: Subspace) -> LieLikeAlgebra:
    """Structure constants of a bracket-closed subspace in its own basis."""
    if A.ambient != L.dim:
        raise DimensionMismatch("subspace ambient mismatch")
    return in_basis(L, A.basis, A.coords)


def in_basis(
    L: LieLikeAlgebra, basis: Sequence[Vector], coords: Callable[[Vector], Vector | None]
) -> LieLikeAlgebra:
    """The constants of L in a basis b_i of a bracket-closed subspace, the
    b_i given in L's coordinates and coords(v) the coordinates of v in that
    basis: c'[k][i][j] = coords(<b_i, b_j>_k).  Raises NotClosed where
    coords returns None."""
    rows = [coords(bracket(L, bi, bj, k)) for k in range(L.s) for bi in basis for bj in basis]
    if any(w is None for w in rows):
        raise NotClosed("subspace is not closed under the brackets")
    return LieLikeAlgebra(len(basis), L.s, Matrix(rows))
