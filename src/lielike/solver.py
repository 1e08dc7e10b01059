"""Constructive generalized Lie's theorem for solvable Lie-like algebras,
with an independent brute-force oracle.

The main entry point `solve` follows the inductive proof along a flag
x_1, ..., x_n computed once, each A_j = span(x_1..x_j) an ideal of
codimension 1 in A_{j+1}, split off it as a subspace of L.  Level j holds
the joint weight space U of the functionals found over A_{j-1} and
branches on whether it meets the plus annihilator of A_j.
U grows level by level: where the new functionals extend the old, it is
the old U cut by the eigen-steps of x_{j-1}'s operators; else it is
computed afresh from all of Q^m.  In case 2 those eigen-steps are the
ones the level took for its joint eigenvector, so the joint eigenspace is
carried up as the next U and no eigen-step is taken twice.
The result is a nonzero vector v and functionals phi_k, psi_k with
f_k(z)v = phi_k(z)v and g_k(z)v = psi_k(z)v, satisfying the dichotomy: all
psi_k vanish or phi_k = psi_k for every k.  The solver works on `Matrix`
and `Subspace` values only; their integer rows stay inside `linalg`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import LieLikeAlgebra, _split_codim1, is_solvable
from .errors import (
    DimensionMismatch,
    NonSplitSpectrum,
    NotInvariant,
    NotSolvable,
    TheoremViolation,
)
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    common_eigenspace,
    eigenspace,
    inverse,
    is_common_eigenvector,
    is_zero_vec,
    joint_eigenspace,
    joint_eigenvector,
    rational_eigenvalues,
    unit_vec,
    zero_vec,
)
from .modules import OrdinaryModule, _annihilator_pairs

Grid = tuple[Vector, ...]  # s rows of functional values on a basis

# branch tags recorded per level, top level (A_n = L) first
TAG_ANN_G_ZERO = "ann-nonzero/g-zero"
TAG_ANN_G_NONZERO = "ann-nonzero/g-nonzero"
TAG_CASE_1 = "case-1"
TAG_CASE_2 = "case-2"

DICHOTOMY_BOTH = "both"
DICHOTOMY_PSI_ZERO = "psi-zero"
DICHOTOMY_PHI_EQ_PSI = "phi-equals-psi"
DICHOTOMY_VIOLATION = "violation"


@dataclass(frozen=True)
class Weight:
    """Functionals phi_k, psi_k stored as value rows on a basis."""

    phi: Grid
    psi: Grid


@dataclass(frozen=True)
class SolveResult:
    """A weight vector, its functionals, and the proof path that found it."""

    v: Vector
    weight: Weight
    dichotomy: str
    branch_trace: tuple[str, ...]


def check_dichotomy(w: Weight) -> str:
    psi_zero = all(is_zero_vec(row) for row in w.psi)
    phi_eq = w.phi == w.psi
    if psi_zero and phi_eq:
        return DICHOTOMY_BOTH
    if psi_zero:
        return DICHOTOMY_PSI_ZERO
    if phi_eq:
        return DICHOTOMY_PHI_EQ_PSI
    return DICHOTOMY_VIOLATION


def verify_weight(M: OrdinaryModule, v: Vector, w: Weight) -> bool:
    """Exact check that v != 0, f_k(e_i)v = phi_k(e_i)v and the g analogue."""
    if len(v) != M.vdim:
        raise DimensionMismatch("v must have the module's dimension")
    return is_common_eigenvector(_weight_pairs(M.F, M.G, w, 0), v)


def weight_space(
    vdim: int, F: Sequence[Sequence[Matrix]], G: Sequence[Sequence[Matrix]], w: Weight
) -> Subspace:
    """Joint space of the functionals on the operators of a basis z_i of a
    subalgebra, F[k][i] = f_k(z_i) and G[k][i] = g_k(z_i) on Q^vdim: the
    intersection of ker(F[k][i] - phi_k(z_i) I) and ker(G[k][i] - psi_k(z_i) I)
    over every k and i, with w holding the values phi_k(z_i), psi_k(z_i)."""
    return common_eigenspace(_weight_pairs(F, G, w, 0), Subspace.full(vdim))


def _weight_pairs(F, G, w: Weight, start: int):
    """The (operator, value) pairs of w from z_start on: F[k][i] with
    phi_k(z_i), then G[k][i] with psi_k(z_i), by k, then i."""
    return (
        (fam[k][i], grid[k][i])
        for k in range(len(F))
        for i in range(start, len(F[k]))
        for fam, grid in ((F, w.phi), (G, w.psi))
    )


def _next_weight_space(U: Subspace, held: Weight, FA, GA, w: Weight) -> Subspace:
    """weight_space(U.ambient, FA, GA, w) from U, the weight space of `held`
    on the first z's: where w extends `held`, the eigen-steps of the other
    z's inside U; otherwise from the whole space."""
    start = len(held.phi[0])
    if all(new[:start] == old for new, old in zip(w.phi + w.psi, held.phi + held.psi)):
        return common_eigenspace(_weight_pairs(FA, GA, w, start), U)
    return weight_space(U.ambient, FA, GA, w)


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

def solve(L: LieLikeAlgebra, M: OrdinaryModule) -> SolveResult:
    """The generalized Lie's theorem, constructively.

    Requires L solvable and M a valid module with vdim >= 1.  The output is
    deterministic, including the branch trace.
    """
    if M.vdim < 1:
        raise DimensionMismatch("solve needs a nonzero module")
    m, s = M.vdim, L.s
    xs = _flag(L)  # an unsolvable L raises NotSolvable here, before any eigen-step
    F = [[M.f(k, x) for x in xs] for k in range(s)]
    G = [[M.g(k, x) for x in xs] for k in range(s)]
    # the answer over A_0 = 0; over A_j the functionals are held as their
    # values on x_1..x_j, and ann is the plus annihilator of A_j
    v = unit_vec(m, 0)
    phi = psi = tuple(() for _ in range(s))
    ann = Subspace.zero(m)
    # U is the weight space of the functionals `held`: over A_0, all of Q^m
    U, held = Subspace.full(m), Weight(phi, psi)
    trace: list[str] = []
    for j in range(len(xs)):
        FA, GA = [fk[:j] for fk in F], [gk[:j] for gk in G]
        Fx, Gx = [fk[j] for fk in F], [gk[j] for gk in G]
        w = Weight(phi, psi)
        U, held = _next_weight_space(U, held, FA, GA, w), w
        if U.dim == 0 or not U.contains(v):
            raise TheoremViolation("recursive weight space lost its weight vector")
        ann = ann.plus_column_spaces(_annihilator_pairs(Fx, Gx))

        meet, tags = U.intersect(ann), []
        w_tilde = None if meet.dim else _case1_witness(U, Fx, Gx)
        if w_tilde is not None:
            # Case 1: branch (i) on the space of the zero psi
            psi = tuple(zero_vec(j) for _ in range(s))
            meet = weight_space(m, FA, GA, Weight(phi, psi)).intersect(ann)
            if not meet.contains(w_tilde):
                raise TheoremViolation("case-1 witness left the expected space")
            tags = [TAG_CASE_1]
        if meet.dim > 0:
            v, phi, psi, tag = _annihilator_branch(Fx, Gx, meet, phi, psi)
        else:
            # Case 2: f_h(x) = g_h(x) on all of U
            try:
                u_lam, lams = joint_eigenspace(Fx, U)
            except NotInvariant as exc:
                raise TheoremViolation("f_k(x) must preserve the weight space") from exc
            try:
                space, mus = joint_eigenspace(Gx, u_lam)
            except NotInvariant as exc:
                raise TheoremViolation(
                    "g_k(x) must preserve the joint eigenspace in case 2"
                ) from exc
            phi, psi, tag = _extend(phi, lams), _extend(psi, mus), TAG_CASE_2
            # the joint eigenspace in U is the weight space over A_{j+1}:
            # carried up, it leaves the next level no eigen-step to take
            U, held = space, Weight(phi, psi)
            v = U.basis[0]
        trace[:0] = tags + [tag]

    # row j of B is x_j, so the values on the x's are B phi
    B_inv = inverse(Matrix(xs))
    w = Weight(*(tuple(B_inv.apply(row) for row in grid) for grid in (phi, psi)))
    if not verify_weight(M, v, w):
        raise TheoremViolation("solver produced a vector that fails Eq (36)")
    return SolveResult(v, w, check_dichotomy(w), tuple(trace))


def _flag(L: LieLikeAlgebra) -> list[Vector]:
    """x_1, ..., x_n in L's coordinates, each A_j = span(x_1..x_j) an ideal
    of codimension 1 in A_{j+1}, split off it as a subspace of L."""
    A, xs = Subspace.full(L.dim), []
    while A.dim:
        A, x = _split_codim1(L, A)
        xs.append(x)
    return xs[::-1]


def _extend(grid: Grid, values: Sequence[Fraction]) -> Grid:
    """Append each functional's value on the next x."""
    return tuple(row + (Fraction(lam),) for row, lam in zip(grid, values, strict=True))


def _annihilator_branch(Fx, Gx, meet, phi, psi):
    """Branch (i): a common f-eigenvector inside U meet the annihilator."""
    try:
        v0, lams = joint_eigenvector(Fx, meet)
    except NotInvariant as exc:
        raise TheoremViolation("f_k(x) must preserve U meet the annihilator") from exc
    images = [g.apply(v0) for g in Gx]
    h0 = next((h for h, img in enumerate(images) if not is_zero_vec(img)), None)
    if h0 is None:
        return v0, _extend(phi, lams), _extend(psi, [0] * len(Gx)), TAG_ANN_G_ZERO
    zero = tuple(zero_vec(len(row) + 1) for row in phi)
    return images[h0], zero, zero, TAG_ANN_G_NONZERO


def _case1_witness(U: Subspace, Fx, Gx) -> Vector | None:
    """(f_h(x) - g_h(x))w for the first basis vector w of U, then the
    smallest h, where it is nonzero; None when f and g agree on U."""
    diffs = [f - g for f, g in zip(Fx, Gx)]
    for wvec in U.basis:
        for d in diffs:
            w_tilde = d.apply(wvec)
            if not is_zero_vec(w_tilde):
                return w_tilde
    return None


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def oracle_solve(
    L: LieLikeAlgebra, M: OrdinaryModule
) -> list[tuple[Subspace, Weight]]:
    """Every maximal joint weight space, by exhaustive search over the full
    operator family (all f's by (k, i), then all g's): each front is cut by
    the eigen-step, inside it, of each rational eigenvalue of the next
    operator, and empty cuts are pruned.  Independent of the solver's logic.
    When no space survives, raises NonSplitSpectrum if some operator has
    an irrational spectrum, else NotSolvable if the algebra is not solvable.
    """
    n, s, m = L.dim, L.s, M.vdim
    if m < 1:
        raise DimensionMismatch("oracle needs a nonzero module")
    ops = [M.F[k][i] for k in range(s) for i in range(n)]
    ops += [M.G[k][i] for k in range(s) for i in range(n)]
    fronts: list[tuple[Subspace, tuple[Fraction, ...]]] = [(Subspace.full(m), ())]
    saw_nonsplit = False
    for op in ops:
        roots, fully = rational_eigenvalues(op)
        if not fully:
            saw_nonsplit = True
        fronts = [
            (cut, assignment + (lam,))
            for space, assignment in fronts
            for lam, _ in roots
            if (cut := eigenspace(op, lam, space)).dim > 0
        ]
        if not fronts:
            break
    if not fronts:
        if saw_nonsplit:
            raise NonSplitSpectrum("some operator has an irrational spectrum")
        if not is_solvable(L)[0]:
            raise NotSolvable("no joint weight space: the algebra is not solvable")
        raise TheoremViolation("no joint weight space found on a valid instance")
    results = []
    for space, assignment in fronts:
        # the values by operator: s rows of n for the f's, then for the g's
        rows = tuple(assignment[r * n:(r + 1) * n] for r in range(2 * s))
        results.append((space, Weight(rows[:s], rows[s:])))
    return results
