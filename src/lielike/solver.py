"""Constructive generalized Lie's theorem for solvable Lie-like algebras,
with the supporting lemma checks and an independent brute-force oracle.

The main entry point `solve` follows the inductive proof: split off a
codimension-1 ideal, solve over the ideal, form the joint weight space of
the returned functionals, and branch on whether it meets the plus
annihilator.  The result is a nonzero vector v and functionals phi_k,
psi_k with f_k(z)v = phi_k(z)v and g_k(z)v = psi_k(z)v, satisfying the
dichotomy: all psi_k vanish or phi_k = psi_k for every k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import (
    LieLikeAlgebra,
    bracket,
    derived_algebra,
    is_solvable,
    restrict_algebra,
    split_codim1,
)
from .errors import (
    DimensionMismatch,
    NonSplitSpectrum,
    NormalizerPreconditionFailed,
    NotInvariant,
    NotSolvable,
    SetupInvalid,
    TheoremViolation,
)
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    commutator,
    common_eigenspace,
    eigenspace,
    inverse,
    is_invariant,
    is_zero_vec,
    joint_eigenspace,
    joint_eigenvector,
    rational_eigenvalues,
    unit_vec,
    vdot,
    vec,
    zero_vec,
)
from .modules import OrdinaryModule, Report, plus_annihilator, restrict_module

Grid = tuple[Vector, ...]  # s rows of functional values on a basis

# branch tags recorded per recursion level, outermost level first
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
    """Exact check of f_k(e_i)v = phi_k(e_i)v and the g analogue."""
    if is_zero_vec(v):
        return False
    for k in range(M.algebra.s):
        for i in range(M.algebra.dim):
            if M.F[k][i].apply(v) != tuple(w.phi[k][i] * x for x in v):
                return False
            if M.G[k][i].apply(v) != tuple(w.psi[k][i] * x for x in v):
                return False
    return True


def weight_space(M: OrdinaryModule, w: Weight) -> Subspace:
    """Joint space of the functionals on M's own basis operators: the
    intersection of ker(F[k][i] - phi_k(e_i) I) and ker(G[k][i] - psi_k(e_i) I)
    over every k and i."""
    pairs = (
        (fam[k][i], grid[k][i])
        for k in range(M.algebra.s)
        for i in range(M.algebra.dim)
        for fam, grid in ((M.F, w.phi), (M.G, w.psi))
    )
    return common_eigenspace(pairs, Subspace.full(M.vdim))


# ---------------------------------------------------------------------------
# the recursive solver
# ---------------------------------------------------------------------------

def solve(L: LieLikeAlgebra, M: OrdinaryModule) -> SolveResult:
    """The generalized Lie's theorem, constructively.

    Requires L solvable and M a valid module with vdim >= 1.  The output is
    deterministic, including the branch trace.
    """
    return _checked_solve(L, M, None)


def _checked_solve(L: LieLikeAlgebra, M: OrdinaryModule, ann: Subspace | None):
    """`solve`, given M's plus annihilator when the caller has computed it
    already (None: computed when needed)."""
    if M.vdim < 1:
        raise DimensionMismatch("solve needs a nonzero module")
    # an unsolvable L raises NotSolvable from split_codim1 at the first
    # level where D^2 = L, before any eigen-step
    v, phi, psi, trace = _solve(L, M, ann)
    w = Weight(phi, psi)
    if not verify_weight(M, v, w):
        raise TheoremViolation("solver produced a vector that fails Eq (36)")
    return SolveResult(v, w, check_dichotomy(w), tuple(trace))


def _solve(L: LieLikeAlgebra, M: OrdinaryModule, ann: Subspace | None):
    n, s = L.dim, L.s
    if n == 0:
        empty: Grid = tuple(() for _ in range(s))
        return unit_vec(M.vdim, 0), empty, empty, []

    A, x = split_codim1(L)
    LA = restrict_algebra(L, A)
    MA = restrict_module(M, A, LA)
    v_rec, phi_rec, psi_rec, trace_rec = _solve(LA, MA, None)
    w_rec = Weight(phi_rec, psi_rec)

    U = weight_space(MA, w_rec)
    if U.dim == 0 or not U.contains(v_rec):
        raise TheoremViolation("recursive weight space lost its weight vector")

    if ann is None:
        ann = plus_annihilator(M)
    Fx = [M.f(k, x) for k in range(s)]
    Gx = [M.g(k, x) for k in range(s)]
    ext = _FunctionalExtender(A.basis, x)

    meet = U.intersect(ann)
    if meet.dim > 0:
        v, phi, psi, tag = _annihilator_branch(
            M, Fx, Gx, meet, ext, phi_rec, psi_rec
        )
        return v, phi, psi, [tag] + trace_rec

    witness = _case1_witness(U, Fx, Gx)
    if witness is not None:
        h0, wvec = witness
        w_tilde = vec(
            a - b for a, b in zip(Fx[h0].apply(wvec), Gx[h0].apply(wvec))
        )
        psi_zero = tuple(zero_vec(A.dim) for _ in range(s))
        u_tilde = weight_space(MA, Weight(phi_rec, psi_zero))
        meet_tilde = u_tilde.intersect(ann)
        if is_zero_vec(w_tilde) or not meet_tilde.contains(w_tilde):
            raise TheoremViolation("case-1 witness left the expected space")
        v, phi, psi, tag = _annihilator_branch(
            M, Fx, Gx, meet_tilde, ext, phi_rec, psi_zero
        )
        return v, phi, psi, [TAG_CASE_1, tag] + trace_rec

    # Case 2: f_h(x) = g_h(x) on all of U
    try:
        u_lam, lams = joint_eigenspace(Fx, U)
    except NotInvariant as exc:
        raise TheoremViolation("f_k(x) must preserve the weight space") from exc
    try:
        v, mus = joint_eigenvector(Gx, u_lam)
    except NotInvariant as exc:
        raise TheoremViolation(
            "g_k(x) must preserve the joint eigenspace in case 2"
        ) from exc
    phi = ext.extend(phi_rec, lams)
    psi = ext.extend(psi_rec, mus)
    return v, phi, psi, [TAG_CASE_2] + trace_rec


def _annihilator_branch(M, Fx, Gx, meet, ext, phi_rec, psi_rec):
    """Branch (i): a common f-eigenvector inside U meet the annihilator."""
    try:
        v0, lams = joint_eigenvector(Fx, meet)
    except NotInvariant as exc:
        raise TheoremViolation("f_k(x) must preserve U meet the annihilator") from exc
    images = [g.apply(v0) for g in Gx]
    h0 = next((h for h, img in enumerate(images) if not is_zero_vec(img)), None)
    if h0 is None:
        phi = ext.extend(phi_rec, lams)
        psi = ext.extend(psi_rec, [Fraction(0)] * len(Gx))
        return v0, phi, psi, TAG_ANN_G_ZERO
    n, s = ext.n, len(Gx)
    zero = tuple(zero_vec(n) for _ in range(s))
    return images[h0], zero, zero, TAG_ANN_G_NONZERO


def _case1_witness(U: Subspace, Fx, Gx):
    """First basis vector of U (then smallest index h) where f and g differ."""
    for wvec in U.basis:
        for h, (f, g) in enumerate(zip(Fx, Gx)):
            if f.apply(wvec) != g.apply(wvec):
                return h, wvec
    return None


class _FunctionalExtender:
    """Converts functional values on (basis of A, x) to the standard basis."""

    def __init__(self, a_basis: Sequence[Vector], x: Vector):
        self.n = len(x)
        # row r of B is the r-th basis vector, so phi = B^-1 (values on it)
        self._B_inv = inverse(Matrix(list(a_basis) + [x]))

    def extend(self, grid_on_a: Grid, x_values: Sequence[Fraction]) -> Grid:
        return tuple(
            self._B_inv.apply(tuple(row) + (Fraction(lam),))
            for row, lam in zip(grid_on_a, x_values, strict=True)
        )


# ---------------------------------------------------------------------------
# lemma checks
# ---------------------------------------------------------------------------

def normalizer_invariance_check(
    ops_A: Sequence[Matrix], phi: Sequence, ops_G: Sequence[Matrix]
) -> bool:
    """Invariance of the joint phi-eigenspace of ops_A under ops_G.

    Requires [A, X] in span(ops_A) for each X (the normalizer hypothesis);
    under that hypothesis a False return is a theorem-violation finding.
    """
    if len(ops_A) != len(phi):
        raise DimensionMismatch("one functional value per operator")
    if not ops_A and not ops_G:
        return True
    dim = (ops_A[0] if ops_A else ops_G[0]).nrows
    flat_span = Subspace.span(
        dim * dim, [tuple(x for row in op.rows for x in row) for op in ops_A]
    )
    for X in ops_G:
        for A in ops_A:
            comm = commutator(A, X)
            flat = tuple(x for row in comm.rows for x in row)
            if not flat_span.contains(flat):
                raise NormalizerPreconditionFailed(
                    "[A, X] does not lie in span(ops_A)"
                )
    space = common_eigenspace(zip(ops_A, phi), Subspace.full(dim))
    return is_invariant(ops_G, space)


def _check_split(L: LieLikeAlgebra, A: Subspace, x: Vector) -> None:
    """Validate L = A + kx with all brackets landing in A."""
    if A.ambient != L.dim or len(x) != L.dim:
        raise SetupInvalid("split has the wrong ambient dimension")
    if A.dim != L.dim - 1 or A.contains(x):
        raise SetupInvalid("x must complement a codimension-1 subspace")
    full = A.add(Subspace.span(L.dim, [x]))
    if full.dim != L.dim:
        raise SetupInvalid("A + kx must be all of L")
    # A.basis + [x] is a basis of L, so its brackets span D^2 L
    if not all(A.contains(b) for b in derived_algebra(L).basis):
        raise SetupInvalid("brackets must land in the ideal A")


def congruence_check(
    L: LieLikeAlgebra,
    A: Subspace,
    x: Vector,
    M: OrdinaryModule,
    u0: Vector,
    w: Weight,
    h: int,
    depth: int,
) -> Report:
    """Congruences for the iterates u_m = g_h(x)^m(u0).

    Verifies f_k(a)(u_m) = phi_k(a) u_m and g_k(a)(u_m) = psi_k(a) u_m
    modulo the annihilator plus span{u_0..u_{m-1}}, and
    f_k(x)(u_m) = u_{m+1} modulo the annihilator plus span{u_0..u_m}.
    """
    if depth < 1:
        raise SetupInvalid("depth must be at least 1")
    _check_split(L, A, x)
    for k in range(L.s):
        for p, a in enumerate(A.basis):
            if M.f(k, a).apply(u0) != tuple(w.phi[k][p] * t for t in u0):
                raise SetupInvalid("u0 is not a weight vector for A (f side)")
            if M.g(k, a).apply(u0) != tuple(w.psi[k][p] * t for t in u0):
                raise SetupInvalid("u0 is not a weight vector for A (g side)")
    ann = plus_annihilator(M)
    gh = M.g(h, x)
    iterates = [u0]
    for _ in range(depth + 1):
        iterates.append(gh.apply(iterates[-1]))
    failures = []
    for m in range(depth + 1):
        um = iterates[m]
        mod_prev = ann.add(Subspace.span(M.vdim, iterates[:m]))
        mod_cur = ann.add(Subspace.span(M.vdim, iterates[: m + 1]))
        for k in range(L.s):
            for p, a in enumerate(A.basis):
                rf = vec(
                    t - w.phi[k][p] * u for t, u in zip(M.f(k, a).apply(um), um)
                )
                if not mod_prev.contains(rf):
                    failures.append(f"f-congruence fails at (m={m}, k={k}, a={p})")
                rg = vec(
                    t - w.psi[k][p] * u for t, u in zip(M.g(k, a).apply(um), um)
                )
                if not mod_prev.contains(rg):
                    failures.append(f"g-congruence fails at (m={m}, k={k}, a={p})")
            rx = vec(
                t - u for t, u in zip(M.f(k, x).apply(um), iterates[m + 1])
            )
            if not mod_cur.contains(rx):
                failures.append(f"x-congruence fails at (m={m}, k={k})")
        if failures:
            break  # report the first failing level only
    return Report(not failures, tuple(failures))


def trace_vanishing_check(
    L: LieLikeAlgebra,
    A: Subspace,
    x: Vector,
    M: OrdinaryModule,
    w: Weight,
) -> Report:
    """psi'_h(<x, a>_k) = 0 for basis a of A, and psi'_h(<x, x>_k) = 0.

    The weight must come from a genuine solve over A (some nonzero vector
    realizes the functionals); a failure is a theorem-violation finding.
    """
    _check_split(L, A, x)
    MA = restrict_module(M, A, restrict_algebra(L, A))
    if weight_space(MA, w).dim == 0:
        raise SetupInvalid("no nonzero vector realizes the given functionals")

    def psi_at(h: int, z: Vector) -> Fraction:
        coords = A.coords(z)
        if coords is None:
            raise SetupInvalid("bracket image left the ideal A")
        return vdot(coords, w.psi[h])

    failures = []
    for h in range(L.s):
        for k in range(L.s):
            for p, a in enumerate(A.basis):
                if psi_at(h, bracket(L, x, a, k)) != 0:
                    failures.append(f"psi_{h}(<x, a_{p}>_{k}) != 0")
            if psi_at(h, bracket(L, x, x, k)) != 0:
                failures.append(f"psi_{h}(<x, x>_{k}) != 0")
    return Report(not failures, tuple(failures))


@dataclass(frozen=True)
class SplitSetup:
    """Top-level split of a solve, packaged for the lemma checks."""

    A: Subspace
    x: Vector
    subalgebra: LieLikeAlgebra
    submodule: OrdinaryModule
    u0: Vector
    weight: Weight


def split_setup(L: LieLikeAlgebra, M: OrdinaryModule) -> SplitSetup:
    """Split off the top-level ideal and solve the restricted problem."""
    A, x = split_codim1(L)
    LA = restrict_algebra(L, A)
    MA = restrict_module(M, A, LA)
    res = solve(LA, MA)
    return SplitSetup(A, x, LA, MA, res.v, res.weight)


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def oracle_solve(
    L: LieLikeAlgebra, M: OrdinaryModule
) -> list[tuple[Subspace, Weight]]:
    """Every maximal joint weight space, by exhaustive eigenspace
    intersection over the full operator family (all f's by (k, i), then all
    g's), pruning empty intersections.  Independent of the solver's logic.
    When no space survives, raises NonSplitSpectrum if some operator has
    an irrational spectrum, else NotSolvable if the algebra is not solvable.
    """
    n, s, m = L.dim, L.s, M.vdim
    if m < 1:
        raise DimensionMismatch("oracle needs a nonzero module")
    ops = [M.F[k][i] for k in range(s) for i in range(n)]
    ops += [M.G[k][i] for k in range(s) for i in range(n)]
    full = Subspace.full(m)
    fronts: list[tuple[Subspace, tuple[Fraction, ...]]] = [(full, ())]
    saw_nonsplit = False
    for op in ops:
        roots, fully = rational_eigenvalues(op)
        if not fully:
            saw_nonsplit = True
        eigenspaces = [(lam, eigenspace(op, lam, full)) for lam, _ in roots]
        new = []
        for space, assignment in fronts:
            for lam, eig in eigenspaces:
                cut = space.intersect(eig)
                if cut.dim > 0:
                    new.append((cut, assignment + (lam,)))
        fronts = new
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
        phi = tuple(
            tuple(assignment[k * n + i] for i in range(n)) for k in range(s)
        )
        psi = tuple(
            tuple(assignment[s * n + k * n + i] for i in range(n))
            for k in range(s)
        )
        results.append((space, Weight(phi, psi)))
    return results
