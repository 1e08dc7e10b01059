"""The recursive solver, kept as the reference for `solve`.

It follows the inductive proof literally: at every level it splits off a
codimension-1 ideal, restricts the algebra and the module to it (the
module by `restrict_module`, kept here since `solve` never restricts),
solves there, recomputes the plus annihilator of the module it was given, and
converts the functionals to its own standard basis by inverting the basis
(A's basis, x).  `solve` computes the same flag once and runs the levels in
one loop; the two must agree on every instance, result and error alike.

The split, the flag, the oracle and the case-1 witness have references
here too: the greedy split extends D^2 L one standard vector at a time,
the two-elimination split runs both of its eliminations over every
bracket, summed from the Fraction constants, the flag restricts the algebra at every level and maps each x
back through the level's basis, the oracle intersects each front with the
operator's eigenspaces on the whole space, and the witness applies f_h(x)
and g_h(x) apart before subtracting.
"""

from fractions import Fraction

from lielike import (
    DimensionMismatch,
    Matrix,
    NonSplitSpectrum,
    NotInvariant,
    NotSolvable,
    OrdinaryModule,
    SolveResult,
    Subspace,
    TheoremViolation,
    Weight,
    check_dichotomy,
    derived_algebra,
    eigenspace,
    is_solvable,
    joint_eigenspace,
    plus_annihilator,
    rational_eigenvalues,
    restrict_algebra,
    verify_weight,
    weight_space,
)
from lielike.linalg import inverse, is_zero_vec, unit_vec, vec, zero_vec
from lielike.solver import (
    TAG_ANN_G_NONZERO,
    TAG_ANN_G_ZERO,
    TAG_CASE_1,
    TAG_CASE_2,
)
from reference_linalg import combine, reference_bracket


def recursive_solve(L, M):
    """`solve`, by recursion on the restricted algebra and module."""
    if M.vdim < 1:
        raise DimensionMismatch("solve needs a nonzero module")
    v, phi, psi, trace = _solve(L, M)
    w = Weight(phi, psi)
    if not verify_weight(M, v, w):
        raise TheoremViolation("solver produced a vector that fails Eq (36)")
    return SolveResult(v, w, check_dichotomy(w), tuple(trace))


def restrict_module(M, A, LA):
    """M on the subalgebra A: its operator families reindexed to A's
    canonical basis, over LA = restrict_algebra(L, A)."""
    if A.ambient != M.algebra.dim or LA.dim != A.dim or LA.s != M.algebra.s:
        raise DimensionMismatch("subalgebra does not match the subspace")
    F = tuple(tuple(M.f(k, b) for b in A.basis) for k in range(M.algebra.s))
    G = tuple(tuple(M.g(k, b) for b in A.basis) for k in range(M.algebra.s))
    return OrdinaryModule(LA, M.vdim, F, G)


def _weight_space(M, w):
    return weight_space(M.vdim, M.F, M.G, w)


def _solve(L, M):
    n, s = L.dim, L.s
    if n == 0:
        empty = tuple(() for _ in range(s))
        return unit_vec(M.vdim, 0), empty, empty, []

    A, x = greedy_split(L)
    LA = restrict_algebra(L, A)
    MA = restrict_module(M, A, LA)
    v_rec, phi_rec, psi_rec, trace_rec = _solve(LA, MA)

    U = _weight_space(MA, Weight(phi_rec, psi_rec))
    if U.dim == 0 or not U.contains(v_rec):
        raise TheoremViolation("recursive weight space lost its weight vector")

    ann = plus_annihilator(M)
    Fx = [M.f(k, x) for k in range(s)]
    Gx = [M.g(k, x) for k in range(s)]
    ext = _FunctionalExtender(A.basis, x)

    meet = U.intersect(ann)
    if meet.dim > 0:
        v, phi, psi, tag = _annihilator_branch(Fx, Gx, meet, ext, phi_rec, psi_rec)
        return v, phi, psi, [tag] + trace_rec

    witness = _case1_witness(U, Fx, Gx)
    if witness is not None:
        h0, wvec = witness
        w_tilde = vec(a - b for a, b in zip(Fx[h0].apply(wvec), Gx[h0].apply(wvec)))
        psi_zero = tuple(zero_vec(A.dim) for _ in range(s))
        meet_tilde = _weight_space(MA, Weight(phi_rec, psi_zero)).intersect(ann)
        if is_zero_vec(w_tilde) or not meet_tilde.contains(w_tilde):
            raise TheoremViolation("case-1 witness left the expected space")
        v, phi, psi, tag = _annihilator_branch(
            Fx, Gx, meet_tilde, ext, phi_rec, psi_zero)
        return v, phi, psi, [TAG_CASE_1, tag] + trace_rec

    # Case 2: f_h(x) = g_h(x) on all of U
    try:
        u_lam, lams = joint_eigenspace(Fx, U)
    except NotInvariant as exc:
        raise TheoremViolation("f_k(x) must preserve the weight space") from exc
    try:
        space, mus = joint_eigenspace(Gx, u_lam)
    except NotInvariant as exc:
        raise TheoremViolation(
            "g_k(x) must preserve the joint eigenspace in case 2") from exc
    v = space.basis[0]
    return v, ext.extend(phi_rec, lams), ext.extend(psi_rec, mus), [TAG_CASE_2] + trace_rec


def _annihilator_branch(Fx, Gx, meet, ext, phi_rec, psi_rec):
    try:
        space, lams = joint_eigenspace(Fx, meet)
    except NotInvariant as exc:
        raise TheoremViolation("f_k(x) must preserve U meet the annihilator") from exc
    v0 = space.basis[0]
    images = [g.apply(v0) for g in Gx]
    h0 = next((h for h, img in enumerate(images) if not is_zero_vec(img)), None)
    if h0 is None:
        phi = ext.extend(phi_rec, lams)
        psi = ext.extend(psi_rec, [Fraction(0)] * len(Gx))
        return v0, phi, psi, TAG_ANN_G_ZERO
    zero = tuple(zero_vec(ext.n) for _ in Gx)
    return images[h0], zero, zero, TAG_ANN_G_NONZERO


def _case1_witness(U, Fx, Gx):
    for wvec in U.basis:
        for h, (f, g) in enumerate(zip(Fx, Gx)):
            if f.apply(wvec) != g.apply(wvec):
                return h, wvec
    return None


def applied_case1_witness(U, Fx, Gx):
    """`solve`'s case-1 witness with f_h(x)w and g_h(x)w applied apart and
    subtracted: the first basis vector w of U, then the smallest h, where
    the difference is nonzero; None when f and g agree on U."""
    for wvec in U.basis:
        for f, g in zip(Fx, Gx):
            w_tilde = tuple(a - b for a, b in zip(f.apply(wvec), g.apply(wvec), strict=True))
            if not is_zero_vec(w_tilde):
                return w_tilde
    return None


class _FunctionalExtender:
    """Converts functional values on (basis of A, x) to the standard basis."""

    def __init__(self, a_basis, x):
        self.n = len(x)
        # row r of B is the r-th basis vector, so phi = B^-1 (values on it)
        self._B_inv = inverse(Matrix(list(a_basis) + [x]))

    def extend(self, grid_on_a, x_values):
        return tuple(
            self._B_inv.apply(tuple(row) + (Fraction(lam),))
            for row, lam in zip(grid_on_a, x_values, strict=True)
        )


def greedy_split(L):
    """`split_codim1`, one standard basis vector at a time: e_i is
    appended when D^2 L plus the vectors before it does not contain it."""
    if L.dim < 1:
        raise DimensionMismatch("split needs dim >= 1")
    d2 = derived_algebra(L)
    if d2.dim == L.dim:
        raise NotSolvable("D^2 L = L blocks the codimension-1 split")
    current = d2
    appended = []
    for i in range(L.dim):
        ei = unit_vec(L.dim, i)
        if not current.contains(ei):
            appended.append(ei)
            current = current.add(Subspace.span(L.dim, [ei]))
    x = appended[-1]
    A = Subspace.span(L.dim, list(d2.basis) + appended[:-1])
    return A, x


def two_elimination_split(L, A):
    """`algebra._split_codim1(L, A)` with both eliminations over all s*m^2
    brackets of A's canonical basis: one on their column-reversed
    coordinates for the appended vectors, one for the ideal."""
    m, basis = A.dim, A.basis
    brackets = [reference_bracket(L, a, b, k) for a in basis for b in basis
                for k in range(L.s)]
    rev = Subspace.span(m, [[w[p] for p in reversed(A.pivots)] for w in brackets])
    appended = [i for i in range(m) if m - 1 - i not in rev.pivots]
    if not appended:
        raise NotSolvable("D^2 L = L blocks the codimension-1 split")
    ideal = Subspace.span(L.dim, brackets + [basis[i] for i in appended[:-1]])
    return ideal, basis[appended[-1]]


def chain_levels(L):
    """(basis of A, x) for each level from the top, in L's coordinates:
    greedy_split and restrict_algebra run down from L, and each level's x
    and A's basis are mapped back through the level's basis."""
    n, level = L.dim, L
    basis = Subspace.full(L.dim).basis  # the level's basis, in L's coordinates
    levels = []
    while level.dim:
        A, x = greedy_split(level)
        x = combine(zip(x, basis), n)
        basis = [combine(zip(a, basis), n) for a in A.basis]
        levels.append((tuple(basis), x))
        level = restrict_algebra(level, A)
    return levels


def chain_flag(L):
    """x_1, ..., x_n of the restricted-algebra chain."""
    return [x for _, x in chain_levels(L)][::-1]


def intersecting_oracle(L, M):
    """`oracle_solve` by eigenspaces on the whole space: each front is
    intersected with every eigenspace of the next operator."""
    n, s, m = L.dim, L.s, M.vdim
    if m < 1:
        raise DimensionMismatch("oracle needs a nonzero module")
    ops = [M.F[k][i] for k in range(s) for i in range(n)]
    ops += [M.G[k][i] for k in range(s) for i in range(n)]
    full = Subspace.full(m)
    fronts = [(full, ())]
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
    return [
        (space, Weight(
            tuple(tuple(a[k * n + i] for i in range(n)) for k in range(s)),
            tuple(tuple(a[s * n + k * n + i] for i in range(n)) for k in range(s))))
        for space, a in fronts
    ]
