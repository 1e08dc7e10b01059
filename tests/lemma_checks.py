"""The supporting lemmas of the inductive proof, checked on one split.

Each check takes a codimension-1 ideal A of all of L and an x completing
it, with a module M: normalizer invariance of a joint eigenspace, the
congruences for the iterates of g_h(x), and the vanishing of the
restricted weight on the brackets with x.  `split_setup` builds such a
split from the library's public `split_codim1`, `restrict_algebra`,
`restrict_module` and `solve`.  `solve` itself never restricts the
algebra: these checks and their set-up are test-side only.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from lielike import (
    DimensionMismatch,
    LieLikeAlgebra,
    LieLikeError,
    Matrix,
    OrdinaryModule,
    Subspace,
    Weight,
    bracket,
    common_eigenspace,
    derived_algebra,
    is_invariant,
    plus_annihilator,
    restrict_algebra,
    restrict_module,
    solve,
    split_codim1,
    vec,
    weight_space,
)
from lielike.linalg import Vector, is_common_eigenvector
from lielike.solver import _weight_pairs


@dataclass(frozen=True)
class Report:
    """Outcome of a check that lists its failures instead of raising."""

    ok: bool
    failures: tuple[str, ...] = ()


class NormalizerPreconditionFailed(LieLikeError):
    """The normalizer hypothesis [A, X] being in span(A) does not hold."""


class SetupInvalid(LieLikeError):
    """The preconditions of a lemma check are not satisfied by the inputs."""


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
            comm = A @ X - X @ A
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
    FA = [[M.f(k, a) for a in A.basis] for k in range(L.s)]
    GA = [[M.g(k, a) for a in A.basis] for k in range(L.s)]
    if not is_common_eigenvector(_weight_pairs(FA, GA, w, 0), u0):
        raise SetupInvalid("u0 is not a weight vector for A")
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
            for p in range(A.dim):
                rf = vec(t - w.phi[k][p] * u for t, u in zip(FA[k][p].apply(um), um))
                if not mod_prev.contains(rf):
                    failures.append(f"f-congruence fails at (m={m}, k={k}, a={p})")
                rg = vec(t - w.psi[k][p] * u for t, u in zip(GA[k][p].apply(um), um))
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
    FA = [[M.f(k, a) for a in A.basis] for k in range(L.s)]
    GA = [[M.g(k, a) for a in A.basis] for k in range(L.s)]
    if weight_space(M.vdim, FA, GA, w).dim == 0:
        raise SetupInvalid("no nonzero vector realizes the given functionals")

    def psi_at(h: int, z: Vector) -> Fraction:
        coords = A.coords(z)
        if coords is None:
            raise SetupInvalid("bracket image left the ideal A")
        return sum((c * p for c, p in zip(coords, w.psi[h], strict=True)), Fraction(0))

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
