"""Hypothesis strategies shared by the axiom-check tests.

The instances carry rational data, so the common denominators D (of the
operators) and E (of the structure constants) exceed 1, and besides the
generator's constructions they include Lie algebras whose operators do not
multiply to zero.  Scaled instances multiply all of an instance's data by
one large rational, so the entries of the axiom checks' packed products
reach widths of hundreds of bits.  Perturbed instances break the axioms at
several index tuples at once.
"""

from fractions import Fraction as F

from hypothesis import strategies as st

from lielike import (
    CONSTRUCTIONS,
    GeneratorSpec,
    LieLikeAlgebra,
    Matrix,
    OrdinaryModule,
    adjoint,
    change_basis,
    generate,
)
from lielike.algebra import in_basis
from lielike.generate import random_unimodular
from lielike.linalg import inverse

# brackets (i, j) -> <e_i, e_j> of Lie algebras that are not nilpotent:
# unlike the two-step nilpotent algebras of every generator construction,
# their adjoint operators have nonzero products
AFF1 = {(1, 0): [1, 0], (0, 1): [-1, 0]}
SL2 = {
    (0, 1): [0, 0, 1], (1, 0): [0, 0, -1],
    (2, 0): [2, 0, 0], (0, 2): [-2, 0, 0],
    (2, 1): [0, -2, 0], (1, 2): [0, 2, 0],
}

scalars = st.sampled_from([F(1), F(2), F(-1, 7), F(3, 5)])
offsets = st.sampled_from([F(1, 7), F(-3, 7), F(2, 5), F(1)])


def bundle(brackets, ts):
    """The brackets t_k <.,.> for t_k in ts: a valid Lie-like algebra."""
    n = len(next(iter(brackets.values())))
    return LieLikeAlgebra.from_constants(n, len(ts), {
        (k, i, j): [t * x for x in v]
        for k, t in enumerate(ts) for (i, j), v in brackets.items()})


def diagonal(entries):
    n = len(entries)
    return Matrix([[x if i == j else 0 for j in range(n)]
                   for i, x in enumerate(entries)])


def transform_instance(L, M, P):
    """(L, M) rewritten in the basis with new coordinates v' = Pv: the
    operators are reindexed to the new basis of L, and the module space is
    transformed by P too when vdim equals L's dimension (as for the
    adjoint), otherwise left as it is."""
    Pinv = inverse(P)
    old_basis = [Pinv.column(i) for i in range(L.dim)]  # new basis in old coords
    L2 = in_basis(L, old_basis, P.apply)
    F = tuple(tuple(M.f(k, b) for b in old_basis) for k in range(L.s))
    G = tuple(tuple(M.g(k, b) for b in old_basis) for k in range(L.s))
    M2 = OrdinaryModule(L2, M.vdim, F, G)
    return L2, change_basis(M2, P) if M.vdim == L.dim else M2


@st.composite
def valid_instances(draw):
    """A valid (L, M), written in a random rational diagonal basis."""
    if draw(st.booleans()):
        inst = generate(draw(st.builds(
            GeneratorSpec, st.sampled_from(CONSTRUCTIONS), st.integers(1, 3),
            st.integers(1, 3), st.integers(0, 2**16))))
        L, M = inst.algebra, inst.module
    else:
        ts = draw(st.lists(scalars, min_size=1, max_size=3))
        L = bundle(draw(st.sampled_from([AFF1, SL2])), ts)
        M = adjoint(L)
    P = diagonal(draw(st.lists(scalars, min_size=L.dim, max_size=L.dim)))
    return transform_instance(L, M, P)


@st.composite
def basis_changed_instances(draw):
    """A valid instance in a random unimodular basis, where the derived
    algebra is seldom spanned by standard basis vectors."""
    L, M = draw(valid_instances())
    rng = draw(st.randoms(use_true_random=False))
    return transform_instance(L, M, random_unimodular(rng, L.dim, 2))


def scaled(L, M, t):
    """(t*L, t*M): the constants and every operator multiplied by t.  Each
    identity and axiom has the same degree on both sides, 2 in L and M's
    data together, so a valid instance stays valid."""
    tL = LieLikeAlgebra(L.dim, L.s, Matrix([t * x for x in v] for v in L.constants.rows))
    fams = [tuple(tuple(Matrix([[t * x for x in r] for r in op.rows]) for op in fk)
                  for fk in fam) for fam in (M.F, M.G)]
    return tL, OrdinaryModule(tL, M.vdim, *fams)


@st.composite
def scaled_instances(draw):
    """A valid instance scaled by t = (10^k + r)/q, k <= 40, q <= 10^6."""
    L, M = draw(valid_instances())
    k = draw(st.integers(0, 40))
    t = F(10**k + draw(st.integers(-10**6, 10**6).filter(lambda r: r != -10**k)),
          draw(st.integers(1, 10**6)))
    return scaled(L, M, t)


def shifted_algebra(L, shifts):
    """L with the structure constants ((k, i, j, a), delta) shifted."""
    n, rows = L.dim, [list(v) for v in L.constants.rows]
    for (k, i, j, a), delta in shifts:
        rows[(k * n + i) * n + j][a] += delta
    return LieLikeAlgebra(L.dim, L.s, Matrix(rows))


def shifted(M, op_shifts=(), c_shifts=()):
    """M with F/G entries ((fam, k, i, r, col), delta) shifted, over its
    algebra with c_shifts applied."""
    fams = {"F": [[[list(r) for r in op.rows] for op in fk] for fk in M.F],
            "G": [[[list(r) for r in op.rows] for op in gk] for gk in M.G]}
    for (fam, k, i, r, col), delta in op_shifts:
        fams[fam][k][i][r][col] += delta
    ops = {name: tuple(tuple(Matrix(op) for op in fk) for fk in fam)
           for name, fam in fams.items()}
    return OrdinaryModule(shifted_algebra(M.algebra, c_shifts), M.vdim,
                          ops["F"], ops["G"])


@st.composite
def perturbed_modules(draw, instances=valid_instances()):
    """A valid instance's module with up to three operator entries and up
    to three structure constants shifted (its algebra is M.algebra)."""
    _, M = draw(instances)
    n, s, m = M.algebra.dim, M.algebra.s, M.vdim

    def below(bound):
        return st.integers(0, bound - 1)

    op_shifts = draw(st.lists(st.tuples(
        st.tuples(st.sampled_from("FG"), below(s), below(n), below(m), below(m)),
        offsets), max_size=3))
    c_shifts = draw(st.lists(st.tuples(
        st.tuples(below(s), below(n), below(n), below(n)), offsets), max_size=3))
    return shifted(M, op_shifts, c_shifts)
