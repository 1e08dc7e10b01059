from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lielike import linalg
from lielike.errors import DimensionMismatch, NonSplitSpectrum, NotInvariant, Singular
from lielike.linalg import (
    Matrix,
    Subspace,
    charpoly,
    common_eigenspace,
    eigenspace,
    inverse,
    is_invariant,
    joint_eigenspace,
    rational_eigenvalues,
    vec,
)
from reference_linalg import (
    combine,
    det,
    poly_eval,
    rank,
    reference_charpoly,
    reference_rational_roots,
    reference_rref,
    scalar_matrix,
)

F = Fraction


def mat(rows):
    return Matrix([[F(x) for x in r] for r in rows])


# The library keeps no kernel, restriction or joint-eigenvector routine of
# its own; these reach the code behind its eigen-steps.

def kernel(m):
    """{v : Mv = 0} for M of any shape, by the library's null space of M's
    integer rows; for square M it is eigenspace(M, 0, the whole space)."""
    return Subspace(m.ncols, *linalg._null_space(m._integer()[1], m.ncols))


def restrict_operator(m, s):
    """M in the canonical basis of its invariant subspace s: the restriction
    whose spectrum joint_eigenspace reads."""
    return Matrix._lowest(*linalg._restricted(linalg._images(m, s), s))


def joint_eigenvector(family, within):
    """The first basis vector of the joint eigenspace, as solve takes it."""
    space, eigs = joint_eigenspace(family, within)
    return space.basis[0], eigs


def span_rref(rows):
    """The basis and pivots of Subspace.span(n, rows), as reference_rref
    gives the reduced row-echelon form of the rows."""
    S = Subspace.span(len(rows[0]) if rows else 0, rows)
    return list(S.basis), list(S.pivots)


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


def matrices(n_min=1, n_max=4):
    return st.integers(n_min, n_max).flatmap(
        lambda n: st.lists(
            st.lists(small_fracs, min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        ).map(Matrix)
    )


def sparse_matrices(n_max=9, entries=small_fracs):
    """Mostly-zero matrices: a few nonzero entries at random positions."""
    return st.integers(1, n_max).flatmap(
        lambda n: st.dictionaries(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            entries,
            max_size=2 * n,
        ).map(
            lambda entries: Matrix(
                [[entries.get((i, j), F(0)) for j in range(n)] for i in range(n)]
            )
        )
    )


def _companion(coeffs):
    """Companion matrix of the monic t^n + coeffs[n-1] t^(n-1) + ... + coeffs[0]."""
    n = len(coeffs)
    return Matrix(
        [
            [F(1) if j == i - 1 else F(0) for j in range(n - 1)] + [-coeffs[i]]
            for i in range(n)
        ]
    )


def _block_diagonal(a, b):
    n, m = a.nrows, b.nrows
    return Matrix(
        [list(r) + [F(0)] * m for r in a.rows]
        + [[F(0)] * n + list(r) for r in b.rows]
    )


def triangular_matrices(n_max, lower=False):
    """Upper (or lower) triangular matrices: every eigenvalue is rational."""
    def keep(i, j):
        return j <= i if lower else j >= i

    return st.integers(1, n_max).flatmap(
        lambda n: st.lists(
            st.lists(small_fracs, min_size=n, max_size=n), min_size=n, max_size=n
        ).map(
            lambda rows: Matrix(
                [[x if keep(i, j) else F(0) for j, x in enumerate(r)]
                 for i, r in enumerate(rows)]
            )
        )
    )


def structured_matrices(n_max=9):
    """Triangular, companion and block-diagonal matrices up to n_max."""
    companion = st.lists(small_fracs, min_size=1, max_size=n_max).map(_companion)
    blocks = st.tuples(matrices(1, 4), sparse_matrices(5)).map(
        lambda ab: _block_diagonal(*ab)
    )
    return st.one_of(
        triangular_matrices(n_max),
        triangular_matrices(n_max, lower=True),
        companion,
        blocks,
    )


# half the entries zero, so zero rows, columns and coefficients are common
zero_heavy = st.one_of(st.just(F(0)), small_fracs)


def zero_heavy_vectors(n):
    return st.lists(zero_heavy, min_size=n, max_size=n).map(tuple)


def subspace_pairs(n=4, entries=small_fracs):
    rows = st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=0, max_size=n
    )
    return st.tuples(rows, rows).map(
        lambda ab: (Subspace.span(n, ab[0]), Subspace.span(n, ab[1]))
    )


def in_span(S, v):
    """Reference membership test: adding v to the basis keeps the rank."""
    return len(reference_rref(list(S.basis) + [tuple(v)])[0]) == S.dim


# large numerators over large, pairwise coprime denominators: the row scaling
# multiplies denominators together, and gcds between entries are rare
LARGE_PRIMES = (999983, 1000003, 2**31 - 1, 10**9 + 7)
large_coprime = st.builds(
    F, st.integers(-(10**15), 10**15), st.sampled_from(LARGE_PRIMES)
)
mostly_zero = st.one_of(st.just(F(0)), st.just(F(0)), st.just(F(0)), small_fracs)

ENTRY_KINDS = st.sampled_from([
    small_fracs,  # dense
    zero_heavy,
    mostly_zero,  # sparse
    st.just(F(0)),  # all zero
    large_coprime,
    st.one_of(st.just(F(0)), large_coprime),
])


@st.composite
def row_lists(draw, n_max=8, square=False):
    """Rows of one length over one entry kind: empty, square, tall or wide
    up to n_max, and any number of rows may depend on the others."""
    entries = draw(ENTRY_KINDS)
    nrows = draw(st.integers(0, n_max))
    ncols = nrows if square else draw(st.integers(0, n_max))
    row = st.lists(entries, min_size=ncols, max_size=ncols).map(tuple)
    return draw(st.lists(row, min_size=nrows, max_size=nrows))


def row_matrices(n_max=8, square=False):
    return row_lists(n_max, square).filter(bool).map(Matrix)


class TestRref:
    """Subspace.span reduces rows as Gauss-Jordan over Fractions does."""

    @settings(max_examples=300, deadline=None)
    @given(row_lists())
    def test_matches_fraction_gauss_jordan(self, rows):
        out = span_rref(rows)
        assert out == reference_rref(rows)
        assert all(type(x) is Fraction for row in out[0] for x in row)

    @settings(max_examples=100, deadline=None)
    @given(row_lists(), st.lists(small_fracs, min_size=8, max_size=8))
    def test_dependent_rows(self, rows, weights):
        # a combination of the rows cancels to zero during elimination
        if rows:
            extra = combine(zip(weights, rows), len(rows[0]))
            rows = rows + [extra, rows[0]]
        assert span_rref(rows) == reference_rref(rows)

    def test_exact_cases(self):
        assert span_rref([]) == ([], [])
        assert span_rref([vec([0, 0]), vec([0, 0])]) == ([], [])
        assert span_rref([(), ()]) == ([], [])
        assert span_rref([vec([1, 2, 3]), vec([2, 4, 6])]) == ([vec([1, 2, 3])], [0])
        assert span_rref([vec([-2, 1])]) == ([vec([1, F(-1, 2)])], [0])
        assert span_rref([vec([2, 4]), vec([1, 2]), vec([3, 7])]) == (
            [vec([1, 0]), vec([0, 1])], [0, 1]
        )
        assert span_rref([vec([0, F(1, 3), F(1, 2)]), vec([0, F(2, 5), F(1, 7)])]) == (
            [vec([0, 1, 0]), vec([0, 0, 1])], [1, 2]
        )


class TestCombine:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 5).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(zero_heavy, zero_heavy_vectors(n)), max_size=6),
    )))
    def test_equals_naive_sum(self, case):
        n, terms = case
        naive = tuple(sum((c * v[j] for c, v in terms), F(0)) for j in range(n))
        out = combine(terms, n)
        assert out == naive
        assert all(type(x) is Fraction for x in out)

    def test_integer_coefficients(self):
        assert combine([(2, vec([1, 0])), (0, vec([5, 5])), (-1, vec([0, 3]))], 2) == (
            F(2), F(-3))


def textbook_product(a, b):
    return [
        [sum((a.rows[i][k] * b.rows[k][j] for k in range(a.ncols)), F(0))
         for j in range(b.ncols)]
        for i in range(a.nrows)
    ]


def zero_heavy_matrix(nrows, ncols):
    return st.lists(zero_heavy_vectors(ncols), min_size=nrows, max_size=nrows).map(
        Matrix
    )


class TestMatmul:
    @settings(max_examples=80, deadline=None)
    @given(
        st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)).flatmap(
            lambda d: st.tuples(zero_heavy_matrix(d[0], d[1]),
                                zero_heavy_matrix(d[1], d[2]))
        )
    )
    def test_equals_triple_sum(self, ab):
        a, b = ab
        product = a @ b
        assert (product.nrows, product.ncols) == (a.nrows, b.ncols)
        assert product == Matrix(textbook_product(a, b))

    @pytest.mark.parametrize("a, b", [
        ([[1, 2, 3]], [[4], [5], [6]]),  # 1 x n by n x 1
        ([[4], [5], [6]], [[1, 2, 3]]),  # n x 1 by 1 x n
        ([[0, 0], [1, 2]], [[3, 0], [4, 0]]),  # zero row, zero column
        ([[0, 0], [0, 0]], [[1, 2], [3, 4]]),
    ])
    def test_shapes(self, a, b):
        a, b = mat(a), mat(b)
        assert a @ b == Matrix(textbook_product(a, b))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mat([[1, 2]]) @ mat([[1, 2]])


class TestKernel:
    def test_zero_matrix_full_kernel(self):
        assert kernel(Matrix.zeros(2, 2)) == Subspace.full(2)

    def test_identity_trivial_kernel(self):
        assert kernel(Matrix.identity(2)) == Subspace.zero(2)

    def test_rank_one_matrix(self):
        assert kernel(mat([[1, 1], [2, 2]])) == Subspace.span(
            2, [vec([F(1), F(-1)])]
        )

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(matrices(), row_matrices()))
    def test_rank_nullity(self, M):
        assert kernel(M).dim + rank(M) == M.ncols

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(matrices(), row_matrices()))
    def test_kernel_members_annihilated(self, M):
        for b in kernel(M).basis:
            assert M.apply(b) == (F(0),) * M.nrows


class TestSubspace:
    def test_intersect_with_full(self):
        B = Subspace.span(3, [vec([F(1), F(2), F(3)])])
        assert Subspace.full(3).intersect(B) == B

    def test_complementary_lines(self):
        e1 = Subspace.span(2, [vec([F(1), F(0)])])
        e2 = Subspace.span(2, [vec([F(0), F(1)])])
        assert e1.intersect(e2) == Subspace.zero(2)

    def test_plane_intersection(self):
        A = Subspace.span(3, [vec([F(1), F(0), F(0)]), vec([F(0), F(1), F(0)])])
        B = Subspace.span(3, [vec([F(0), F(1), F(0)]), vec([F(0), F(0), F(1)])])
        assert A.intersect(B) == Subspace.span(3, [vec([F(0), F(1), F(0)])])

    def test_contains_zero_vector(self):
        assert Subspace.zero(2).contains(vec([F(0), F(0)]))

    def test_contains_rejects_off_line(self):
        assert not Subspace.span(2, [vec([F(0), F(1)])]).contains(
            vec([F(1), F(0)])
        )

    def test_contains_scalar_multiple(self):
        line = Subspace.span(2, [vec([F(1), F(-1)])])
        assert line.contains(vec([F(2), F(-2)]))

    @settings(max_examples=60, deadline=None)
    @given(subspace_pairs())
    def test_modular_dimension_law(self, pair):
        A, B = pair
        assert A.intersect(B).dim + A.add(B).dim == A.dim + B.dim

    @settings(max_examples=60, deadline=None)
    @given(subspace_pairs())
    def test_canonical_representation(self, pair):
        A, B = pair
        # re-spanning a canonical basis is the identity (idempotence), and
        # set equality coincides with identical basis matrices
        assert Subspace.span(A.ambient, A.basis) == A
        both = A.add(B)
        rebuilt = Subspace.span(4, list(A.basis) + list(B.basis))
        assert rebuilt == both and rebuilt.basis == both.basis

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(subspace_pairs(), subspace_pairs(entries=zero_heavy)))
    def test_intersection_members(self, pair):
        A, B = pair
        for b in A.intersect(B).basis:
            assert A.contains(b) and B.contains(b)
            assert in_span(A, b) and in_span(B, b)

    @settings(max_examples=80, deadline=None)
    @given(
        subspace_pairs(entries=zero_heavy),
        zero_heavy_vectors(4),
        st.lists(zero_heavy, min_size=4, max_size=4),
    )
    def test_coords_agree_with_rank_test(self, pair, v, weights):
        S, _ = pair

        def naive_combination(coeffs):
            return tuple(
                sum((c * b[j] for c, b in zip(coeffs, S.basis)), F(0))
                for j in range(4)
            )

        # an arbitrary vector, then one that is always a member
        for w in (v, naive_combination(weights)):
            coords = S.coords(w)
            assert S.contains(w) == in_span(S, w) == (coords is not None)
            if coords is not None:
                assert len(coords) == S.dim
                assert naive_combination(coords) == w


class TestEigen:
    def test_identity_spectrum(self):
        roots, full = rational_eigenvalues(Matrix.identity(3))
        assert roots == [(F(1), 3)] and full

    def test_rotation_has_no_rational_roots(self):
        roots, full = rational_eigenvalues(mat([[0, -1], [1, 0]]))
        assert roots == [] and not full

    def test_triangular_spectrum(self):
        roots, full = rational_eigenvalues(mat([[1, 1], [0, 2]]))
        assert roots == [(F(1), 1), (F(2), 1)] and full

    def test_eigenspace_of_zero_map(self):
        full = Subspace.full(2)
        assert eigenspace(Matrix.zeros(2, 2), F(0), full) == full

    def test_eigenspace_missing_eigenvalue(self):
        assert eigenspace(Matrix.identity(2), F(0), Subspace.full(2)) == Subspace.zero(2)

    def test_eigenspace_triangular(self):
        assert eigenspace(mat([[1, 1], [0, 2]]), F(2), Subspace.full(2)) == Subspace.span(
            2, [vec([F(1), F(1)])]
        )

    @settings(max_examples=50, deadline=None)
    @given(matrices())
    def test_roots_satisfy_charpoly(self, M):
        poly = charpoly(M)
        roots, full = rational_eigenvalues(M)
        assert sum(m for _, m in roots) <= M.nrows
        if full:
            assert sum(m for _, m in roots) == M.nrows
        for lam, _ in roots:
            assert poly_eval(poly, lam) == 0
            assert eigenspace(M, lam, Subspace.full(M.nrows)).dim >= 1

    @settings(max_examples=50, deadline=None)
    @given(matrices())
    def test_charpoly_constant_term_is_det(self, M):
        poly = charpoly(M)  # det(tI - M)
        n = M.nrows
        assert poly[0] == (-1) ** n * det(M)
        assert poly[-1] == 1


def shifted_by_hand(M, lam):
    """M - lam I, entry by entry: the reference for one eigen-step."""
    return Matrix(
        [[x - lam if i == j else x for j, x in enumerate(row)]
         for i, row in enumerate(M.rows)]
    )


def krylov_space(M, v):
    """span(v, Mv, ..., M^(n-1) v), which M always preserves."""
    vectors = [tuple(v)]
    for _ in range(M.nrows - 1):
        vectors.append(M.apply(vectors[-1]))
    return Subspace.span(M.nrows, vectors)


def eigen_operators(n_max):
    return st.one_of(
        matrices(1, n_max),
        sparse_matrices(n_max),
        triangular_matrices(n_max),
        triangular_matrices(n_max, lower=True),
    )


@st.composite
def eigenspace_cases(draw, n_max=6):
    """(M, lam, kind, within): lam a rational root of M's charpoly or a
    value that is not one; within zero, full, M-invariant or arbitrary."""
    M = draw(eigen_operators(n_max))
    n = M.nrows
    poly = charpoly(M)
    roots = [lam for lam, _ in rational_eigenvalues(M)[0]]
    non_root = small_fracs.filter(lambda x: poly_eval(poly, x) != 0)
    use_root = roots and draw(st.integers(0, 3))  # a root 3 times in 4
    lam = draw(st.sampled_from(roots) if use_root else non_root)
    kind = draw(st.sampled_from(["zero", "full", "invariant", "arbitrary"]))
    # adding an eigenvector (when lam has one) keeps an invariant space
    # invariant and makes a nonzero answer likely
    eigenvectors = kernel(shifted_by_hand(M, lam)).basis[:draw(st.integers(0, 1))]
    if kind == "zero":
        within = Subspace.zero(n)
    elif kind == "full":
        within = Subspace.full(n)
    elif kind == "invariant":
        within = krylov_space(M, draw(zero_heavy_vectors(n))).add(
            Subspace.span(n, eigenvectors)
        )
    else:
        vectors = draw(st.lists(zero_heavy_vectors(n), min_size=1, max_size=max(n - 1, 1)))
        within = Subspace.span(n, vectors + list(eigenvectors))
    return M, lam, kind, within


class TestEigenspaceWithin:
    """eigenspace(M, lam, within) = {v in within : Mv = lam v}."""

    @settings(max_examples=150, deadline=None)
    @given(eigenspace_cases())
    def test_equals_intersection_with_kernel(self, case):
        M, lam, kind, within = case
        if kind == "invariant":
            assert is_invariant([M], within)
        expected = within.intersect(kernel(shifted_by_hand(M, lam)))
        assert eigenspace(M, lam, within) == expected

    def test_nilpotent_inside_non_invariant_line(self):
        # M e0 = e1 and M e1 = 0: span(e0) is not M-invariant
        M = mat([[0, 0], [1, 0]])
        e0 = Subspace.span(2, [vec([1, 0])])
        e1 = Subspace.span(2, [vec([0, 1])])
        assert eigenspace(M, F(0), e0) == Subspace.zero(2)
        assert eigenspace(M, F(0), e1) == e1
        assert eigenspace(M, F(1), e1) == Subspace.zero(2)

    def test_plane_not_preserved(self):
        # M = diag(1, 2, 3) on the plane x = y: only 0 has Mv = v there
        M = mat([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
        plane = Subspace.span(3, [vec([1, 1, 0]), vec([0, 0, 1])])
        assert eigenspace(M, F(1), plane) == Subspace.zero(3)
        assert eigenspace(M, F(3), plane) == Subspace.span(3, [vec([0, 0, 1])])

    def test_zero_subspace(self):
        assert eigenspace(Matrix.zeros(3, 3), F(0), Subspace.zero(3)) == Subspace.zero(3)

    def test_empty_ambient(self):
        assert eigenspace(Matrix([]), F(0), Subspace.full(0)) == Subspace.zero(0)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            eigenspace(Matrix.identity(2), F(1), Subspace.full(3))


class TestCommonEigenspace:
    def test_reads_no_pair_after_the_space_is_zero(self):
        # diag(1, 2): the eigenvalue 1 leaves span(e0), then 2 leaves zero
        M = mat([[1, 0], [0, 2]])
        read = []

        def pairs():
            for lam in (F(1), F(2), F(1)):
                assert len(read) < 2, "read a pair after the space became zero"
                read.append(lam)
                yield M, lam

        assert common_eigenspace(pairs(), Subspace.full(2)) == Subspace.zero(2)
        assert read == [F(1), F(2)]


def old_joint_eigenspace(family, within):
    """Restrict, take the kernel in restricted coordinates, lift back: the
    path joint_eigenspace took before the one eigen-step."""
    current = within
    eigs = []
    for op in family:
        restricted = restrict_operator(op, current)
        roots, _ = rational_eigenvalues(restricted)
        if not roots:
            raise NonSplitSpectrum("no rational eigenvalue")
        lam = roots[0][0]
        inner = kernel(shifted_by_hand(restricted, lam))
        n = current.ambient
        current = Subspace.span(n, [
            tuple(sum((c * b[j] for c, b in zip(coeffs, current.basis)), F(0))
                  for j in range(n))
            for coeffs in inner.basis
        ])
        eigs.append(lam)
    return current, eigs


def two_pass_joint_eigenspace(family, within):
    """restrict_operator for the spectrum, then eigenspace for the step:
    each operator is applied to the basis twice per step."""
    current = within
    eigs = []
    for op in family:
        roots, _ = rational_eigenvalues(restrict_operator(op, current))
        if not roots:
            raise NonSplitSpectrum("no rational eigenvalue")
        lam = roots[0][0]
        current = eigenspace(op, lam, current)
        eigs.append(lam)
    return current, eigs


@st.composite
def joint_cases(draw, n_max=5):
    """A family of polynomials in one triangular T, sometimes with an
    unrelated operator, and a nonzero subspace: T-invariant or arbitrary."""
    T = draw(triangular_matrices(n_max))
    n = T.nrows
    c = draw(small_fracs)
    polys = [T, T @ T, T - scalar_matrix(n, c), scalar_matrix(n, c)]
    family = draw(st.lists(st.sampled_from(polys), min_size=1, max_size=3))
    if draw(st.booleans()):
        other = draw(st.lists(zero_heavy_vectors(n), min_size=n, max_size=n))
        family.insert(draw(st.integers(0, len(family))), Matrix(other))
    within = draw(st.one_of(
        zero_heavy_vectors(n).map(lambda v: krylov_space(T, v)),
        st.lists(zero_heavy_vectors(n), min_size=1, max_size=n).map(
            lambda vs: Subspace.span(n, vs)),
        st.just(Subspace.full(n)),
    ))
    return family, within if within.dim else Subspace.full(n)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (NotInvariant, NonSplitSpectrum) as exc:
        return type(exc)


class TestJointEigenspace:
    @settings(max_examples=100, deadline=None)
    @given(joint_cases())
    def test_matches_restrict_kernel_lift(self, case):
        family, within = case
        got = outcome(joint_eigenspace, family, within)
        assert got == outcome(old_joint_eigenspace, family, within)
        assert got == outcome(two_pass_joint_eigenspace, family, within)

    def test_exact_case(self):
        # T = [[1, 1], [0, 2]]: smallest eigenvalue 1 on e0; then T^2 has 1
        T = mat([[1, 1], [0, 2]])
        space, eigs = joint_eigenspace([T, T @ T], Subspace.full(2))
        assert space == Subspace.span(2, [vec([1, 0])]) and eigs == [F(1), F(1)]


class TestCharpoly:
    @staticmethod
    def assert_is_charpoly(M):
        poly = charpoly(M)
        n = M.nrows
        assert len(poly) == n + 1 and poly[-1] == 1
        for t in range(n + 2):
            assert poly_eval(poly, F(t)) == det(scalar_matrix(n, t) - M)

    @settings(max_examples=50, deadline=None)
    @given(matrices())
    def test_dense_agrees_with_det(self, M):
        self.assert_is_charpoly(M)

    @settings(max_examples=60, deadline=None)
    @given(sparse_matrices())
    def test_sparse_agrees_with_det(self, M):
        self.assert_is_charpoly(M)

    @settings(max_examples=60, deadline=None)
    @given(structured_matrices())
    def test_structured_agrees_with_det(self, M):
        self.assert_is_charpoly(M)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(small_fracs, min_size=1, max_size=9))
    def test_companion_recovers_coefficients(self, coeffs):
        assert charpoly(_companion(coeffs)) == tuple(coeffs) + (F(1),)

    def test_empty_matrix(self):
        assert charpoly(Matrix([])) == (F(1),)

    def test_pivot_needs_row_and_column_swap(self):
        # H[1][0] = 0 but H[2][0] != 0: the reduction swaps rows 1, 2 and
        # the matching columns before eliminating
        M = mat([[1, 2, 3], [0, 4, 5], [6, 7, 8]])
        assert charpoly(M) == (F(15), F(-9), F(-13), F(1))
        self.assert_is_charpoly(M)

    def test_swap_with_elimination_below(self):
        M = mat([[1, 2, 0, 1], [0, 3, 1, 0], [2, 0, 1, 1], [5, 1, 0, 2]])
        self.assert_is_charpoly(M)

    def test_columns_without_pivot(self):
        # nilpotent upper-triangular: no column has a nonzero entry below
        # its subdiagonal, so the reduction leaves M as it is
        M = mat([[0, 1, 2, 3], [0, 0, 4, 5], [0, 0, 0, 6], [0, 0, 0, 0]])
        assert charpoly(M) == (F(0), F(0), F(0), F(0), F(1))

    def test_zero_subdiagonal_splits_recurrence(self):
        # block diagonal with a 2x2 rotation: the zero subdiagonal entry
        # cuts the recurrence, and the result is the product of the blocks'
        M = mat([[0, -1, 0], [1, 0, 0], [0, 0, 2]])
        assert charpoly(M) == (F(-2), F(1), F(-2), F(1))


def _monic_from_roots(roots):
    """Coefficients, low degree first and without the leading 1, of the
    product of t - r over the roots."""
    poly = [F(1)]
    for r in roots:
        poly = [a - r * b for a, b in zip([F(0)] + poly, poly + [F(0)])]
    return poly[:-1]


class TestIntegerSpectra:
    """charpoly and rational_eigenvalues run on the integer form (D, DM);
    the references run the Hessenberg method and the root search over
    Fraction entries."""

    @staticmethod
    def assert_integer_route(M):
        n = M.nrows
        poly = charpoly(M)
        assert poly == reference_charpoly(M)
        for t in range(n + 2):
            assert poly_eval(poly, F(t)) == det(scalar_matrix(n, t) - M)
        roots = reference_rational_roots(poly)
        assert rational_eigenvalues(M) == (roots, sum(m for _, m in roots) == n)

    @settings(max_examples=60, deadline=None)
    @given(sparse_matrices(9, st.builds(
        F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 5, 7, 9]))))
    def test_mixed_denominators(self, M):
        self.assert_integer_route(M)

    @settings(max_examples=60, deadline=None)
    @given(sparse_matrices(9, st.sampled_from([F(2), F(3), F(-4), F(6), F(9)])))
    def test_pivots_that_do_not_divide(self, M):
        # a pivot often does not divide the entry below it (2 over 3, -4
        # over 6, 6 over 9), which forces the rescale
        self.assert_integer_route(M)

    @settings(max_examples=40, deadline=None)
    @given(st.tuples(eigen_operators(4), eigen_operators(5)))
    def test_zero_subdiagonals(self, blocks):
        # a block-diagonal matrix has a zero subdiagonal entry between the
        # blocks, and triangular blocks have zero columns below the pivot
        self.assert_integer_route(_block_diagonal(*blocks))

    @settings(max_examples=40, deadline=None)
    @given(triangular_matrices(9), st.booleans())
    def test_triangular_weights(self, M, lower):
        if lower:
            M = Matrix(list(zip(*M.rows)))
        self.assert_integer_route(M)
        weights = Counter(M.rows[i][i] for i in range(M.nrows))
        assert rational_eigenvalues(M) == (sorted(weights.items()), True)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(small_fracs, min_size=1, max_size=9), st.integers(0, 2))
    def test_companion_of_rational_roots(self, roots, rotations):
        # (t - r) for each r, times t^2 + 1 for each rotation: an
        # irreducible factor that leaves the spectrum only partly rational
        coeffs = _monic_from_roots(roots)
        for _ in range(rotations):
            coeffs = [a + b for a, b in zip(coeffs + [F(1), F(0)], [F(0), F(0)] + coeffs)]
        M = _companion(coeffs)
        self.assert_integer_route(M)
        eigs, full = rational_eigenvalues(M)
        assert eigs == sorted(Counter(roots).items()) and full == (rotations == 0)

    def test_rescale_twice(self):
        # D = 2: column 0 of DM takes a row swap, then its pivot -2 does not
        # divide the 1 below it (q = 2); column 1 takes q = 4
        M = mat([[F(3, 2), 0, -1, -1], [0, 1, -1, 0], [-1, 0, 2, 1], [F(1, 2), 0, -1, 0]])
        assert charpoly(M) == (F(1), F(-9, 2), F(7), F(-9, 2), F(1))
        self.assert_integer_route(M)
        assert rational_eigenvalues(M) == ([(F(1, 2), 1), (F(1), 2), (F(2), 1)], True)


class TestVec:
    def test_mixed_input_gives_fractions(self):
        third = F(1, 3)
        v = vec([1, "2/5", third, -4])
        assert v == (F(1), F(2, 5), F(1, 3), F(-4))
        assert all(type(x) is Fraction for x in v)
        assert v[2] is third

    def test_fraction_subclass_becomes_fraction(self):
        class Sub(Fraction):
            pass

        (x,) = vec([Sub(1, 2)])
        assert type(x) is Fraction and x == F(1, 2)

    def test_matrix_entries(self):
        half = F(1, 2)
        M = Matrix([[1, "3/4"], [half, 0]])
        assert all(type(x) is Fraction for r in M.rows for x in r)
        assert M.rows == ((F(1), F(3, 4)), (F(1, 2), F(0)))

    def test_span_entries(self):
        S = Subspace.span(3, [[2, "1/2", F(3)], ["0", 1, F(-1, 7)]])
        assert all(type(x) is Fraction for b in S.basis for x in b)
        assert S.contains(vec([2, "1/2", 3]))


class TestJointEigenvector:
    def test_empty_family(self):
        within = Subspace.span(2, [vec([F(1), F(0)])])
        v, eigs = joint_eigenvector([], within)
        assert v == vec([F(1), F(0)]) and eigs == []

    def test_scalar_family(self):
        v, eigs = joint_eigenvector(
            [Matrix.identity(2), mat([[3, 0], [0, 3]])],
            Subspace.full(2),
        )
        assert v == vec([F(1), F(0)]) and eigs == [F(1), F(3)]

    def test_two_operator_family(self):
        fam = [mat([[1, 1], [0, 2]]), mat([[3, 0], [0, 3]])]
        v, eigs = joint_eigenvector(fam, Subspace.full(2))
        assert v == vec([F(1), F(0)]) and eigs == [F(1), F(3)]

    def test_exactness(self):
        fam = [mat([[1, 1], [0, 2]]), mat([[3, 0], [0, 3]])]
        v, eigs = joint_eigenvector(fam, Subspace.full(2))
        for op, lam in zip(fam, eigs):
            assert op.apply(v) == tuple(lam * x for x in v)

    def test_non_split_spectrum(self):
        with pytest.raises(NonSplitSpectrum):
            joint_eigenvector([mat([[0, -1], [1, 0]])], Subspace.full(2))

    def test_not_invariant(self):
        line = Subspace.span(2, [vec([F(1), F(0)])])
        with pytest.raises(NotInvariant):
            joint_eigenvector([mat([[0, 0], [1, 0]])], line)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(small_fracs, min_size=3, max_size=3))
    def test_diagonal_families_always_solve(self, diag):
        fam = [
            Matrix([[d if i == j else F(0) for j in range(3)] for i in range(3)])
            for d in (diag[0], diag[1])
        ]
        v, eigs = joint_eigenvector(fam, Subspace.full(3))
        for op, lam in zip(fam, eigs):
            assert op.apply(v) == tuple(lam * x for x in v)


class TestRestrictOperator:
    def test_identity_restricts_to_identity(self):
        S = Subspace.span(3, [vec([F(1), F(0), F(1)]), vec([F(0), F(1), F(0)])])
        assert restrict_operator(Matrix.identity(3), S) == Matrix.identity(2)

    def test_diagonal_restriction(self):
        S = Subspace.span(2, [vec([F(0), F(1)])])
        assert restrict_operator(mat([[1, 0], [0, 2]]), S) == mat([[2]])

    def test_nilpotent_restriction(self):
        S = Subspace.span(2, [vec([F(1), F(0)])])
        assert restrict_operator(mat([[0, 1], [0, 0]]), S) == mat([[0]])

    def test_rejects_non_invariant(self):
        S = Subspace.span(2, [vec([F(1), F(0)])])
        with pytest.raises(NotInvariant):
            restrict_operator(mat([[0, 0], [1, 0]]), S)


class TestInverse:
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(matrices(1, 4), row_matrices(6, square=True)))
    def test_inverse_roundtrip(self, M):
        if det(M) == 0:
            with pytest.raises(Singular):
                inverse(M)
            return
        identity = Matrix.identity(M.nrows)
        assert M @ inverse(M) == identity and inverse(M) @ M == identity

    def test_singular(self):
        with pytest.raises(Singular):
            inverse(mat([[1, 2], [2, 4]]))
