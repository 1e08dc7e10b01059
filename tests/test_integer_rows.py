"""Subspaces and matrices kept as integer rows.

Every operation is compared with a textbook path over Fraction rows
(reference_linalg), which re-spans its null vectors and combinations;
every result's private rows are checked to be the canonical integer form;
and the elimination core is counted per operation.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lielike import LieLikeAlgebra, OrdinaryModule, linalg, modules
from lielike.errors import DimensionMismatch, NonSplitSpectrum, NotInvariant, Singular
from lielike.linalg import (
    Matrix,
    Subspace,
    block_diagonal,
    eigenspace,
    inverse,
    is_common_eigenvector,
    is_invariant,
    joint_eigenspace,
    linear_combination,
    rational_eigenvalues,
)
from reference_linalg import (
    apply,
    combination_rows,
    inverse_rows,
    product_rows,
    reference_eigenspace,
    reference_intersect,
    reference_kernel,
    reference_rref,
    restriction_rows,
)
from test_linalg import (
    ENTRY_KINDS,
    joint_cases,
    kernel,
    restrict_operator,
    row_lists,
    row_matrices,
    small_fracs,
)

F = Fraction


def assert_canonical(S):
    """The rows are primitive integers, each with a positive pivot, zero
    left of it and at the other pivots; the pivots increase."""
    assert len(S._rows) == len(S.pivots) == S.dim
    assert list(S.pivots) == sorted(set(S.pivots))
    for row, p in zip(S._rows, S.pivots):
        assert len(row) == S.ambient
        assert all(type(x) is int for x in row)
        assert gcd(*row) == 1 and row[p] > 0
        assert not any(row[:p])
        assert all(row[q] == 0 for q in S.pivots if q != p)


def assert_matches(S, reference):
    """S has the basis and pivots of the reference (rows, pivots)."""
    rows, pivots = reference
    assert S.basis == tuple(rows)
    assert S.pivots == tuple(pivots)
    assert all(type(x) is Fraction for row in S.basis for x in row)
    assert_canonical(S)


@st.composite
def row_list_pairs(draw, n_max=7):
    """Two row lists of one width over one entry kind of TestRref's."""
    entries = draw(ENTRY_KINDS)
    ncols = draw(st.integers(0, n_max))
    row = st.lists(entries, min_size=ncols, max_size=ncols).map(tuple)
    rows = st.lists(row, min_size=0, max_size=n_max)
    return ncols, draw(rows), draw(rows)


@st.composite
def eigen_inputs(draw, n_max=6):
    """(M, lam, within) with M square over one entry kind of TestRref's,
    upper triangular half the time with lam one of its diagonal entries
    (an eigenvalue, found without the characteristic polynomial, whose
    roots take long to search at large entries), and within spanned by
    drawn rows or the whole space."""
    entries = draw(ENTRY_KINDS)
    n = draw(st.integers(0, n_max))
    row = st.lists(entries, min_size=n, max_size=n).map(tuple)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    if n and draw(st.booleans()):
        rows = [[x if j >= i else 0 for j, x in enumerate(r)] for i, r in enumerate(rows)]
        lam = draw(st.sampled_from([r[i] for i, r in enumerate(rows)]))
    else:
        lam = draw(small_fracs)
    if draw(st.booleans()):
        within = Subspace.full(n)
    else:
        within = Subspace.span(n, draw(st.lists(row, max_size=n)))
    return Matrix(rows), lam, within


def reference_joint_eigenspace(family, within):
    """Restrict by reading coordinates at the pivots, take the smallest
    rational eigenvalue, and step with reference_eigenspace."""
    basis, pivots = list(within.basis), list(within.pivots)
    n = within.ambient
    eigs = []
    for op in family:
        images = [apply(op, b) for b in basis]
        if any(len(reference_rref(basis + [y])[0]) > len(basis) for y in images):
            raise NotInvariant("operator does not preserve the subspace")
        restricted = Matrix([[y[p] for y in images] for p in pivots])
        roots, _ = rational_eigenvalues(restricted)
        if not roots:
            raise NonSplitSpectrum("no rational eigenvalue")
        lam = roots[0][0]
        basis, pivots = reference_eigenspace(op, lam, basis, n)
        eigs.append(lam)
    return (basis, pivots), eigs


class TestMatchesReference:
    @settings(max_examples=100, deadline=None)
    @given(row_lists())
    def test_span(self, rows):
        n = len(rows[0]) if rows else 3
        assert_matches(Subspace.span(n, rows), reference_rref(rows))

    @settings(max_examples=100, deadline=None)
    @given(row_matrices())
    def test_kernel(self, M):
        assert_matches(kernel(M), reference_kernel(M))

    @settings(max_examples=100, deadline=None)
    @given(row_list_pairs())
    def test_add(self, case):
        n, a, b = case
        A, B = Subspace.span(n, a), Subspace.span(n, b)
        assert_matches(A.add(B), reference_rref(a + b))

    @settings(max_examples=120, deadline=None)
    @given(row_list_pairs())
    def test_intersect(self, case):
        n, a, b = case
        A, B = Subspace.span(n, a), Subspace.span(n, b)
        assert_matches(A.intersect(B), reference_intersect(A.basis, B.basis, n))

    @settings(max_examples=120, deadline=None)
    @given(eigen_inputs())
    def test_eigenspace(self, case):
        M, lam, within = case
        n = within.ambient
        expected = reference_eigenspace(M, lam, within.basis, n)
        assert_matches(eigenspace(M, lam, within), expected)

    @settings(max_examples=60, deadline=None)
    @given(joint_cases())
    def test_joint_eigenspace(self, case):
        family, within = case
        try:
            expected = reference_joint_eigenspace(family, within)
        except (NotInvariant, NonSplitSpectrum) as exc:
            with pytest.raises(type(exc)):
                joint_eigenspace(family, within)
            return
        space, eigs = joint_eigenspace(family, within)
        assert_matches(space, expected[0])
        assert eigs == expected[1]

    @settings(max_examples=80, deadline=None)
    @given(row_matrices(6, square=True))
    def test_whole_space_images_and_restriction(self, M):
        # every operator preserves the whole space, whose images are M's
        # columns, and restricts to it as itself
        full = Subspace.full(M.nrows)
        d, images = linalg._images(M, full)
        assert [tuple(F(y, d) for y in image) for image in images] == [
            apply(M, b) for b in full.basis]
        assert is_invariant([M], full)
        R = restrict_operator(M, full)
        assert R.rows == restriction_rows(M.rows, full.basis, full.pivots) == M.rows
        assert R == M
        assert linalg._images(Matrix([]), Subspace.full(0)) == (1, [])

    def test_full_and_zero(self):
        for n in range(4):
            assert_matches(Subspace.full(n), reference_rref(Matrix.identity(n).rows))
            assert_matches(Subspace.zero(n), ([], []))


class TestEquality:
    @settings(max_examples=80, deadline=None)
    @given(row_list_pairs(n_max=4))
    def test_eq_and_hash_follow_the_basis(self, case):
        n, a, b = case
        A, B = Subspace.span(n, a), Subspace.span(n, b)
        assert (A == B) == (A.basis == B.basis)
        # the same space by another route: equal, with one hash
        for same in (A.add(Subspace.zero(n)), Subspace.span(n, A.basis),
                     A.intersect(Subspace.full(n)), A.add(A)):
            assert same == A and hash(same) == hash(A) and same.basis == A.basis

    def test_scaled_rows_give_one_space(self):
        A = Subspace.span(2, [(F(-2), F(4))])
        B = Subspace.span(2, [(F(1, 3), F(-2, 3))])
        assert A == B and hash(A) == hash(B)
        assert A._rows == ((1, -2),) and A.basis == ((F(1), F(-2)),)


@st.composite
def square_operands(draw, n_max=5):
    """n, three n x n row lists, each over its own entry kind of TestRref's
    (so with mixed denominators), and three coefficients."""
    n = draw(st.integers(0, n_max))

    def rows():
        row = st.lists(draw(ENTRY_KINDS), min_size=n, max_size=n).map(tuple)
        return tuple(draw(st.lists(row, min_size=n, max_size=n)))

    return n, (rows(), rows(), rows()), draw(st.lists(small_fracs, min_size=3, max_size=3))


def assert_lowest(m):
    """m's only state is (D, DM) in lowest terms: D > 0, prime to DM."""
    d, rows = m._integer()
    assert type(d) is int and d > 0
    assert len(rows) == m.nrows and all(len(r) == m.ncols for r in rows)
    assert all(type(x) is int for r in rows for x in r)
    assert gcd(d, *(x for r in rows for x in r)) == 1


class TestIntegerForm:
    """A Matrix is held as (D, D*M) in lowest terms, whatever built it."""

    @settings(max_examples=150, deadline=None)
    @given(square_operands())
    def test_every_route_gives_the_canonical_form(self, case):
        n, (a, b, c), coeffs = case
        A, B, C = map(Matrix, (a, b, c))
        I, Z = Matrix.identity(n), Matrix.zeros(n, n)
        terms = list(zip(coeffs, (A, B, C)))
        M = OrdinaryModule(LieLikeAlgebra.from_constants(3, 1, {}), n, ((A, B, C),), ((C, B, A),))
        identity = tuple(tuple(F(int(i == j)) for j in range(n)) for i in range(n))
        expected = [
            (A, a), (A @ B, product_rows(a, b)),
            (A + B, combination_rows([(1, a), (1, b)], n)),
            (A - B, combination_rows([(1, a), (-1, b)], n)),
            (linear_combination(terms, n, n), combination_rows(zip(coeffs, (a, b, c)), n)),
            (M.f(0, coeffs), combination_rows(zip(coeffs, (a, b, c)), n)),
            (M.g(0, coeffs), combination_rows(zip(coeffs, (c, b, a)), n)),
            (I, identity), (Z, ((F(0),) * n,) * n),
            (block_diagonal(A, B), tuple(r + (F(0),) * n for r in a)
             + tuple((F(0),) * n + r for r in b)),
        ]
        # A maps its image and its kernel into themselves
        for S in (Subspace.span(n, [A.column(j) for j in range(n)]), kernel(A)):
            expected.append((restrict_operator(A, S), restriction_rows(a, S.basis, S.pivots)))
        if (a_inv := inverse_rows(a)) is None:
            with pytest.raises(Singular):
                inverse(A)
        else:
            expected.append((inverse(A), a_inv))
        for m, rows in expected:
            assert_lowest(m)
            assert m.rows == rows
        # one matrix by several routes: equal, with one hash
        routes = [
            (A + B, B + A, linear_combination([(1, B), (1, A)], n, n)),
            (A - B, A + linear_combination([(-1, B)], n, n), Matrix(combination_rows(
                [(1, a), (-1, b)], n))),
            (A, Matrix(A.rows), A @ I, I @ A, A + Z, restrict_operator(A, Subspace.full(n))),
            ((A @ B) @ C, A @ (B @ C)),
            (Z, A - A, Z @ A, linear_combination([], n, n), linear_combination([(0, A)], n, n)),
            (M.f(0, coeffs), linear_combination(terms, n, n), linear_combination(
                terms[::-1], n, n)),
        ]
        if a_inv is not None:
            routes.append((I, inverse(A) @ A, A @ inverse(A), inverse(inverse(A)) @ inverse(A)))
        for same in routes:
            assert len(set(same)) == 1 and len({hash(m) for m in same}) == 1
        # and unequal matrices are unequal, D included
        assert (A == B) == (a == b)
        assert (linear_combination([(F(1, 2), A)], n, n) == A) == (A == Z)

    @staticmethod
    def form(m):
        d = lcm(*(x.denominator for row in m.rows for x in row))
        return d, tuple(tuple(int(d * x) for x in row) for row in m.rows)

    def test_form_of_each_matrix(self):
        M = Matrix([[F(1, 2), 0], [F(1, 3), 1]])
        N = Matrix([[F(3, 4), 1], [0, F(-1, 5)]])
        assert M._integer() == (6, ((3, 0), (2, 6)))
        assert N._integer() == (20, ((15, 20), (0, -4)))
        # results of arithmetic on matrices whose forms exist have their own
        for m in (M @ N, N @ M, M - N, M + N, Matrix.identity(2), Matrix([])):
            assert m._integer() == self.form(m)

    def test_eigen_steps_on_several_operators(self):
        # the same subspace and shape, operators with different spectra
        within = Subspace.span(3, [(1, 0, 0), (0, 1, 1)])
        ops = [Matrix([[a, 0, 0], [0, b, 0], [0, 0, b]]) for a, b in [(1, 2), (2, 1), (3, 3)]]
        assert eigenspace(ops[0], 1, within) == Subspace.span(3, [(1, 0, 0)])
        assert eigenspace(ops[1], 1, within) == Subspace.span(3, [(0, 1, 1)])
        assert eigenspace(ops[2], 3, within) == within
        assert eigenspace(ops[0], 2, within) == Subspace.span(3, [(0, 1, 1)])


@st.composite
def column_space_inputs(draw, n_max=5):
    """(start, pairs): a nonzero subspace of Q^n and (A, B) pairs of n x n
    operators, each over its own entry kind of TestRref's (so with mixed
    denominators), B zero or equal to A (a separate, equal matrix) at times."""
    n = draw(st.integers(1, n_max))

    def operator():
        row = st.lists(draw(ENTRY_KINDS), min_size=n, max_size=n)
        return Matrix(draw(st.lists(row, min_size=n, max_size=n)))

    start = draw(st.lists(st.lists(small_fracs, min_size=n, max_size=n).map(tuple),
                          min_size=1, max_size=n).filter(lambda vs: any(map(any, vs))))
    pairs = []
    for _ in range(draw(st.integers(0, 3))):
        a = operator()
        b = draw(st.sampled_from(["drawn", "zero", "equal"]))
        b = Matrix.zeros(n, n) if b == "zero" else Matrix(a.rows) if b == "equal" else operator()
        pairs.append((a, b) if draw(st.booleans()) else (b, a))
    return Subspace.span(n, start), pairs


class TestPlusColumnSpaces:
    @settings(max_examples=150, deadline=None)
    @given(column_space_inputs())
    def test_is_the_span_of_the_difference_columns(self, case):
        start, pairs = case
        n = start.ambient
        assert start.dim > 0
        columns = [(a - b).column(j) for a, b in pairs for j in range(n)]
        S = start.plus_column_spaces(pairs)
        assert S == start.add(Subspace.span(n, columns))
        assert_canonical(S)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Subspace.zero(2).plus_column_spaces([(Matrix.identity(3), Matrix.zeros(3, 3))])
        with pytest.raises(DimensionMismatch):
            Subspace.zero(2).plus_column_spaces([(Matrix.identity(2), Matrix.zeros(2, 3))])


class TestCommonEigenvector:
    T = Matrix([[F(1, 2), 1], [0, F(-3, 5)]])  # eigenvalues 1/2 on e_1, -3/5

    def test_eigenvector_and_its_multiples(self):
        v = (F(1), F(0))
        for c in (F(1), F(-2, 7), F(9)):
            cv = tuple(c * x for x in v)
            assert is_common_eigenvector([(self.T, F(1, 2)), (Matrix.identity(2), 1)], cv)
        assert is_common_eigenvector([], v)

    def test_wrong_value_or_vector(self):
        assert not is_common_eigenvector([(self.T, F(-3, 5))], (F(1), F(0)))
        assert not is_common_eigenvector([(self.T, F(1, 2))], (F(0), F(1)))
        # one failing pair fails the whole family
        assert not is_common_eigenvector(
            [(self.T, F(1, 2)), (Matrix.zeros(2, 2), 1)], (F(1), F(0)))

    def test_zero_vector(self):
        assert not is_common_eigenvector([(self.T, F(1, 2))], (F(0), F(0)))
        assert not is_common_eigenvector([], (F(0), F(0)))

    def test_wrong_length(self):
        with pytest.raises(DimensionMismatch):
            is_common_eigenvector([(self.T, F(1, 2))], (F(1), F(0), F(0)))


class TestOneElimination:
    """kernel, intersect and each eigen-step run the elimination once."""

    @pytest.fixture
    def reductions(self, monkeypatch):
        calls = []
        original = linalg._reduce

        def counted(rows):
            calls.append(1)
            return original(rows)

        monkeypatch.setattr(linalg, "_reduce", counted)
        return calls

    def test_kernel(self, reductions):
        kernel(Matrix([[1, 2, 3], [2, 4, 7]]))
        assert len(reductions) == 1

    def test_intersect(self, reductions):
        A = Subspace.span(3, [(1, 0, 0), (0, 1, 0)])
        B = Subspace.span(3, [(0, 1, 0), (0, 0, 1)])
        line = Subspace.span(3, [(0, 1, 0)])
        reductions.clear()
        assert A.intersect(B) == line
        assert len(reductions) == 1

    def test_eigen_steps(self, reductions):
        T = Matrix([[1, 1, 0], [0, 2, 0], [0, 0, 1]])
        full = Subspace.full(3)
        assert reductions == []  # the whole space needs no elimination
        within = Subspace.span(3, [(1, 0, 0), (0, 1, 0)])
        reductions.clear()
        eigenspace(T, 1, within)
        assert len(reductions) == 1
        reductions.clear()
        joint_eigenspace([T, T @ T, T], full)
        assert len(reductions) == 3

    def test_span_add_and_annihilator(self, reductions, nt3):
        A = Subspace.span(2, [(1, 2), (2, 4)])
        B = A.add(Subspace.span(2, [(0, 1)]))
        assert len(reductions) == 3 and B.is_full()
        reductions.clear()
        modules.plus_annihilator(modules.adjoint(nt3))
        assert len(reductions) == 1
