from fractions import Fraction

import pytest
from hypothesis import given, settings

from lielike import (
    LieLikeAlgebra,
    NotClosed,
    NotSolvable,
    Subspace,
    bracket,
    check_algebra,
    derived_series,
    is_ideal,
    is_solvable,
    is_trivial,
    restrict_algebra,
    split_codim1,
)
from lielike.algebra import AlgebraViolation
from lielike.linalg import Matrix, is_zero_vec, vec
from reference_linalg import reference_bracket, vadd
from strategies import AFF1, SL2, bundle, perturbed_modules, shifted_algebra

F = Fraction


def span(n, rows):
    return Subspace.span(n, [vec(F(x) for x in r) for r in rows])


class TestBracket:
    def test_bilinear_in_zero(self, leib2):
        z = vec([F(0), F(0)])
        assert bracket(leib2, z, vec([F(1), F(2)]), 0) == z

    def test_reads_structure_constants(self, leib2):
        e1, e2 = vec([F(1), F(0)]), vec([F(0), F(1)])
        assert bracket(leib2, e2, e2, 0) == e1
        assert bracket(leib2, e1, e2, 0) == vec([F(0), F(0)])


class TestCheckAlgebra:
    def test_abelian_passes(self):
        L = LieLikeAlgebra.from_constants(3, 2, {})
        assert check_algebra(L) == []

    def test_fixtures_pass(self, leib2, bundle2, nt3, aff2):
        for L in (leib2, bundle2, nt3, aff2):
            assert check_algebra(L) == []

    def test_extra_constant_breaks_jacobi(self, leib2):
        bad = LieLikeAlgebra.from_constants(
            2, 1, {(0, 1, 1): [1, 0], (0, 0, 1): [0, 1]}
        )
        violations = check_algebra(bad)
        assert violations and any(
            v.identity == "jacobi-like" for v in violations
        )

    def test_self_bracketing_line_fails(self):
        bad = LieLikeAlgebra.from_constants(1, 1, {(0, 0, 0): [1]})
        assert check_algebra(bad)

    def test_index_swap_violation_detected(self):
        # <e2,e2>_0 = e1 but <<e2,e2>_0, e2>_1 != <<e2,e2>_1, e2>_0
        bad = LieLikeAlgebra.from_constants(
            2, 2, {(0, 1, 1): [1, 0], (1, 0, 1): [1, 0]}
        )
        violations = check_algebra(bad)
        assert any(v.identity == "index-swap" for v in violations)


def naive_check_algebra(L):
    """Reference: brackets summed from the Fraction constants L.c at every
    basis triple, residuals as Fractions."""
    violations = []
    n, s, c = L.dim, L.s, L.c
    basis = Subspace.full(L.dim).basis
    for k in range(s):
        for h in range(s):
            for i in range(n):
                for j in range(n):
                    inner = c[k][i][j]
                    for l in range(n):
                        lhs = reference_bracket(L, inner, basis[l], h)
                        rhs = vadd(
                            reference_bracket(L, basis[i], c[h][j][l], k),
                            reference_bracket(L, c[h][i][l], basis[j], k),
                        )
                        res = tuple(a - b for a, b in zip(lhs, rhs))
                        if not is_zero_vec(res):
                            violations.append(
                                AlgebraViolation("jacobi-like", (i, j, l, k, h), res))
                        if h < k:
                            other = reference_bracket(L, c[h][i][j], basis[l], k)
                            res2 = tuple(a - b for a, b in zip(lhs, other))
                            if not is_zero_vec(res2):
                                violations.append(
                                    AlgebraViolation("index-swap", (i, j, l, k, h), res2))
    return violations


class TestIntegerCheckMatchesBracketLoop:
    """check_algebra compares columns of the adjoint module's integer
    product table and reads each residual off the same rows; its violations
    must equal the bracket loop's, residuals and order included."""

    @settings(max_examples=80, deadline=None)
    @given(perturbed_modules())
    def test_generated_and_perturbed(self, M):
        assert check_algebra(M.algebra) == naive_check_algebra(M.algebra)

    def test_rational_lie_bundles_pass(self):
        for brackets in (AFF1, SL2):
            L = bundle(brackets, [F(-1, 7), F(3, 5)])
            assert check_algebra(L) == [] == naive_check_algebra(L)

    def test_rational_shift_both_identities(self, nt3):
        bad = shifted_algebra(nt3, [((0, 2, 2, 2), F(1, 7)), ((1, 0, 2, 1), F(-2, 7))])
        violations = check_algebra(bad)
        assert {v.identity for v in violations} == {"jacobi-like", "index-swap"}
        assert violations == naive_check_algebra(bad)

    def test_single_index(self, leib2):
        bad = shifted_algebra(leib2, [((0, 1, 1, 1), F(1, 7))])
        assert check_algebra(bad) == naive_check_algebra(bad) != []

    def test_dimension_one(self):
        bad = LieLikeAlgebra.from_constants(1, 2, {(1, 0, 0): [F(1, 7)]})
        violations = check_algebra(bad)
        assert violations == naive_check_algebra(bad) != []
        assert violations[0].residual == vec([F(-1, 49)])

    def test_empty_algebra(self):
        assert check_algebra(LieLikeAlgebra(0, 0, Matrix([]))) == []


class TestIsTrivial:
    def test_single_index_is_trivial(self, leib2):
        ok, witness = is_trivial(leib2)
        assert ok and witness is not None

    def test_scaled_bundle_is_trivial(self, bundle2):
        ok, witness = is_trivial(bundle2)
        base, scalars = witness
        assert ok and scalars[base] == 1 and set(scalars) == {F(1), F(2)}

    def test_independent_brackets_nontrivial(self, nt3):
        ok, witness = is_trivial(nt3)
        assert not ok and witness is None


class TestIsIdeal:
    def test_extremes(self, leib2):
        assert is_ideal(leib2, Subspace.zero(2))
        assert is_ideal(leib2, Subspace.full(2))

    def test_bracket_image_line(self, leib2):
        assert is_ideal(leib2, span(2, [[1, 0]]))
        assert not is_ideal(leib2, span(2, [[0, 1]]))


class TestDerivedSeries:
    def test_abelian(self):
        L = LieLikeAlgebra.from_constants(3, 1, {})
        dims = [sp.dim for sp in derived_series(L)]
        assert dims == [3, 0]
        assert is_solvable(L) == (True, 2)

    def test_leib2(self, leib2):
        dims = [sp.dim for sp in derived_series(leib2)]
        assert dims == [2, 1, 0]
        assert is_solvable(leib2) == (True, 3)

    def test_nonsolvable_stabilizes(self):
        # sl2-like Lie algebra: the derived series stalls at full dimension
        L = LieLikeAlgebra.from_constants(
            3,
            1,
            {
                (0, 0, 1): [0, 0, 1],  # <e,f> = h
                (0, 1, 0): [0, 0, -1],
                (0, 2, 0): [2, 0, 0],  # <h,e> = 2e
                (0, 0, 2): [-2, 0, 0],
                (0, 2, 1): [0, -2, 0],  # <h,f> = -2f
                (0, 1, 2): [0, 2, 0],
            },
        )
        assert check_algebra(L) == []
        solvable, _ = is_solvable(L)
        assert not solvable


class TestSplitCodim1:
    def test_abelian_line(self):
        L = LieLikeAlgebra.from_constants(1, 1, {})
        A, x = split_codim1(L)
        assert A == Subspace.zero(1) and x == vec([F(1)])

    def test_leib2(self, leib2):
        A, x = split_codim1(leib2)
        assert A == span(2, [[1, 0]]) and x == vec([F(0), F(1)])

    def test_nt3(self, nt3):
        A, x = split_codim1(nt3)
        assert A == span(3, [[1, 0, 0], [0, 1, 0]]) and x == vec(
            [F(0), F(0), F(1)]
        )

    def test_split_is_ideal_containing_brackets(self, aff2):
        A, x = split_codim1(aff2)
        assert is_ideal(aff2, A)
        for k in range(aff2.s):
            assert A.contains(bracket(aff2, x, x, k))

    def test_nonsolvable_rejected(self):
        L = LieLikeAlgebra.from_constants(
            3,
            1,
            {
                (0, 0, 1): [0, 0, 1],
                (0, 1, 0): [0, 0, -1],
                (0, 2, 0): [2, 0, 0],
                (0, 0, 2): [-2, 0, 0],
                (0, 2, 1): [0, -2, 0],
                (0, 1, 2): [0, 2, 0],
            },
        )
        with pytest.raises(NotSolvable):
            split_codim1(L)


class TestRestrictAlgebra:
    def test_zero_subalgebra(self, leib2):
        assert restrict_algebra(leib2, Subspace.zero(2)).dim == 0

    def test_leib2_line_is_abelian(self, leib2):
        LA = restrict_algebra(leib2, span(2, [[1, 0]]))
        assert LA.dim == 1 and all(
            all(all(x == 0 for x in v) for v in row) for row in LA.c[0]
        )

    def test_nt3_plane_is_abelian(self, nt3):
        LA = restrict_algebra(nt3, span(3, [[1, 0, 0], [0, 1, 0]]))
        assert LA.dim == 2 and LA.s == 2
        assert all(
            all(all(x == 0 for x in v) for v in row)
            for ck in LA.c
            for row in ck
        )

    def test_non_subalgebra_rejected(self, leib2):
        with pytest.raises(NotClosed):
            restrict_algebra(leib2, span(2, [[0, 1]]))
