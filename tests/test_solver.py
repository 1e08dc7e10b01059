from fractions import Fraction

import pytest

from lielike import (
    DimensionMismatch,
    LieLikeAlgebra,
    Matrix,
    NonSplitSpectrum,
    NormalizerPreconditionFailed,
    NotSolvable,
    OrdinaryModule,
    Subspace,
    TheoremViolation,
    Weight,
    adjoint,
    check_algebra,
    check_dichotomy,
    check_module,
    congruence_check,
    is_solvable,
    normalizer_invariance_check,
    oracle_solve,
    plus_annihilator,
    run_verify,
    solve,
    split_codim1,
    split_setup,
    trace_vanishing_check,
    verify_weight,
    weight_space,
)
from lielike import solver, verify
from lielike.linalg import vec

F = Fraction


def span(n, rows):
    return Subspace.span(n, [vec(F(x) for x in r) for r in rows])


def fvec(xs):
    return vec(F(x) for x in xs)


def zero_weight(s, n):
    z = tuple(fvec([0] * n) for _ in range(s))
    return Weight(z, z)


@pytest.fixture(scope="session")
def abelian_irrational():
    """Valid module over the abelian line whose operator has an irrational
    spectrum (characteristic polynomial t^2 - t - 1)."""
    L = LieLikeAlgebra.from_constants(1, 1, {})
    op = Matrix([[F(1), F(1)], [F(1), F(0)]])
    fam = ((op,),)
    return L, OrdinaryModule(L, 2, fam, fam)


class TestSolveExamples:
    def test_zero_module(self, leib2):
        zero = Matrix.zeros(1, 1)
        fam = ((zero, zero),)
        M = OrdinaryModule(leib2, 1, fam, fam)
        res = solve(leib2, M)
        assert res.v == fvec([1])
        assert res.weight == zero_weight(1, 2)
        assert res.dichotomy == "both"

    def test_adjoint_leib2(self, leib2):
        res = solve(leib2, adjoint(leib2))
        assert res.v == fvec([1, 0])
        assert res.weight == zero_weight(1, 2)
        assert res.dichotomy == "both"
        assert res.branch_trace == ("ann-nonzero/g-zero", "case-2")

    def test_adjoint_nt3(self, nt3):
        res = solve(nt3, adjoint(nt3))
        assert span(3, [[1, 0, 0], [0, 1, 0]]).contains(res.v)
        assert res.weight == zero_weight(2, 3)
        assert res.branch_trace == (
            "ann-nonzero/g-zero",
            "case-2",
            "case-2",
        )

    def test_adjoint_aff2_nonzero_weight(self, aff2):
        res = solve(aff2, adjoint(aff2))
        assert res.dichotomy == "phi-equals-psi"
        assert res.weight.phi == res.weight.psi
        assert any(any(x != 0 for x in row) for row in res.weight.psi)
        assert verify_weight(adjoint(aff2), res.v, res.weight)

    def test_right_action_fixture(self, right1):
        M = adjoint(right1)
        res = solve(right1, M)
        assert verify_weight(M, res.v, res.weight)
        assert res.dichotomy in {"both", "psi-zero", "phi-equals-psi"}

    def test_deterministic(self, nt3):
        first = solve(nt3, adjoint(nt3))
        for _ in range(3):
            assert solve(nt3, adjoint(nt3)) == first

    def test_rejects_empty_module(self, leib2):
        fam = ((Matrix.zeros(0, 0), Matrix.zeros(0, 0)),)
        M = OrdinaryModule(leib2, 0, fam, fam)
        with pytest.raises(DimensionMismatch):
            solve(leib2, M)

    def test_rejects_nonsolvable(self, sl2):
        with pytest.raises(NotSolvable):
            solve(sl2, adjoint(sl2))

    def test_rejects_nonsolvable_one_level_down(self, sl2_plus_line):
        L = sl2_plus_line
        M = adjoint(L)
        assert check_algebra(L) == [] and check_module(M) == []
        assert not is_solvable(L)[0]
        A, x = split_codim1(L)  # the top level splits off the line
        assert A.dim == 3 and x == vec([0, 0, 0, 1])
        with pytest.raises(NotSolvable):
            solve(L, M)

    def test_irrational_spectrum_reported(self, abelian_irrational):
        L, M = abelian_irrational
        assert check_module(M) == []
        with pytest.raises(NonSplitSpectrum):
            solve(L, M)


class TestVerifyWeight:
    def test_annihilated_vector(self, leib2):
        M = adjoint(leib2)
        assert verify_weight(M, fvec([1, 0]), zero_weight(1, 2))

    def test_non_weight_vector(self, leib2):
        M = adjoint(leib2)
        assert not verify_weight(M, fvec([0, 1]), zero_weight(1, 2))

    def test_zero_vector_rejected(self, leib2):
        assert not verify_weight(adjoint(leib2), fvec([0, 0]), zero_weight(1, 2))


class TestCheckDichotomy:
    def test_zero_weight(self):
        assert check_dichotomy(zero_weight(1, 2)) == "both"

    def test_psi_zero(self):
        w = Weight((fvec([1, 0]),), (fvec([0, 0]),))
        assert check_dichotomy(w) == "psi-zero"

    def test_phi_equals_psi(self):
        w = Weight((fvec([1, 0]),), (fvec([1, 0]),))
        assert check_dichotomy(w) == "phi-equals-psi"

    def test_violation(self):
        w = Weight((fvec([1, 0]),), (fvec([0, 1]),))
        assert check_dichotomy(w) == "violation"


class TestOracle:
    def test_zero_module(self, leib2):
        zero = Matrix.zeros(2, 2)
        fam = ((zero, zero),)
        M = OrdinaryModule(leib2, 2, fam, fam)
        entries = oracle_solve(leib2, M)
        assert len(entries) == 1
        space, w = entries[0]
        assert space == Subspace.full(2) and w == zero_weight(1, 2)

    def test_adjoint_leib2(self, leib2):
        entries = oracle_solve(leib2, adjoint(leib2))
        assert len(entries) == 1
        space, w = entries[0]
        assert space == span(2, [[1, 0]]) and w == zero_weight(1, 2)

    def test_adjoint_nt3(self, nt3):
        entries = oracle_solve(nt3, adjoint(nt3))
        assert len(entries) == 1
        space, w = entries[0]
        assert space == span(3, [[1, 0, 0], [0, 1, 0]])
        assert w == zero_weight(2, 3)

    def test_matches_solver(self, leib2, nt3, aff2, right1):
        for L in (leib2, nt3, aff2, right1):
            M = adjoint(L)
            res = solve(L, M)
            assert any(
                space.contains(res.v) and w == res.weight
                for space, w in oracle_solve(L, M)
            )

    def test_irrational_spectrum_reported(self, abelian_irrational):
        L, M = abelian_irrational
        with pytest.raises(NonSplitSpectrum):
            oracle_solve(L, M)


class TestWeightSpace:
    def test_empty_basis_is_full(self):
        # a module over the zero algebra has no operators to intersect
        M = OrdinaryModule(LieLikeAlgebra(0, 1, ((),)), 2, ((),), ((),))
        assert weight_space(M, Weight(((),), ((),))) == Subspace.full(2)

    def test_leib2_zero_weight(self, leib2):
        # the operators f_0(e2), g_0(e2) of adjoint(leib2) over a line
        M = adjoint(leib2)
        e2 = fvec([0, 1])
        line = LieLikeAlgebra.from_constants(1, 1, {})
        ops = OrdinaryModule(line, 2, ((M.f(0, e2),),), ((M.g(0, e2),),))
        w = Weight((fvec([0]),), (fvec([0]),))
        assert weight_space(ops, w) == span(2, [[1, 0]])

    def test_phi_and_psi_read_separately(self):
        line = LieLikeAlgebra.from_constants(1, 1, {})
        f = Matrix([[F(1), F(0)], [F(0), F(2)]])
        M = OrdinaryModule(line, 2, ((f,),), ((Matrix.zeros(2, 2),),))
        w = Weight((fvec([1]),), (fvec([0]),))
        assert weight_space(M, w) == span(2, [[1, 0]])


class TestNormalizerInvariance:
    def test_zero_operator(self):
        X = Matrix([[F(0), F(1)], [F(0), F(0)]])
        assert normalizer_invariance_check([Matrix.zeros(2, 2)], [F(0)], [X])

    def test_diagonal_family(self):
        A = Matrix([[F(1), F(0)], [F(0), F(2)]])
        G = Matrix([[F(5), F(0)], [F(0), F(7)]])
        assert normalizer_invariance_check([A], [F(1)], [G])

    def test_precondition_failure(self):
        A = Matrix([[F(1), F(0)], [F(0), F(2)]])
        N = Matrix([[F(0), F(1)], [F(0), F(0)]])
        with pytest.raises(NormalizerPreconditionFailed):
            normalizer_invariance_check([A], [F(1)], [N])


class TestCongruence:
    def test_leib2_split(self, leib2):
        M = adjoint(leib2)
        report = congruence_check(
            leib2,
            span(2, [[1, 0]]),
            fvec([0, 1]),
            M,
            fvec([1, 0]),
            Weight((fvec([0]),), (fvec([0]),)),
            0,
            3,
        )
        assert report.ok, report.failures

    def test_nt3_split_all_indices(self, nt3):
        M = adjoint(nt3)
        A = span(3, [[1, 0, 0], [0, 1, 0]])
        w = Weight(
            (fvec([0, 0]), fvec([0, 0])), (fvec([0, 0]), fvec([0, 0]))
        )
        for h in range(2):
            report = congruence_check(
                nt3, A, fvec([0, 0, 1]), M, fvec([1, 0, 0]), w, h, 3
            )
            assert report.ok, report.failures

    def test_solver_extracted_setup(self, aff2):
        setup = split_setup(aff2, adjoint(aff2))
        report = congruence_check(
            aff2,
            setup.A,
            setup.x,
            adjoint(aff2),
            setup.u0,
            setup.weight,
            0,
            adjoint(aff2).vdim,
        )
        assert report.ok, report.failures


class TestTraceVanishing:
    def test_abelian(self):
        L = LieLikeAlgebra.from_constants(2, 1, {})
        M = adjoint(L)
        report = trace_vanishing_check(
            L,
            span(2, [[1, 0]]),
            fvec([0, 1]),
            M,
            Weight((fvec([0]),), (fvec([0]),)),
        )
        assert report.ok

    def test_solver_extracted_weights(self, leib2, nt3, aff2):
        for L in (leib2, nt3, aff2):
            M = adjoint(L)
            setup = split_setup(L, M)
            report = trace_vanishing_check(L, setup.A, setup.x, M, setup.weight)
            assert report.ok, report.failures


class TestKnownProofGap:
    """A valid two-index instance on which the constructive recipe breaks.

    The algebra <e1,e2>_0 = -e1, <e2,e1>_0 = e1 with the second bracket
    identically zero passes every axiom, and its adjoint module passes
    every module axiom.  Yet the left-image step of the annihilator branch
    (extending the weight by zero functionals after applying a left map)
    produces a vector that is not a weight vector: the solver detects this
    and raises TheoremViolation rather than emit an unverified answer.
    """

    def test_instance_is_valid(self):
        L = LieLikeAlgebra.from_constants(
            3, 2, {(0, 0, 1): [1, -1, -1], (0, 1, 0): [-1, 1, 1]}
        )
        assert check_algebra(L) == []
        assert check_module(adjoint(L)) == []

    def test_solver_refuses_to_guess(self):
        L = LieLikeAlgebra.from_constants(
            3, 2, {(0, 0, 1): [1, -1, -1], (0, 1, 0): [-1, 1, 1]}
        )
        with pytest.raises(TheoremViolation):
            solve(L, adjoint(L))

    def test_single_index_version_succeeds(self):
        # the same structure constants with s = 1 solve cleanly: the
        # left-image branch is unreachable for single-index algebras
        L = LieLikeAlgebra.from_constants(
            3, 1, {(0, 0, 1): [1, -1, -1], (0, 1, 0): [-1, 1, 1]}
        )
        res = solve(L, adjoint(L))
        assert verify_weight(adjoint(L), res.v, res.weight)
        assert res.dichotomy == "phi-equals-psi"


class TestAnnihilatorOnce:
    """run_verify hands its plus annihilator to the solver's top level."""

    @pytest.fixture
    def annihilated(self, monkeypatch):
        modules_seen = []

        def counted(M):
            modules_seen.append(M)
            return plus_annihilator(M)

        monkeypatch.setattr(verify, "plus_annihilator", counted)
        monkeypatch.setattr(solver, "plus_annihilator", counted)
        return modules_seen

    @pytest.mark.parametrize("name", ["leib2", "nt3", "aff2"])
    def test_once_per_module(self, annihilated, name, request):
        L = request.getfixturevalue(name)
        M = adjoint(L)
        report, code = run_verify(L, M)
        assert code == 0 and report["checks"]["solve"]["ok"]
        assert sum(m is M for m in annihilated) == 1
        # each inner level with a nonzero algebra still computes its own
        assert len(annihilated) == L.dim

    def test_solve_alone_computes_it(self, annihilated, nt3):
        M = adjoint(nt3)
        solve(nt3, M)
        assert sum(m is M for m in annihilated) == 1
