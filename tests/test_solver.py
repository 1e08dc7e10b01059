from collections import Counter
from fractions import Fraction
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lielike import (
    DimensionMismatch,
    GeneratorSpec,
    LieLikeAlgebra,
    LieLikeError,
    Matrix,
    NonSplitSpectrum,
    NotSolvable,
    OrdinaryModule,
    Subspace,
    TheoremViolation,
    Weight,
    adjoint,
    check_algebra,
    check_dichotomy,
    check_module,
    generate,
    is_invariant,
    is_solvable,
    oracle_solve,
    plus_annihilator,
    restrict_algebra,
    run_verify,
    solve,
    split_codim1,
    verify_weight,
    weight_space,
)
from lielike import CONSTRUCTIONS, algebra, linalg, modules, solver, verify
from lielike.generate import random_unimodular
from lielike.linalg import common_eigenspace, vec
from lielike.algebra import _split_codim1
import lemma_checks
from lemma_checks import (
    NormalizerPreconditionFailed,
    SetupInvalid,
    congruence_check,
    normalizer_invariance_check,
    split_setup,
    trace_vanishing_check,
)
from reference_solver import (
    applied_case1_witness,
    chain_flag,
    chain_levels,
    greedy_split,
    intersecting_oracle,
    recursive_solve,
    restrict_module,
    two_elimination_split,
)
from strategies import (
    AFF1,
    basis_changed_instances,
    bundle,
    perturbed_modules,
    transform_instance,
    valid_instances,
)

F = Fraction


def span(n, rows):
    return Subspace.span(n, [vec(F(x) for x in r) for r in rows])


def fvec(xs):
    return vec(F(x) for x in xs)


def weight_by_products(M, v, w):
    """verify_weight by Fraction matrix-vector products."""
    return any(v) and all(
        op.apply(v) == tuple(lam * x for x in v)
        for fam, grid in ((M.F, w.phi), (M.G, w.psi))
        for fk, row in zip(fam, grid)
        for op, lam in zip(fk, row)
    )


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

    @pytest.mark.parametrize("dim", [0, 2])
    def test_wrong_length_raises(self, leib2, dim):
        # a dimension-0 algebra has no operator pairs to compare v with
        L = leib2 if dim else LieLikeAlgebra.from_constants(0, 1, {})
        M = adjoint(leib2) if dim else OrdinaryModule(L, 2, ((),), ((),))
        w = zero_weight(1, dim)
        assert verify_weight(M, fvec([1, 0]), w)
        assert not verify_weight(M, fvec([0, 0]), w)
        for v in (fvec([1]), fvec([1, 0, 0])):
            with pytest.raises(DimensionMismatch):
                verify_weight(M, v, w)

    @pytest.mark.parametrize("t", [F(1), F(3, 5), F(-1, 7)])
    def test_nonzero_weight(self, t):
        # adjoint(t aff(1)): phi = psi = (0, t) on the vector solve finds
        L = bundle(AFF1, [t])
        M = adjoint(L)
        res = solve(L, M)
        phi, psi = res.weight.phi, res.weight.psi
        assert phi == psi == ((F(0), t),)
        assert verify_weight(M, res.v, res.weight)
        assert verify_weight(M, tuple(F(-3, 7) * x for x in res.v), res.weight)
        assert not verify_weight(M, res.v, Weight(((F(0), 2 * t),), psi))
        assert not verify_weight(M, res.v, Weight(phi, ((F(0), F(0)),)))
        assert not verify_weight(M, fvec([0, 0]), res.weight)

    @settings(max_examples=40, deadline=None)
    @given(valid_instances(), st.data())
    def test_matches_fraction_products(self, instance, data):
        L, M = instance
        res = outcome(solve, L, M)
        if not isinstance(res, solver.SolveResult):
            return
        phi, psi = res.weight.phi, res.weight.psi
        k, i = data.draw(st.integers(0, L.s - 1)), data.draw(st.integers(0, L.dim - 1))
        bump = tuple(tuple(x + (a == k and b == i) for b, x in enumerate(row))
                     for a, row in enumerate(phi))
        v = data.draw(st.sampled_from([res.v, tuple(F(2, 3) * x for x in res.v),
                                       M.F[k][i].apply(res.v), (F(0),) * M.vdim]))
        for w in (res.weight, Weight(bump, psi), Weight(phi, bump)):
            assert verify_weight(M, v, w) == weight_by_products(M, v, w)


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
        assert weight_space(2, ((),), ((),), Weight(((),), ((),))) == Subspace.full(2)

    def test_leib2_zero_weight(self, leib2):
        # the operators f_0(e2), g_0(e2) of adjoint(leib2) over a line
        M = adjoint(leib2)
        e2 = fvec([0, 1])
        w = Weight((fvec([0]),), (fvec([0]),))
        assert weight_space(2, ((M.f(0, e2),),), ((M.g(0, e2),),), w) == span(
            2, [[1, 0]])

    def test_phi_and_psi_read_separately(self):
        f = Matrix([[F(1), F(0)], [F(0), F(2)]])
        w = Weight((fvec([1]),), (fvec([0]),))
        assert weight_space(2, ((f,),), ((Matrix.zeros(2, 2),),), w) == span(
            2, [[1, 0]])


# mostly zero, so f_h(x) - g_h(x) often vanishes on part of U
small_ints = st.sampled_from([0, 0, 0, 1, -1, 2])


@st.composite
def witness_inputs(draw):
    """U in Q^m and integer f_h(x), g_h(x) = f_h(x) + D_h, D_h mostly zero."""
    m, s = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rows = st.lists(small_ints, min_size=m, max_size=m)
    square = st.lists(st.lists(st.integers(-5, 5), min_size=m, max_size=m),
                      min_size=m, max_size=m)
    Fx = [Matrix(draw(square)) for _ in range(s)]
    Gx = [f + Matrix(draw(st.lists(rows, min_size=m, max_size=m))) for f in Fx]
    U = span(m, draw(st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m),
                              min_size=1, max_size=m)))
    return U, Fx, Gx


class TestCase1Witness:
    @settings(max_examples=200, deadline=None)
    @given(witness_inputs())
    def test_matches_the_applied_loop(self, inputs):
        assert solver._case1_witness(*inputs) == applied_case1_witness(*inputs)

    def test_first_basis_vector_then_smallest_h(self):
        U = span(2, [[1, 0], [0, 1]])
        zero = Matrix.zeros(2, 2)
        e2_to_e1 = Matrix([[0, 1], [0, 0]])
        e1_to_e2 = Matrix([[0, 0], [1, 0]])
        assert solver._case1_witness(U, [zero, e2_to_e1], [zero, zero]) == fvec([1, 0])
        assert solver._case1_witness(
            U, [e2_to_e1, e1_to_e2], [zero, zero]) == fvec([0, 1])
        assert solver._case1_witness(U, [e2_to_e1], [e2_to_e1]) is None

    @settings(max_examples=60, deadline=None)
    @given(st.builds(GeneratorSpec, st.sampled_from(CONSTRUCTIONS), st.integers(1, 4),
                     st.integers(1, 3), st.integers(0, 2**16)))
    def test_unreached_on_generated_instances(self, spec):
        # (f_h - g_h)(x) maps into ann, so where every f_h(x) and g_h(x)
        # preserves U the witness lies in U meet ann, which is 0 whenever the
        # witness is computed: a valid instance never reaches case 1
        inst, witness = generate(spec), solver._case1_witness

        def checked(U, Fx, Gx):
            assert is_invariant([*Fx, *Gx], U)
            out = witness(U, Fx, Gx)
            assert out is None
            return out

        with mock.patch.object(solver, "_case1_witness", checked):
            res = solve(inst.algebra, inst.module)
        assert solver.TAG_CASE_1 not in res.branch_trace


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

    @pytest.mark.parametrize("u0, phi, psi", [
        ([0, 0], 5, -3),  # the zero vector has every weight but is none
        ([0, 0], 0, 0),
        ([1, 0], 5, -3),
        ([1, 0], 0, 1),
    ])
    def test_u0_must_be_a_weight_vector_for_A(self, leib2, u0, phi, psi):
        w = Weight((fvec([phi]),), (fvec([psi]),))
        with pytest.raises(SetupInvalid, match="u0 is not a weight vector for A"):
            congruence_check(leib2, span(2, [[1, 0]]), fvec([0, 1]), adjoint(leib2),
                             fvec(u0), w, 0, 1)

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

    def test_no_restricted_copies(self, monkeypatch, aff2):
        # the weight space comes from M's own f and g on A's basis
        M = adjoint(aff2)
        setup = split_setup(aff2, M)
        monkeypatch.setattr(lemma_checks, "restrict_algebra", None)
        monkeypatch.setattr(lemma_checks, "restrict_module", None)
        assert trace_vanishing_check(aff2, setup.A, setup.x, M, setup.weight).ok
        wrong = Weight(((F(1),),), setup.weight.psi)
        with pytest.raises(SetupInvalid, match="no nonzero vector realizes"):
            trace_vanishing_check(aff2, setup.A, setup.x, M, wrong)


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
    """run_verify computes the plus annihilator once, for its submodule
    check.  solve computes the flag once (one split per level, one basis
    inversion) and grows its own annihilator along it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()
        # solve makes no annihilator of M and no restricted algebra (the
        # library has no routine that restricts a module): the library's own
        # functions are counted, and so are any names that solver binds to them
        for home, name, targets in ((verify, "plus_annihilator", ()),
                                    (modules, "plus_annihilator", (solver,)),
                                    (algebra, "restrict_algebra", (solver,)),
                                    (solver, "_split_codim1", ()),
                                    (solver, "inverse", ())):
            def counted(*args, _name=name, _fn=getattr(home, name)):
                counts[_name] += 1
                return _fn(*args)

            for module in (home, *targets):
                monkeypatch.setattr(module, name, counted, raising=False)
        return counts

    @pytest.mark.parametrize("name", ["leib2", "nt3", "aff2"])
    def test_once_per_module(self, calls, name, request):
        L = request.getfixturevalue(name)
        report, code = run_verify(L, adjoint(L))
        assert code == 0 and report["checks"]["solve"]["ok"]
        assert calls["plus_annihilator"] == 1

    def test_solve_computes_the_flag_once(self, calls, leib2, nt3, aff2):
        graded = generate(GeneratorSpec("graded-nilpotent", 5, 2, 0))
        for L, M in ((leib2, adjoint(leib2)), (nt3, adjoint(nt3)),
                     (aff2, adjoint(aff2)), (graded.algebra, graded.module)):
            calls.clear()
            solve(L, M)
            assert calls == {"_split_codim1": L.dim, "inverse": 1}


class TestUnverifiedVector:
    def test_fails_the_solve_check(self, monkeypatch, nt3):
        # the one weight check is solve's own: run_verify reports its raise
        monkeypatch.setattr(solver, "verify_weight", lambda M, v, w: False)
        report, code = run_verify(nt3, adjoint(nt3))
        assert code == 1 and not report["ok"]
        assert report["checks"]["solve"] == {
            "ok": False, "error": "solver produced a vector that fails Eq (36)"}
        assert "oracle" not in report["checks"]


def outcome(solver_fn, L, M):
    """The result, or the type and message of the library error raised."""
    try:
        return solver_fn(L, M)
    except LieLikeError as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="session")
def proof_gap():
    return LieLikeAlgebra.from_constants(
        3, 2, {(0, 0, 1): [1, -1, -1], (0, 1, 0): [-1, 1, 1]}
    )


class TestAnnihilatorAlongTheFlag:
    """At level j, solve holds the plus annihilator of M restricted to
    A_j = span(x_1..x_j) of its flag."""

    @staticmethod
    def check(L, M):
        """The annihilator solve(L, M) holds after each level it runs (every
        level when it returns a result) is the restricted one."""
        held, grow = [], Subspace.plus_column_spaces

        def recording(space, pairs):
            held.append(grow(space, pairs))
            return held[-1]

        with mock.patch.object(Subspace, "plus_column_spaces", recording):
            solved = isinstance(outcome(solve, L, M), solver.SolveResult)
        xs = solver._flag(L)
        spans = [Subspace.span(L.dim, xs[:j]) for j in range(1, len(xs) + 1)]
        restricted = [plus_annihilator(restrict_module(M, A, restrict_algebra(L, A)))
                      for A in spans]
        assert held == (restricted if solved else restricted[:len(held)])
        return solved, len(held)

    @pytest.mark.parametrize("name", ["leib2", "nt3", "aff2"])
    def test_adjoint_fixtures(self, name, request):
        L = request.getfixturevalue(name)
        assert self.check(L, adjoint(L)) == (True, L.dim)

    def test_proof_gap(self, proof_gap):
        # solve stops at its third level, where the weight space loses its vector
        assert self.check(proof_gap, adjoint(proof_gap)) == (False, 2)

    @settings(max_examples=60, deadline=None)
    @given(valid_instances())
    def test_valid_instances(self, instance):
        L, M = instance
        if is_solvable(L)[0]:
            self.check(L, M)


class TestFlagMatchesRecursion:
    """solve over the flag gives what the per-level recursion gives."""

    @pytest.mark.parametrize("name", [
        "leib2", "nt3", "aff2", "right1", "proof_gap", "sl2_plus_line"])
    def test_adjoint_fixtures(self, name, request):
        L = request.getfixturevalue(name)
        M = adjoint(L)
        assert outcome(solve, L, M) == outcome(recursive_solve, L, M)

    def test_irrational_line(self, abelian_irrational):
        L, M = abelian_irrational
        got = outcome(solve, L, M)
        assert got == outcome(recursive_solve, L, M)
        assert got[0] is NonSplitSpectrum

    @pytest.mark.parametrize("ts", [[F(2)], [F(3, 5), F(3, 5)], [F(-1, 7)] * 3])
    def test_aff1_bundles_with_nonzero_weights(self, ts):
        L = bundle(AFF1, ts)
        M = adjoint(L)
        res = solve(L, M)
        assert res == recursive_solve(L, M)
        assert res.dichotomy == "phi-equals-psi"
        assert all(row == (0, t) for row, t in zip(res.weight.phi, ts))

    @settings(max_examples=60, deadline=None)
    @given(valid_instances())
    def test_valid_instances(self, instance):
        L, M = instance
        assert outcome(solve, L, M) == outcome(recursive_solve, L, M)


class TestSplitOnSubspaces:
    """The split on subspaces of L, the flag it gives and the oracle's
    eigen-steps inside its fronts equal their references: the greedy split
    down the chain of restricted algebras, and eigenspaces of the whole
    space intersected with each front."""

    @staticmethod
    def levels(L):
        """(basis of A, x) for each level from the top, by the split on
        subspaces of L."""
        A, out = Subspace.full(L.dim), []
        while A.dim:
            A, x = _split_codim1(L, A)
            out.append((A.basis, x))
        return out

    @staticmethod
    def on_algebra(fn, L):
        """fn(L), or the type and message of the library error raised."""
        return outcome(lambda L, _: fn(L), L, None)

    def test_last_nonzero_coordinates_decide(self):
        # <e_0, e_0> = e_1 + e_2 spans D^2 L, whose last nonzero coordinate
        # is at 2: e_0 and e_1 are appended, so x = e_1 (the first nonzero
        # coordinate would append e_0 and e_2 instead)
        L = LieLikeAlgebra.from_constants(3, 1, {(0, 0, 0): [0, 1, 1]})
        assert check_algebra(L) == []
        assert split_codim1(L) == greedy_split(L) == (
            span(3, [[1, 0, 0], [0, 1, 1]]), fvec([0, 1, 0]))
        expected = [((fvec([1, 0, 0]), fvec([0, 1, 1])), fvec([0, 1, 0])),
                    ((fvec([0, 1, 1]),), fvec([1, 0, 0])),
                    ((), fvec([0, 1, 1]))]
        assert self.levels(L) == chain_levels(L) == expected
        assert solver._flag(L) == chain_flag(L) == [x for _, x in expected][::-1]

    @settings(max_examples=60, deadline=None)
    @given(basis_changed_instances())
    def test_every_level_matches_the_greedy_chain(self, instance):
        L, _ = instance
        assert self.on_algebra(split_codim1, L) == self.on_algebra(greedy_split, L)
        assert self.on_algebra(self.levels, L) == self.on_algebra(chain_levels, L)
        assert self.on_algebra(solver._flag, L) == self.on_algebra(chain_flag, L)

    @staticmethod
    def splits_agree(L):
        """Runs the split down L's flag, checking each level's (ideal, x), or
        the error raised, against the two-elimination reference; returns
        the error, or None when the flag reaches the zero space."""
        A = Subspace.full(L.dim)
        while A.dim:
            got = outcome(_split_codim1, L, A)
            assert got == outcome(two_elimination_split, L, A)
            if not isinstance(got[0], Subspace):
                return got
            A = got[0]
        return None

    @pytest.mark.parametrize("construction", CONSTRUCTIONS)
    def test_one_elimination_matches_two(self, construction):
        for n, s, seed in ((1, 1, 0), (2, 3, 1), (3, 2, 2), (4, 3, 3), (5, 2, 4)):
            L = generate(GeneratorSpec(construction, n, s, seed)).algebra
            assert self.splits_agree(L) is None
            P = random_unimodular(Random(seed), n, 2)
            assert self.splits_agree(transform_instance(L, adjoint(L), P)[0]) is None

    @settings(max_examples=60, deadline=None)
    @given(basis_changed_instances())
    def test_one_elimination_matches_two_after_basis_changes(self, instance):
        self.splits_agree(instance[0])

    def test_blocked_splits(self, sl2, sl2_plus_line):
        blocked = (NotSolvable, "D^2 L = L blocks the codimension-1 split")
        assert self.splits_agree(sl2) == blocked
        assert self.splits_agree(sl2_plus_line) == blocked

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(valid_instances(),
                     perturbed_modules().map(lambda M: (M.algebra, M))))
    def test_oracle_matches_whole_space_intersections(self, instance):
        L, M = instance
        assert outcome(oracle_solve, L, M) == outcome(intersecting_oracle, L, M)


class TestGrownWeightSpace:
    """At every level, the weight space solve carries equals the one
    weight_space computes from all of Q^m; it is recomputed only where the
    functionals do not extend those of the level below."""

    @pytest.fixture
    def levels(self, monkeypatch):
        return record_levels(monkeypatch)

    @staticmethod
    def run(levels, L, M):
        """solve's outcome, after checking that levels 0, 1, ... were
        recorded in order and recomputed exactly where w does not extend
        the level below's functionals."""
        levels.clear()
        levels.recomputed = 0
        got = outcome(solve, L, M)
        previous = None
        for j, (FA, w, _, recomputed) in enumerate(levels):
            assert all(len(fk) == j for fk in FA)
            rows = w.phi + w.psi
            extends = previous is None or all(
                new[:-1] == old for new, old in zip(rows, previous))
            assert recomputed == (not extends)
            previous = rows
        if isinstance(got, solver.SolveResult):
            assert len(levels) == L.dim
        return got

    @pytest.mark.parametrize("name", ["leib2", "nt3", "aff2"])
    def test_fixtures_only_grow(self, levels, name, request):
        L = request.getfixturevalue(name)
        assert isinstance(self.run(levels, L, adjoint(L)), solver.SolveResult)
        assert levels.recomputed == 0

    @pytest.mark.parametrize("ts", [[F(1)], [F(2)], [F(3, 5), F(3, 5)], [F(-1, 7)] * 3])
    def test_aff1_bundles_with_nonzero_weights(self, levels, ts):
        L = bundle(AFF1, ts)
        res = self.run(levels, L, adjoint(L))
        assert all(row == (0, t) for row, t in zip(res.weight.phi, ts))

    @pytest.mark.parametrize("ts", [[F(-1)], [F(-2, 3)] * 2])
    def test_nonzero_weight_carried_up(self, levels, ts):
        # aff(1) + aff(1): x_2 = e_1 gets the weight t < 0, the smallest
        # eigenvalue of its operators, and the two levels above grow with it
        L = bundle(AFF1_SUM, ts)
        res = self.run(levels, L, adjoint(L))
        assert res.dichotomy == "phi-equals-psi"
        assert [w.phi[0][1:2] for _, w, _, _ in levels[2:]] == [(ts[0],)] * 2

    def test_proof_gap_branches(self, levels, proof_gap):
        got = self.run(levels, proof_gap, adjoint(proof_gap))
        assert got == (TheoremViolation, "recursive weight space lost its weight vector")
        # level 0 takes ann-nonzero/g-zero with the weight 0 on x_1, and
        # level 1 ann-nonzero/g-nonzero, whose reset to zero functionals
        # extends that weight: U grows at every level
        assert [recomputed for *_, recomputed in levels] == [False] * 3

    def test_reset_recomputes(self):
        # no known instance resets nonzero functionals below its top level,
        # so the rule is run on aff(1) + aff(1) by hand: U holds the weight
        # (0, -1) on x_1, x_2, and the zero functionals on x_1..x_3 do not
        # extend it
        L = bundle(AFF1_SUM, [F(-1)])
        M = adjoint(L)
        xs = solver._flag(L)[:3]
        FA, GA = [[M.f(0, x) for x in xs]], [[M.g(0, x) for x in xs]]
        held = Weight(((F(0), F(-1)),), ((F(0), F(-1)),))
        U = weight_space(4, [FA[0][:2]], [GA[0][:2]], held)
        w = Weight(((F(0),) * 3,), ((F(0),) * 3,))
        got = solver._next_weight_space(U, held, FA, GA, w)
        assert got == weight_space(4, FA, GA, w) == span(4, [[0, 0, 1, 0]])
        # growing U instead would keep e_0, whose weight on x_2 = e_1 is -1
        grown = common_eigenspace(solver._weight_pairs(FA, GA, w, 2), U)
        assert grown == span(4, [[1, 0, 0, 0]])

    @settings(max_examples=60, deadline=None)
    @given(valid_instances())
    def test_valid_instances(self, instance):
        with pytest.MonkeyPatch.context() as mp:
            self.run(record_levels(mp), *instance)


class TestEigenStepsTakenOnce:
    """solve takes each eigen-step once.  In case 2 the joint eigenspace of
    x's operators inside U is the weight space one level up, so the next
    level's weight space takes no eigen-step; the eigen-steps of a whole
    solve are pinned."""

    @pytest.fixture
    def steps(self, monkeypatch):
        """A list that the solves that follow fill with the eigen-steps each
        _next_weight_space call takes; its `total` counts every eigen-step."""
        seen = StepLog()
        step, grow = linalg._eigen_step, solver._next_weight_space

        def counted(*args):
            seen.total += 1
            return step(*args)

        def recorded(*args):
            before = seen.total
            out = grow(*args)
            seen.append(seen.total - before)
            return out

        monkeypatch.setattr(linalg, "_eigen_step", counted)
        monkeypatch.setattr(solver, "_next_weight_space", recorded)
        return seen

    @staticmethod
    def run(steps, L, M):
        """The eigen-steps of solve(L, M), after checking that every level
        above a case-2 level took none for its weight space."""
        steps.clear()
        steps.total = 0
        res = solve(L, M)
        # one tag per level, bottom level first: case 1 precedes its branch
        tags = [tag for tag in reversed(res.branch_trace) if tag != solver.TAG_CASE_1]
        assert len(tags) == len(steps) == L.dim
        for j, tag in enumerate(tags[:-1]):
            if tag == solver.TAG_CASE_2:
                assert steps[j + 1] == 0
        return steps.total

    @pytest.mark.parametrize("name, total", [("leib2", 3), ("nt3", 10), ("aff2", 4)])
    def test_fixtures(self, steps, name, total, request):
        L = request.getfixturevalue(name)
        assert self.run(steps, L, adjoint(L)) == total

    def test_spectral_wide_seed_0(self, steps):
        # the benchmark's spectral-wide instances at seed 0
        totals = []
        for n, seed in ((6, 0), (6, 1), (7, 0)):
            inst = generate(GeneratorSpec("direct-sum", n, 1, seed))
            totals.append(self.run(steps, inst.algebra, inst.module))
        assert totals == [13, 13, 15]


class StepLog(list):
    total = 0


# aff(1) + aff(1): <e_1, e_0> = e_0 and <e_3, e_2> = e_2
AFF1_SUM = {(1, 0): [1, 0, 0, 0], (0, 1): [-1, 0, 0, 0],
            (3, 2): [0, 0, 1, 0], (2, 3): [0, 0, -1, 0]}


class LevelLog(list):
    recomputed = 0


def record_levels(monkeypatch):
    """A LevelLog that the solves that follow fill with (FA, w, U,
    recomputed) for each level; its `recomputed` counts weight_space calls.
    Each U is checked against weight_space from all of Q^m as it is made."""
    seen = LevelLog()
    grow, recompute = solver._next_weight_space, solver.weight_space

    def counted(*args):
        seen.recomputed += 1
        return recompute(*args)

    def recorded(U, held, FA, GA, w):
        before = seen.recomputed
        out = grow(U, held, FA, GA, w)
        assert out == recompute(U.ambient, FA, GA, w)
        seen.append((FA, w, out, seen.recomputed > before))
        return out

    monkeypatch.setattr(solver, "weight_space", counted)
    monkeypatch.setattr(solver, "_next_weight_space", recorded)
    return seen
