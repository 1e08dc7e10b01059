from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lielike import (
    GeneratorSpec,
    LieLikeAlgebra,
    Matrix,
    OrdinaryModule,
    Subspace,
    adjoint,
    change_basis,
    check_algebra,
    check_derived_identities,
    check_module,
    direct_sum,
    generate,
    is_submodule,
    plus_annihilator,
    restrict_algebra,
)
from lielike import modules
from lielike.linalg import vec
from lielike.modules import ModuleViolation
from lielike.verify import run_verify
from reference_solver import restrict_module
from strategies import (
    diagonal,
    perturbed_modules,
    scaled_instances,
    shifted,
    shifted_algebra,
    transform_instance,
    valid_instances,
)
from test_algebra import naive_check_algebra

F = Fraction


def span(n, rows):
    return Subspace.span(n, [vec(F(x) for x in r) for r in rows])


def perturbed(M, which, k, i, r, c, delta=1):
    fam = [list(fk) for fk in (M.F if which == "F" else M.G)]
    rows = [list(row) for row in fam[k][i].rows]
    rows[r][c] += delta
    fam[k][i] = Matrix(rows)
    fam = tuple(tuple(ops) for ops in fam)
    if which == "F":
        return type(M)(M.algebra, M.vdim, fam, M.G)
    return type(M)(M.algebra, M.vdim, M.F, fam)


# mostly zero, so the plus annihilator's difference columns often span a
# proper subspace
entries = st.one_of(
    st.just(F(0)), st.just(F(0)), st.fractions(-3, 3, max_denominator=4)
)


def fraction_adjoint(L):
    """`adjoint` from negated Fraction copies of the constant columns."""
    n = L.dim
    F_ = tuple(tuple(Matrix(zip(*(tuple(-x for x in L.c[k][j][i]) for j in range(n))))
                     for i in range(n)) for k in range(L.s))
    G = tuple(tuple(Matrix(zip(*L.c[k][i])) for i in range(n)) for k in range(L.s))
    return OrdinaryModule(L, n, F_, G)


@st.composite
def any_constants(draw):
    """An algebra with arbitrary rational structure constants, s <= 3."""
    n, s = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    vector = st.lists(entries, min_size=n, max_size=n)
    return LieLikeAlgebra.from_constants(n, s, {
        (k, i, j): draw(vector) for k in range(s) for i in range(n) for j in range(n)})


class TestAdjoint:
    def test_abelian_adjoint_is_zero(self):
        M = adjoint(LieLikeAlgebra.from_constants(2, 1, {}))
        zero = Matrix([[0, 0], [0, 0]])
        assert all(op == zero for fk in M.F for op in fk)
        assert all(op == zero for gk in M.G for op in gk)

    def test_leib2_operators(self, leib2):
        M = adjoint(leib2)
        e1, e2 = vec([F(1), F(0)]), vec([F(0), F(1)])
        assert M.F[0][1].apply(e2) == vec([F(-1), F(0)])
        assert M.G[0][1].apply(e2) == e1
        zero = Matrix([[0, 0], [0, 0]])
        assert M.F[0][0] == zero and M.G[0][0] == zero

    def test_nt3_second_bracket(self, nt3):
        M = adjoint(nt3)
        e3 = vec([F(0), F(0), F(1)])
        assert M.G[1][2].apply(e3) == vec([F(0), F(1), F(0)])

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(valid_instances().map(lambda inst: inst[0]), any_constants()))
    def test_matches_fraction_build(self, L):
        assert adjoint(L) == fraction_adjoint(L)


class TestCheckModule:
    def test_zero_module_passes(self, nt3):
        zero = Matrix.zeros(3, 3)
        fam = tuple(tuple(zero for _ in range(3)) for _ in range(2))
        M = adjoint(nt3)
        assert check_module(type(M)(nt3, 3, fam, fam)) == []

    def test_adjoints_pass(self, leib2, bundle2, nt3, aff2):
        for L in (leib2, bundle2, nt3, aff2):
            assert check_algebra(L) == []
            assert check_module(adjoint(L)) == []

    def test_perturbation_located(self, leib2):
        bad = perturbed(adjoint(leib2), "G", 0, 1, 1, 1)
        violations = check_module(bad)
        assert violations
        tags = {v.axiom for v in violations}
        assert tags <= {"eq-1.3", "eq-1.4", "eq-1.5", "eq-1.6a", "eq-1.6b"}

    def test_mixed_index_axioms_checked(self, nt3):
        bad = perturbed(adjoint(nt3), "F", 1, 2, 0, 0)
        assert check_module(bad)


def naive_check_module(M):
    """Reference: every residual built as a Fraction Matrix, then tested."""
    L = M.algebra
    F_, G_ = M.F, M.G
    out = []

    zero = Matrix.zeros(M.vdim, M.vdim)

    def record(tag, k, h, i, j, residual):
        if residual != zero:
            out.append(ModuleViolation(tag, (k, h, i, j), residual))

    for k in range(L.s):
        for h in range(L.s):
            for i in range(L.dim):
                for j in range(L.dim):
                    w = L.c[k][i][j]
                    fhi_fkj = F_[h][i] @ F_[k][j]
                    ghi_fkj = G_[h][i] @ F_[k][j]
                    record("eq-1.3", k, h, i, j,
                           M.f(h, w) - (fhi_fkj - F_[k][j] @ F_[h][i]))
                    record("eq-1.4", k, h, i, j,
                           M.g(h, w) - (ghi_fkj - F_[k][j] @ G_[h][i]))
                    record("eq-1.5", k, h, i, j, G_[k][i] @ G_[h][j] - ghi_fkj)
                    record("eq-1.5", k, h, i, j, ghi_fkj - G_[k][i] @ F_[h][j])
                    record("eq-1.6a", k, h, i, j, F_[k][i] @ F_[h][j] - fhi_fkj)
                    record("eq-1.6b", k, h, i, j,
                           F_[k][i] @ G_[h][j] - F_[h][i] @ G_[k][j])
    return out


def naive_derived_identities(M):
    L = M.algebra
    failures = []
    for k in range(L.s):
        for h in range(k + 1, L.s):
            for i in range(L.dim):
                for j in range(L.dim):
                    wk, wh = L.c[k][i][j], L.c[h][i][j]
                    if M.f(h, wk) != M.f(k, wh):
                        failures.append(f"f-swap at (k={k}, h={h}, i={i}, j={j})")
                    if M.g(h, wk) != M.g(k, wh):
                        failures.append(f"g-swap at (k={k}, h={h}, i={i}, j={j})")
    return failures


class TestIntegerChecksMatchFractionLoops:
    """check_module and check_derived_identities compare integer rows of one
    product table, and check_module reads each residual off the same rows;
    the results must equal the Fraction loops', residuals and order
    included."""

    @settings(max_examples=60, deadline=None)
    @given(perturbed_modules())
    def test_generated_and_perturbed(self, M):
        assert check_module(M) == naive_check_module(M)
        assert check_derived_identities(M) == naive_derived_identities(M)

    def test_rational_basis_with_nonzero_products(self, aff2):
        # D = E = 7 and [f(e_1), f(e_2)] != 0: every side of eq-1.3 must be
        # scaled for the check to pass
        L, M = transform_instance(aff2, adjoint(aff2), diagonal([1, 7]))
        assert M.F[0][1].rows[0][0] == L.c[0][1][0][0] == F(1, 7)
        assert check_module(M) == [] == naive_check_module(M)
        bad = shifted(M, c_shifts=[((0, 1, 0, 0), F(1, 7))])
        assert check_module(bad) == naive_check_module(bad) != []

    def test_rational_operator_shift(self, nt3):
        M = shifted(adjoint(nt3), [(("F", 1, 2, 0, 0), F(1, 7)),
                                   (("G", 0, 2, 1, 2), F(-2, 7))])
        violations = check_module(M)
        assert len({v.witness for v in violations}) > 1
        assert violations == naive_check_module(M)

    def test_rational_constant_shift(self, nt3):
        M = shifted(adjoint(nt3), c_shifts=[((1, 2, 2, 2), F(1, 7))])
        assert check_module(M) == naive_check_module(M) != []
        derived = check_derived_identities(M)
        assert derived == naive_derived_identities(M) != []

    def test_vdim_one(self, leib2):
        zero = Matrix([[0]])
        fam = ((zero, zero),)
        M = OrdinaryModule(leib2, 1, fam, fam)
        assert check_module(M) == []
        bad = shifted(M, [(("G", 0, 1, 0, 0), F(1, 7))])
        assert check_module(bad) == naive_check_module(bad) != []

    def test_all_zero_module(self, nt3):
        for m in (0, 1, 3):
            zero = Matrix.zeros(m, m)
            fam = tuple(tuple(zero for _ in range(3)) for _ in range(2))
            M = OrdinaryModule(nt3, m, fam, fam)
            assert check_module(M) == []
            assert check_derived_identities(M) == []

    def test_single_index(self, leib2):
        M = shifted(adjoint(leib2), [(("F", 0, 1, 0, 1), F(3, 5))],
                    [((0, 1, 1, 1), F(1, 7))])
        assert check_module(M) == naive_check_module(M) != []
        assert check_derived_identities(M) == []


class TestPackedWidth:
    """The product table packs each matrix into one int with digits of a
    width computed from the entry bounds; on large entries every check must
    still equal its Fraction loop, residuals and order included."""

    @settings(max_examples=30, deadline=None)
    @given(scaled_instances())
    def test_scaled_valid_instances_pass(self, instance):
        L, M = instance
        assert check_algebra(L) == [] == naive_check_algebra(L)
        assert check_module(M) == [] == naive_check_module(M)
        assert check_derived_identities(M) == [] == naive_derived_identities(M)

    @settings(max_examples=40, deadline=None)
    @given(perturbed_modules(scaled_instances()))
    def test_scaled_and_perturbed(self, M):
        assert check_algebra(M.algebra) == naive_check_algebra(M.algebra)
        assert check_module(M) == naive_check_module(M)
        assert check_derived_identities(M) == naive_derived_identities(M)

    def test_residual_at_the_bound(self):
        # D = E = 1, m = n = 2: a = 2^40 bounds the operators and 2a the
        # constant vector, so B = max(2*E*m*a^2, D*n*b*a) = 4a^2, a power of
        # two.  The eq-1.3 residual at (0, 0, 0, 1) is the combination
        # 2a*(F_0 + F_1) minus [F_0, F_1]; its entry (0, 1) is 4a^2 + 4a^2
        # = 2B, which a width one bit short reads as -2B.
        a = 2**40
        L = LieLikeAlgebra.from_constants(2, 1, {(0, 0, 1): [2 * a, 2 * a]})
        F0, F1 = Matrix([[-a, a], [0, a]]), Matrix([[a, a], [0, -a]])
        zero = Matrix.zeros(2, 2)
        M = OrdinaryModule(L, 2, ((F0, F1),), ((zero, zero),))
        violations = check_module(M)
        assert violations == naive_check_module(M)
        first = violations[0]
        assert (first.axiom, first.witness) == ("eq-1.3", (0, 0, 0, 1))
        assert first.residual.rows[0][1] == 8 * a * a


class TestOneProductTable:
    """check_algebra and check_module each build one _ProductTable and read
    every comparison and every residual from it: no Fraction matrix product
    is taken, not even for a failing tuple.  check_derived_identities reads
    the table check_module built for the same module."""

    @staticmethod
    def counted(monkeypatch, check, arg):
        """(tables built, Matrix products taken) by one call of check."""
        counts = [0, 0]
        table, matmul = modules._ProductTable, Matrix.__matmul__

        def counted_table(*args):
            counts[0] += 1
            return table(*args)

        def counted_matmul(a, b):
            counts[1] += 1
            return matmul(a, b)

        monkeypatch.setattr(modules, "_ProductTable", counted_table)
        monkeypatch.setattr(Matrix, "__matmul__", counted_matmul)
        assert check(arg)
        return tuple(counts)

    def test_failing_algebra(self, monkeypatch, nt3):
        bad = shifted_algebra(nt3, [((0, 2, 2, 2), F(1, 7)), ((1, 0, 2, 1), F(-2, 7))])
        assert self.counted(monkeypatch, check_algebra, bad) == (1, 0)

    def test_failing_module(self, monkeypatch):
        # the benchmark's invalid twin: G_0(e_0) + I on a generated instance
        M = generate(GeneratorSpec("graded-nilpotent", 3, 3, 0)).module
        twin = shifted(M, [(("G", 0, 0, r, r), 1) for r in range(M.vdim)])
        assert self.counted(monkeypatch, check_module, twin) == (1, 0)

    def test_verify_builds_two_tables(self, monkeypatch):
        # one from the algebra's constants, one for the module
        M = generate(GeneratorSpec("graded-nilpotent", 3, 3, 0)).module
        verified = lambda M: run_verify(M.algebra, M)[1] == 0
        assert self.counted(monkeypatch, verified, M)[0] == 2

    def test_verify_scales_the_constants_once(self, monkeypatch):
        # the constants are scaled to integers once, when L is built: the
        # adjoint's operators, both tables, the derived series and the flag
        # read L.constants, and none builds the nested view L.c
        inst = generate(GeneratorSpec("graded-nilpotent", 3, 3, 0))

        def view(L):
            raise AssertionError("verify read L.c")

        monkeypatch.setattr(LieLikeAlgebra, "c", property(view))
        assert run_verify(inst.algebra, inst.module)[1] == 0

    def test_derived_identities_reuse_the_module_table(self, monkeypatch):
        M = generate(GeneratorSpec("graded-nilpotent", 3, 3, 0)).module
        assert check_module(M) == []
        passed = lambda M: check_derived_identities(M) == []
        assert self.counted(monkeypatch, passed, M) == (0, 0)


class TestDerivedIdentities:
    def test_single_index_vacuous(self, leib2):
        assert check_derived_identities(adjoint(leib2)) == []

    def test_multi_index_adjoints(self, nt3, bundle2):
        assert check_derived_identities(adjoint(nt3)) == []
        assert check_derived_identities(adjoint(bundle2)) == []


def s_squared_annihilator(M):
    """Span of the columns of G_h[i] - F_k[i] over every (h, k, i)."""
    gens = [
        col
        for gh in M.G for fk in M.F for g, f in zip(gh, fk)
        for col in zip(*(g - f).rows)
    ]
    return Subspace.span(M.vdim, gens)



@st.composite
def operator_families(draw):
    """Arbitrary F and G over an abelian algebra, s <= 3: no axiom holds.
    G is often F_0 again, so only the f_k - f_0 columns span anything."""
    n, s, m = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    op = st.lists(
        st.lists(entries, min_size=m, max_size=m), min_size=m, max_size=m
    ).map(Matrix)
    fam = st.lists(st.lists(op, min_size=n, max_size=n).map(tuple),
                   min_size=s, max_size=s).map(tuple)
    F_ = draw(fam)
    G = draw(st.one_of(fam, st.just((F_[0],) * s)))
    return OrdinaryModule(LieLikeAlgebra.from_constants(n, s, {}), m, F_, G)


class TestPlusAnnihilator:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(valid_instances().map(lambda inst: inst[1]), operator_families()))
    def test_equals_span_over_every_index_pair(self, M):
        assert plus_annihilator(M) == s_squared_annihilator(M)

    def test_zero_module(self, nt3):
        zero = Matrix.zeros(3, 3)
        fam = tuple(tuple(zero for _ in range(3)) for _ in range(2))
        M = type(adjoint(nt3))(nt3, 3, fam, fam)
        assert plus_annihilator(M) == Subspace.zero(3)

    def test_leib2(self, leib2):
        assert plus_annihilator(adjoint(leib2)) == span(2, [[1, 0]])

    def test_nt3(self, nt3):
        assert plus_annihilator(adjoint(nt3)) == span(
            3, [[1, 0, 0], [0, 1, 0]]
        )

    def test_is_submodule(self, leib2, nt3, aff2):
        for L in (leib2, nt3, aff2):
            M = adjoint(L)
            assert is_submodule(M, plus_annihilator(M))


class TestIsSubmodule:
    def test_extremes(self, leib2):
        M = adjoint(leib2)
        assert is_submodule(M, Subspace.zero(2))
        assert is_submodule(M, Subspace.full(2))

    def test_lines(self, leib2):
        M = adjoint(leib2)
        assert is_submodule(M, span(2, [[1, 0]]))
        assert not is_submodule(M, span(2, [[0, 1]]))


class TestRestrictModule:
    def test_zero_subalgebra(self, leib2):
        M = adjoint(leib2)
        LA = restrict_algebra(leib2, Subspace.zero(2))
        MA = restrict_module(M, Subspace.zero(2), LA)
        assert MA.vdim == 2 and MA.F == ((),) and MA.G == ((),)

    def test_leib2_line_acts_by_zero(self, leib2):
        A = span(2, [[1, 0]])
        LA = restrict_algebra(leib2, A)
        MA = restrict_module(adjoint(leib2), A, LA)
        zero = Matrix([[0, 0], [0, 0]])
        assert all(op == zero for fk in MA.F for op in fk)
        assert all(op == zero for gk in MA.G for op in gk)
        assert check_module(MA) == []

    def test_nt3_plane_acts_by_zero(self, nt3):
        A = span(3, [[1, 0, 0], [0, 1, 0]])
        LA = restrict_algebra(nt3, A)
        MA = restrict_module(adjoint(nt3), A, LA)
        zero = Matrix([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
        assert all(op == zero for fam in (MA.F, MA.G) for fk in fam for op in fk)


class TestChangeBasis:
    def test_identity_and_scalar(self, leib2):
        M = adjoint(leib2)
        assert change_basis(M, Matrix.identity(2)) == M
        assert change_basis(M, Matrix([[2, 0], [0, 2]])) == M

    def test_shear(self, leib2):
        P = Matrix([[F(1), F(1)], [F(0), F(1)]])
        M2 = change_basis(adjoint(leib2), P)
        assert check_module(M2) == []
        assert plus_annihilator(M2) == span(2, [[1, 0]])


class TestDirectSum:
    def test_with_zero_module(self, leib2):
        M = adjoint(leib2)
        zero = type(M)(leib2, 0, ((Matrix.zeros(0, 0),) * 2,), ((Matrix.zeros(0, 0),) * 2,))
        assert direct_sum(M, zero).F == M.F

    def test_double_leib2(self, leib2):
        M = direct_sum(adjoint(leib2), adjoint(leib2))
        assert M.vdim == 4
        assert check_module(M) == []
        assert plus_annihilator(M) == span(4, [[1, 0, 0, 0], [0, 0, 1, 0]])

    def test_requires_same_algebra(self, leib2, aff2):
        with pytest.raises(Exception):
            direct_sum(adjoint(leib2), adjoint(aff2))
