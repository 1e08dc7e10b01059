"""The structure constants as one integer matrix per algebra.

`LieLikeAlgebra.constants` holds c[k][i][j] as row (k*n + i)*n + j of one
`Matrix`.  Every bracket, every bracket span (D^2 A, the derived series,
ideals) and both product tables read it.  Each route is compared here with
its old build from the Fraction constants L.c, on arbitrary rational
constants (valid algebras or not), dim 0-4, s 1-3, and subspaces from zero
to full.  No reference calls `bracket`.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lielike import (
    LieLikeAlgebra,
    Matrix,
    Subspace,
    adjoint,
    bracket,
    derived_algebra,
    derived_series,
    is_ideal,
    is_trivial,
    linalg,
    vec,
)
from lielike.errors import DimensionMismatch
from lielike.linalg import bilinear_span, unit_vec
from lielike.modules import _ProductTable
from reference_linalg import reference_bracket
from test_integer_rows import assert_canonical
from test_linalg import ENTRY_KINDS

F = Fraction


@st.composite
def algebras(draw, n_max=4):
    """Arbitrary rational constants over one entry kind of TestRref's."""
    entries = draw(ENTRY_KINDS)
    n, s = draw(st.integers(0, n_max)), draw(st.integers(1, 3))
    flat = iter(draw(st.lists(entries, min_size=s * n**3, max_size=s * n**3)))
    c = tuple(tuple(tuple(tuple(next(flat) for _ in range(n)) for _ in range(n))
                    for _ in range(n)) for _ in range(s))
    return LieLikeAlgebra(n, s, c)


def subspaces(n):
    """The zero space, the whole space, the span of up to n + 1 vectors, or
    of standard basis vectors (whose brackets span few constants, so that
    the span of <A, B>_k is seldom the whole space)."""
    vectors = st.lists(st.lists(ENTRY_KINDS.flatmap(lambda e: e), min_size=n, max_size=n),
                       max_size=n + 1)
    units = st.sets(st.integers(0, n - 1), max_size=n) if n else st.just(())
    return st.one_of(st.just(Subspace.zero(n)), st.just(Subspace.full(n)),
                     vectors.map(lambda vs: Subspace.span(n, vs)),
                     units.map(lambda idx: Subspace.span(n, [unit_vec(n, i) for i in idx])))


@st.composite
def algebra_and_spaces(draw):
    L = draw(algebras())
    return L, draw(subspaces(L.dim)), draw(subspaces(L.dim))


def fraction_span(L, A, B):
    """sum_k <A, B>_k spanned from brackets summed over L.c."""
    return Subspace.span(L.dim, [reference_bracket(L, a, b, k) for a in A.basis
                                 for b in B.basis for k in range(L.s)])


def loop_is_ideal(L, I):
    """The bracket/contains loop over I's basis and L's standard basis."""
    units = L.basis()
    return all(I.contains(reference_bracket(L, u, v, k)) for b in I.basis for e in units
               for u, v in ((b, e), (e, b)) for k in range(L.s))


def loop_derived_series(L):
    series = [Subspace.full(L.dim)]
    nxt = Subspace.span(L.dim, [v for tk in L.c for row in tk for v in row])
    while nxt != series[-1]:
        series.append(nxt)
        nxt = fraction_span(L, nxt, nxt)
    return series


def scaled_constants(L):
    """(E, ids by [k][i][j], each distinct E*w by id): the per-table scaling
    over L.c that the product tables did before they read L.constants."""
    e = lcm(*{x.denominator for tk in L.c for ti in tk for w in ti for x in w})
    w_ids: dict[tuple, int] = {}
    c = tuple(tuple(tuple(
        w_ids.setdefault(tuple(x.numerator * (e // x.denominator) for x in w), len(w_ids))
        for w in ti) for ti in tk) for tk in L.c)
    return e, c, list(w_ids)


class TestConstantsMatrix:
    @settings(max_examples=60, deadline=None)
    @given(algebras())
    def test_rows_are_the_constants(self, L):
        C = L.constants
        assert C.rows == tuple(v for tk in L.c for ti in tk for v in ti)
        assert L.constants is C  # built once per algebra

    def test_equal_algebras_compare_by_their_constants(self, nt3):
        copy = LieLikeAlgebra(nt3.dim, nt3.s, nt3.c)
        assert copy.constants == nt3.constants and copy == nt3
        assert hash(copy) == hash(nt3)


class TestBracket:
    @settings(max_examples=100, deadline=None)
    @given(algebras().flatmap(lambda L: st.tuples(
        st.just(L), *[st.lists(ENTRY_KINDS.flatmap(lambda e: e), min_size=L.dim,
                               max_size=L.dim).map(vec)] * 2)))
    def test_matches_fraction_sum(self, case):
        L, x, y = case
        for k in range(L.s):
            out = bracket(L, x, y, k)
            assert out == reference_bracket(L, x, y, k)
            assert all(type(v) is Fraction for v in out)

    def test_keeps_its_argument_checks(self, leib2):
        e = unit_vec(2, 0)
        for args in ((e, e, 1), (e, e, -1), (e[:1], e, 0), (e, e + e, 0)):
            with pytest.raises(DimensionMismatch):
                bracket(leib2, *args)


class TestBilinearSpan:
    @settings(max_examples=100, deadline=None)
    @given(algebra_and_spaces())
    def test_matches_fraction_span(self, case):
        L, A, B = case
        S = bilinear_span(L.constants, A, B)
        assert S == fraction_span(L, A, B)
        assert_canonical(S)
        # pairs of standard lines span at most s constants each
        lines = [Subspace.span(L.dim, [e]) for e in L.basis()]
        for X in lines:
            for Y in lines:
                assert bilinear_span(L.constants, X, Y) == fraction_span(L, X, Y)

    def test_reads_the_left_and_right_arguments_apart(self):
        # <e_0, e_1> = e_0 and <e_1, e_0> = 0
        L = LieLikeAlgebra.from_constants(2, 1, {(0, 0, 1): [1, 0]})
        e0, e1 = (Subspace.span(2, [unit_vec(2, i)]) for i in range(2))
        assert bilinear_span(L.constants, e0, e1) == e0
        assert bilinear_span(L.constants, e1, e0) == Subspace.zero(2)

    def test_one_elimination(self, monkeypatch, nt3):
        calls = []
        reduce = linalg._reduce
        monkeypatch.setattr(linalg, "_reduce", lambda rows: calls.append(1) or reduce(rows))
        full = Subspace.full(3)
        assert bilinear_span(nt3.constants, full, full).dim == 2
        assert len(calls) == 1

    def test_ambient_mismatch(self, nt3):
        with pytest.raises(DimensionMismatch):
            bilinear_span(nt3.constants, Subspace.full(3), Subspace.full(2))
        with pytest.raises(DimensionMismatch):
            bilinear_span(nt3.constants, Subspace.full(2), Subspace.full(2))

    @settings(max_examples=100, deadline=None)
    @given(algebra_and_spaces())
    def test_is_ideal_matches_the_loop(self, case):
        L, I, _ = case
        assert is_ideal(L, I) == loop_is_ideal(L, I)
        D2 = derived_algebra(L)  # every bracket lies in it
        assert is_ideal(L, D2) and loop_is_ideal(L, D2)

    @settings(max_examples=60, deadline=None)
    @given(algebras())
    def test_derived_series_matches_the_loop(self, L):
        assert derived_series(L) == loop_derived_series(L)


class TestProductTablesReadTheConstants:
    @settings(max_examples=60, deadline=None)
    @given(algebras())
    def test_matches_the_per_table_scaling(self, L):
        expected = scaled_constants(L)
        algebra_table, module_table = _ProductTable(L), _ProductTable(L, adjoint(L))
        for t in (algebra_table, module_table):
            assert (t.e, t.c, t.w) == expected
        # the algebra's table holds the adjoint module's operators
        assert (algebra_table.d, algebra_table.ops, algebra_table.rows) == (
            module_table.d, module_table.ops, module_table.rows)


def ratio_is_trivial(L):
    """is_trivial by Fraction ratios: every tensor is t times the first
    nonzero one, t read at that tensor's first nonzero entry."""
    flats = [[x for ti in tk for v in ti for x in v] for tk in L.c]
    base = next((k for k, f in enumerate(flats) if any(f)), None)
    if base is None:
        return True, (0, tuple(F(0) for _ in flats))
    ref = flats[base]
    anchor = next(i for i, x in enumerate(ref) if x)
    scalars = tuple(f[anchor] / ref[anchor] for f in flats)
    if any(x != t * y for f, t in zip(flats, scalars) for x, y in zip(f, ref)):
        return False, None
    return True, (base, scalars)


@st.composite
def bundles(draw):
    """c[k] = t_k c[0] over arbitrary constants c[0], some t_k zero."""
    L = draw(algebras())
    ts = draw(st.lists(st.sampled_from([F(0), F(1), F(-2), F(3, 7)]), min_size=1, max_size=3))
    c = tuple(tuple(tuple(tuple(t * x for x in v) for v in ti) for ti in L.c[0]) for t in ts)
    return LieLikeAlgebra(L.dim, len(ts), c)


class TestIsTrivial:
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(algebras(), bundles()))
    def test_matches_the_ratio_test(self, L):
        assert is_trivial(L) == ratio_is_trivial(L)


class TestExactInputs:
    def test_floats_are_refused(self):
        for build in (lambda: vec([0.1]), lambda: Matrix([[1, 0.5]]),
                      lambda: Subspace.span(1, [[0.25]]),
                      lambda: LieLikeAlgebra.from_constants(1, 1, {(0, 0, 0): [0.5]})):
            with pytest.raises(TypeError, match="float"):
                build()

    def test_exact_entries_pass(self):
        one_third = F(1, 3)
        out = vec([1, "1/3", one_third, True])
        assert out == (F(1), one_third, one_third, F(1)) and out[2] is one_third
