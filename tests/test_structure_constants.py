"""The structure constants as one integer matrix per algebra.

`LieLikeAlgebra.constants` is the algebra's one state: c[k][i][j] is row
(k*n + i)*n + j of one `Matrix`.  Every bracket, every bracket span (D^2 A,
the derived series, ideals), the adjoint's operators and the product
tables read it.  Each route is compared here with its old build from the
Fraction constants L.c, on arbitrary rational constants (valid algebras or
not), dim 0-4, s 1-3, and subspaces from zero to full; every builder of an
algebra is compared with the nested tensor it was given.  No reference
calls `bracket`.
"""

import json
import random
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
    restrict_algebra,
    vec,
)
from lielike.errors import DimensionMismatch
from lielike.generate import _graded_nilpotent, _scaled_bundle
from lielike.linalg import bilinear_span, unit_vec
from lielike.modules import _ProductTable
from lielike.serialize import algebra_from_json, algebra_to_json, dumps, scalar_to_str
from reference_linalg import reference_bracket
from strategies import transform_instance
from test_integer_rows import assert_canonical
from test_linalg import ENTRY_KINDS
from test_modules import fraction_adjoint

F = Fraction


@st.composite
def tensors(draw, n_max=4):
    """(n, s, c[k][i][j]): arbitrary rational constants over one entry kind
    of TestRref's, as a nested tensor of vectors."""
    entries = draw(ENTRY_KINDS)
    n, s = draw(st.integers(0, n_max)), draw(st.integers(1, 3))
    flat = iter(draw(st.lists(entries, min_size=s * n**3, max_size=s * n**3)))
    c = tuple(tuple(tuple(vec(next(flat) for _ in range(n)) for _ in range(n))
                    for _ in range(n)) for _ in range(s))
    return n, s, c


def flat_rows(c):
    """The vectors of a nested tensor in the order of the constants' rows."""
    return [v for tk in c for ti in tk for v in ti]


def entries(c):
    """A nested tensor as `from_constants` entries, every (k, i, j) given."""
    return {(k, i, j): v for k, tk in enumerate(c) for i, ti in enumerate(tk)
            for j, v in enumerate(ti)}


def algebras(n_max=4):
    return tensors(n_max).map(lambda t: LieLikeAlgebra(t[0], t[1], Matrix(flat_rows(t[2]))))


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
    units = Subspace.full(L.dim).basis
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
        assert L.constants.rows == tuple(flat_rows(L.c))
        assert L.c == L.c and L.c is not L.c  # the view is built on each read

    def test_equal_algebras_compare_by_their_constants(self, nt3):
        copy = LieLikeAlgebra(nt3.dim, nt3.s, Matrix(nt3.constants.rows))
        assert copy.constants == nt3.constants and copy == nt3
        assert hash(copy) == hash(nt3)

    def test_shape_is_checked(self):
        for n, s, rows in ((2, 1, [[0, 0]] * 3), (2, 1, [[0]] * 4), (1, 2, [[0]]),
                           (0, 1, [[0]]), (2, 0, [])):
            with pytest.raises(DimensionMismatch):
                LieLikeAlgebra(n, s, Matrix(rows))
        LieLikeAlgebra(0, 2, Matrix([]))  # no constants at dim 0
        with pytest.raises(TypeError, match="Matrix"):
            LieLikeAlgebra(1, 1, (((vec([0]),),),))  # a nested tensor is no state

    def test_from_constants_refuses_keys_out_of_range(self):
        for key in ((0, -1, 0), (0, 0, -1), (-1, 0, 0), (1, 0, 0), (0, 2, 0), (0, 0, 2)):
            with pytest.raises(DimensionMismatch, match="out of range"):
                LieLikeAlgebra.from_constants(2, 1, {key: [1, 0]})
        L = LieLikeAlgebra.from_constants(2, 1, {(0, 1, 0): [1, 0]})
        assert L.c[0][1][0] == vec([1, 0])


def tensor_json(n, s, c):
    """The canonical JSON of an algebra holding the tensor c, written
    straight from c's Fractions."""
    return dumps({"dim": n, "s": s, "c": [[[[scalar_to_str(x) for x in v] for v in ti]
                                           for ti in tk] for tk in c]})


class TestEveryRouteBuildsOneAlgebra:
    """Each builder gives the algebra of the tensor it was handed: equal,
    with one hash, the nested view equal to that tensor, and the JSON bytes
    written from the tensor itself."""

    @staticmethod
    def assert_holds(L, n, s, c):
        assert (L.dim, L.s, L.c) == (n, s, c)
        assert dumps(algebra_to_json(L)) == tensor_json(n, s, c)

    @settings(max_examples=60, deadline=None)
    @given(tensors())
    def test_builders_agree(self, case):
        n, s, c = case
        L = LieLikeAlgebra.from_constants(n, s, entries(c))
        full = Subspace.full(n)  # closed under every bracket
        routes = [LieLikeAlgebra(n, s, Matrix(flat_rows(c))), L,
                  algebra_from_json(json.loads(dumps(algebra_to_json(L)))),
                  restrict_algebra(L, full),
                  transform_instance(L, adjoint(L), Matrix.identity(n))[0]]
        for other in routes:
            assert other == L and hash(other) == hash(L)
            self.assert_holds(other, n, s, c)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 4), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32))
    def test_scaled_bundle_has_its_explicit_constants(self, n, s, bound, seed):
        L = _scaled_bundle(random.Random(seed), n, s, bound)
        rng = random.Random(seed)  # the same draws, made by hand
        base = _graded_nilpotent(rng, n, 1, bound).c[0]
        ts = [1] + [rng.randint(1, bound) for _ in range(s - 1)]
        c = tuple(tuple(tuple(vec(t * x for x in v) for v in ti) for ti in base) for t in ts)
        expected = LieLikeAlgebra.from_constants(n, s, entries(c))
        assert L == expected and hash(L) == hash(expected)
        self.assert_holds(L, n, s, c)


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
        lines = [Subspace.span(L.dim, [e]) for e in Subspace.full(L.dim).basis]
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
        M, reference = adjoint(L), fraction_adjoint(L)
        assert M == reference
        table, reference_table = M._product_table, _ProductTable(reference)
        for t in (table, reference_table):
            assert (t.e, t.c, t.w) == expected
        # the adjoint's operators hold every constant, so D = E
        assert table.d == table.e
        assert (table.d, table.ops, table.rows) == (
            reference_table.d, reference_table.ops, reference_table.rows)


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
    c0 = L.constants.rows[:L.dim**2]
    return LieLikeAlgebra(L.dim, len(ts), Matrix([t * x for x in v] for t in ts for v in c0))


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
