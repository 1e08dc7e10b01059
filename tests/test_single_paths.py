"""Properties of the single homes of D^2 L, the basis change and the joint
weight space, on generated instances of every construction."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from lielike import (
    CONSTRUCTIONS,
    GeneratorSpec,
    Subspace,
    Weight,
    derived_algebra,
    derived_series,
    generate,
    kernel,
    restrict_module,
    weight_space,
)
from lielike.algebra import bracket
from lielike.generate import random_unimodular
from lielike.linalg import inverse, zero_vec
from lemma_checks import split_setup
from reference_linalg import scalar_matrix
from strategies import transform_instance

specs = st.builds(
    GeneratorSpec,
    st.sampled_from(CONSTRUCTIONS),
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(0, 2**16),
)


def old_weight_space(M, a_basis, w):
    """The per-vector kernel-intersection loop over the full module."""
    space = Subspace.full(M.vdim)
    for k in range(M.algebra.s):
        for p, a in enumerate(a_basis):
            phi = scalar_matrix(M.vdim, w.phi[k][p])
            psi = scalar_matrix(M.vdim, w.psi[k][p])
            space = space.intersect(kernel(M.f(k, a) - phi))
            space = space.intersect(kernel(M.g(k, a) - psi))
    return space


@settings(max_examples=40, deadline=None)
@given(specs)
def test_derived_algebra_is_second_derived_term(spec):
    L = generate(spec).algebra
    d2 = derived_algebra(L)
    assert d2 == derived_series(L)[1]
    basis = Subspace.full(L.dim).basis
    brackets = [
        bracket(L, u, v, k) for u in basis for v in basis for k in range(L.s)
    ]
    assert d2 == Subspace.span(L.dim, brackets)


@settings(max_examples=40, deadline=None)
@given(specs, st.integers(1, 3))
def test_transform_then_inverse_is_identity(spec, bound):
    inst = generate(spec)
    P = random_unimodular(random.Random(spec.seed), spec.dim, bound)
    L2, M2 = transform_instance(inst.algebra, inst.module, P)
    L3, M3 = transform_instance(L2, M2, inverse(P))
    assert (L3, M3) == (inst.algebra, inst.module)


@settings(max_examples=30, deadline=None)
@given(specs)
def test_weight_space_matches_kernel_loop(spec):
    inst = generate(spec)
    L, M = inst.algebra, inst.module
    setup = split_setup(L, M)
    MA = restrict_module(M, setup.A, setup.subalgebra)
    psi_zero = tuple(zero_vec(setup.A.dim) for _ in range(L.s))
    for w in (setup.weight, Weight(setup.weight.phi, psi_zero)):
        assert weight_space(MA.vdim, MA.F, MA.G, w) == old_weight_space(
            M, setup.A.basis, w)
    assert weight_space(MA.vdim, MA.F, MA.G, setup.weight).contains(setup.u0)
