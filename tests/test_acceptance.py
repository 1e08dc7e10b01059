"""Acceptance gate: one test per acceptance criterion, each printing a
single pass/fail line (run with -s to see them on success).

The corpus is 200 generated instances spanning every construction,
dimensions 1-6, index-set sizes 1-3, and three seeds.  All comparisons
are exact rational equality.
"""

from fractions import Fraction

import pytest

from lielike import (
    CONSTRUCTIONS,
    GeneratorSpec,
    LieLikeAlgebra,
    TheoremViolation,
    adjoint,
    check_algebra,
    check_derived_identities,
    check_module,
    generate,
    is_solvable,
    is_submodule,
    oracle_solve,
    plus_annihilator,
    solve,
    verify_weight,
)
from lielike.serialize import dumps, instance_to_json, result_to_json
from lemma_checks import (
    congruence_check,
    normalizer_invariance_check,
    split_setup,
    trace_vanishing_check,
)

F = Fraction


def report(number, name, ok):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def corpus_specs():
    specs = []
    for construction in CONSTRUCTIONS:
        for dim in (1, 2, 3, 4):
            for s in (1, 2, 3):
                for seed in (0, 1, 2):
                    specs.append(GeneratorSpec(construction, dim, s, seed))
        for dim in (5, 6):
            for s in (1, 2):
                specs.append(GeneratorSpec(construction, dim, s, 0))
    return specs


@pytest.fixture(scope="module")
def corpus():
    instances = [generate(spec) for spec in corpus_specs()]
    assert len(instances) >= 200
    return instances


@pytest.fixture(scope="module")
def solved(corpus):
    """solve() over the whole corpus, shared across criteria 4, 5, 7, 8."""
    return [solve(inst.algebra, inst.module) for inst in corpus]


def test_criterion_1_axiom_soundness(leib2, bundle2, nt3):
    ok = True
    for L in (leib2, bundle2, nt3):
        ok = ok and check_algebra(L) == []
        located = 0
        for delta in (1, 2):
            for k in range(L.s):
                for i in range(L.dim):
                    for j in range(L.dim):
                        for l in range(L.dim):
                            if located >= 10:
                                break
                            entries = {
                                (kk, ii, jj): list(L.c[kk][ii][jj])
                                for kk in range(L.s)
                                for ii in range(L.dim)
                                for jj in range(L.dim)
                            }
                            entries[(k, i, j)][l] += delta
                            bad = LieLikeAlgebra.from_constants(
                                L.dim, L.s, entries
                            )
                            violations = check_algebra(bad)
                            if violations:
                                located += 1
                                ok = ok and all(
                                    v.identity
                                    in {"jacobi-like", "index-swap"}
                                    and len(v.witness) == 5
                                    for v in violations
                                )
        ok = ok and located >= 10
    report(1, "axiom soundness", ok)


def test_criterion_2_adjoint_is_module(corpus):
    ok = len(corpus) >= 200
    for inst in corpus:
        ok = ok and check_algebra(inst.algebra) == []
        ok = ok and check_module(inst.module) == []
        ok = ok and check_derived_identities(inst.module) == []
    report(2, "adjoint is a module", ok)


def test_criterion_3_annihilator_is_submodule(corpus):
    ok = all(
        is_submodule(inst.module, plus_annihilator(inst.module))
        for inst in corpus
    )
    report(3, "plus annihilator is a submodule", ok)


def test_criterion_4_generalized_lie_theorem(corpus, solved):
    ok = len(solved) >= 200
    for inst, res in zip(corpus, solved):
        ok = ok and is_solvable(inst.algebra)[0]
        ok = ok and verify_weight(inst.module, res.v, res.weight)
        ok = ok and res.dichotomy in {"psi-zero", "phi-equals-psi", "both"}
    report(4, "generalized Lie's theorem", ok)


def test_criterion_5_oracle_equivalence(corpus, solved):
    ok = True
    for inst, res in zip(corpus, solved):
        entries = oracle_solve(inst.algebra, inst.module)
        ok = ok and any(
            space.contains(res.v) and w == res.weight
            for space, w in entries
        )
    report(5, "oracle equivalence", ok)


def test_criterion_6_lemma_suite(corpus):
    setups = []
    for inst in corpus:
        if inst.algebra.dim >= 1:
            setups.append((inst, split_setup(inst.algebra, inst.module)))
        if len(setups) >= 100:
            break
    ok = len(setups) >= 100

    for inst, setup in setups:
        L, M = inst.algebra, inst.module
        s = L.s
        # invariance of the restricted weight space under every f_h(x);
        # the commutator preconditions hold by the module axioms because
        # ops_A spans the action of the ideal on both sides
        ops_A, phi = [], []
        for k in range(s):
            for p, a in enumerate(setup.A.basis):
                ops_A.append(M.f(k, a))
                phi.append(setup.weight.phi[k][p])
                ops_A.append(M.g(k, a))
                phi.append(setup.weight.psi[k][p])
        ops_G = [M.f(h, setup.x) for h in range(s)]
        ok = ok and normalizer_invariance_check(ops_A, phi, ops_G)

        # iterate congruences to depth vdim for every left index
        for h in range(s):
            rep = congruence_check(
                L, setup.A, setup.x, M, setup.u0, setup.weight, h, M.vdim
            )
            ok = ok and rep.ok

        # trace argument: the restricted weight kills <x, A> and <x, x>
        rep = trace_vanishing_check(L, setup.A, setup.x, M, setup.weight)
        ok = ok and rep.ok
    report(6, "lemma suite", ok)


def test_criterion_7_leibniz_corollary(corpus, solved):
    ok = True
    seen = 0
    for inst, res in zip(corpus, solved):
        if inst.algebra.s != 1:
            continue
        seen += 1
        psi_zero = all(x == 0 for row in res.weight.psi for x in row)
        ok = ok and (psi_zero or res.weight.phi == res.weight.psi)
    ok = ok and seen >= 40
    report(7, "single-bracket corollary", ok)


def test_criterion_8_branch_coverage(corpus, solved, leib2, nt3, aff2):
    tags = set()
    for res in solved:
        tags.update(res.branch_trace)
    # hand-built fixtures extend the generated family
    for L in (leib2, nt3, aff2):
        res = solve(L, adjoint(L))
        tags.update(res.branch_trace)
    ok = {"ann-nonzero/g-zero", "case-2"} <= tags

    # Finding (recorded; see tests/test_solver.py::TestKnownProofGap and
    # the repository notes): the remaining two branches are documented as
    # unreachable-with-success for this corpus family.
    # - ann-nonzero/g-nonzero cannot fire for s = 1: the axioms force the
    #   left maps to annihilate the plus annihilator.  For s >= 2, on every
    #   instance found where the branch fires, the prescribed zero weight
    #   fails verification and the solver raises TheoremViolation.
    # - case-1 requires a nonzero restricted left weight with the weight
    #   space missing the annihilator; exhaustive dimension-2 and large
    #   randomized dimension-3 searches produced no such instance.
    gap = LieLikeAlgebra.from_constants(
        3, 2, {(0, 0, 1): [1, -1, -1], (0, 1, 0): [-1, 1, 1]}
    )
    ok = ok and check_algebra(gap) == [] and check_module(adjoint(gap)) == []
    try:
        solve(gap, adjoint(gap))
        ok = False  # the documented gap no longer reproduces
    except TheoremViolation:
        pass
    report(8, "branch coverage (g-nonzero and case-1 documented)", ok)


def test_criterion_9_determinism(corpus, solved):
    ok = True
    for inst, res in list(zip(corpus, solved))[::17]:
        again = solve(inst.algebra, inst.module)
        ok = ok and dumps(result_to_json(again)) == dumps(result_to_json(res))
    for spec in corpus_specs()[::23]:
        a, b = generate(spec), generate(spec)
        ok = ok and dumps(
            instance_to_json(a.algebra, a.module, a.metadata)
        ) == dumps(instance_to_json(b.algebra, b.module, b.metadata))
    report(9, "determinism", ok)
