"""Ordinary modules, the adjoint construction, and the plus annihilator.

An ordinary module carries two operator families: right maps f_k and left
maps g_k, tied together by five compatibility axioms.  Every algebra acts
on itself through its own multiplications (the adjoint module), and the
span of all (g_h(z) - f_k(z))(v) - the plus annihilator - is always an
ordinary submodule.
"""

from lielike import (
    LieLikeAlgebra,
    adjoint,
    change_basis,
    check_derived_identities,
    check_module,
    direct_sum,
    is_submodule,
    plus_annihilator,
)
from lielike.linalg import Matrix
from fractions import Fraction as F

nt3 = LieLikeAlgebra.from_constants(
    3, 2, {(0, 2, 2): [1, 0, 0], (1, 2, 2): [0, 1, 0]}
)
M = adjoint(nt3)
print("adjoint module axiom violations:", check_module(M))
print("index-swap consequences hold:", check_derived_identities(M) == [])

ann = plus_annihilator(M)
print("\nplus annihilator dimension:", ann.dim)
print("basis:", ann.basis)
print("is a submodule:", is_submodule(M, ann))

# modules compose: direct sums and changes of basis preserve the axioms
double = direct_sum(M, M)
print("\ndoubled module: vdim", double.vdim,
      "- violations:", check_module(double))

P = Matrix([[F(1), F(1), F(0)], [F(0), F(1), F(0)], [F(0), F(2), F(1)]])
moved = change_basis(M, P)
print("after a change of basis: violations:", check_module(moved),
      "- annihilator dim:", plus_annihilator(moved).dim)

# breaking an axiom on purpose: perturb one left operator entry
rows = [list(r) for r in M.G[0][2].rows]
rows[0][0] += 1
bad_G = tuple(
    tuple(Matrix(rows) if (k, i) == (0, 2) else M.G[k][i] for i in range(3))
    for k in range(2)
)
bad = type(M)(nt3, 3, M.F, bad_G)
violations = check_module(bad)
print("\nperturbed module: first violation:",
      violations[0].axiom, "at (k,h,i,j) =", violations[0].witness)
