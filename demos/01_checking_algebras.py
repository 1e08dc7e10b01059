"""Defining a bracket family and checking the defining identities.

A Lie-like algebra over the rationals is a vector space with a family of
bilinear brackets <.,.>_k, k = 0..s-1, subject to a Jacobi-like identity
and an index-swap identity.  This script builds a few small examples from
structure constants, runs the identity checker, and shows how a violation
is located and reported.
"""

from lielike import LieLikeAlgebra, bracket, check_algebra, is_trivial
from lielike.linalg import Matrix, vec
from fractions import Fraction as F

# --- a two-dimensional single-bracket algebra: <e2, e2> = e1 -------------
leib2 = LieLikeAlgebra.from_constants(2, 1, {(0, 1, 1): [1, 0]})
print("Leib2 violations:", check_algebra(leib2))

e1, e2 = vec([F(1), F(0)]), vec([F(0), F(1)])
print("  <e2, e2>_0 =", bracket(leib2, e2, e2, 0))
print("  <e1, e2>_0 =", bracket(leib2, e1, e2, 0))

# --- a two-bracket bundle that is secretly one bracket -------------------
# the rows of c[1] = 2 c[0] follow those of c[0] in the constants matrix
c0 = leib2.constants.rows
bundle2 = LieLikeAlgebra(2, 2, Matrix([*c0, *([2 * x for x in v] for v in c0)]))
print("\nBundle2 violations:", check_algebra(bundle2))
ok, witness = is_trivial(bundle2)
print("Bundle2 is a scaled copy of one bracket:", ok, "scalars:", witness[1])

# --- a genuinely two-bracket algebra --------------------------------------
nt3 = LieLikeAlgebra.from_constants(
    3, 2, {(0, 2, 2): [1, 0, 0], (1, 2, 2): [0, 1, 0]}
)
print("\nNT3 violations:", check_algebra(nt3))
print("NT3 is trivial:", is_trivial(nt3)[0])

# --- breaking an identity on purpose --------------------------------------
bad = LieLikeAlgebra.from_constants(2, 1, {(0, 1, 1): [1, 0], (0, 0, 1): [0, 1]})
violations = check_algebra(bad)
print("\nPerturbed algebra violations (first 3):")
for v in violations[:3]:
    print(f"  {v.identity} at (i,j,l,k,h)={v.witness}, residual={v.residual}")
