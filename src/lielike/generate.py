"""Seeded instance generator.

Every construction builds a solvable algebra passing the axiom check; the
module is then its adjoint, or for direct-sum the sum of two adjoints, so
generated instances are always valid:

- abelian: zero structure constants.
- graded-nilpotent: a two-step grading V1 + V2 with <V2, V2>_k random in
  V1 and every bracket involving V1 zero.  Both defining identities hold
  because each nested bracket has an argument in V1 and vanishes termwise.
- scaled-leibniz-bundle: one graded-nilpotent Leibniz tensor replicated
  with per-index scalars, so the bundle is trivial by construction.
- direct-sum: graded-nilpotent algebra with the module adjoint + adjoint.
- basis-changed: graded-nilpotent algebra rewritten in the basis with new
  coordinates v' = Pv, P a random unimodular integer matrix, which hides the
  grading without leaving the rationals or disturbing spectra.  The
  adjoint is defined by the brackets alone, so the adjoint of the new
  algebra is the old adjoint conjugated by P.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .algebra import LieLikeAlgebra, in_basis
from .linalg import Matrix, inverse
from .modules import OrdinaryModule, adjoint, direct_sum
from .serialize import MAX_SIZE

CONSTRUCTIONS = (
    "abelian",
    "scaled-leibniz-bundle",
    "graded-nilpotent",
    "direct-sum",
    "basis-changed",
)


@dataclass(frozen=True)
class GeneratorSpec:
    construction: str
    dim: int
    s: int
    seed: int
    coefficient_bound: int = 3

    def __post_init__(self):
        if self.construction not in CONSTRUCTIONS:
            raise ValueError(f"unknown construction {self.construction!r}")
        if self.dim < 0 or self.s < 1 or self.coefficient_bound < 1:
            raise ValueError("need dim >= 0, s >= 1, coefficient_bound >= 1")
        # every generated file must load again: vdim is 2*dim for direct-sum
        limit = MAX_SIZE // 2 if self.construction == "direct-sum" else MAX_SIZE
        if self.dim > limit or self.s > MAX_SIZE:
            raise ValueError(
                f"{self.construction} needs dim <= {limit} and s <= {MAX_SIZE}")


@dataclass(frozen=True)
class Instance:
    algebra: LieLikeAlgebra
    module: OrdinaryModule
    metadata: dict = field(default_factory=dict)


def generate(spec: GeneratorSpec) -> Instance:
    """Deterministic in the spec: equal specs yield identical instances."""
    rng = random.Random(
        f"{spec.construction}|{spec.dim}|{spec.s}|{spec.seed}|{spec.coefficient_bound}"
    )
    bound = spec.coefficient_bound
    if spec.construction == "abelian":
        L = LieLikeAlgebra.from_constants(spec.dim, spec.s, {})
    elif spec.construction == "scaled-leibniz-bundle":
        L = _scaled_bundle(rng, spec.dim, spec.s, bound)
    else:
        L = _graded_nilpotent(rng, spec.dim, spec.s, bound)
    if spec.construction == "basis-changed":
        P = random_unimodular(rng, spec.dim, bound)
        Pinv = inverse(P)  # its columns are the new basis in old coordinates
        L = in_basis(L, [Pinv.column(i) for i in range(L.dim)], P.apply)
    M = adjoint(L)
    if spec.construction == "direct-sum":
        M = direct_sum(M, M)
    metadata = {
        "construction": spec.construction,
        "dim": spec.dim,
        "s": spec.s,
        "seed": spec.seed,
        "coefficient_bound": spec.coefficient_bound,
    }
    return Instance(L, M, metadata)


def _graded_nilpotent(rng, n: int, s: int, bound: int) -> LieLikeAlgebra:
    n1 = (n + 1) // 2  # V1 = first n1 coordinates, V2 = the rest
    entries = {}
    for k in range(s):
        for i in range(n1, n):
            for j in range(n1, n):
                v = [rng.randint(-bound, bound) for _ in range(n1)]
                v += [0] * (n - n1)
                entries[(k, i, j)] = v
    return LieLikeAlgebra.from_constants(n, s, entries)


def _scaled_bundle(rng, n: int, s: int, bound: int) -> LieLikeAlgebra:
    base = _graded_nilpotent(rng, n, 1, bound)
    scalars = [1] + [rng.randint(1, bound) for _ in range(s - 1)]
    rows = base.constants.rows
    return LieLikeAlgebra(n, s, Matrix([t * x for x in v] for t in scalars for v in rows))


def random_unimodular(rng, n: int, bound: int) -> Matrix:
    """Product of integer shear, swap, and sign moves: determinant is +-1."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        if n < 2:
            break
        move = rng.randrange(3)
        i, j = rng.sample(range(n), 2)
        if move == 0:
            m = rng.randint(-bound, bound)
            rows[i] = [a + m * b for a, b in zip(rows[i], rows[j])]
        elif move == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-a for a in rows[i]]
    return Matrix(rows)

