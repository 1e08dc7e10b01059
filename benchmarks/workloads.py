"""The benchmark's workloads: which instances each one verifies, how they are
built from the workload seed, and the outcome each one must have.

Every operation is one `lielike verify --json FILE` on an instance file the
set-up writes.  The answer of every operation is known from how its
instance was built:

- a generated instance is valid: exit 0, no failing check;
- its invalid twin adds the identity to G_0(e_0).  Every generated operator
  is nilpotent, so the eq-1.5 residual at (k, h, i, j) = (0, 0, 0, 0),
  (G + I)(G + I - F), is nonzero (G + I is invertible and G - F + I has
  trace vdim).  The twin exits 1 with `module-axioms` as its failing check;
- the non-split fixture (an abelian line acting by a matrix with
  characteristic polynomial t^2 - t - 1) exits 2 at `solve`;
- the proof-gap fixture is the valid two-index instance on which the
  constructive recipe breaks.  `lielike verify` ends there with an uncaught
  TheoremViolation, which the benchmark counts as a failed operation until
  the program handles it.
"""

from __future__ import annotations

from dataclasses import dataclass

# the order in which run_verify runs its checks; it stops at the first failure
STAGES = (
    "algebra-axioms",
    "solvable",
    "module-axioms",
    "derived-identities",
    "annihilator-submodule",
    "solve",
    "oracle",
)

# fixed here rather than read from the program, so the inputs stay put
CONSTRUCTIONS = (
    "abelian",
    "scaled-leibniz-bundle",
    "graded-nilpotent",
    "direct-sum",
    "basis-changed",
)

WORKLOADS = {
    "corpus-small": (
        "182 short verifies (every construction, n<=3, s<=3, twins, both "
        "fixtures): per-call CLI/serialize share, all three exit codes, p90"
    ),
    "axioms-square": (
        "vdim = n instances of four constructions at s = 3, each with its "
        "invalid twin: the axiom-check layers dominate"
    ),
    "spectral-wide": (
        "direct-sum instances (vdim = 2n) at s = 1: solve and oracle dominate, "
        "through charpoly/det on 12- to 14-dimensional operators"
    ),
}


@dataclass(frozen=True)
class Op:
    """One verify operation and the outcome its construction implies."""

    name: str
    kind: str  # "valid" | "twin" | "nonsplit" | "proof-gap"
    construction: str = ""
    n: int = 0
    s: int = 0
    seed: int = 0

    @property
    def expect(self) -> tuple[int | None, str | None]:
        """(exit code, failing check) known from the construction; None for
        the proof-gap fixture, whose correct answer the program cannot yet
        give."""
        return {
            "valid": (0, None),
            "twin": (1, "module-axioms"),
            "nonsplit": (2, "solve"),
            "proof-gap": (None, None),
        }[self.kind]

    @property
    def known_raise(self) -> str | None:
        return "TheoremViolation" if self.kind == "proof-gap" else None


def _generated(construction, n, s, seed, twin=False) -> Op:
    name = f"{construction}/n{n}/s{s}/seed{seed}" + ("/twin" if twin else "")
    return Op(name, "twin" if twin else "valid", construction, n, s, seed)


def _with_twin(construction, n, s, seed) -> list[Op]:
    return [
        _generated(construction, n, s, seed),
        _generated(construction, n, s, seed, twin=True),
    ]


def operations(workload: str, seed: int) -> list[Op]:
    """The operations of one pass, in the order they run."""
    if workload == "corpus-small":
        ops = []
        for c in CONSTRUCTIONS:
            for n in (1, 2, 3):
                for s in (1, 2, 3):
                    ops += _with_twin(c, n, s, 3 * seed)
                    ops += [_generated(c, n, s, 3 * seed + j) for j in (1, 2)]
        ops.append(Op("fixture/abelian-irrational", "nonsplit"))
        ops.append(Op("fixture/proof-gap", "proof-gap"))
        return ops
    if workload == "axioms-square":
        # Seed-dependent constructions get several instances.  basis-changed
        # stays at n=3: from n=4 on, its cost after the unimodular change of
        # basis is heavy-tailed in the seed (0.3 s to 0.8 s at n=4, s=3),
        # which moved the median latency between the twin and valid clusters.
        return [
            op
            for c, n, copies in (
                ("graded-nilpotent", 5, 2),
                ("scaled-leibniz-bundle", 5, 2),
                ("abelian", 6, 1),
                ("basis-changed", 3, 3),
            )
            for j in range(copies)
            for op in _with_twin(c, n, 3, 3 * seed + j)
        ]
    if workload == "spectral-wide":
        return [
            _generated("direct-sum", n, 1, 2 * seed + j)
            for n, j in ((6, 0), (6, 1), (7, 0))
        ]
    raise ValueError(f"unknown workload {workload!r}")


def instance_json(op: Op) -> dict:
    """Build the instance of an operation with the program's own generator
    and serializer, in the form `lielike generate` writes."""
    import lielike
    from lielike import serialize
    from lielike.linalg import Matrix

    if op.kind == "nonsplit":
        L = lielike.LieLikeAlgebra.from_constants(1, 1, {})
        fam = ((Matrix([[1, 1], [1, 0]]),),)
        return serialize.instance_to_json(
            L, lielike.OrdinaryModule(L, 2, fam, fam), {"fixture": op.name}
        )
    if op.kind == "proof-gap":
        L = lielike.LieLikeAlgebra.from_constants(
            3, 2, {(0, 0, 1): [1, -1, -1], (0, 1, 0): [-1, 1, 1]}
        )
        return serialize.instance_to_json(L, lielike.adjoint(L), {"fixture": op.name})
    inst = lielike.generate(
        lielike.GeneratorSpec(op.construction, op.n, op.s, op.seed)
    )
    M, metadata = inst.module, dict(inst.metadata)
    if op.kind == "twin":
        G = [list(gk) for gk in M.G]
        G[0][0] = G[0][0] + Matrix.identity(M.vdim)
        M = lielike.OrdinaryModule(
            inst.algebra, M.vdim, M.F, tuple(tuple(gk) for gk in G)
        )
        metadata["twin"] = "G_0(e_0) + I"
    return serialize.instance_to_json(inst.algebra, M, metadata)
