"""Exact-arithmetic toolkit for Lie-like algebras, ordinary modules, and
the constructive generalized Lie's theorem."""

from .algebra import (
    AlgebraViolation,
    LieLikeAlgebra,
    bracket,
    derived_algebra,
    derived_series,
    is_ideal,
    is_solvable,
    is_trivial,
    restrict_algebra,
    split_codim1,
)
from .errors import (
    DimensionMismatch,
    EmptySubspace,
    LieLikeError,
    NonSplitSpectrum,
    NotClosed,
    NotInvariant,
    NotSolvable,
    Singular,
    TheoremViolation,
)
from .generate import CONSTRUCTIONS, GeneratorSpec, Instance, generate
from .linalg import (
    Matrix,
    Subspace,
    common_eigenspace,
    eigenspace,
    is_invariant,
    joint_eigenspace,
    rational_eigenvalues,
    vec,
)
from .modules import (
    ModuleViolation,
    OrdinaryModule,
    adjoint,
    change_basis,
    check_algebra,
    check_derived_identities,
    check_module,
    direct_sum,
    is_submodule,
    plus_annihilator,
)
from .solver import (
    SolveResult,
    Weight,
    check_dichotomy,
    oracle_solve,
    solve,
    verify_weight,
    weight_space,
)
from .verify import run_verify

__all__ = [name for name in dir() if not name.startswith("_")]
