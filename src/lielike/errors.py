"""Exception types shared across the package."""


class LieLikeError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(LieLikeError):
    """Shapes of the operands are incompatible."""


class NonSplitSpectrum(LieLikeError):
    """An operator has no rational eigenvalue where one is required.

    Working over exact rationals instead of an algebraically closed field
    makes this a legal failure mode of every eigen-computation.
    """


class NotInvariant(LieLikeError):
    """An operator does not map the given subspace into itself."""


class EmptySubspace(LieLikeError):
    """A nonzero subspace was required but the zero subspace was given."""


class NotSolvable(LieLikeError):
    """The algebra is not solvable (or the derived series blocks a split)."""


class NotClosed(LieLikeError):
    """A subspace is not closed under the bracket operations."""


class Singular(LieLikeError):
    """A matrix that must be invertible is singular."""


class TheoremViolation(LieLikeError):
    """A step the theory guarantees has failed.

    Signals a bug or an invalid instance, never a routine error condition.
    """
