"""Exception types shared across the package."""


class MatwordError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(MatwordError):
    """Operands do not have compatible shapes."""


class InvalidLetter(MatwordError):
    """A word refers to a letter outside the collection."""


class NotRootOfUnity(MatwordError):
    """A peripheral eigenvalue of a spectral-radius-one nonnegative matrix
    has no root-of-unity order within tolerance.  For exact inputs this
    signals numerical breakdown rather than a genuine counterexample."""


class Reducible(MatwordError):
    """The nonzero-pattern digraph of the matrix is not strongly connected."""


class SpectralRadiusViolation(MatwordError):
    """A matrix in the collection has spectral radius above 1 + rho_tol."""


class BoundaryPoint(MatwordError):
    """The componentwise logarithm was requested at a point with a zero
    (or negative) coordinate."""


class NotPeriodic(MatwordError):
    """The vector is not periodic under the map within tolerance, even at
    the candidate period q."""


class BudgetExhausted(MatwordError):
    """No repeated orbit tuple was found within the prefix search budget."""


class HypothesesNotMet(MatwordError):
    """The collection does not satisfy the structural hypotheses required
    by the requested analysis."""


class EigenSolverFailure(MatwordError):
    """The underlying eigenvalue iteration failed to converge."""


class ParseError(MatwordError):
    """An input document or CLI value could not be parsed."""


class NonFiniteValue(ParseError):
    """A matrix handed to a linear-algebra routine has an infinite or NaN
    entry, e.g. a product of finite input entries that overflowed."""
