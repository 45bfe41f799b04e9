"""Exception hierarchy.

Every error raised on purpose by the library derives from TracesimError so
callers (and the CLI) can distinguish diagnosed failures from bugs.
"""


class TracesimError(Exception):
    pass


class KindMismatchError(TracesimError):
    """Operands live in different scalar kinds; no silent coercion."""


class NonFiniteError(TracesimError):
    """NaN or infinite scalar given to a float kind."""


class ShapeError(TracesimError):
    """Dimensions incompatible with the requested operation."""


class SingularMatrixError(TracesimError):
    """Inverse requested for a singular (or rank-deficient at tolerance) matrix."""


class BudgetExceededError(TracesimError):
    """A trace-word enumeration would exceed its configured budget."""


class LetterIndexError(TracesimError):
    """A word letter refers to an index outside the tuple arity."""


class NonCentralCoefficientError(TracesimError):
    """Coefficient does not commute with the given matrix-unit family."""


class MissingUnitsError(TracesimError):
    """Generating set does not contain the standard matrix units."""


class WitnessConstructionError(TracesimError):
    """Equivalence was certified but the orthogonal witness could not be built."""

    def __init__(self, message, intertwiner=None):
        super().__init__(message)
        self.intertwiner = intertwiner


class ZeroPolynomialError(TracesimError):
    """Operation undefined for the zero polynomial."""


class TupleFileError(TracesimError):
    """Malformed tuple/fixture file."""
