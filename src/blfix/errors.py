"""Exception types shared across the package."""


class BlfixError(Exception):
    """Base class for all blfix errors."""


class CholeskyFailure(BlfixError):
    """A matrix required to be positive definite failed its Cholesky factorization."""


class ConvergenceFailure(BlfixError):
    """An iterative linear-algebra kernel hit its iteration limit."""


class DimensionMismatch(BlfixError):
    """Operands have incompatible dimensions."""


class ShapeMismatch(BlfixError):
    """A structured object (datum, matrix file) has inconsistent shapes."""


class ParseError(BlfixError):
    """A file could not be parsed; the message carries line/field context."""


class TooLarge(BlfixError):
    """A brute-force guard tripped; the instance is beyond desk scale."""


class InvalidShape(BlfixError):
    """Requested generator sizes cannot produce a valid datum."""


class InvalidArgument(BlfixError):
    """An argument is outside its documented domain."""


class ValidationFailed(BlfixError):
    """The datum failed the hard validation checks required for solving."""


class StepFailure(BlfixError):
    """An iterate overflowed or hit an invalid operation; the message names the iteration."""
