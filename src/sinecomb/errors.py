"""Exception types shared across the package.

The CLI maps these onto process exit codes, so new error conditions should
reuse one of the classes below rather than raising bare ValueErrors from
deep inside numerical code.
"""


class SinecombError(Exception):
    """Base class for all package-specific errors."""


class ParseError(SinecombError):
    """An input file could not be parsed or fails schema validation."""


class ConfigError(SinecombError):
    """A run configuration value is missing, malformed or out of range."""


class EmptyPolynomialError(SinecombError, ValueError):
    """An operation that needs at least one term received the zero function."""


class ZeroFreeError(SinecombError):
    """The input has no zeros, so no strip / zero set exists."""


class CapacityError(SinecombError):
    """A configured size cap (term count, support enumeration) was exceeded."""


class BoundaryProximityError(SinecombError):
    """|p| on a contour came too close to zero; the rectangle must be moved."""


class QuadratureFailureError(SinecombError):
    """A contour integral failed to settle near an integer winding number,
    or a test-function transform failed to settle or left the double range."""


class PreconditionError(SinecombError, ValueError):
    """An operation's documented precondition does not hold."""


class NonRealZerosError(SinecombError):
    """A zero measure expected to be real-supported has complex atoms."""


class DecompositionFailureError(SinecombError):
    """No arithmetic progression covering enough points could be fitted."""


class PrefactorFitError(SinecombError):
    """The zero-free quotient is not of the form C*exp(i*a*z)."""


class StageError(SinecombError):
    """Wraps an error raised inside one stage of the factorization pipeline."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause
