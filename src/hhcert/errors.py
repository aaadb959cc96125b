"""Exception types shared across the toolkit."""

import errno
import os


class HHCertError(Exception):
    """Base class for all toolkit-specific errors."""


class UnknownFunction(HHCertError):
    """Requested function id is not in the catalog."""


class InvalidParameter(HHCertError):
    """Function parameter outside its admissible set."""


class DomainViolation(HHCertError):
    """Evaluation requested outside a function's domain."""


class OutOfRange(HHCertError):
    """Argument outside the admissible range of a kernel or map."""


class InvalidExponent(HHCertError):
    """Exponent outside the admissible range (p >= 1, q > 1, p not in {-1, 0})."""


class NonFiniteEvaluation(HHCertError):
    """Integrand returned NaN or infinity inside the integration domain."""


def range_error() -> OverflowError:
    """OverflowError(ERANGE), what an overflowing float power raises: the
    error of a value that leaves the float range."""
    return OverflowError(errno.ERANGE, os.strerror(errno.ERANGE))
