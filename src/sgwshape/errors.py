"""Exception types shared across the package.

The CLI maps these onto exit codes: input/usage problems (parse,
validation, bad parameters) exit with 2, numerical failures with 3.
``_integer`` is the one rule by which every integer setting is read, and
``_real`` the one by which every real-valued synthetic setting is read.
"""

import numbers
import operator


class SgwError(Exception):
    """Base class for all package errors."""


class ParseError(SgwError):
    """A mesh or data file could not be parsed."""


class ValidationError(SgwError):
    """Input violates a structural invariant (bad index, non-manifold edge, ...)."""


class InvalidParam(SgwError):
    """A parameter is outside its documented domain."""


class DimensionMismatch(SgwError):
    """Array shapes are incompatible."""


class NumericalError(SgwError):
    """A computation hit a numerically degenerate configuration."""


class ConvergenceError(SgwError):
    """The eigensolver failed, or a returned pair's residual is too large."""


class DegenerateMass(SgwError):
    """The mass matrix has a non-positive diagonal entry."""


class SingularScatter(SgwError):
    """The within-group scatter matrix is singular; reduce the dimension."""


class GroupCountError(SgwError):
    """A two-group operation received the wrong number or size of groups."""


#: Errors caused by the user's inputs or parameters (CLI exit code 2).
USAGE_ERRORS = (ParseError, ValidationError, InvalidParam, DimensionMismatch, GroupCountError)

#: Errors caused by numerical failure (CLI exit code 3).
NUMERICAL_ERRORS = (NumericalError, ConvergenceError, DegenerateMass, SingularScatter)


def _integer(name: str, value, minimum=None) -> int:
    """value as a Python int, at least `minimum` when one is given.

    InvalidParam for a bool, for anything that is not an integer, and for a
    value below `minimum`.
    """
    if not isinstance(value, bool):
        try:
            number = int(operator.index(value))
        except TypeError:
            pass
        else:
            if minimum is None or number >= minimum:
                return number
            raise InvalidParam(f"{name} must be >= {minimum}, got {number}")
    raise InvalidParam(f"{name} must be an integer, got {value!r}")


def _real(name: str, value) -> float:
    """value as a Python float.

    InvalidParam for a bool, a string, a complex number and anything else
    that is not a real number, and for an integer past the float range.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise InvalidParam(f"{name} must be finite, got {value!r}") from None
    raise InvalidParam(f"{name} must be a real number, got {value!r}")
