"""Exception hierarchy shared by all dmkit modules.

The CLI maps these onto process exit codes: bad input is 1, a loop that
is outside the domain of a margin question (nominally unstable, ill
posed) is 2, and a numerical failure inside an otherwise valid
computation is 3.
"""

__all__ = ["DmkitError", "InputError", "DegreeZeroError", "ImproperModelError", "UnsupportedCaseError",
           "DomainError", "NominalInstabilityError", "WellPosednessError", "AlgebraicLoopError",
           "NumericalError", "PoleOnAxisError", "ConstructionError"]


class DmkitError(Exception):
    """Base class for all errors raised by dmkit."""


class InputError(DmkitError):
    """Malformed or inconsistent user input (shapes, coefficients, schema)."""


class DegreeZeroError(InputError):
    """Root extraction was asked for a degree-zero polynomial.

    Kept distinct from :class:`NumericalError` so callers can tell an
    empty root set apart from an eigensolver failure.
    """


class ImproperModelError(InputError):
    """A state-space realization was requested for an improper transfer function."""


class UnsupportedCaseError(InputError):
    """The requested quantity is not defined for this disk geometry.

    The message names the violated precondition.
    """


class DomainError(DmkitError):
    """The model is outside the domain of the requested analysis."""


class NominalInstabilityError(DomainError):
    """The unperturbed closed loop is unstable, so margins are not defined."""


class WellPosednessError(DomainError):
    """A feedback closure has no proper solution (degree drop at s = infinity)."""


class AlgebraicLoopError(DomainError):
    """det(I + L) vanishes identically; the loop equations are singular."""


class NumericalError(DmkitError):
    """An iteration failed to converge or a factorization broke down."""


class PoleOnAxisError(NumericalError):
    """A frequency response was requested exactly at an imaginary-axis pole."""


class ConstructionError(NumericalError):
    """A first-order destabilizing perturbation does not exist for this data."""
