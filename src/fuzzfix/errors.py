"""Error types shared across the toolkit, and the input rules they share.

Every public operation distinguishes bad inputs (caller's fault, exit code 2
at the CLI) from numerical failures (quadrature or iteration did not converge,
also exit code 2) and from *verified violations*, which are not errors at all:
those are reported as fail verdicts with witnesses.
"""

import math


class InputError(ValueError):
    """A precondition on caller-supplied data does not hold."""


class NumericalError(ArithmeticError):
    """A numerical procedure failed to converge within its budget."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


def require_positive(value: float, what: str) -> float:
    """``value``, refused unless it is finite and positive; ``what`` names it."""
    if not (math.isfinite(value) and value > 0.0):
        raise InputError(f"{what} must be finite and positive, got {value}")
    return value


def require_read(owner: str, reads: tuple[str, ...], **given) -> None:
    """Refuse an argument in ``given`` that is set (not None) but that
    ``owner`` does not read."""
    unread = [name for name, value in given.items() if value is not None and name not in reads]
    if unread:
        raise InputError(f"{owner} does not read {unread}")
