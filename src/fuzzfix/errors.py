"""Error types shared across the toolkit, the input rules they share, and
the one way an error is re-raised under the name of where it arose.

Every public operation distinguishes bad inputs (caller's fault, exit code 2
at the CLI) from numerical failures (quadrature or iteration did not converge,
also exit code 2) and from *verified violations*, which are not errors at all:
those are reported as fail verdicts with witnesses.
"""

import math
from contextlib import contextmanager


class InputError(ValueError):
    """A precondition on caller-supplied data does not hold."""


class NumericalError(ArithmeticError):
    """A numerical procedure failed to converge within its budget."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class EvalError(ArithmeticError):
    """Domain error during evaluation (unbound variable, div by zero, ...)."""


@contextmanager
def prefixed(prefix: str):
    """Re-raise an InputError, NumericalError or EvalError raised in the
    block, with its type and a NumericalError's trace kept, under a message
    that starts with ``prefix``."""
    try:
        yield
    except InputError as exc:
        raise InputError(f"{prefix}{exc}") from exc
    except NumericalError as exc:
        raise NumericalError(f"{prefix}{exc}", exc.trace) from exc
    except EvalError as exc:
        raise EvalError(f"{prefix}{exc}") from exc


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
