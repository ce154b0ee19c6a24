"""Exception types shared across the package, and the one check helper.

The CLI maps these onto exit codes: bad input 1, a failed verification
2, an exceeded size budget 3.

Every internal claim is checked through require(), which raises
VerificationError; it is an ordinary function call, so the checks run
the same under ``python -O``.  Messages echo outside input through clip().
"""


class WeylkitError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(WeylkitError):
    """Malformed type string, invalid rank, bad ids, violated preconditions."""


class BudgetExceededError(WeylkitError):
    """A requested computation is larger than the configured size budget."""


class VerificationError(WeylkitError):
    """A checked identity that is supposed to hold did not.

    Raised by require(): by constructors and report functions whose
    whole point is to certify a closed-form claim against a direct
    computation, and by the internal consistency checks of each layer.
    """


def require(cond: bool, message: str) -> None:
    """Raise VerificationError(message) unless cond holds.

    In per-element loops pass a constant message: an f-string would be
    formatted on every call.
    """
    if not cond:
        raise VerificationError(message)


def clip(value, limit: int = 60) -> str:
    """str(value), cut to its first limit characters and "..." if longer."""
    text = str(value)
    return text if len(text) <= limit else text[:limit] + "..."
