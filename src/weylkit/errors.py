"""Exception types shared across the package, and the one check helper.

The CLI maps these onto exit codes: bad input 1, a failed verification
2, an exceeded size budget 3.

Every internal claim is checked through require(), which raises
VerificationError; it is an ordinary function call, so the checks run
the same under ``python -O``.  Every integer parameter is checked
through checked_int().  Messages echo outside input through clip().
Record is the base of the package's value records.
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


# str() of an int of more than 4300 digits raises by default.  Results
# are held to this fixed budget, never to the host's setting, so an
# input prints the same bytes, or the same refusal, on every host.
DIGIT_BUDGET = 4300
DIGIT_LIMIT = 10**DIGIT_BUDGET      # the least int of DIGIT_BUDGET + 1 digits


def require(cond: bool, message: str) -> None:
    """Raise VerificationError(message) unless cond holds.

    In per-element loops pass a constant message: an f-string would be
    formatted on every call.
    """
    if not cond:
        raise VerificationError(message)


def checked_int(name: str, value, stop: int | None = None) -> int:
    """value, refused unless an int, and given stop, unless in
    range(stop); a bool is no int here."""
    if type(value) is not int:
        raise InvalidInputError(f"{name} {clip(repr(value))} is not an int")
    if stop is not None and not 0 <= value < stop:
        raise InvalidInputError(f"{name} {clip(value)} out of range")
    return value


def clip(value, limit: int = 60) -> str:
    """str(value), cut to its first limit characters and "..." if longer;
    an int too long for str() is named by its bit length, and a tuple
    holding one is clipped item by item."""
    try:
        text = str(value)
    except ValueError:          # past str()'s digit limit
        text = (f"a {value.bit_length()}-bit number" if isinstance(value, int)
                else f"({', '.join(clip(v, limit) for v in value)})")
    return text if len(text) <= limit else text[:limit] + "..."


class Record:
    """A value record: its fields are vars(self), in __init__ order.

    Equal to a record of the same type with equal fields; repr lists
    the fields.  to_json gives the fields as JSON values, keyed by
    _json_keys where a field is published under another name: tuples
    become lists and records their to_json, at every depth.
    """

    _json_keys: dict[str, str] = {}

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and vars(other) == vars(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({fields})"

    def to_json(self) -> dict:
        keys = self._json_keys
        return {keys.get(k, k): _json_value(v) for k, v in vars(self).items()}


def _json_value(value):
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    return value.to_json() if isinstance(value, Record) else value
