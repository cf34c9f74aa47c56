"""Exception types and the input rules shared across the package.

The CLI maps these onto exit codes: ConfigError -> 1, DomainError and
subclasses -> 2, OSError -> 3.

Every single-value input check of the library goes through one of two
rules, which return the value they checked and do only their comparisons
until one fails:

* whole_number: a count, seed or index, taken through operator.index (so
  numpy integers and bools pass, floats do not) and held to its bounds;
* finite_number: a quantity that is not NaN or +-inf, held to a lower
  bound, inclusive or strict.  Whatever compares as one real number
  passes unchanged: Python and numpy reals, bools (as 0 and 1, as
  whole_number counts them) and a one-element array (numpy compares it
  as its element).  A value whose comparison raises or is ambiguous (a
  string, None, an array of two or more elements) is refused.

Each failure is a DomainError whose message starts with the name of the
value.
"""

import math
import operator

#: The largest count a float64 holds exactly; a count that becomes a float
#: (a trial mean, a bin width, a scan total) stays at or below it.
MAX_EXACT_COUNT = 2**53

_INF = math.inf
_NEG_INF = -math.inf


class DomainError(ValueError):
    """A physical or numeric precondition was violated."""


class OutOfRangeError(DomainError):
    """An intensity fell outside a curve's fitted validity range."""


class ExtractionError(DomainError):
    """A calibration trace did not support the requested extraction."""


class ConfigError(ValueError):
    """Config text could not be parsed or validated."""


def whole_number(name: str, value, lo, hi=None) -> int:
    """value as an int in [lo, hi] (hi None: no upper bound)."""
    try:
        n = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be a whole number, got {value!r}") from None
    if n < lo:
        raise DomainError(f"{name} must be >= {lo}, got {n}")
    if hi is not None and n > hi:
        if hi == MAX_EXACT_COUNT:
            raise DomainError(f"{name} exceeds 2**53, the largest count a "
                              "float64 holds exactly")
        raise DomainError(f"{name} must be <= {hi}, got {n}")
    return n


def finite_number(name: str, value, lo: float = _NEG_INF, strict: bool = False):
    """value unchanged if it is finite and >= lo (> lo when strict)."""
    try:
        if (value > lo if strict else value >= lo) and _NEG_INF < value < _INF:
            return value
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a real number, got {value!r}") from None
    if lo == _NEG_INF:
        rule = "finite"
    elif strict and lo == 0:
        rule = "finite and positive"
    else:
        rule = f"finite and {'>' if strict else '>='} {lo}"
    raise DomainError(f"{name} must be {rule}, got {value}")
