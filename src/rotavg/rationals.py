"""Wire format for exact rational values ("p/q" in lowest terms), and the int-string limit's home.

read_int and render are the one place that turns the interpreter's
int-string limit (4300 digits by default) into a RankLimitError naming
what was read or written; every path that reads or writes a number calls them.
"""

import re
import sys
from fractions import Fraction

# what format_rational writes: ASCII digits, no "+", no "/1", a positive denominator;
# the groups are the numerator's and the denominator's digits
_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")


class RankLimitError(ValueError):
    """A requested rank, or another size, exceeds its ceiling."""


def _digit_limit_error(subject: str) -> RankLimitError:
    """The error for subject, a number with more digits than the interpreter's int-string limit allows."""
    limit = sys.get_int_max_str_digits()
    return RankLimitError(f"{subject} exceeds the interpreter's limit of {limit} digits for integer string conversion")


def read_int(digits: str, subject: str) -> int:
    """int(digits) for ASCII digits with an optional minus sign.

    Past the int-string limit, a RankLimitError naming subject "of N digits".
    """
    try:
        return int(digits)
    except ValueError:
        raise _digit_limit_error(f"{subject} of {len(digits.lstrip('-'))} digits") from None


def render(value, subject) -> str:
    """str(value) for an int or a Fraction; past the int-string limit, a RankLimitError naming subject().

    subject is called only on failure, so a per-value path builds no text for values that render.
    """
    try:
        return str(value)
    except ValueError:
        raise _digit_limit_error(subject()) from None


def format_rational(value) -> str:
    """Render an exact rational as "p/q" in lowest terms ("0", "1", "-2/5", ...)."""
    return str(Fraction(value))


def parse_rational(text: str) -> Fraction:
    """Parse a "p/q" literal produced by :func:`format_rational`.

    Rejects non-strings, floats, decimals, zero denominators, "+" and padding
    with ValueError, so exact values are never silently truncated on the way in,
    and a numerator or denominator past the int-string limit with RankLimitError.
    The value is built from the groups of _RATIONAL_RE, the grammar's one definition.
    """
    literal = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    if literal is None:
        raise ValueError(f"not an exact rational literal: {text!r}")
    numerator = read_int(literal[1], "a rational literal's numerator")
    return Fraction(numerator, read_int(literal[2], "a rational literal's denominator") if literal[2] else 1)
