"""Wire format for exact rational values: "p/q" in lowest terms."""

import re
from fractions import Fraction

# what format_rational writes: ASCII digits, no "+", no "/1", a positive denominator;
# the groups are the numerator's and the denominator's digits
_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")


def format_rational(value) -> str:
    """Render an exact rational as "p/q" in lowest terms ("0", "1", "-2/5", ...)."""
    return str(Fraction(value))


def parse_rational(text: str) -> Fraction:
    """Parse a "p/q" literal produced by :func:`format_rational`.

    Rejects non-strings, floats, decimals, zero denominators, "+" and padding
    with ValueError, so exact values are never silently truncated on the way in.
    """
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not an exact rational literal: {text!r}")
    return Fraction(text)
