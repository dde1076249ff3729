"""Wire format for exact rational values: "p/q" in lowest terms."""

import re
from fractions import Fraction

# ASCII digits only; integers render without the "/1"; denominators are positive
_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(?:/[1-9][0-9]*)?$")


def format_rational(value) -> str:
    """Render an exact rational as "p/q" in lowest terms ("0", "1", "-2/5", ...)."""
    return str(Fraction(value))


def parse_rational(text: str) -> Fraction:
    """Parse a "p/q" literal produced by :func:`format_rational`.

    Rejects floats, decimals and zero denominators so that exact values can
    never be silently truncated on the way in.
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not an exact rational literal: {text!r}")
    return Fraction(s)
