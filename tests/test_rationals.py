from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from rotavg import format_rational, parse_rational


def test_format_examples():
    assert format_rational(Fraction(1, 6)) == "1/6"
    assert format_rational(Fraction(1, 1)) == "1"
    assert format_rational(Fraction(0)) == "0"
    assert format_rational(Fraction(-2, 4)) == "-1/2"


@given(st.integers(), st.integers().filter(lambda q: q != 0))
def test_round_trip_is_identity(p, q):
    value = Fraction(p, q)
    assert parse_rational(format_rational(value)) == value


@pytest.mark.parametrize(
    "bad",
    # "+1/2" and the padded forms were once read as 1/2; 5 and None raised AttributeError
    ["1.5", "a/b", "1/0", "2/-3", "", "1e3", "\u0663/4", "\uff13",
     "+1/2", " 1/2", "1/2\n", "\u20031/2", 5, None],
)
def test_parse_rejects_non_rationals(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)
