import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

import rotavg
from rotavg import RankLimitError, format_rational, parse_rational, rationals


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


def seeded_literals(seed, count):
    """Accepted literals that format_rational never writes: leading zeros in the numerator, -0, non-lowest terms."""
    rng = random.Random(seed)
    literals = ["0", "-0", "-000", "0/5", "-0/7", "6/4", "-10/100", "007/14", "-0012/8"]
    for _ in range(count):
        factor = rng.randrange(1, 50)
        numerator = rng.randrange(10 ** rng.randrange(1, 30)) * factor
        text = rng.choice(["", "-"]) + "0" * rng.randrange(4) + str(numerator)
        if rng.random() < 0.7:
            text += f"/{rng.randrange(1, 10**12) * factor}"
        literals.append(text)
    return literals


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_parse_matches_fraction_on_the_whole_grammar(seed):
    # called through the module, so the mutant table can patch it
    for text in seeded_literals(seed, 300):
        value = rationals.parse_rational(text)
        assert type(value) is Fraction and value == Fraction(text), text


@pytest.mark.parametrize(
    "text,part", [("1/" + "7" * 5000, "denominator"), ("-" + "7" * 5000 + "/3", "numerator")]
)
def test_parse_past_the_int_string_limit_is_a_limit(digit_limit, text, part):
    # the interpreter's own ValueError once leaked, advising sys.set_int_max_str_digits
    with pytest.raises(RankLimitError) as exc:
        parse_rational(text)
    assert str(exc.value) == (
        f"a rational literal's {part} of 5000 digits exceeds the interpreter's limit of {digit_limit} digits "
        "for integer string conversion"
    )


def test_render_builds_its_subject_only_on_failure(digit_limit):
    def subject():
        calls.append(1)
        return "the value"

    calls = []
    assert rationals.render(Fraction(-2, 4), subject) == "-1/2"
    assert calls == []
    with pytest.raises(RankLimitError, match="^the value exceeds the interpreter's limit of 4300 digits"):
        rationals.render(10**5000, subject)
    assert calls == [1]


def test_read_int_names_the_digits_it_read(digit_limit):
    assert rationals.read_int("-" + "9" * digit_limit, "x") == -(10**digit_limit - 1)
    with pytest.raises(RankLimitError, match="^an end of 4301 digits exceeds"):
        rationals.read_int("-" + "9" * (digit_limit + 1), "an end")


def test_one_rank_limit_error_class():
    assert rotavg.RankLimitError is rotavg.tensors.RankLimitError is rationals.RankLimitError
