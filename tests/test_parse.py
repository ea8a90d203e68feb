"""Parser grammar, error positions, and rejection cases."""

from fractions import Fraction

import pytest

from helpers import V2, p2, record_calls
from polarlink.errors import DegreeLimitError, ParseError
from polarlink.parse import COEFFICIENT_DIGITS, parse_polynomial
from polarlink.poly import Polynomial


def test_plain_sum():
    assert p2("x + y") == p2("y+x")


def test_rational_coefficients():
    f = p2("1/2*x - 3*y + 7")
    assert f.terms[(1, 0)] == Fraction(1, 2)
    assert f.constant_term() == 7


def test_parentheses_and_products():
    assert p2("(x+y)*(x-y)*x") == p2("x^3 - x*y^2")


def test_power_binds_tighter_than_product():
    assert p2("2*x^3") == p2("x^3 + x^3")


def test_leading_minus():
    assert p2("-x + y") == p2("y - x")
    assert p2("-2") == p2("0 - 2")


def test_unknown_variable_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + q", V2)
    assert "unknown variable" in str(err.value)
    assert err.value.position == 4


def test_duplicate_variable_names():
    with pytest.raises(ParseError):
        parse_polynomial("x", ["x", "x"])


def test_trailing_garbage():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x y", V2)
    assert err.value.position == 2


def test_negative_exponent_rejected():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x^-1", V2)
    assert "exponent" in str(err.value)


def test_fractional_exponent_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("x^1/2", V2)


def test_missing_operand():
    with pytest.raises(ParseError):
        parse_polynomial("x +", V2)


def test_unclosed_parenthesis():
    with pytest.raises(ParseError):
        parse_polynomial("(x + y", V2)


def test_malformed_rational():
    with pytest.raises(ParseError):
        parse_polynomial("1/ 2", V2)


def test_zero_denominator():
    with pytest.raises(ParseError):
        parse_polynomial("1/0 * x", V2)


def test_unexpected_character():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x % y", V2)
    assert "unexpected character" in str(err.value)


@pytest.mark.parametrize(
    "text, position, reason",
    [
        ("x^\u00b2+y^3", 2, "unexpected character '\u00b2'"),  # superscript two
        ("\u00b2*x+y^2", 0, "unexpected character '\u00b2'"),
        ("x^\u0663+y^2", 2, "unexpected character '\u0663'"),  # Arabic-Indic three
        ("x+\u00e9", 2, "unexpected character '\u00e9'"),  # a letter outside ASCII
        ("x+y\u00e9", 3, "unexpected character '\u00e9'"),
        ("x\u00a0+y", 1, "unexpected character '\\xa0'"),  # no-break space
        ("3/\u0663*x", 1, "malformed rational literal"),
    ],
)
def test_a_character_outside_ascii_is_refused_with_its_position(text, position, reason):
    with pytest.raises(ParseError) as err:
        parse_polynomial(text, V2)
    assert (str(err.value), err.value.position) == (f"{reason} (at position {position})", position)


@pytest.mark.parametrize("names", [["x", "\u00e9"], ["x", "1y"], ["x", "y z"], ["x", "y-1"]])
def test_a_variable_name_that_is_not_an_ascii_identifier_is_refused(names):
    with pytest.raises(ParseError, match="not an ASCII identifier"):
        parse_polynomial("x", names)


def test_implicit_multiplication_is_an_error():
    with pytest.raises(ParseError):
        parse_polynomial("2x", V2)


def test_exponent_zero():
    assert p2("x^0") == p2("1")


def test_whitespace_is_free():
    assert p2("  x ^ 2+ y ") == p2("x^2+y")


def test_a_power_past_the_degree_limit_is_refused_before_it_is_expanded(monkeypatch):
    powers = record_calls(monkeypatch, Polynomial, "__pow__")
    for text in ("(x+y)^70000", "(x*y)^32768"):
        with pytest.raises(DegreeLimitError):
            parse_polynomial(text, V2)
    assert powers == []
    assert parse_polynomial("(x*y)^32767", V2).total_degree() == 65534


def test_a_coefficient_past_the_digit_limit_is_refused(monkeypatch):
    ok = 10**COEFFICIENT_DIGITS - 1
    past = "1" + "0" * COEFFICIENT_DIGITS  # 10^COEFFICIENT_DIGITS
    assert p2(f"{ok}*x + 1/{ok}*y").terms == {(1, 0): ok, (0, 1): Fraction(1, ok)}
    assert len(str(p2("3^9000*x").terms[(1, 0)])) == 4295
    # Past the limit only once the power is taken, in a numerator or a
    # denominator ((1/2)^15000), or as a literal.
    for text in ("3^9100*x", "x + 1/2^15000*y", f"{past}*x", f"1/{past}*y"):
        with pytest.raises(ValueError, match="coefficient needs more than"):
            parse_polynomial(text, V2)
    # Refused before the power is taken: the lex-largest term's coefficient
    # of a power is that of its base to the same power.
    powers = record_calls(monkeypatch, Polynomial, "__pow__")
    for text in ("2^16000000*x", "(1024*x+y)^2000"):
        with pytest.raises(ValueError, match="coefficient needs more than"):
            parse_polynomial(text, V2)
    assert powers == []
