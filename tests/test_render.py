from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perimetric.render import DIGITS, format_fixed, fraction_str, roman

# unreduced parts as reports pass them: small counts, and powers of two times a small odd factor,
# well past the 2**21 unit
_PARTS = st.one_of(
    st.integers(0, 10**6),
    st.builds(lambda odd, shift: odd << shift, st.integers(0, 9).map(lambda k: 2 * k + 1), st.integers(0, 200)),
)


def test_format_fixed_basic():
    assert format_fixed(Fraction(0)) == "0.000000"
    assert format_fixed(Fraction(1)) == "1.000000"
    assert format_fixed(Fraction(1, 2)) == "0.500000"
    assert format_fixed(Fraction(1, 2**15)) == "0.000031"
    assert format_fixed(Fraction(2, 3)) == "0.666667"


def test_format_fixed_rounds_half_to_even():
    assert format_fixed(Fraction(15, 10**7)) == "0.000002"
    assert format_fixed(Fraction(25, 10**7)) == "0.000002"
    assert format_fixed(Fraction(35, 10**7)) == "0.000004"


def test_format_fixed_tiny_values_round_to_zero():
    assert format_fixed(Fraction(1, 2**21)) == "0.000000"


def test_fraction_str():
    assert fraction_str(Fraction(0)) == "0"
    assert fraction_str(Fraction(9, 65536)) == "9/65536"
    assert fraction_str(2) == "2"


@settings(max_examples=400, deadline=None)
@given(num=_PARTS, den=_PARTS.filter(bool), scale=st.integers(1, 2**21))
@example(num=0, den=1, scale=1)
@example(num=0, den=2**21, scale=1)
@example(num=7, den=7, scale=1)
@example(num=2**21, den=2**21, scale=2**21)
@example(num=2**120, den=2**100, scale=1)
@example(num=3 << 90, den=1 << 95, scale=2**21)
def test_fraction_str_matches_fraction(num, den, scale):
    assert fraction_str(num, den) == str(Fraction(num, den))
    assert fraction_str(Fraction(num, den), scale) == str(Fraction(num, den * scale))


@settings(max_examples=400, deadline=None)
@given(num=_PARTS, den=_PARTS.filter(bool))
def test_format_fixed_rounds_as_fraction_does(num, den):
    # round() on a Fraction rounds half to even
    q = round(Fraction(num, den) * 10**DIGITS)
    whole, part = divmod(q, 10**DIGITS)
    assert format_fixed(num, den) == f"{whole}.{part:0{DIGITS}d}"
    assert format_fixed(Fraction(num, den)) == format_fixed(num, den)


def test_roman():
    values = [roman(n) for n in range(1, 11)]
    assert values == ["I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X"]
    assert roman(22) == "XXII"
    assert roman(1987) == "MCMLXXXVII"
    with pytest.raises(ValueError):
        roman(0)
