from fractions import Fraction

import pytest

from perimetric.render import format_fixed, fraction_str, roman


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


def test_roman():
    values = [roman(n) for n in range(1, 11)]
    assert values == ["I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X"]
    assert roman(22) == "XXII"
    assert roman(1987) == "MCMLXXXVII"
    with pytest.raises(ValueError):
        roman(0)
