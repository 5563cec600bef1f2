"""Exact-value rendering helpers for reports.

Values arrive as a numerator and a denominator (a Fraction also works):
fixed decimals are read off the unreduced quotient, and only the exact
'p/q' form reduces by the gcd.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

DIGITS = 6  # decimals in every fixed-point figure a report prints
_ONE = 10**DIGITS  # one whole in units of the last printed decimal
_FIXED = f"%d.%0{DIGITS}d"  # whole part, then DIGITS decimals with leading zeros

_ROMAN = (
    (1000, "M"), (900, "CM"), (500, "D"), (400, "CD"),
    (100, "C"), (90, "XC"), (50, "L"), (40, "XL"),
    (10, "X"), (9, "IX"), (5, "V"), (4, "IV"), (1, "I"),
)


def format_fixed(num: Fraction | int, den: int = 1) -> str:
    """Render num / den, an exact non-negative rational, with DIGITS fixed decimals, half-to-even.

    The quotient need not be reduced; a Fraction num is divided by den.
    """
    # int first: an isinstance check against Fraction runs ABCMeta's Python-level hook
    if not isinstance(num, int) and isinstance(num, Fraction):
        num, den = num.numerator, num.denominator * den
    q, r = divmod(num * _ONE, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    return _FIXED % divmod(q, _ONE)


def fraction_str(num: Fraction | int, den: int = 1) -> str:
    """Exact rational num / den, den positive, as reduced 'p/q' (or a bare integer when q is 1).

    A Fraction num is divided by den.
    """
    if not isinstance(num, int) and isinstance(num, Fraction):
        num, den = num.numerator, num.denominator * den
    common = gcd(num, den)
    num, den = num // common, den // common
    return str(num) if den == 1 else f"{num}/{den}"


def roman(n: int) -> str:
    if n <= 0:
        raise ValueError("roman numerals start at 1")
    out = []
    for base, glyph in _ROMAN:
        while n >= base:
            out.append(glyph)
            n -= base
    return "".join(out)
