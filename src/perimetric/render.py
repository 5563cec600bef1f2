"""Exact-value rendering helpers for reports.

Values arrive as a numerator and a denominator (a Fraction also works):
fixed decimals are read off the unreduced quotient, and only the exact
'p/q' form reduces by the gcd.

The snapshot, scan and band-report JSON writers emit exactly the bytes
of json.dumps(doc, indent=2, sort_keys=True), one f-string template per
record shape with its keys in sorted order. Ids and labels go through
json.encoder.encode_basestring_ascii, the C function json.dumps calls,
and json_block lays out a list's or an object's members as indent=2
does. json.dumps itself runs its C encoder only when indent is None.

The scan and band-report CSV writers are templates too, one line per
record ending in "\\n". csv_field quotes a text field that holds a comma,
a double quote, "\\r" or "\\n", doubling each double quote; the figures
never need it. The bytes are csv.writer's with lineterminator "\\r\\n",
each line's last "\\r\\n" made "\\n", on every Python.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable

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


def json_block(items: Iterable[str], depth: int, brackets: str = "[]") -> str:
    """Already-encoded members as json.dumps(indent=2) lays out a list (or, with
    brackets "{}", an object) opened at nesting depth `depth`: one member a line,
    one level deeper, and bare brackets when there is none."""
    inner = "\n" + "  " * (depth + 1)
    body = ("," + inner).join(items)
    if not body:  # an encoded member is never empty
        return brackets
    return f"{brackets[0]}{inner}{body}\n{'  ' * depth}{brackets[1]}"


def csv_field(text: str) -> str:
    """text as one CSV field: quoted, each '"' doubled, if it holds ',', '"', "\\r" or "\\n"."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def roman(n: int) -> str:
    if n <= 0:
        raise ValueError("roman numerals start at 1")
    out = []
    for base, glyph in _ROMAN:
        while n >= base:
            out.append(glyph)
            n -= base
    return "".join(out)
