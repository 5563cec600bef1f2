"""Band stratification and two-key risk ranking.

The distance formula, with its fixed read and write weights 1 and 2,
admits exactly 22 values, one per (level, access) pair, so principals
sharing a blast radius fall into the same band. The bands are one fixed
census built from the distance table, metric.HEIGHTS, and looked up by
the radius in units of 2**-21, once per populated band. A band's average
spread ratio is exact: its members' ratios are summed on integers over
one common denominator, and only the average becomes a Fraction.
Ranking sorts by radius first and breaks ties with the perimeter: a
larger tour means more elongated permission geometry and ranks riskier.
Band reports can be anonymized by shuffling rows under a seed and
relabeling them with roman numerals.
"""

from __future__ import annotations

import random
from enum import Enum
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import lcm
from typing import Iterable, NamedTuple, Sequence

from perimetric.errors import UnbandableRadius
from perimetric.kernels import SCALE
from perimetric.metric import HEIGHTS, AccessClass
from perimetric.perimeter import PrincipalRisk
from perimetric.render import csv_field, format_fixed, fraction_str, json_block, roman

# Bands at or above this radius are labeled Dispersed, the rest Tight.
TIGHT_RADIUS_BOUND = Fraction(1, 10_000)

_LEVEL_LABELS = {
    0: "tenant",
    1: "mg1", 2: "mg2", 3: "mg3", 4: "mg4", 5: "mg5", 6: "mg6",
    7: "subscription",
    8: "resource-group",
    9: "resource",
    10: "resource-part",
}


class Regime(Enum):
    TIGHT = "Tight"
    DISPERSED = "Dispersed"


class Band(NamedTuple):
    value: Fraction
    level: int
    access: AccessClass

    @property
    def label(self) -> str:
        return f"{_LEVEL_LABELS[self.level]}:{self.access.value}"


class BandReportRow(NamedTuple):
    label: str
    spn_count: int
    avg_spread_ratio: Fraction
    regime: Regime
    band: Band | None


def regime_for(band_value: Fraction) -> Regime:
    return Regime.TIGHT if band_value < TIGHT_RADIUS_BOUND else Regime.DISPERSED


# Each band by its value in units of 2**-21: write, then read, at each level from
# the root down, since a write one level deeper is below a read (write < 4 * read).
_BAND_BY_UNITS = {
    units: Band(value=Fraction(units, SCALE), level=level, access=access)
    for level, (read, write) in enumerate(zip(*HEIGHTS))
    for access, units in ((AccessClass.WRITE, write), (AccessClass.READ, read))
}
_BANDS = tuple(_BAND_BY_UNITS.values())


def enumerate_bands() -> tuple[Band, ...]:
    """All 22 bands in strictly decreasing radius order; the same tuple on every call."""
    return _BANDS


def band_of(radius: Fraction | int, unit: int = 1) -> Band | None:
    """Band whose value equals radius / unit exactly; None for radius 0."""
    if radius == 0:
        return None
    band = _BAND_BY_UNITS.get(radius if unit == SCALE else Fraction(radius * SCALE, unit))
    if band is None:
        raise UnbandableRadius(f"radius {Fraction(radius, unit)} is not a canonical band value")
    return band


def rank_spns(risks: Iterable[PrincipalRisk]) -> list[PrincipalRisk]:
    """Sort by blast radius desc, perimeter desc, then spn id asc."""
    return sorted(risks, key=lambda r: (-r.radius, -r.length, r.spn))


def band_report(
    risks: Iterable[PrincipalRisk],
    anonymize: bool = False,
    seed: int = 0,
) -> list[BandReportRow]:
    """One row per populated band with the average member spread ratio.

    Zero-radius principals are excluded; they belong in a separate
    no-permissions section, not a band. Radius 0 means fewer than two
    distinct grants, so that section counts principals with no grant and
    those with exactly one. Members are bucketed by radius, and each band
    is averaged once, exactly: its spread ratios' numerators are summed
    over one common denominator, the lcm of theirs. A radius that is no
    band value raises UnbandableRadius; with several, the largest is named.
    With anonymize set, rows are shuffled by the seeded permutation and
    relabeled I, II, III, ... in shuffled order.
    """
    buckets: dict[int, list[tuple[int, int]]] = {}
    for risk in risks:
        if risk.radius:
            buckets.setdefault(risk.radius, []).append(risk.spread_parts)

    rows = []
    for radius in sorted(buckets, reverse=True):  # bands strictly decrease, so this is census order
        band = band_of(radius, SCALE)
        parts = buckets[radius]
        common = lcm(*{den for _, den in parts})
        avg = Fraction(sum(num * (common // den) for num, den in parts), common * len(parts))
        rows.append(BandReportRow(band.label, len(parts), avg, regime_for(band.value), band))

    if anonymize:
        random.Random(seed).shuffle(rows)
        rows = [row._replace(label=roman(i + 1), band=None) for i, row in enumerate(rows)]
    return rows


def render_band_report_csv(rows: Sequence[BandReportRow], no_permissions: int = 0) -> str:
    """The header line, then one line per row; only the label goes through csv_field."""
    lines = ["band,spn_count,avg_spread_ratio,regime\n"]
    for row in rows:
        fixed = format_fixed(row.avg_spread_ratio)
        lines.append(f"{csv_field(row.label)},{row.spn_count},{fixed},{row.regime.value}\n")
    if no_permissions:
        lines.append(f"no-permissions,{no_permissions},,\n")
    return "".join(lines)


def render_band_report_json(rows: Sequence[BandReportRow], no_permissions: int = 0) -> str:
    """json.dumps(doc, indent=2, sort_keys=True) + "\\n" of the report, one f-string template per row."""
    enc = encode_basestring_ascii
    bands = [
        f'{{\n      "avg_spread_ratio": "{format_fixed(row.avg_spread_ratio)}",\n'
        f'      "avg_spread_ratio_exact": "{fraction_str(row.avg_spread_ratio)}",\n'
        f'      "band": {enc(row.label)},\n      "regime": {enc(row.regime.value)},\n'
        f'      "spn_count": {row.spn_count}\n    }}'
        for row in rows
    ]
    counts = f'{{\n    "spn_count": {no_permissions}\n  }}'
    return f'{{\n  "bands": {json_block(bands, 1)},\n  "no_permissions": {counts}\n}}\n'
