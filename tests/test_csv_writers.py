"""The scan and band-report CSV writers, and the band report they print, against the oracles they replace."""

import ast
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import perimetric
from perimetric import cli
from perimetric.errors import UnbandableRadius
from perimetric.kernels import SCALE
from perimetric.perimeter import PrincipalRisk
from perimetric.ranking import band_report, enumerate_bands, render_band_report_csv
from perimetric.render import csv_field

from helpers import (
    band_report_oracle,
    band_reports,
    csv_row_oracle,
    render_band_report_csv_oracle,
    render_scan_csv_oracle,
    scan_records,
)

# ids and labels weighted towards what CSV quotes: commas, quotes and line breaks,
# with spaces, non-ASCII and astral characters besides
_HOSTILE = st.lists(
    st.one_of(st.characters(), st.sampled_from([",", '"', "\r", "\n", "\r\n", " ", "é", "\U0001f600"])),
    max_size=6,
).map("".join)

def _oracle_takes(*texts):
    # csv.writer raises on a field that holds NUL before Python 3.11, so there the
    # oracles judge only texts without one
    return sys.version_info >= (3, 11) or not any(text and "\0" in text for text in texts)


_CENSUS_UNITS = [int(band.value * SCALE) for band in enumerate_bands()]
_BIG = st.integers(0, 2**70)


@settings(max_examples=400, deadline=None)
@given(scan_records(_HOSTILE))
@example([])
def test_scan_csv_writes_the_csv_writer_bytes(records):
    assume(_oracle_takes(*(r.spn for r, _ in records), *(band for _, band in records)))
    assert cli._render_scan_csv(records) == render_scan_csv_oracle(records)


@settings(max_examples=400, deadline=None)
@given(band_reports(_HOSTILE))
@example(([], 0))
@example(([], 3))
def test_band_report_csv_writes_the_csv_writer_bytes(table):
    assume(_oracle_takes(*(row.label for row in table[0])))
    assert render_band_report_csv(*table) == render_band_report_csv_oracle(*table)


# two fields or more: csv.writer quotes an empty field that is a row's only one,
# and every table has four or eight
@settings(max_examples=400, deadline=None)
@given(st.lists(_HOSTILE, min_size=2, max_size=4))
@example(["", ""])
@example(["c\rd", 'say "hi", \r\n'])
def test_csv_field_quotes_as_the_csv_writer_does(texts):
    assume(_oracle_takes(*texts))
    assert ",".join(map(csv_field, texts)) + "\n" == csv_row_oracle(texts)


# risks with radius 0 or a census value, and n, length and pair_sum past 2**64 (pair_sum 0 included)
_RISKS = st.lists(
    st.builds(
        PrincipalRisk,
        st.text(max_size=3),
        _BIG,
        st.sampled_from([0] + _CENSUS_UNITS),
        _BIG,
        st.one_of(st.just(0), _BIG),
    ),
    max_size=30,
)


@settings(max_examples=400, deadline=None)
@given(_RISKS, st.booleans(), st.integers())
@example([], False, 0)
def test_band_report_gives_the_oracle_rows(risks, anonymize, seed):
    rows = band_report(risks, anonymize=anonymize, seed=seed)
    assert rows == band_report_oracle(risks, anonymize=anonymize, seed=seed)
    assert all(type(row.avg_spread_ratio) is Fraction for row in rows)


def test_an_off_census_radius_is_named():
    with pytest.raises(UnbandableRadius, match=r"^radius 3/2097152 is not a canonical band value$"):
        band_report([PrincipalRisk("a", 2, SCALE, 1, 1), PrincipalRisk("b", 2, 3, 1, 1)])


def test_of_two_off_census_radii_the_larger_is_named():
    # the smaller comes first in input order; the walk by descending radius meets the larger first
    risks = [
        PrincipalRisk("small", 2, 3, 1, 1),
        PrincipalRisk("ok", 2, SCALE, 1, 1),
        PrincipalRisk("large", 2, 5 << 10, 1, 1),
    ]
    with pytest.raises(UnbandableRadius, match=r"^radius 5/2048 is not a canonical band value$"):
        band_report(risks)


def test_no_module_imports_csv_or_io():
    # csv_field states the one quoting rule; no table goes through csv.writer
    found = []
    for path in sorted(Path(perimetric.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found += [(path.name, a.name) for a in node.names if a.name.split(".")[0] in ("csv", "io")]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in ("csv", "io"):
                found.append((path.name, node.module))
    assert found == []
