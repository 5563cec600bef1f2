import random
from fractions import Fraction
from itertools import combinations

import pytest

from perimetric import kernels
from perimetric.errors import UnbandableRadius
from perimetric.metric import AccessClass, DistanceModel
from perimetric.perimeter import PrincipalRisk
from perimetric.ranking import (
    Regime,
    band_of,
    band_report,
    enumerate_bands,
    rank_spns,
    render_band_report_csv,
    render_band_report_json,
)

from helpers import band_of_linear, random_grants, random_tree


def _risk(spn, radius, perimeter=Fraction(0), ratio=Fraction(1)):
    """A record with these figures; a ratio other than 1 needs a positive perimeter.

    The spread ratio is length * (n - 1) / (2 * pair_sum), so n is chosen as
    2 * ratio.numerator + 1 to make the pair sum an integer in units of 2**-21.
    """
    n = 2 * ratio.numerator + 1
    length = perimeter * kernels.SCALE
    return PrincipalRisk(spn, n, int(radius * kernels.SCALE), int(length), int(length * ratio.denominator))


def test_band_census_is_22_strictly_decreasing():
    bands = enumerate_bands()
    assert len(bands) == 22
    assert bands[0].value == 1
    assert bands[-1].value == Fraction(1, 2**21)
    for a, b in zip(bands, bands[1:]):
        assert a.value > b.value


def test_band_census_level_one_values():
    by_level = [b.value for b in enumerate_bands() if b.level == 1]
    assert by_level == [Fraction(2, 2**3), Fraction(1, 2**3)]


def test_band_census_matches_distance_image():
    values = {b.value for b in enumerate_bands()}
    expected = {Fraction(i, 2 ** (2 * lvl + 1)) for i in (1, 2) for lvl in range(11)}
    assert values == expected


def test_band_of_head_zero_and_inversion():
    bands = enumerate_bands()
    assert enumerate_bands() is bands
    for band in bands:
        assert band_of(band.value) is band
        assert band_of(band.value * kernels.SCALE, kernels.SCALE) is band
        assert band_of_linear(band.value, bands) is band
    head = band_of(Fraction(1))
    assert head.level == 0 and head.access is AccessClass.WRITE
    assert band_of(Fraction(0)) is None
    assert band_of(0, kernels.SCALE) is None
    sub_read = band_of(Fraction(1, 2**15))
    assert sub_read.level == 7 and sub_read.access is AccessClass.READ
    assert sub_read.label == "subscription:read"


def test_band_of_rejects_off_census_radius():
    for radius, unit in ((Fraction(3, 2**21), 1), (3, kernels.SCALE), (Fraction(1, 3), 1), (1, 3 * kernels.SCALE)):
        with pytest.raises(UnbandableRadius):
            band_of(radius, unit)


def test_band_of_total_on_fuzzed_grant_pairs():
    rng = random.Random(23)
    for _ in range(15):
        tree = random_tree(rng)
        grants = random_grants(rng, tree, 10)
        dist = DistanceModel(tree)
        for a, b in combinations(grants, 2):
            assert band_of(dist(a, b)) is not None


def test_rank_primary_key_radius():
    lo = _risk("lo", Fraction(1, 2**3))
    hi = _risk("hi", Fraction(1))
    assert [r.spn for r in rank_spns([lo, hi])] == ["hi", "lo"]


def test_rank_secondary_key_perimeter():
    a = _risk("a", Fraction(1, 2**3), perimeter=Fraction(5, 2**9))
    b = _risk("b", Fraction(1, 2**3), perimeter=Fraction(3, 2**9))
    assert [r.spn for r in rank_spns([b, a])] == ["a", "b"]


def test_rank_tertiary_key_spn_id():
    a = _risk("alpha", Fraction(1, 2**3))
    b = _risk("beta", Fraction(1, 2**3))
    assert [r.spn for r in rank_spns([b, a])] == ["alpha", "beta"]


def test_rank_permutation_invariant():
    rng = random.Random(5)
    risks = [
        _risk(f"s{i}", Fraction(rng.choice((1, 2)), 2 ** rng.randrange(1, 22, 2)),
              perimeter=Fraction(rng.randint(0, 8), 2**9))
        for i in range(30)
    ]
    baseline = rank_spns(risks)
    for _ in range(5):
        shuffled = risks[:]
        rng.shuffle(shuffled)
        assert rank_spns(shuffled) == baseline


def test_band_report_single_band_of_ultracycles():
    xi = Fraction(1, 2**19)
    risks = [_risk(f"s{i}", xi, ratio=Fraction(1)) for i in range(4)]
    rows = band_report(risks)
    assert len(rows) == 1
    assert rows[0].label == "resource:read"
    assert rows[0].spn_count == 4
    assert rows[0].avg_spread_ratio == 1
    assert rows[0].regime is Regime.TIGHT


def test_band_report_empty_input():
    assert band_report([]) == []


def test_band_report_excludes_zero_radius():
    risks = [_risk("none", Fraction(0)), _risk("one", Fraction(1))]
    rows = band_report(risks)
    assert sum(r.spn_count for r in rows) == 1


def test_band_report_regime_threshold():
    # 1/2^13 (mg6 read) is just above 10^-4; 1/2^14 (subscription write) below
    rows = band_report([
        _risk("a", Fraction(1, 2**13)),
        _risk("b", Fraction(2, 2**15)),
    ])
    regimes = {row.label: row.regime for row in rows}
    assert regimes["mg6:read"] is Regime.DISPERSED
    assert regimes["subscription:write"] is Regime.TIGHT


def test_band_report_canonical_order_descends():
    risks = [
        _risk("a", Fraction(1, 2**21)),
        _risk("b", Fraction(1)),
        _risk("c", Fraction(1, 2**15)),
    ]
    rows = band_report(risks)
    assert [row.label for row in rows] == ["tenant:write", "subscription:read", "resource-part:read"]
    assert all(row.band is not None for row in rows)


def test_band_report_anonymize_is_seeded_and_roman():
    risks = [
        _risk("a", Fraction(1)),
        _risk("b", Fraction(1, 2**3)),
        _risk("c", Fraction(1, 2**15)),
        _risk("d", Fraction(1, 2**21)),
    ]
    first = band_report(risks, anonymize=True, seed=11)
    second = band_report(risks, anonymize=True, seed=11)
    assert first == second
    assert [row.label for row in first] == ["I", "II", "III", "IV"]
    assert all(row.band is None for row in first)
    other = band_report(risks, anonymize=True, seed=12)
    assert {r.spn_count for r in other} == {r.spn_count for r in first}


def test_render_csv_and_json_shapes():
    rows = band_report([_risk("a", Fraction(1), perimeter=Fraction(2), ratio=Fraction(1, 3))])
    csv_text = render_band_report_csv(rows, no_permissions=2)
    lines = csv_text.splitlines()
    assert lines[0] == "band,spn_count,avg_spread_ratio,regime"
    assert lines[1] == "tenant:write,1,0.333333,Dispersed"
    assert lines[2] == "no-permissions,2,,"
    json_text = render_band_report_json(rows, no_permissions=2)
    assert '"avg_spread_ratio_exact": "1/3"' in json_text
    assert '"spn_count": 2' in json_text
