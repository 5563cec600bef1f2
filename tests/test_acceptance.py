"""Acceptance suite.

One test per criterion, each printing a single pass/fail line (run with
pytest -s to see them). Every tolerance is exact arithmetic equality or
an explicitly stated bound; there are no epsilons anywhere.
"""

import functools
import random
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from perimetric.generator import GeneratorConfig, generate_synthetic_tenant
from perimetric.ingestion import resolve_effective_grants
from perimetric.metric import DistanceModel, check_ultrametricity, effective_distance
from perimetric.perimeter import (
    assess_principal,
    brute_force_tour,
    is_ultracycle,
    nn_tour,
    perimeter,
    sorted_grants,
)
from perimetric.ranking import band_of, band_report, enumerate_bands
from perimetric.render import format_fixed

from helpers import chain_tree, grants_at, invoke, random_grants, random_tree

FIXTURES = Path(__file__).parent / "fixtures"
COUNTEREXAMPLE = FIXTURES / "counterexample_family.json"

FUZZ_SEED = 0x5EED
FUZZ_COUNT = 1000

_corpus = None


def criterion(num, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num} ({title}): FAIL")
                raise
            line = f"criterion {num} ({title}): PASS"
            if detail:
                line += f" - {detail}"
            print(line)

        return wrapper

    return decorate


def fuzz_corpus():
    """1000 random ultrametric instances: (tree, grants, set distance)."""
    global _corpus
    if _corpus is None:
        rng = random.Random(FUZZ_SEED)
        out = []
        for _ in range(FUZZ_COUNT):
            tree = random_tree(rng, max_nodes=40)
            grants = sorted_grants(random_grants(rng, tree, rng.randint(3, 8)))
            out.append((tree, grants, effective_distance(grants, tree)))
        _corpus = out
    return _corpus


@criterion(1, "oracle optimality")
def test_criterion_1_nn_equals_exhaustive_oracle():
    started = time.monotonic()
    for _, grants, dist in fuzz_corpus():
        assert nn_tour(grants, dist).length == brute_force_tour(grants, dist)
    elapsed = time.monotonic() - started
    assert elapsed <= 60, f"took {elapsed:.1f}s, budget is 60s"
    return f"{FUZZ_COUNT}/{FUZZ_COUNT} instances, {elapsed:.1f}s"


@criterion(2, "tour length start invariance")
def test_criterion_2_all_starts_equal():
    for _, grants, dist in fuzz_corpus():
        lengths = {nn_tour(grants, dist, start=s).length for s in range(len(grants))}
        assert len(lengths) == 1
    return f"all starts over {FUZZ_COUNT} instances"


@criterion(3, "ultracycle identity and minimality")
def test_criterion_3_ultracycles():
    tree, scopes = chain_tree()
    dist = DistanceModel(tree)
    checked = 0
    for band in enumerate_bands():
        for n in range(2, 9):
            grants = grants_at(scopes[band.level], n, band.access)
            assert perimeter(grants, dist) == n * band.value
            checked += 1

    strict = 0
    for _, grants, dist in fuzz_corpus():
        if is_ultracycle(grants, dist) is not None:
            continue
        d_min = min(dist(a, b) for a, b in combinations(grants, 2))
        assert brute_force_tour(grants, dist) > len(grants) * d_min
        strict += 1
    return f"{checked} ultracycles exact, {strict} non-ultracycles strictly above n*d_min"


@criterion(4, "spread ratio bound")
def test_criterion_4_spread_ratio():
    for _, grants, dist in fuzz_corpus():
        risk = assess_principal("spn", grants, dist)
        assert 0 < risk.spread_ratio <= 1
        if risk.ultracycle is not None:
            assert risk.spread_ratio == 1
            assert format_fixed(risk.spread_ratio) == "1.000000"
    tree, scopes = chain_tree()
    small = DistanceModel(tree)
    for grants in ([], grants_at(scopes[9], 1)):
        risk = assess_principal("spn", grants, small)
        assert risk.spread_ratio == 1
    return "ratio in (0, 1] on all instances; 1.000000 for ultracycles and n <= 1"


@criterion(5, "counterexample reproduction")
def test_criterion_5_pointwise_minimum_counterexample():
    d1 = {("x", "y"): 2, ("y", "z"): 1, ("x", "z"): 2}
    d2 = {("x", "y"): 1, ("y", "z"): 2, ("x", "z"): 2}

    def pointwise_min(a, b):
        key = (a, b) if (a, b) in d1 else (b, a)
        return min(d1[key], d2[key])

    violations = check_ultrametricity(["x", "y", "z"], pointwise_min)
    assert violations == [(0, 1, 2)]

    result = invoke(["check-family", str(COUNTEREXAMPLE)])
    assert result.exit_code == 1
    assert "d3(x, y) = 1" in result.output
    assert "d3(y, z) = 1" in result.output
    assert "d3(x, z) = 2" in result.output
    return "exactly one violating triple; check-family exits 1 with the exact values"


@criterion(6, "band census")
def test_criterion_6_band_census():
    bands = enumerate_bands()
    assert len(bands) == 22
    assert bands[0].value == 1
    assert format_fixed(bands[0].value) == "1.000000"
    assert bands[-1].value == Fraction(1, 2**21)
    assert all(a.value > b.value for a, b in zip(bands, bands[1:]))

    pairs = 0
    for tree, grants, dist in fuzz_corpus():
        raw = DistanceModel(tree)
        for a, b in combinations(grants, 2):
            assert band_of(dist(a, b)) is not None
            assert band_of(raw(a, b)) is not None
            pairs += 1
    return f"22 strictly decreasing values; band_of total on {pairs} fuzzed pair distances"


@criterion(7, "two-regime reproduction at desk scale")
def test_criterion_7_regimes():
    started = time.monotonic()
    snapshot = generate_synthetic_tenant(
        GeneratorConfig(seed=20260808, tight_spns=200, dispersed_spns=200)
    )
    tree = snapshot.native_tree()

    risks = []
    archetypes = {}
    for spn in snapshot.spns:
        grants = resolve_effective_grants(spn, snapshot)
        risk = assess_principal(spn, grants, effective_distance(grants, tree))
        risks.append(risk)
        band = band_of(risk.blast_radius)
        assert band is not None
        archetypes.setdefault(band.label, set()).add(spn.split("-")[1])

    rows = band_report(risks)
    assert rows, "no bands populated"
    tight_rows = dispersed_rows = 0
    for row in rows:
        population = archetypes[row.label]
        if population == {"tight"}:
            assert row.avg_spread_ratio >= Fraction(99, 100), row
            tight_rows += 1
        elif population == {"dispersed"}:
            assert row.avg_spread_ratio < Fraction(95, 100), row
            dispersed_rows += 1
    assert tight_rows and dispersed_rows
    elapsed = time.monotonic() - started
    assert elapsed <= 30, f"took {elapsed:.1f}s, budget is 30s"
    return (
        f"{tight_rows} tight band(s) >= 0.99, {dispersed_rows} dispersed band(s) < 0.95, "
        f"{elapsed:.1f}s"
    )


@criterion(8, "determinism")
def test_criterion_8_byte_identical_outputs():
    gen_args = ["generate", "--seed", "0", "--tight", "12", "--dispersed", "12", "--mixed", "12"]
    first = invoke(gen_args)
    second = invoke(gen_args)
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output

    snapshot = first.output
    scans = [
        invoke(["scan", "-", "--jobs", str(jobs), "--format", fmt], input=snapshot).output
        for jobs in (1, 4)
        for fmt in ("csv", "json")
    ]
    assert scans[0] == scans[2] and scans[1] == scans[3]
    rescan = invoke(["scan", "-"], input=snapshot).output
    assert rescan == scans[0]

    bands_a = invoke(["bands", "-", "--anonymize", "--seed", "11"], input=snapshot)
    bands_b = invoke(["bands", "-", "--anonymize", "--seed", "11"], input=snapshot)
    assert bands_a.output == bands_b.output and bands_a.exit_code == 0
    return "generate/scan/bands byte-identical, including --jobs 4 and --format json"


@criterion(9, "ultrametric axioms on fuzzed instances")
def test_criterion_9_axioms():
    rng = random.Random(FUZZ_SEED ^ 0xFF)
    sizes = [200, 200, 120] + [rng.randint(2, 80) for _ in range(12)]
    triples_scanned = 0
    for size in sizes:
        tree = random_tree(rng, max_nodes=40)
        grants = sorted_grants(random_grants(rng, tree, size))
        dist = effective_distance(grants, tree)
        assert check_ultrametricity(grants, dist) == []
        triples_scanned += len(grants) ** 3
        for a, b in combinations(grants, 2):
            assert dist(a, b) == dist(b, a)
            assert dist(a, b) > 0
        for g in grants:
            assert dist(g, g) == 0
    return f"{len(sizes)} instances, ~{triples_scanned:,} ordered triples, zero violations"
