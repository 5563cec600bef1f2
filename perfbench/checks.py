"""Output checks for the benchmark's CLI runs.

``check_output`` verifies the structure of one command's stdout against
facts the benchmark derives on its own from the snapshot it generated:
the effective grants of every SPN come from ``resolve_grants`` here, not
from ``perimetric.ingestion``. ``check_sample`` recomputes radius and
perimeter for a seeded sample of SPNs from first principles (raw pair
distances, exhaustive tour) and compares them with the output.

Both return a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import json
import random
from fractions import Fraction
from itertools import combinations

from perimetric.metric import Grant, distance, effective_distance, grant_sort_key
from perimetric.perimeter import BRUTE_FORCE_LIMIT, assess_principal, brute_force_tour
from perimetric.ranking import enumerate_bands
from perimetric.render import format_fixed

SAMPLE_SIZE = 24


def resolve_grants(snapshot) -> dict[str, tuple[Grant, ...]]:
    """Effective grants per SPN, canonically sorted: direct grants plus those
    of every group that contains the SPN, through nested groups."""
    direct: dict[str, set[Grant]] = {}
    for a in snapshot.assignments:
        direct.setdefault(a.principal, set()).add(Grant(a.action, a.access, a.scope))
    holders: dict[str, list[str]] = {}
    for group in snapshot.groups:
        for member in group.members:
            holders.setdefault(member, []).append(group.id)
    out = {}
    for spn in snapshot.spns:
        seen, stack, grants = {spn}, [spn], set()
        while stack:
            principal = stack.pop()
            grants |= direct.get(principal, set())
            for group in holders.get(principal, ()):
                if group not in seen:
                    seen.add(group)
                    stack.append(group)
        out[spn] = tuple(sorted(grants, key=grant_sort_key))
    return out


def sizes(snapshot, grants: dict[str, tuple[Grant, ...]]) -> dict[str, int]:
    counts = [len(g) for g in grants.values()]
    return {
        "spns": len(snapshot.spns),
        "assignments": len(snapshot.assignments),
        "groups": len(snapshot.groups),
        "alternates": len(snapshot.alternates),
        "grants": sum(counts),
        "max_grants": max(counts, default=0),
    }


def _band_values() -> dict[str, Fraction]:
    return {band.label: band.value for band in enumerate_bands()}


def _scan_rows(workload, stdout: str) -> tuple[list[dict], list[str]]:
    """Rows as {spn, n, radius, perimeter, perimeter_text, exact}; radius is exact."""
    fmt = workload.cli_args[workload.cli_args.index("--format") + 1]
    rows = []
    if fmt == "csv":
        bands = _band_values()
        reader = csv.DictReader(io.StringIO(stdout))
        for r in reader:
            if r["band"] != "-" and r["band"] not in bands:
                return [], [f"scan: unknown band {r['band']!r}"]
            rows.append(
                {
                    "spn": r["spn"],
                    "n": int(r["n"]),
                    "radius": bands.get(r["band"], Fraction(0)),
                    "perimeter": Fraction(r["perimeter"]),
                    "perimeter_text": r["perimeter"],
                    "exact": False,
                }
            )
    else:
        for r in json.loads(stdout)["records"]:
            rows.append(
                {
                    "spn": r["spn"],
                    "n": r["n"],
                    "radius": Fraction(r["blast_radius_exact"]),
                    "perimeter": Fraction(r["perimeter_exact"]),
                    "perimeter_text": r["perimeter"],
                    "exact": True,
                }
            )
    return rows, []


def _check_scan(workload, stdout: str, grants) -> list[str]:
    rows, problems = _scan_rows(workload, stdout)
    if problems:
        return problems
    if len(rows) != len(workload.snapshot.spns):
        return [f"scan: {len(rows)} rows for {len(workload.snapshot.spns)} SPNs"]
    if sorted(r["spn"] for r in rows) != list(workload.snapshot.spns):
        return ["scan: rows do not list each SPN once"]
    for r in rows:
        if r["n"] != len(grants[r["spn"]]):
            return [f"scan: {r['spn']} has n={r['n']}, expected {len(grants[r['spn']])}"]
    for prev, cur in zip(rows, rows[1:]):
        key_prev = (-prev["radius"], -prev["perimeter"])
        key_cur = (-cur["radius"], -cur["perimeter"])
        if key_prev > key_cur:
            return [f"scan: {cur['spn']} ranks below {prev['spn']} but has the larger (radius, perimeter)"]
        # CSV perimeters are rounded to six decimals, so equal rounded values
        # may hide an exact difference; the spn tie-break is checked only on
        # exact output.
        if key_prev == key_cur and cur["exact"] and cur["spn"] < prev["spn"]:
            return [f"scan: tie between {prev['spn']} and {cur['spn']} not ordered by spn"]
    return []


def _check_bands(workload, stdout: str, grants) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(stdout)))
    counted = sum(int(r["spn_count"]) for r in rows)
    no_permissions = sum(int(r["spn_count"]) for r in rows if r["band"] == "no-permissions")
    spns = len(workload.snapshot.spns)
    if counted != spns:
        return [f"bands: counts sum to {counted}, expected {spns}"]
    # distinct grants are at positive distance, so radius 0 means at most one grant
    expected_empty = sum(1 for g in grants.values() if len(g) <= 1)
    if no_permissions != expected_empty:
        return [f"bands: no-permissions is {no_permissions}, expected {expected_empty}"]
    return []


def _check_family(workload, stdout: str, grants) -> list[str]:
    flagged = {
        line.split()[1].rstrip(":")
        for line in stdout.splitlines()
        if line.startswith("spn ") and line.endswith("violating triple(s)")
    }
    if flagged != workload.dirty_spns:
        return [f"check-family: flagged {sorted(flagged)}, planted {sorted(workload.dirty_spns)}"]
    checked = sum(1 for g in grants.values() if len(g) >= 3)
    summary = f"checked {checked} spn(s) against {len(workload.snapshot.alternates)} alternate hierarchy(ies)"
    if summary not in stdout.splitlines():
        return [f"check-family: missing summary line {summary!r}"]
    return []


CHECKERS = {"scan": _check_scan, "bands": _check_bands, "check-family": _check_family}


def check_output(workload, stdout: bytes, exit_code: int, grants) -> list[str]:
    """Structural checks of one run's output."""
    if exit_code != workload.exit_code:
        return [f"exit code {exit_code}, expected {workload.exit_code}"]
    try:
        text = stdout.decode("utf-8")
        return CHECKERS[workload.cli_args[0]](workload, text, grants)
    except (UnicodeDecodeError, ValueError, KeyError, TypeError, IndexError, csv.Error) as exc:
        return [f"unparseable output: {type(exc).__name__}: {exc}"]


def check_sample(workload, stdout: bytes, grants, seed: int) -> list[str]:
    """Radius = max raw pair distance, perimeter = exhaustive tour where n <= 9.

    Compared with the output rows for scan; commands without per-SPN rows are
    compared with ``assess_principal`` on the same grants.
    """
    tree = workload.snapshot.native_tree()
    spns = list(workload.snapshot.spns)
    sample = random.Random(f"sample:{seed}").sample(spns, min(SAMPLE_SIZE, len(spns)))
    if workload.cli_args[0] == "scan":
        rows, problems = _scan_rows(workload, stdout.decode("utf-8"))
        if problems:
            return problems
        by_spn = {r["spn"]: r for r in rows}
    problems = []
    for spn in sample:
        items = grants[spn]
        radius = max((distance(a, b, tree) for a, b in combinations(items, 2)), default=Fraction(0))
        tour = None
        if 2 <= len(items) <= BRUTE_FORCE_LIMIT:
            tour = brute_force_tour(items, effective_distance(items, tree))
        elif len(items) < 2:
            tour = Fraction(0)
        if workload.cli_args[0] == "scan":
            row = by_spn.get(spn)
            if row is None:
                problems.append(f"sample: {spn} missing from output")
                continue
            got_radius, got_perimeter = row["radius"], row["perimeter"]
            if tour is not None and not row["exact"]:
                tour, got_perimeter = format_fixed(tour), row["perimeter_text"]
        else:
            risk = assess_principal(spn, items, effective_distance(items, tree))
            got_radius, got_perimeter = risk.blast_radius, risk.perimeter
        if got_radius != radius:
            problems.append(f"sample: {spn} radius {got_radius}, max raw pair distance is {radius}")
        if tour is not None and got_perimeter != tour:
            problems.append(f"sample: {spn} perimeter {got_perimeter}, exhaustive tour is {tour}")
    return problems
