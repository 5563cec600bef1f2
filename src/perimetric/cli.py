"""Command-line interface.

Commands: scan, bands, check-family, generate, explain. Snapshots are
read from a path or standard input (`-`). Arguments are parsed with the
standard library's argparse; the package has no runtime dependency. Exit
codes are stable: 0 for success or a clean check, 1 when check-family
finds violations, 2 for input and usage errors (a bare `perimetric`
prints its help on stderr and exits 2), 3 for an internal error: an
invariant breach, or an exception no command handles, such as a failed
write to stdout. Every error is one `error: ...` line on stderr, never a
traceback. All output is a deterministic function of (input bytes, flags,
seed).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import NoReturn, Sequence

from perimetric import errors
from perimetric.ingestion import (
    TenantSnapshot,
    parse_snapshot,
    resolve_effective_grants,
    serialize_snapshot,
)
from perimetric.kernels import SCALE
from perimetric.metric import DistanceModel, check_ultrametricity, effective_distance, raw_violates
from perimetric.perimeter import PrincipalRisk, assess_principal, nn_tour, sorted_grants
from perimetric.ranking import (
    band_of,
    band_report,
    enumerate_bands,
    rank_spns,
    render_band_report_csv,
    render_band_report_json,
)
from perimetric.render import format_fixed, fraction_str


def _shown(text: str) -> str:
    """`text` itself when printable, else its repr, so no id can add or end a report line."""
    return text if text.isprintable() else repr(text)


def _fail(message: str, code: int) -> NoReturn:
    if sys.stderr is not None:  # None when descriptor 2 is closed
        sys.stderr.write(f"error: {message}\n")
    sys.exit(code)


def _usage_error(message: str) -> NoReturn:
    _fail(" ".join(message.split()), 2)


def _read(path: str) -> bytes:
    """The bytes of the file at `path`, or of standard input for `-`.

    A file that cannot be opened or read is a usage error that names it.
    """
    try:
        if path == "-":
            return sys.stdin.buffer.read()
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        _usage_error(f"argument SNAPSHOT: can't read '{path}': {exc.strerror}")


def _load(path: str) -> TenantSnapshot:
    try:
        return parse_snapshot(_read(path))  # no local holds the bytes while they are parsed
    except errors.PerimetricError as exc:
        _fail(str(exc), 2)


def _assess_snapshot(snapshot: TenantSnapshot) -> list[PrincipalRisk]:
    """Assess every SPN over the native hierarchy, in snapshot order."""
    tree = snapshot.native_tree()
    risks = []
    for spn in snapshot.spns:
        grants = resolve_effective_grants(spn, snapshot)
        risks.append(assess_principal(spn, grants, effective_distance(grants, tree)))
    return risks


def _scan_records(snapshot: TenantSnapshot) -> list[tuple[PrincipalRisk, str | None]]:
    """Ranked records, each with its band label (None for radius 0)."""
    bands = enumerate_bands()
    records = []
    for risk in rank_spns(_assess_snapshot(snapshot)):
        band = band_of(risk.radius, bands, risk.unit)
        records.append((risk, band.label if band else None))
    return records


def _render_scan_csv(records: Sequence[tuple[PrincipalRisk, str | None]]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["spn", "n", "blast_radius", "band", "perimeter", "mean_distance", "spread_ratio", "ultracycle"]
    )
    for r, band in records:
        writer.writerow(
            [
                r.spn,
                r.n,
                format_fixed(r.radius, r.unit),
                band or "-",
                format_fixed(r.length, r.unit),
                format_fixed(*r.mean_parts),
                format_fixed(*r.spread_parts),
                "true" if r.ultracycle is not None else "false",
            ]
        )
    return out.getvalue()


def _render_scan_json(records: Sequence[tuple[PrincipalRisk, str | None]]) -> str:
    doc = {
        "records": [
            {
                "spn": r.spn,
                "n": r.n,
                "blast_radius": format_fixed(r.radius, r.unit),
                "blast_radius_exact": fraction_str(r.radius, r.unit),
                "band": band,
                "perimeter": format_fixed(r.length, r.unit),
                "perimeter_exact": fraction_str(r.length, r.unit),
                "mean_distance": format_fixed(*r.mean_parts),
                "mean_distance_exact": fraction_str(*r.mean_parts),
                "spread_ratio": format_fixed(*r.spread_parts),
                "spread_ratio_exact": fraction_str(*r.spread_parts),
                "ultracycle": r.ultracycle is not None,
                "ultracycle_distance": (
                    fraction_str(r.radius, r.unit) if r.ultracycle is not None else None
                ),
            }
            for r, band in records
        ]
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _release_stdout() -> None:
    """Flush stdout; if that fails, point its descriptor at os.devnull.

    A failed write leaves its bytes in stdout's buffer, and the flush at
    interpreter exit would fail again, print a second error and exit 120.
    A stdout with no descriptor (a StringIO, say) is left as it is.
    """
    try:
        sys.stdout.flush()
    except (OSError, ValueError):
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):
            return
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


def scan(args: argparse.Namespace) -> None:
    """Rank every SPN by blast radius, breaking ties with the perimeter.

    Distances are computed over the native hierarchy; use check-family to
    audit alternate-hierarchy infima before trusting them.
    """
    records = _scan_records(_load(args.snapshot))
    print(_render_scan_csv(records) if args.format == "csv" else _render_scan_json(records), end="")


def bands(args: argparse.Namespace) -> None:
    """Per-band SPN counts and average spread ratios.

    The no-permissions row counts every SPN of radius 0: fewer than two
    distinct grants, so no grant at all or one with no pair to measure.
    """
    risks = _assess_snapshot(_load(args.snapshot))
    rows = band_report(risks, anonymize=args.anonymize, seed=args.seed)
    no_permissions = sum(1 for r in risks if r.radius == 0)
    render = render_band_report_csv if args.format == "csv" else render_band_report_json
    print(render(rows, no_permissions), end="")


def check_family(args: argparse.Namespace) -> int:
    """Audit pointwise-infimum distances over the alternate hierarchies.

    Exits 1 when any SPN's infimum distances break the strong triangle
    inequality, 0 when clean, 2 when the snapshot has no alternates.
    """
    if args.limit < 1:
        _usage_error(f"argument --limit: {args.limit} is not at least 1")
    parsed = _load(args.snapshot)
    if not parsed.alternates:
        _fail("snapshot declares no alternate hierarchies; nothing to check", 2)
    dist = DistanceModel(parsed.family())
    dirty = 0
    checked = 0
    for spn in parsed.spns:
        grants = sorted_grants(resolve_effective_grants(spn, parsed))
        if len(grants) < 3:
            continue
        checked += 1
        triples = check_ultrametricity(grants, dist, limit=args.limit)
        if not triples:
            continue
        dirty += 1
        print(f"spn {_shown(spn)}: {len(triples)} violating triple(s)")
        # a cell depends only on its pair, so the printed ones come from a matrix over just
        # the grants the triples name (at most 3 * limit), in integers over kernels.SCALE
        named = list(dict.fromkeys(index for triple in triples for index in triple))
        flat, m = dist.matrix([grants[index] for index in named]), len(named)
        at = {index: row for row, index in enumerate(named)}
        for i, j, k in triples:
            ai, aj, ak = (_shown(grants[index].action) for index in (i, j, k))
            i, j, k = at[i], at[j], at[k]
            d_ij, d_jk, d_ik = flat[i * m + j], flat[j * m + k], flat[i * m + k]
            unit = min(d_ij, d_jk, d_ik)
            print(
                f"  d3({ai}, {aj}) = {fraction_str(d_ij, unit)}, "
                f"d3({aj}, {ak}) = {fraction_str(d_jk, unit)}, "
                f"d3({ai}, {ak}) = {fraction_str(d_ik, unit)} "
                f"(unit: {fraction_str(unit, SCALE)})"
            )
        if raw_violates(grants, parsed.native_tree()):
            print(
                "  note: raw pairwise distances violate under the native tree alone "
                "(mixed read/write grants); scan already repairs this via the closure"
            )
    print(f"checked {checked} spn(s) against {len(parsed.alternates)} alternate hierarchy(ies)")
    if dirty:
        print(f"infimum distances are not ultrametric for {dirty} spn(s)")
        print("recommendation: fall back to the native hierarchy for perimeter computations")
        return 1
    print("no ultrametricity violations found")
    return 0


def generate(args: argparse.Namespace) -> None:
    """Emit a deterministic synthetic tenant snapshot on standard output."""
    from perimetric.generator import GeneratorConfig, generate_synthetic_tenant

    explicit = {"tight": args.tight, "dispersed": args.dispersed, "mixed": args.mixed}
    if args.spns is not None and any(v is not None for v in explicit.values()):
        _fail("--spns cannot be combined with --tight/--dispersed/--mixed", 2)
    counts = {key: value or 0 for key, value in explicit.items()}
    if args.spns is not None:
        counts[args.archetype] = args.spns
    try:
        config = GeneratorConfig(
            seed=args.seed,
            management_groups=args.management_groups,
            subscriptions=args.subscriptions,
            resource_groups_per_subscription=args.resource_groups,
            resources_per_resource_group=args.resources,
            parts_per_resource=args.parts,
            tight_spns=counts["tight"],
            dispersed_spns=counts["dispersed"],
            mixed_spns=counts["mixed"],
        )
        snapshot = generate_synthetic_tenant(config)
    except errors.PerimetricError as exc:
        _fail(str(exc), 2)
    print(serialize_snapshot(snapshot), end="")


def explain(args: argparse.Namespace) -> None:
    """Per-SPN breakdown: grants, tour edges, radius, perimeter, ratios."""
    spn = args.spn
    parsed = _load(args.snapshot)
    try:
        grants = sorted_grants(resolve_effective_grants(spn, parsed))
    except errors.PerimetricError as exc:
        _fail(str(exc), 2)
    dist = effective_distance(grants, parsed.native_tree())
    risk = assess_principal(spn, grants, dist)
    band = band_of(risk.radius, enumerate_bands(), risk.unit)

    print(f"spn: {_shown(spn)}")
    print(f"grants ({risk.n}):")
    for idx, grant in enumerate(grants):
        print(f"  [{idx}] {_shown(grant.action)} {grant.access.value} @ {_shown(grant.scope)}")
    if risk.n == 0:
        print("tour: none (no grants)")
    elif risk.n == 1:
        print("tour: single grant, length 0")
    else:
        tour = nn_tour(grants, dist, start=0)
        print("tour (nearest-neighbor from index 0):")
        for a, b in zip(tour.order, tour.order[1:]):
            ga, gb = grants[a], grants[b]
            print(
                f"  [{a}] {_shown(ga.action)} @ {_shown(ga.scope)}"
                f" -> [{b}] {_shown(gb.action)} @ {_shown(gb.scope)}"
                f"  d = {fraction_str(dist(ga, gb))}"
            )
    radius, length = (risk.radius, risk.unit), (risk.length, risk.unit)
    print(
        f"blast radius: {format_fixed(*radius)} ({fraction_str(*radius)})"
        f"  band: {band.label if band else '-'}"
    )
    print(f"perimeter: {format_fixed(*length)} ({fraction_str(*length)})")
    print(f"mean distance: {format_fixed(*risk.mean_parts)} ({fraction_str(*risk.mean_parts)})")
    print(f"spread ratio: {format_fixed(*risk.spread_parts)} ({fraction_str(*risk.spread_parts)})")
    if risk.ultracycle is not None:
        print(f"ultracycle: yes (xi = {fraction_str(*radius)})")
    else:
        print("ultracycle: no")


class _Parser(argparse.ArgumentParser):
    """A parser, its subcommands' too, whose usage errors end in one `error:` line and exit 2.

    Options must be spelled in full: an abbreviation is an unknown option.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str) -> NoReturn:
        _usage_error(message)


def _parser() -> _Parser:
    parser = _Parser(
        prog="perimetric", description="Blast-radius and data-perimeter analytics over tenant snapshots."
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub = {}
    for run in (scan, bands, check_family, generate, explain):
        name, doc = run.__name__.replace("_", "-"), run.__doc__ or ""
        sub[name] = commands.add_parser(name, help=doc.partition("\n")[0], description=doc)
        sub[name].set_defaults(run=run)
        if run is not generate:
            sub[name].add_argument("snapshot", metavar="SNAPSHOT", help="A snapshot file, or - for stdin.")
    default = " (default: %(default)s)"
    for name in ("scan", "bands"):
        sub[name].add_argument("--format", choices=("csv", "json"), default="csv", help="Format." + default)
    option = sub["scan"].add_argument
    option("--jobs", type=int, default=1, metavar="N",
           help="Accepted for compatibility and ignored; scan runs in one thread." + default)
    option = sub["bands"].add_argument
    option("--anonymize", action="store_true", help="Shuffle rows and relabel bands with roman numerals.")
    option("--seed", type=int, default=0, metavar="N", help="Shuffle seed for --anonymize." + default)
    option = sub["check-family"].add_argument
    option("--limit", type=int, default=100, metavar="N", help="Max violations reported per SPN." + default)
    sub["explain"].add_argument("spn", metavar="SPN")
    option = sub["generate"].add_argument
    option("--seed", type=int, default=0, metavar="N", help="Generator seed." + default)
    option("--spns", type=int, metavar="N", help="SPN count for --archetype.")
    option("--archetype", choices=("tight", "dispersed", "mixed"), default="mixed", help="For --spns." + default)
    for archetype in ("tight", "dispersed", "mixed"):
        option(f"--{archetype}", type=int, metavar="N", help=f"Explicit {archetype} SPN count.")
    option("--management-groups", type=int, default=3, metavar="N", help="Count." + default)
    option("--subscriptions", type=int, default=4, metavar="N", help="Subscription count." + default)
    option("--resource-groups", type=int, default=2, metavar="N", help="Per subscription." + default)
    option("--resources", type=int, default=3, metavar="N", help="Per resource group." + default)
    option("--parts", type=int, default=1, metavar="N", help="Per resource." + default)
    return parser


def main(args: Sequence[str] | None = None, standalone_mode: bool = True) -> None:
    """Run one command line: `args`, or sys.argv[1:] when None.

    Returns when the command succeeds; otherwise exits with its code. An
    exception no command handles exits 3: a PerimetricError is an invariant
    breach (input errors exit 2 where a command meets them) and prints its
    message, any other is named as unexpected. `standalone_mode` changes
    nothing; it is kept for perfbench's in-process runs, which pass it.
    """
    parser = _parser()
    parsed = parser.parse_args(args)
    if parsed.command is None:
        parser.print_help(sys.stderr)
        sys.exit(2)
    try:
        code = parsed.run(parsed)
        if sys.stdout is not None:  # None when descriptor 1 is closed; print then writes nothing
            sys.stdout.flush()  # a failed write to a buffered stdout shows here, not at exit
    except Exception as exc:
        _release_stdout()
        message = str(exc) if isinstance(exc, errors.PerimetricError) else f"unexpected {type(exc).__name__}: {exc}"
        _fail(" ".join(message.split()), 3)
    if code:
        sys.exit(code)


if __name__ == "__main__":
    main()
