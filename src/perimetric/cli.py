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
seed) and the Unicode tables _shown reads through str.isprintable.

A command runs with the cyclic garbage collector off. Its records are
tuples, dicts and lists that form no reference cycle, so reference
counting frees each one when its last reader lets go; the collector only
rescanned them, hundreds of times on a large tenant, to find the few
hundred cyclic objects of the argument parser and the JSON encoder.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from json.encoder import encode_basestring_ascii
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
from perimetric.perimeter import PrincipalRisk, assess_principal, sorted_grants
from perimetric.ranking import (
    band_of,
    band_report,
    rank_spns,
    render_band_report_csv,
    render_band_report_json,
)
from perimetric.render import csv_field, format_fixed, fraction_str, json_block


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

    A file that cannot be opened or read, or a closed standard input, is a
    usage error that names it.
    """
    try:
        if path == "-":
            if sys.stdin is None:  # None when descriptor 0 is closed
                _usage_error("argument SNAPSHOT: can't read '-': standard input is closed")
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
    records = []
    for risk in rank_spns(_assess_snapshot(snapshot)):
        band = band_of(risk.radius, SCALE)
        records.append((risk, band.label if band else None))
    return records


def _render_scan_csv(records: Sequence[tuple[PrincipalRisk, str | None]]) -> str:
    """The header line, then one line per record; only the id and the band label go through csv_field."""
    lines = ["spn,n,blast_radius,band,perimeter,mean_distance,spread_ratio,ultracycle\n"]
    for r, band in records:
        lines.append(
            f"{csv_field(r.spn)},{r.n},{format_fixed(r.radius, SCALE)},{csv_field(band) if band else '-'},"
            f"{format_fixed(r.length, SCALE)},{format_fixed(*r.mean_parts)},{format_fixed(*r.spread_parts)},"
            f"{'false' if r.ultracycle is None else 'true'}\n"
        )
    return "".join(lines)


def _render_scan_json(records: Sequence[tuple[PrincipalRisk, str | None]]) -> str:
    """json.dumps({"records": [...]}, indent=2, sort_keys=True) + "\\n", one f-string template per record.

    The figures are digits, '.' and '/' only, so they go between the template's
    quotes without an encoder call.
    """
    enc = encode_basestring_ascii
    rows = []
    for r, band in records:
        radius, mean, spread = fraction_str(r.radius, SCALE), r.mean_parts, r.spread_parts
        ultracycle, distance = ("false", "null") if r.ultracycle is None else ("true", f'"{radius}"')
        rows.append(
            f'{{\n      "band": {"null" if band is None else enc(band)},\n'
            f'      "blast_radius": "{format_fixed(r.radius, SCALE)}",\n'
            f'      "blast_radius_exact": "{radius}",\n'
            f'      "mean_distance": "{format_fixed(*mean)}",\n'
            f'      "mean_distance_exact": "{fraction_str(*mean)}",\n'
            f'      "n": {r.n},\n'
            f'      "perimeter": "{format_fixed(r.length, SCALE)}",\n'
            f'      "perimeter_exact": "{fraction_str(r.length, SCALE)}",\n'
            f'      "spn": {enc(r.spn)},\n'
            f'      "spread_ratio": "{format_fixed(*spread)}",\n'
            f'      "spread_ratio_exact": "{fraction_str(*spread)}",\n'
            f'      "ultracycle": {ultracycle},\n'
            f'      "ultracycle_distance": {distance}\n    }}'
        )
    return f'{{\n  "records": {json_block(rows, 1)}\n}}\n'


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
    from dataclasses import fields

    from perimetric.generator import GeneratorConfig, generate_synthetic_tenant

    try:  # each option's dest is the field it sets
        config = GeneratorConfig(**{field.name: getattr(args, field.name) for field in fields(GeneratorConfig)})
        snapshot = generate_synthetic_tenant(config)
    except errors.PerimetricError as exc:
        _fail(str(exc), 2)
    print(serialize_snapshot(snapshot), end="")


def explain(args: argparse.Namespace) -> None:
    """Per-SPN breakdown: grants, tour edges, radius, perimeter, ratios.

    The nearest-neighbor tour from the first grant is read off the closure's
    dendrogram, with one distance per printed edge. scan gives the same
    figures without the tour.
    """
    spn = args.spn
    parsed = _load(args.snapshot)
    try:
        grants = sorted_grants(resolve_effective_grants(spn, parsed))
    except errors.PerimetricError as exc:
        _fail(str(exc), 2)
    dist = effective_distance(grants, parsed.native_tree())
    risk = assess_principal(spn, grants, dist)
    band = band_of(risk.radius, SCALE)

    print(f"spn: {_shown(spn)}")
    print(f"grants ({risk.n}):")
    for idx, grant in enumerate(grants):
        print(f"  [{idx}] {_shown(grant.action)} {grant.access.value} @ {_shown(grant.scope)}")
    if risk.n == 0:
        print("tour: none (no grants)")
    elif risk.n == 1:
        print("tour: single grant, length 0")
    else:
        order = dist.tour(grants)
        print("tour (nearest-neighbor from index 0):")
        for a, b in zip(order, order[1:]):
            ga, gb = grants[a], grants[b]
            print(
                f"  [{a}] {_shown(ga.action)} @ {_shown(ga.scope)}"
                f" -> [{b}] {_shown(gb.action)} @ {_shown(gb.scope)}"
                f"  d = {fraction_str(dist(ga, gb))}"
            )
    radius, length = (risk.radius, SCALE), (risk.length, SCALE)
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
    for archetype in ("tight", "dispersed", "mixed"):
        option(f"--{archetype}", type=int, default=0, metavar="N", dest=f"{archetype}_spns",
               help=f"{archetype.capitalize()} SPN count." + default)
    option("--management-groups", type=int, default=3, metavar="N", help="Count." + default)
    option("--subscriptions", type=int, default=4, metavar="N", help="Subscription count." + default)
    option("--resource-groups", type=int, default=2, metavar="N", dest="resource_groups_per_subscription",
           help="Per subscription." + default)
    option("--resources", type=int, default=3, metavar="N", dest="resources_per_resource_group",
           help="Per resource group." + default)
    option("--parts", type=int, default=1, metavar="N", dest="parts_per_resource", help="Per resource." + default)
    return parser


def main(args: Sequence[str] | None = None, standalone_mode: bool = True) -> None:
    """Run one command line: `args`, or sys.argv[1:] when None.

    Returns when the command succeeds; otherwise exits with its code. An
    exception no command handles exits 3: a PerimetricError is an invariant
    breach (input errors exit 2 where a command meets them) and prints its
    message, any other is named as unexpected. `standalone_mode` changes
    nothing; it is kept for perfbench's in-process runs, which pass it.
    The cyclic collector is off while the command runs and is turned back
    on afterwards only if it was on before.
    """
    # Safe because no record forms a cycle: reference counting frees each one as it
    # is dropped, and tests/test_cli.py checks that the cyclic garbage a scan leaves
    # does not grow with the tenant. The parser's and the encoder's few hundred
    # cyclic objects wait for the next collection after the command, or for exit.
    collecting = gc.isenabled()
    gc.disable()
    try:
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
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    main()
