"""Command-line interface.

Commands: scan, bands, check-family, generate, explain. Snapshots are
read from a path or standard input (`-`). Exit codes are stable: 0 for
success or a clean check, 1 when check-family finds violations, 2 for
input and usage errors, 3 for an internal error: an invariant breach, or an
exception no command handles, such as a failed write to stdout. Every
error is one `error: ...` line on stderr, never a traceback. All output
is a deterministic function of (input bytes, flags, seed).
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from typing import NoReturn, Sequence

import click

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
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


# a path, not an open file: click would open a file before checking the
# parameters after it, and a usage error there leaves it open
_SNAPSHOT_PATH = click.Path(dir_okay=False, allow_dash=True)


def _read(path: str) -> bytes:
    """The bytes of the file at `path`, or of standard input for `-`.

    A file that cannot be opened or read is a usage error, worded as
    click words it for a file argument.
    """
    try:
        with click.open_file(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        message = f"'{click.format_filename(path)}': {exc.strerror}"
        raise click.BadParameter(message, param_hint="'SNAPSHOT'") from None


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


class _Main(click.Group):
    """The command group: every error it sees ends in one `error:` line.

    Click's usage errors (an unknown command or option, a bad value, a
    missing or unreadable file) keep their exit code, 2, wherever they are
    raised. An exception no command handles exits 3: a PerimetricError is
    an invariant breach (input errors exit 2 where a command meets them) and
    prints its message; any other, such as a failed write to stdout, is
    named as unexpected. The commands' sys.exit codes, --help and the help
    a bare `perimetric` prints pass through unchanged.
    """

    def make_context(self, *args, **kwargs) -> click.Context:
        try:
            return super().make_context(*args, **kwargs)
        except click.exceptions.ClickException as exc:
            _usage_error(exc)

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except click.exceptions.ClickException as exc:
            _usage_error(exc)
        except (click.exceptions.Exit, click.exceptions.Abort):
            raise
        except Exception as exc:
            _release_stdout()
            message = f"unexpected {type(exc).__name__}: {exc}"
            if isinstance(exc, errors.PerimetricError):  # an invariant breach
                message = str(exc)
            _fail(" ".join(message.split()), 3)


# click 8.2 and later raise this for a bare group; earlier versions print the help and exit 0
_HELP_ERRORS = getattr(click.exceptions, "NoArgsIsHelpError", ())


def _usage_error(exc: click.exceptions.ClickException) -> NoReturn:
    if isinstance(exc, _HELP_ERRORS):
        raise exc
    _fail(" ".join(exc.format_message().split()), exc.exit_code)


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


@click.group(cls=_Main)
def main() -> None:
    """Blast-radius and data-perimeter analytics over tenant snapshots."""


@main.command()
@click.argument("snapshot", type=_SNAPSHOT_PATH)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Accepted for compatibility and ignored; scan runs in one thread.")
def scan(snapshot: str, fmt: str, jobs: int) -> None:
    """Rank every SPN by blast radius, breaking ties with the perimeter.

    Distances are computed over the native hierarchy; use check-family to
    audit alternate-hierarchy infima before trusting them.
    """
    records = _scan_records(_load(snapshot))
    click.echo(_render_scan_csv(records) if fmt == "csv" else _render_scan_json(records), nl=False)


@main.command()
@click.argument("snapshot", type=_SNAPSHOT_PATH)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("--anonymize", is_flag=True, help="Shuffle rows and relabel bands with roman numerals.")
@click.option("--seed", type=int, default=0, show_default=True, help="Shuffle seed for --anonymize.")
def bands(snapshot: str, fmt: str, anonymize: bool, seed: int) -> None:
    """Per-band SPN counts and average spread ratios.

    The no-permissions row counts every SPN of radius 0: fewer than two
    distinct grants, so no grant at all or one with no pair to measure.
    """
    risks = _assess_snapshot(_load(snapshot))
    rows = band_report(risks, anonymize=anonymize, seed=seed)
    no_permissions = sum(1 for r in risks if r.radius == 0)
    render = render_band_report_csv if fmt == "csv" else render_band_report_json
    click.echo(render(rows, no_permissions), nl=False)


@main.command("check-family")
@click.argument("snapshot", type=_SNAPSHOT_PATH)
@click.option("--limit", type=click.IntRange(min=1), default=100, show_default=True,
              help="Max violations reported per SPN.")
def check_family(snapshot: str, limit: int) -> None:
    """Audit pointwise-infimum distances over the alternate hierarchies.

    Exits 1 when any SPN's infimum distances break the strong triangle
    inequality, 0 when clean, 2 when the snapshot has no alternates.
    """
    parsed = _load(snapshot)
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
        triples = check_ultrametricity(grants, dist, limit=limit)
        if not triples:
            continue
        dirty += 1
        click.echo(f"spn {_shown(spn)}: {len(triples)} violating triple(s)")
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
            click.echo(
                f"  d3({ai}, {aj}) = {fraction_str(d_ij, unit)}, "
                f"d3({aj}, {ak}) = {fraction_str(d_jk, unit)}, "
                f"d3({ai}, {ak}) = {fraction_str(d_ik, unit)} "
                f"(unit: {fraction_str(unit, SCALE)})"
            )
        if raw_violates(grants, parsed.native_tree()):
            click.echo(
                "  note: raw pairwise distances violate under the native tree alone "
                "(mixed read/write grants); scan already repairs this via the closure"
            )
    click.echo(
        f"checked {checked} spn(s) against {len(parsed.alternates)} alternate hierarchy(ies)"
    )
    if dirty:
        click.echo(f"infimum distances are not ultrametric for {dirty} spn(s)")
        click.echo("recommendation: fall back to the native hierarchy for perimeter computations")
        sys.exit(1)
    click.echo("no ultrametricity violations found")


@main.command()
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--spns", type=int, default=None, help="SPN count for --archetype.")
@click.option(
    "--archetype",
    type=click.Choice(["tight", "dispersed", "mixed"]),
    default="mixed",
    show_default=True,
)
@click.option("--tight", type=int, default=None, help="Explicit tight SPN count.")
@click.option("--dispersed", type=int, default=None, help="Explicit dispersed SPN count.")
@click.option("--mixed", type=int, default=None, help="Explicit mixed SPN count.")
@click.option("--management-groups", type=int, default=3, show_default=True)
@click.option("--subscriptions", type=int, default=4, show_default=True)
@click.option("--resource-groups", type=int, default=2, show_default=True, help="Per subscription.")
@click.option("--resources", type=int, default=3, show_default=True, help="Per resource group.")
@click.option("--parts", type=int, default=1, show_default=True, help="Per resource.")
def generate(seed, spns, archetype, tight, dispersed, mixed, management_groups,
             subscriptions, resource_groups, resources, parts) -> None:
    """Emit a deterministic synthetic tenant snapshot on standard output."""
    from perimetric.generator import GeneratorConfig, generate_synthetic_tenant

    explicit = {"tight": tight, "dispersed": dispersed, "mixed": mixed}
    if spns is not None and any(v is not None for v in explicit.values()):
        _fail("--spns cannot be combined with --tight/--dispersed/--mixed", 2)
    counts = {key: value or 0 for key, value in explicit.items()}
    if spns is not None:
        counts[archetype] = spns
    try:
        config = GeneratorConfig(
            seed=seed,
            management_groups=management_groups,
            subscriptions=subscriptions,
            resource_groups_per_subscription=resource_groups,
            resources_per_resource_group=resources,
            parts_per_resource=parts,
            tight_spns=counts["tight"],
            dispersed_spns=counts["dispersed"],
            mixed_spns=counts["mixed"],
        )
        snapshot = generate_synthetic_tenant(config)
    except errors.PerimetricError as exc:
        _fail(str(exc), 2)
    click.echo(serialize_snapshot(snapshot), nl=False)


@main.command()
@click.argument("snapshot", type=_SNAPSHOT_PATH)
@click.argument("spn")
def explain(snapshot: str, spn: str) -> None:
    """Per-SPN breakdown: grants, tour edges, radius, perimeter, ratios."""
    parsed = _load(snapshot)
    try:
        grants = sorted_grants(resolve_effective_grants(spn, parsed))
    except errors.PerimetricError as exc:
        _fail(str(exc), 2)
    dist = effective_distance(grants, parsed.native_tree())
    risk = assess_principal(spn, grants, dist)
    band = band_of(risk.radius, enumerate_bands(), risk.unit)

    click.echo(f"spn: {_shown(spn)}")
    click.echo(f"grants ({risk.n}):")
    for idx, grant in enumerate(grants):
        click.echo(f"  [{idx}] {_shown(grant.action)} {grant.access.value} @ {_shown(grant.scope)}")
    if risk.n == 0:
        click.echo("tour: none (no grants)")
    elif risk.n == 1:
        click.echo("tour: single grant, length 0")
    else:
        tour = nn_tour(grants, dist, start=0)
        click.echo("tour (nearest-neighbor from index 0):")
        for a, b in zip(tour.order, tour.order[1:]):
            ga, gb = grants[a], grants[b]
            click.echo(
                f"  [{a}] {_shown(ga.action)} @ {_shown(ga.scope)}"
                f" -> [{b}] {_shown(gb.action)} @ {_shown(gb.scope)}"
                f"  d = {fraction_str(dist(ga, gb))}"
            )
    radius, length = (risk.radius, risk.unit), (risk.length, risk.unit)
    click.echo(
        f"blast radius: {format_fixed(*radius)} ({fraction_str(*radius)})"
        f"  band: {band.label if band else '-'}"
    )
    click.echo(f"perimeter: {format_fixed(*length)} ({fraction_str(*length)})")
    click.echo(f"mean distance: {format_fixed(*risk.mean_parts)} ({fraction_str(*risk.mean_parts)})")
    click.echo(f"spread ratio: {format_fixed(*risk.spread_parts)} ({fraction_str(*risk.spread_parts)})")
    if risk.ultracycle is not None:
        click.echo(f"ultracycle: yes (xi = {fraction_str(*radius)})")
    else:
        click.echo("ultracycle: no")


if __name__ == "__main__":
    main()
