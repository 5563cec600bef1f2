"""Shared builders for unit and acceptance tests."""

from __future__ import annotations

import csv
import io
import json
import random
import re
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from hypothesis import strategies as st

from perimetric import kernels
from perimetric.cli import main
from perimetric.errors import (
    DuplicateId,
    SnapshotSyntaxError,
    UnbandableRadius,
    UnknownNode,
    UnknownPrincipal,
    UnknownReference,
    UnsupportedSchemaVersion,
)
from perimetric.generator import GeneratorConfig, generate_synthetic_tenant
from perimetric.hierarchy import (
    MAX_LEVEL,
    MAX_MG_DEPTH,
    HierarchyNode,
    NodeKind,
    TenantTree,
    build_tree,
)
from perimetric.ingestion import (
    SCHEMA_VERSION,
    AlternateHierarchy,
    Assignment,
    Group,
    TenantSnapshot,
    _check_groups_acyclic,
    serialize_snapshot,
)
from perimetric.metric import READ_WEIGHT, WRITE_WEIGHT, AccessClass, EffectiveDistance, Grant
from perimetric.perimeter import PrincipalRisk, sorted_grants, spread_ratio
from perimetric.ranking import BandReportRow, Regime, band_of, enumerate_bands, regime_for
from perimetric.render import format_fixed, fraction_str, roman

@dataclass(frozen=True)
class CliResult:
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        """Stdout, then stderr."""
        return self.stdout + self.stderr


def invoke(args, input: str | bytes | None = None) -> CliResult:
    """Run `perimetric.cli.main(args)` in this process, with `input` on standard input.

    Stdout and stderr are captured as text. Only SystemExit is caught, so any
    other exception that escapes `main` fails the calling test.
    """
    data = input.encode("utf-8") if isinstance(input, str) else input or b""
    stdout, stderr = io.StringIO(), io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    exit_code = 0
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            main(list(args))
    except SystemExit as exc:
        exit_code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        sys.stdin = saved_stdin
    return CliResult(exit_code, stdout.getvalue(), stderr.getvalue())


# One node per canonical level 0..10: root, mg1..mg6, sub, rg, res, part.
_CHAIN_KINDS = (
    NodeKind.TENANT_ROOT,
    *([NodeKind.MANAGEMENT_GROUP] * 6),
    NodeKind.SUBSCRIPTION,
    NodeKind.RESOURCE_GROUP,
    NodeKind.RESOURCE,
    NodeKind.RESOURCE_PART,
)


def chain_nodes() -> list[HierarchyNode]:
    """The nodes of a maximal-depth chain, root first: node lvlNN sits at canonical level NN."""
    nodes: list[HierarchyNode] = []
    for level, kind in enumerate(_CHAIN_KINDS):
        nodes.append(HierarchyNode(f"lvl{level:02d}", kind, nodes[-1].id if nodes else None))
    return nodes


def chain_tree() -> tuple[TenantTree, dict[int, str]]:
    """A maximal-depth chain plus the level -> node-id map."""
    nodes = chain_nodes()
    return build_tree(nodes), {level: node.id for level, node in enumerate(nodes)}


def grants_at(scope: str, n: int, access: AccessClass = AccessClass.READ) -> list[Grant]:
    """n distinct same-access grants sharing one scope (an ultracycle)."""
    return [Grant(f"a{i:02d}", access, scope) for i in range(n)]


def random_nodes(rng: random.Random, max_nodes: int = 40) -> list[HierarchyNode]:
    """The nodes of a random valid tenant tree with between 1 and max_nodes nodes."""
    nodes = [HierarchyNode("root", NodeKind.TENANT_ROOT, None)]
    mg_depth = {"root": 0}
    by_kind: dict[NodeKind, list[str]] = {kind: [] for kind in NodeKind}
    by_kind[NodeKind.TENANT_ROOT].append("root")

    total = rng.randint(1, max_nodes)
    for i in range(1, total):
        choices = [NodeKind.MANAGEMENT_GROUP, NodeKind.SUBSCRIPTION]
        if by_kind[NodeKind.SUBSCRIPTION]:
            choices.append(NodeKind.RESOURCE_GROUP)
        if by_kind[NodeKind.RESOURCE_GROUP]:
            choices.append(NodeKind.RESOURCE)
        if by_kind[NodeKind.RESOURCE]:
            choices.append(NodeKind.RESOURCE_PART)
        kind = rng.choice(choices)
        if kind is NodeKind.MANAGEMENT_GROUP:
            parents = ["root"] + [m for m in by_kind[kind] if mg_depth[m] < MAX_MG_DEPTH]
            parent = rng.choice(parents)
        elif kind is NodeKind.SUBSCRIPTION:
            parent = rng.choice(["root"] + by_kind[NodeKind.MANAGEMENT_GROUP])
        elif kind is NodeKind.RESOURCE_GROUP:
            parent = rng.choice(by_kind[NodeKind.SUBSCRIPTION])
        elif kind is NodeKind.RESOURCE:
            parent = rng.choice(by_kind[NodeKind.RESOURCE_GROUP])
        else:
            parent = rng.choice(by_kind[NodeKind.RESOURCE])
        node_id = f"n{i:03d}"
        nodes.append(HierarchyNode(node_id, kind, parent))
        by_kind[kind].append(node_id)
        if kind is NodeKind.MANAGEMENT_GROUP:
            mg_depth[node_id] = mg_depth[parent] + 1
    return nodes


def random_tree(rng: random.Random, max_nodes: int = 40) -> TenantTree:
    """A random valid tenant tree with between 1 and max_nodes nodes."""
    return build_tree(random_nodes(rng, max_nodes))


def random_grants(rng: random.Random, tree: TenantTree, n: int) -> list[Grant]:
    """n distinct grants with random scopes and access classes."""
    scopes = sorted(tree.parent)
    return [
        Grant(
            action=f"a{i:03d}",
            access=rng.choice((AccessClass.READ, AccessClass.WRITE)),
            scope=rng.choice(scopes),
        )
        for i in range(n)
    ]


def scan_effective_grants(spn: str, snapshot: TenantSnapshot) -> frozenset[Grant]:
    """Oracle for resolve_effective_grants: expand the SPN's containing groups,
    then scan every assignment (O(assignments) per SPN)."""
    if spn not in snapshot.spns:
        raise UnknownPrincipal(f"spn {spn!r} is not declared in the snapshot")
    containers: dict[str, set[str]] = {}
    for group in snapshot.groups:
        for member in group.members:
            containers.setdefault(member, set()).add(group.id)
    principals = {spn}
    frontier = [spn]
    while frontier:
        for holder in containers.get(frontier.pop(), ()):
            if holder not in principals:
                principals.add(holder)
                frontier.append(holder)
    return frozenset(
        Grant(action=a.action, access=a.access, scope=a.scope)
        for a in snapshot.assignments
        if a.principal in principals
    )


def triple_violations_cubic(flat: list, n: int, cap: int) -> list[tuple[int, int, int]]:
    """Oracle for kernels.violations_flat: the plain cubic loop over a flat
    row-major matrix, emitting (i, j, k) in (i, k, j) order up to `cap`."""
    if cap <= 0:
        return []
    found = []
    for i in range(n):
        for k in range(i + 1, n):
            d_ik = flat[i * n + k]
            for j in range(n):
                if j == i or j == k:
                    continue
                if d_ik > flat[i * n + j] and d_ik > flat[j * n + k]:
                    found.append((i, j, k))
                    if len(found) == cap:
                        return found
    return found


def fraction_nn_tour(flat: list, n: int, start: int) -> tuple[tuple[int, ...], Fraction]:
    """Oracle for kernels.nn_tour_flat: the greedy nearest-unvisited cycle on
    the values as given (ties to the lowest index), its length a Fraction."""
    seen = {start}
    order = [start]
    total = Fraction(0)
    cur = start
    for _ in range(n - 1):
        best = min((j for j in range(n) if j not in seen), key=lambda j: (flat[cur * n + j], j))
        seen.add(best)
        order.append(best)
        total += flat[cur * n + best]
        cur = best
    order.append(start)
    return tuple(order), total + flat[cur * n + start]


def fraction_brute_force(flat: list, n: int) -> Fraction:
    """Oracle for kernels.brute_force_flat: the minimum over every cyclic order
    with index 0 first, summed on the values as given."""
    return min(
        sum((flat[a * n + b] for a, b in zip((0, *perm), (*perm, 0))), Fraction(0))
        for perm in permutations(range(1, n))
    )


@dataclass(frozen=True)
class FractionRisk:
    """Oracle record: PrincipalRisk's public figures, each stored as a Fraction."""

    spn: str
    n: int
    blast_radius: Fraction
    perimeter: Fraction
    mean_distance: Fraction
    spread_ratio: Fraction
    ultracycle: Fraction | None


def fraction_assess(spn: str, grants, dist) -> FractionRisk:
    """Oracle for assess_principal: every figure computed in Fractions, on the
    closed form for an EffectiveDistance and on the matrix otherwise."""
    items = sorted_grants(grants)
    n = len(items)
    if n <= 1:
        return FractionRisk(spn, n, Fraction(0), Fraction(0), Fraction(0), Fraction(1), None)
    if isinstance(dist, EffectiveDistance):
        top, tour, pair_sum = merges_geometry(merges_oracle(dist, items))
        scale = kernels.SCALE
        radius, length = Fraction(top, scale), Fraction(tour, scale)
        mean = Fraction(pair_sum, scale * (n * (n - 1) // 2))
    else:
        flat = kernels.build_matrix(items, dist)
        values = [Fraction(flat[i * n + j]) for i in range(n) for j in range(i + 1, n)]
        _, length = fraction_nn_tour(flat, n, 0)
        radius, mean = max(values), sum(values, Fraction(0)) / len(values)
    ultracycle = radius if radius > 0 and mean == radius else None
    return FractionRisk(spn, n, radius, length, mean, spread_ratio(n, length, mean), ultracycle)


def merges_oracle(dist: EffectiveDistance, grants) -> list[tuple[int, tuple[int, ...]]]:
    """The closure's dendrogram over `grants` as one (height, block sizes) per
    merge, bottom-up, the sizes in the order of `grants`; the oracle for
    EffectiveDistance.geometry. Every occupied root path is walked up to the
    tree root, every node builds its clean and dirty tuples, and a child
    subtree is dirty when it is in the closure's dirty set. Nodes are taken
    deepest first, by a depth counted here along the parent links, not by
    the canonical level the fold orders them by."""
    tree = dist._tree

    def depth(node: str) -> int:
        steps = 0
        while (node := tree.parent[node]) is not None:
            steps += 1
        return steps

    blocks: dict[str, list[tuple[int, bool]]] = {}
    by_depth: list[list[str]] = [[] for _ in range(MAX_LEVEL + 1)]
    for grant in dict.fromkeys(grants):
        if grant.scope not in tree.parent:
            raise UnknownNode(f"node {grant.scope!r} not in tree")
        if grant.scope not in blocks:
            blocks[grant.scope] = []
            by_depth[depth(grant.scope)].append(grant.scope)
        blocks[grant.scope].append((1, grant.access is AccessClass.WRITE))
    merges: list[tuple[int, tuple[int, ...]]] = []
    for depth in range(len(by_depth) - 1, -1, -1):
        for node in by_depth[depth]:
            here = blocks.pop(node)
            shift = kernels.SCALE_BITS - (2 * tree.canonical_level[node] + 1)
            clean = tuple(size for size, raised in here if not raised)
            dirty = tuple(size for size, raised in here if raised)
            if len(clean) > 1:
                merges.append((READ_WEIGHT << shift, clean))
            joined = (sum(clean),) + dirty if clean else dirty
            if dirty and len(joined) > 1:
                merges.append((WRITE_WEIGHT << shift, joined))
            parent = tree.parent[node]
            if parent is not None:
                if parent not in blocks:
                    blocks[parent] = []
                    by_depth[depth - 1].append(parent)
                blocks[parent].append((sum(joined), node in dist._dirty))
    return merges


def merges_geometry(merges: list[tuple[int, tuple[int, ...]]]) -> tuple[int, int, int]:
    """Radius, minimal tour length and pair sum read off a merge list, as
    EffectiveDistance.geometry folds them; all 0 with no merge."""
    if not merges:
        return 0, 0, 0
    top = merges[-1][0]
    length = top + sum(height * (len(sizes) - 1) for height, sizes in merges)
    # a merge joins every pair of points that lie in two different blocks
    pair_sum = sum(height * (sum(sizes) ** 2 - sum(s * s for s in sizes)) // 2 for height, sizes in merges)
    return top, length, pair_sum


def fraction_rank(risks):
    """Oracle for rank_spns: sort on Fraction keys."""
    return sorted(risks, key=lambda r: (-r.blast_radius, -r.perimeter, r.spn))


def band_of_linear(radius: Fraction, bands):
    """Oracle for band_of: compare the radius with every band value in turn."""
    if radius == 0:
        return None
    for band in bands:
        if band.value == radius:
            return band
    raise UnbandableRadius(f"radius {radius} is not a canonical band value")


def format_fixed_fraction(value) -> str:
    """Oracle for render.format_fixed: reduce to a Fraction, then round half-to-even to six decimals."""
    frac = Fraction(value)
    num, den = frac.numerator, frac.denominator
    q, r = divmod(num * 10**6, den)
    if 2 * r > den or (2 * r == den and q % 2 == 1):
        q += 1
    whole, part = divmod(q, 10**6)
    return f"{whole}.{part:06d}"


def serialize_snapshot_oracle(snapshot: TenantSnapshot) -> str:
    """Oracle for ingestion.serialize_snapshot: build the document and let json.dumps write it."""
    doc = {
        "version": snapshot.version,
        "hierarchy": [
            {"id": n.id, "kind": n.kind.value, **({"parent": n.parent} if n.parent else {})}
            for n in snapshot.hierarchy
        ],
        "alternates": [
            {"name": a.name, "parents": dict(a.parents)} for a in snapshot.alternates
        ],
        "groups": [{"id": g.id, "members": list(g.members)} for g in snapshot.groups],
        "spns": list(snapshot.spns),
        "assignments": [
            {
                "principal": a.principal,
                "action": a.action,
                "access": a.access.value,
                "scope": a.scope,
            }
            for a in snapshot.assignments
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render_scan_json_oracle(records) -> str:
    """Oracle for cli._render_scan_json: build the document and let json.dumps write it."""
    scale = kernels.SCALE
    doc = {
        "records": [
            {
                "spn": r.spn,
                "n": r.n,
                "blast_radius": format_fixed(r.radius, scale),
                "blast_radius_exact": fraction_str(r.radius, scale),
                "band": band,
                "perimeter": format_fixed(r.length, scale),
                "perimeter_exact": fraction_str(r.length, scale),
                "mean_distance": format_fixed(*r.mean_parts),
                "mean_distance_exact": fraction_str(*r.mean_parts),
                "spread_ratio": format_fixed(*r.spread_parts),
                "spread_ratio_exact": fraction_str(*r.spread_parts),
                "ultracycle": r.ultracycle is not None,
                "ultracycle_distance": (
                    fraction_str(r.radius, scale) if r.ultracycle is not None else None
                ),
            }
            for r, band in records
        ]
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render_band_report_json_oracle(rows, no_permissions: int = 0) -> str:
    """Oracle for ranking.render_band_report_json: build the document and let json.dumps write it."""
    doc = {
        "bands": [
            {
                "band": row.label,
                "spn_count": row.spn_count,
                "avg_spread_ratio": format_fixed(row.avg_spread_ratio),
                "avg_spread_ratio_exact": fraction_str(row.avg_spread_ratio),
                "regime": row.regime.value,
            }
            for row in rows
        ],
        "no_permissions": {"spn_count": no_permissions},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@st.composite
def scan_records(draw, texts):
    """(PrincipalRisk, band label) pairs with ids and labels drawn from `texts`, bands
    None or set, and ultracycles: a pair sum of radius times the pair count."""
    scale = kernels.SCALE
    records = []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(0, 50))
        radius, length = draw(st.integers(0, 2 * scale)), draw(st.integers(0, 50 * scale))
        pairs = n * (n - 1) // 2
        pair_sum = draw(st.one_of(st.just(radius * pairs), st.integers(0, pairs * scale)))
        band = draw(st.one_of(st.none(), st.just(""), texts))
        records.append((PrincipalRisk(draw(texts), n, radius, length, pair_sum), band))
    return records


# spread ratios as band_report averages them: 0, 1, any small fraction, and terms of hundreds of digits
_RATIOS = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1)]),
    st.fractions(min_value=0),
    st.builds(Fraction, st.integers(0, 10**300), st.integers(1, 10**300)),
)


@st.composite
def band_reports(draw, texts):
    """(rows, no-permissions count): labels drawn from `texts`, counts 0 or past 2**64,
    and bands None or from the census."""
    row = st.builds(
        BandReportRow,
        texts,
        st.integers(0, 2**70),
        _RATIOS,
        st.sampled_from(list(Regime)),
        st.one_of(st.none(), st.sampled_from(enumerate_bands())),
    )
    return draw(st.lists(row, max_size=4)), draw(st.one_of(st.just(0), st.integers(0, 2**70)))


def band_report_oracle(risks, anonymize: bool = False, seed: int = 0) -> list[BandReportRow]:
    """Oracle for ranking.band_report: look up each SPN's band, then walk the census
    and average each band's spread ratios as a running sum of Fractions."""
    buckets = {}
    for risk in risks:
        if risk.radius == 0:
            continue
        band = band_of(risk.radius, kernels.SCALE)
        buckets.setdefault(band.label, []).append(risk)

    rows = []
    for band in enumerate_bands():
        members = buckets.get(band.label)
        if not members:
            continue
        avg = sum((m.spread_ratio for m in members), Fraction(0)) / len(members)
        rows.append(
            BandReportRow(
                label=band.label,
                spn_count=len(members),
                avg_spread_ratio=avg,
                regime=regime_for(band.value),
                band=band,
            )
        )

    if anonymize:
        random.Random(seed).shuffle(rows)
        rows = [row._replace(label=roman(i + 1), band=None) for i, row in enumerate(rows)]
    return rows


def csv_row_oracle(fields) -> str:
    """One row as csv.writer(lineterminator="\\r\\n") writes it, its final "\\r\\n" made "\\n".

    With "\\r\\n" as the terminator, every Python from 3.10 quotes a field that
    holds "\\r"; 3.10 raises csv.Error on a field that holds NUL.
    """
    out = io.StringIO()
    csv.writer(out, lineterminator="\r\n").writerow(fields)
    return out.getvalue()[:-2] + "\n"


def render_scan_csv_oracle(records) -> str:
    """Oracle for cli._render_scan_csv: one csv.writer row per record."""
    rows = [["spn", "n", "blast_radius", "band", "perimeter", "mean_distance", "spread_ratio", "ultracycle"]]
    for r, band in records:
        rows.append(
            [
                r.spn,
                r.n,
                format_fixed(r.radius, kernels.SCALE),
                band or "-",
                format_fixed(r.length, kernels.SCALE),
                format_fixed(*r.mean_parts),
                format_fixed(*r.spread_parts),
                "true" if r.ultracycle is not None else "false",
            ]
        )
    return "".join(map(csv_row_oracle, rows))


def render_band_report_csv_oracle(rows, no_permissions: int = 0) -> str:
    """Oracle for ranking.render_band_report_csv: one csv.writer row per band row."""
    table = [["band", "spn_count", "avg_spread_ratio", "regime"]]
    for row in rows:
        table.append([row.label, row.spn_count, format_fixed(row.avg_spread_ratio), row.regime.value])
    if no_permissions:
        table.append(["no-permissions", no_permissions, "", ""])
    return "".join(map(csv_row_oracle, table))


def nested_group_chains(seed: int, chains: int = 3, depth: int = 5) -> str:
    """A generated snapshot's document with groups nested in chains.

    grp-c-d is a member of grp-c-(d-1); every group holds one grant and
    every SPN sits in one group. Groups are listed deepest first and the
    SPNs in reverse, so parsing has to reorder both.
    """
    doc = json.loads(serialize_snapshot(generate_synthetic_tenant(
        GeneratorConfig(seed=seed, tight_spns=2, dispersed_spns=2, mixed_spns=2)
    )))
    scopes = [node["id"] for node in doc["hierarchy"]]
    groups = []
    for c in range(chains):
        for d in range(depth):
            gid = f"grp-{c}-{d}"
            groups.append({"id": gid, "members": [f"grp-{c}-{d + 1}"] if d + 1 < depth else []})
            scope = scopes[(c + d) % len(scopes)]
            doc["assignments"].append({"principal": gid, "action": "ReadBlob", "access": "read", "scope": scope})
    for i, spn in enumerate(doc["spns"]):
        groups[i % len(groups)]["members"].append(spn)
    doc["groups"] = groups[::-1]
    doc["spns"] = doc["spns"][::-1]
    return json.dumps(doc)


# Oracle for ingestion.parse_snapshot: the per-field validation loop that the
# columnar parse replaced, with its surrogate check run on every object.


def _oracle_expect(condition: bool, message: str) -> None:
    if not condition:
        raise SnapshotSyntaxError(message)


def _oracle_checked_object(pairs: list[tuple[str, object]]) -> dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):
        repeated = next(key for key, count in Counter(key for key, _ in pairs).items() if count > 1)
        raise SnapshotSyntaxError(f"duplicate key {repeated!r}")
    for value in (*doc, *doc.values()):
        if isinstance(value, str):
            if not value.isascii():
                _oracle_expect(not re.search(r"[\ud800-\udfff]", value), f"lone surrogate in {value!r}")
        elif isinstance(value, list):
            for text in value:
                if isinstance(text, str) and not text.isascii():
                    _oracle_expect(not re.search(r"[\ud800-\udfff]", text), f"lone surrogate in {text!r}")
    return doc


def _oracle_string_field(entry: dict, key: str, where: str) -> str:
    value = entry.get(key)
    _oracle_expect(isinstance(value, str) and value != "", f"{where}: {key!r} must be a non-empty string")
    return value


def _oracle_list_field(doc: dict, key: str) -> list:
    value = doc.get(key, [])
    _oracle_expect(isinstance(value, list), f"{key!r} must be a list")
    return value


def parse_snapshot_oracle(data: str | bytes) -> TenantSnapshot:
    """Oracle for ingestion.parse_snapshot: validate every field of every
    entry in turn, and deduplicate frozen Assignments through a set."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SnapshotSyntaxError(f"input is not valid UTF-8 (byte offset {exc.start})") from None
    try:
        doc = json.loads(data, object_pairs_hook=_oracle_checked_object)
    except json.JSONDecodeError as exc:
        raise SnapshotSyntaxError(exc.msg, exc.lineno, exc.colno) from None
    except ValueError:
        raise SnapshotSyntaxError("number has too many digits") from None
    except RecursionError:
        raise SnapshotSyntaxError("document is nested too deeply") from None

    _oracle_expect(isinstance(doc, dict), "top level must be an object")
    version = doc.get("version")
    _oracle_expect(
        isinstance(version, int) and not isinstance(version, bool),
        "'version' must be an integer",
    )
    if version != SCHEMA_VERSION:
        raise UnsupportedSchemaVersion(f"schema version {version} (supported: {SCHEMA_VERSION})")

    raw_hierarchy = doc.get("hierarchy")
    _oracle_expect(isinstance(raw_hierarchy, list) and raw_hierarchy, "'hierarchy' must be a non-empty list")
    nodes = []
    for entry in raw_hierarchy:
        _oracle_expect(isinstance(entry, dict), "hierarchy entries must be objects")
        node_id = _oracle_string_field(entry, "id", "hierarchy")
        kind_name = _oracle_string_field(entry, "kind", f"node {node_id!r}")
        try:
            kind = NodeKind(kind_name)
        except ValueError:
            raise SnapshotSyntaxError(f"node {node_id!r}: unknown kind {kind_name!r}") from None
        parent = entry.get("parent")
        _oracle_expect(
            parent is None or (isinstance(parent, str) and parent != ""),
            f"node {node_id!r}: 'parent' must be a non-empty string when present",
        )
        nodes.append(HierarchyNode(id=node_id, kind=kind, parent=parent))
    tree = build_tree(nodes)

    spns = []
    seen_principals: set[str] = set()
    for spn in _oracle_list_field(doc, "spns"):
        _oracle_expect(isinstance(spn, str) and spn != "", "'spns' entries must be non-empty strings")
        if spn in seen_principals:
            raise DuplicateId(f"spn {spn!r} declared twice")
        seen_principals.add(spn)
        spns.append(spn)

    groups = []
    for entry in _oracle_list_field(doc, "groups"):
        _oracle_expect(isinstance(entry, dict), "group entries must be objects")
        group_id = _oracle_string_field(entry, "id", "groups")
        if group_id in seen_principals:
            raise DuplicateId(f"principal id {group_id!r} declared twice")
        seen_principals.add(group_id)
        members = entry.get("members", [])
        _oracle_expect(isinstance(members, list), f"group {group_id!r}: 'members' must be a list")
        for member in members:
            _oracle_expect(
                isinstance(member, str) and member != "",
                f"group {group_id!r}: members must be non-empty strings",
            )
        groups.append(Group(id=group_id, members=tuple(sorted(set(members)))))

    for group in groups:
        for member in group.members:
            if member not in seen_principals:
                raise UnknownReference(f"group {group.id!r} member {member!r} is not declared")
    _check_groups_acyclic(groups)

    assignments = []
    for entry in _oracle_list_field(doc, "assignments"):
        _oracle_expect(isinstance(entry, dict), "assignment entries must be objects")
        principal = _oracle_string_field(entry, "principal", "assignments")
        action = _oracle_string_field(entry, "action", f"assignment for {principal!r}")
        access_name = _oracle_string_field(entry, "access", f"assignment for {principal!r}")
        try:
            access = AccessClass(access_name)
        except ValueError:
            raise SnapshotSyntaxError(
                f"assignment for {principal!r}: access must be 'read' or 'write', got {access_name!r}"
            ) from None
        scope = _oracle_string_field(entry, "scope", f"assignment for {principal!r}")
        if principal not in seen_principals:
            raise UnknownReference(f"assignment principal {principal!r} is not declared")
        if scope not in tree.parent:
            raise UnknownReference(f"assignment scope {scope!r} is not in the hierarchy")
        assignments.append(Assignment(principal=principal, action=action, access=access, scope=scope))

    alternates = []
    alternate_names: set[str] = set()
    for entry in _oracle_list_field(doc, "alternates"):
        _oracle_expect(isinstance(entry, dict), "alternate entries must be objects")
        name = _oracle_string_field(entry, "name", "alternates")
        if name in alternate_names:
            raise DuplicateId(f"alternate hierarchy {name!r} declared twice")
        alternate_names.add(name)
        parents = entry.get("parents", {})
        _oracle_expect(isinstance(parents, dict), f"alternate {name!r}: 'parents' must be an object")
        for child, parent in parents.items():
            _oracle_expect(
                isinstance(parent, str) and parent != "",
                f"alternate {name!r}: parent of {child!r} must be a node id",
            )
            if child not in tree.parent:
                raise UnknownReference(f"alternate {name!r} re-parents unknown node {child!r}")
            if parent not in tree.parent:
                raise UnknownReference(f"alternate {name!r} names unknown parent {parent!r}")
        alternates.append(AlternateHierarchy(name=name, parents=tuple(sorted(parents.items()))))

    snapshot = TenantSnapshot(
        version=version,
        hierarchy=tuple(sorted(nodes, key=lambda n: n.id)),
        alternates=tuple(sorted(alternates, key=lambda a: a.name)),
        groups=tuple(sorted(groups, key=lambda g: g.id)),
        spns=tuple(sorted(spns)),
        assignments=tuple(
            sorted(set(assignments), key=lambda a: (a.principal, a.action, a.access.value, a.scope))
        ),
    )
    vars(snapshot)["_family"] = snapshot._family_over(tree)
    return snapshot


# Snapshot mutators shared by the hostile-input and parse-oracle tests. Each
# takes a hypothesis `data` object and a valid document's bytes.

# Inserted as raw bytes: an unbalanced quote or brace, a JSON null, a float
# literal past the double range and the escape of a lone surrogate.
TOKENS = (b'"', b"{", b"null", b"1e400", b"\\ud800")
VALUES = (None, 0, "", [], {}, True, 10**20)


def _paths(doc, prefix=()):
    """Every (path to a container, key or index) in a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix, key
        yield from _paths(value, (*prefix, key))


def mutate_structure(data, text: bytes) -> bytes:
    doc = json.loads(text)
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        prefix, key = data.draw(st.sampled_from(paths))
        parent = doc
        for step in prefix:
            parent = parent[step]
        kinds = ("set", "drop", "repeat") if isinstance(parent, list) else ("set", "drop")
        kind = data.draw(st.sampled_from(kinds))
        if kind == "set":
            parent[key] = data.draw(st.sampled_from(VALUES))
        elif kind == "drop":
            del parent[key]
        else:
            parent.insert(key, parent[key])
    return json.dumps(doc).encode()


def mutate_bytes(data, text: bytes) -> bytes:
    buf = bytearray(text)
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(buf)))
        kind = data.draw(st.sampled_from(("flip", "delete", "insert", "duplicate")))
        if kind == "flip" and at < len(buf):
            buf[at] ^= 1 << data.draw(st.integers(0, 7))
        elif kind == "delete":
            del buf[at : at + data.draw(st.integers(1, 8))]
        elif kind == "insert":
            buf[at:at] = data.draw(st.sampled_from(TOKENS))
        elif kind == "duplicate":
            piece = buf[at : at + data.draw(st.integers(1, 64))]
            where = data.draw(st.integers(0, len(buf)))
            buf[where:where] = piece
    return bytes(buf)
