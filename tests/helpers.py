"""Shared builders for unit and acceptance tests."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from perimetric import kernels
from perimetric.errors import UnbandableRadius, UnknownPrincipal
from perimetric.hierarchy import (
    MAX_MG_DEPTH,
    HierarchyNode,
    NodeKind,
    TenantTree,
    build_tree,
)
from perimetric.ingestion import TenantSnapshot
from perimetric.metric import AccessClass, DistanceModel, EffectiveDistance, Grant
from perimetric.perimeter import sorted_grants, spread_ratio

# One node per canonical level 0..10: root, mg1..mg6, sub, rg, res, part.
_CHAIN_KINDS = (
    NodeKind.TENANT_ROOT,
    *([NodeKind.MANAGEMENT_GROUP] * 6),
    NodeKind.SUBSCRIPTION,
    NodeKind.RESOURCE_GROUP,
    NodeKind.RESOURCE,
    NodeKind.RESOURCE_PART,
)


def chain_tree() -> tuple[TenantTree, dict[int, str]]:
    """A maximal-depth chain plus the level -> node-id map."""
    nodes = []
    level_scope = {}
    parent = None
    for level, kind in enumerate(_CHAIN_KINDS):
        node_id = f"lvl{level:02d}"
        nodes.append(HierarchyNode(node_id, kind, parent))
        level_scope[level] = node_id
        parent = node_id
    return build_tree(nodes), level_scope


def grants_at(scope: str, n: int, access: AccessClass = AccessClass.READ) -> list[Grant]:
    """n distinct same-access grants sharing one scope (an ultracycle)."""
    return [Grant(f"a{i:02d}", access, scope) for i in range(n)]


def random_tree(rng: random.Random, max_nodes: int = 40) -> TenantTree:
    """A random valid tenant tree with between 1 and max_nodes nodes."""
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
    return build_tree(nodes)


def random_grants(rng: random.Random, tree: TenantTree, n: int) -> list[Grant]:
    """n distinct grants with random scopes and access classes."""
    scopes = sorted(tree.nodes)
    return [
        Grant(
            action=f"a{i:03d}",
            access=rng.choice((AccessClass.READ, AccessClass.WRITE)),
            scope=rng.choice(scopes),
        )
        for i in range(n)
    ]


def random_instance(
    rng: random.Random,
    n_lo: int = 3,
    n_hi: int = 8,
    max_nodes: int = 40,
) -> tuple[list[Grant], DistanceModel]:
    tree = random_tree(rng, max_nodes=max_nodes)
    grants = random_grants(rng, tree, rng.randint(n_lo, n_hi))
    return grants, DistanceModel(tree)


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
        *inner, (top, top_blocks) = merges = dist.merges(items)
        tour = top * len(top_blocks) + sum(h * (len(sizes) - 1) for h, sizes in inner)
        pair_sum = sum(h * (sum(sizes) ** 2 - sum(s * s for s in sizes)) // 2 for h, sizes in merges)
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


def format_fixed_fraction(value, digits: int = 6) -> str:
    """Oracle for render.format_fixed: reduce to a Fraction, then round half-to-even."""
    frac = Fraction(value)
    num, den = frac.numerator, frac.denominator
    q, r = divmod(num * 10**digits, den)
    if 2 * r > den or (2 * r == den and q % 2 == 1):
        q += 1
    whole, part = divmod(q, 10**digits)
    return f"{whole}.{part:0{digits}d}"
