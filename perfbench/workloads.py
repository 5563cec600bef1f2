"""Seeded workload snapshots for the end-to-end benchmark.

Every builder starts from ``generate_synthetic_tenant`` and post-processes
its result with the same seed, because the generator emits no groups, no
alternates and no wide principals. The same (seed, size) always gives the
same snapshot bytes.

Each builder returns a ``Workload``: the snapshot, the CLI arguments to run
on it, the exit code the command must end with, and any ground truth the
output checks need (the planted dirty principals of ``family_audit``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from perimetric.generator import READ_ACTIONS, WRITE_ACTIONS, GeneratorConfig, generate_synthetic_tenant
from perimetric.hierarchy import NodeKind
from perimetric.ingestion import AlternateHierarchy, Assignment, Group, TenantSnapshot
from perimetric.metric import AccessClass

# Sizes per workload. "full" is what a timed run measures; "tiny" keeps the
# smoke test fast. Each full size was picked so one CLI run takes about one
# second on a 2-core host while the layer the workload exists for stays the
# largest (see NOTES.md).
SIZES = {
    "full": {
        "tenant_scan": {"spns": 1800},
        "group_bands": {"spns": 700, "chains": 100, "depth": 4, "grants_per_group": 1},
        "wide_principal": {"principals": 3, "grants": 240},
        "family_audit": {"dirty": 2, "clean": 2, "grants": 130},
    },
    "tiny": {
        "tenant_scan": {"spns": 30},
        "group_bands": {"spns": 24, "chains": 4, "depth": 4, "grants_per_group": 1},
        "wide_principal": {"principals": 2, "grants": 20},
        "family_audit": {"dirty": 2, "clean": 2, "grants": 12},
    },
}


@dataclass(frozen=True)
class Workload:
    name: str
    snapshot: TenantSnapshot
    cli_args: tuple[str, ...]  # command and flags; the snapshot path is appended
    exit_code: int
    dirty_spns: frozenset[str] = frozenset()


def _normalized(snapshot: TenantSnapshot, **changes) -> TenantSnapshot:
    """Apply changes and order every field the way parse_snapshot does."""
    s = replace(snapshot, **changes)
    return replace(
        s,
        alternates=tuple(sorted(s.alternates, key=lambda a: a.name)),
        groups=tuple(sorted(s.groups, key=lambda g: g.id)),
        spns=tuple(sorted(s.spns)),
        assignments=tuple(
            sorted(set(s.assignments), key=lambda a: (a.principal, a.action, a.access.value, a.scope))
        ),
    )


def _nodes_under(snapshot: TenantSnapshot, top: str) -> list[str]:
    children: dict[str, list[str]] = {}
    for node in snapshot.hierarchy:
        if node.parent is not None:
            children.setdefault(node.parent, []).append(node.id)
    out, stack = [], [top]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(sorted(children.get(node, ())))
    return sorted(out)


def _ids_of(snapshot: TenantSnapshot, kind: NodeKind) -> list[str]:
    return [n.id for n in snapshot.hierarchy if n.kind is kind]


def _grant_pool(scopes: list[str], access: AccessClass | None = None) -> list[tuple[str, AccessClass, str]]:
    """Every distinct (action, access, scope) on the given scopes."""
    pools = []
    if access in (None, AccessClass.READ):
        pools.append((AccessClass.READ, READ_ACTIONS))
    if access in (None, AccessClass.WRITE):
        pools.append((AccessClass.WRITE, WRITE_ACTIONS))
    return [(action, acc, scope) for acc, actions in pools for action in actions for scope in scopes]


def _assign(principal: str, grants) -> list[Assignment]:
    return [Assignment(principal, action, access, scope) for action, access, scope in grants]


def tenant_scan(seed: int, spns: int) -> Workload:
    """Many small principals of every archetype; resolution dominates."""
    third = spns // 3
    config = GeneratorConfig(
        seed=seed,
        management_groups=6,
        subscriptions=24,
        resource_groups_per_subscription=4,
        resources_per_resource_group=6,
        parts_per_resource=2,
        tight_spns=third,
        dispersed_spns=third,
        mixed_spns=spns - 2 * third,
    )
    return Workload("tenant_scan", generate_synthetic_tenant(config), ("scan", "--format", "csv"), 0)


def group_bands(seed: int, spns: int, chains: int, depth: int, grants_per_group: int) -> Workload:
    """Grants flowing through nested groups, reported with `bands`.

    Groups form chains ``grp-CCC-0 > grp-CCC-1 > ...``: each deeper group is
    a member of the one above it, so an SPN placed at depth d inherits the
    grants of d + 1 groups. A chain's grants sit in one subscription.
    """
    third = spns // 3
    base = generate_synthetic_tenant(
        GeneratorConfig(
            seed=seed,
            management_groups=4,
            subscriptions=12,
            resource_groups_per_subscription=3,
            resources_per_resource_group=4,
            parts_per_resource=1,
            tight_spns=third,
            dispersed_spns=third,
            mixed_spns=spns - 2 * third,
        )
    )
    rng = random.Random(f"group_bands:{seed}")
    subs = _ids_of(base, NodeKind.SUBSCRIPTION)
    members: dict[str, set[str]] = {}
    assignments = list(base.assignments)
    for c in range(chains):
        pool = _grant_pool(_nodes_under(base, rng.choice(subs)))
        for d in range(depth):
            gid = f"grp-{c:03d}-{d}"
            members[gid] = set()
            if d:
                members[f"grp-{c:03d}-{d - 1}"].add(gid)
            assignments += _assign(gid, rng.sample(pool, grants_per_group))
    group_ids = sorted(members)
    for spn in base.spns:
        for gid in rng.sample(group_ids, rng.randint(1, 2)):
            members[gid].add(spn)
    groups = tuple(Group(gid, tuple(sorted(m))) for gid, m in members.items())
    snapshot = _normalized(base, groups=groups, assignments=tuple(assignments))
    return Workload("group_bands", snapshot, ("bands", "--format", "csv"), 0)


def wide_principal(seed: int, principals: int, grants: int) -> Workload:
    """A few principals holding hundreds of distinct grants each; geometry dominates."""
    base = generate_synthetic_tenant(
        GeneratorConfig(
            seed=seed,
            management_groups=4,
            subscriptions=8,
            resource_groups_per_subscription=3,
            resources_per_resource_group=5,
            parts_per_resource=2,
        )
    )
    rng = random.Random(f"wide_principal:{seed}")
    subs = _ids_of(base, NodeKind.SUBSCRIPTION)
    spns, assignments = [], []
    for k in range(principals):
        spn = f"spn-wide-{k:02d}"
        spns.append(spn)
        scopes = [s for sub in rng.sample(subs, 3) for s in _nodes_under(base, sub)]
        assignments += _assign(spn, rng.sample(_grant_pool(scopes), grants))
    snapshot = _normalized(base, spns=tuple(spns), assignments=tuple(assignments))
    return Workload("wide_principal", snapshot, ("scan", "--format", "json"), 0)


def family_audit(seed: int, dirty: int, clean: int, grants: int) -> Workload:
    """Two alternates, planted dirty principals and clean ones, for `check-family`.

    Alternate k moves some resources of subscription k from one resource
    group to a sibling one. A dirty principal holds a grant on a moved
    resource X, one in the receiving group B and one in the losing group A:
    the infimum puts X near both, while B and A stay a subscription apart,
    which breaks the strong triangle inequality whatever the access
    classes. Clean principals hold only read grants inside subscriptions no
    alternate touches, where every hierarchy agrees, so they are
    ultrametric and run the full cubic scan.
    """
    base = generate_synthetic_tenant(
        GeneratorConfig(
            seed=seed,
            management_groups=4,
            subscriptions=8,
            resource_groups_per_subscription=3,
            resources_per_resource_group=5,
            parts_per_resource=1,
        )
    )
    rng = random.Random(f"family_audit:{seed}")
    subs = _ids_of(base, NodeKind.SUBSCRIPTION)
    touched = rng.sample(subs, 2)
    parent_of = {n.id: n.parent for n in base.hierarchy}
    alternates, seams = [], []
    for k, sub in enumerate(touched):
        rg_a, rg_b = rng.sample(sorted(n for n, p in parent_of.items() if p == sub), 2)
        resources_a = sorted(n for n, p in parent_of.items() if p == rg_a)
        moved = rng.sample(resources_a, 2)
        alternates.append(AlternateHierarchy(f"reorg-{k}", tuple((r, rg_b) for r in sorted(moved))))
        stay_a = [r for r in resources_a if r not in moved]
        stay_b = sorted(n for n, p in parent_of.items() if p == rg_b)
        seams.append((moved, stay_b, stay_a, _nodes_under(base, sub)))

    spns, assignments, planted = [], [], set()
    for i in range(dirty):
        spn = f"spn-dirty-{i:02d}"
        spns.append(spn)
        planted.add(spn)
        moved, stay_b, stay_a, scopes = seams[i % len(seams)]
        witness = [
            (rng.choice(READ_ACTIONS), AccessClass.READ, rng.choice(moved)),
            (rng.choice(WRITE_ACTIONS), AccessClass.WRITE, rng.choice(stay_b)),
            (rng.choice(READ_ACTIONS), AccessClass.READ, rng.choice(stay_a)),
        ]
        rest = [g for g in _grant_pool(scopes) if g not in witness]
        assignments += _assign(spn, witness + rng.sample(rest, grants - len(witness)))
    calm = [s for sub in subs if sub not in touched for s in _nodes_under(base, sub)]
    calm_pool = _grant_pool(calm, AccessClass.READ)
    for i in range(clean):
        spn = f"spn-clean-{i:02d}"
        spns.append(spn)
        assignments += _assign(spn, rng.sample(calm_pool, grants))
    snapshot = _normalized(
        base, alternates=tuple(alternates), spns=tuple(spns), assignments=tuple(assignments)
    )
    return Workload("family_audit", snapshot, ("check-family",), 1, frozenset(planted))


BUILDERS = {
    "tenant_scan": tenant_scan,
    "group_bands": group_bands,
    "wide_principal": wide_principal,
    "family_audit": family_audit,
}


def build(name: str, seed: int, size: str = "full") -> Workload:
    return BUILDERS[name](seed, **SIZES[size][name])
