"""Deterministic synthetic tenants for experiments and tests.

Same seed, same snapshot, byte for byte. Three principal archetypes:

    tight      every grant on one resource or resource part with one
               access class, so all pairwise distances coincide
    dispersed  two or more clusters of grants in different
               subscriptions: small inside clusters, large across
    mixed      grants sprinkled anywhere in the hierarchy

Each grant draws its action from READ_ACTIONS or WRITE_ACTIONS, the pool of its access class.
It returns through canonical_snapshot, the builder that ends parse_snapshot.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields

from perimetric.errors import InvalidConfig
from perimetric.hierarchy import MAX_MG_DEPTH, HierarchyNode, NodeKind
from perimetric.ingestion import TenantSnapshot, canonical_snapshot
from perimetric.metric import AccessClass

READ_ACTIONS = (
    "ReadBlob", "ReadConfiguration", "ReadFileShare", "ReadMetricData",
    "ReadQueueMessage", "ReadSecret", "ReadTableEntity", "ReadTopicMessage",
)
WRITE_ACTIONS = (
    "DeleteBlob", "SendQueueMessage", "WriteBlob", "WriteConfiguration",
    "WriteFileShare", "WriteSecret", "WriteTableEntity", "WriteTopicMessage",
)
WRITE_FRACTION = 0.4  # chance that a drawn grant is a write
# (access string, action pool) of a read draw, then of a write draw, indexed by
# "is a write": rows take the string from here, not from .value per row
_DRAWS = ((AccessClass.READ.value, READ_ACTIONS), (AccessClass.WRITE.value, WRITE_ACTIONS))


@dataclass(frozen=True)
class GeneratorConfig:
    """Generator seed and counts; every field but the seed is a non-negative count.

    The `generate` command has one option per field, whose dest is the field's name.
    """

    seed: int = 0
    management_groups: int = 3
    subscriptions: int = 4
    resource_groups_per_subscription: int = 2
    resources_per_resource_group: int = 3
    parts_per_resource: int = 1
    tight_spns: int = 0
    dispersed_spns: int = 0
    mixed_spns: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or not -(2**63) <= self.seed < 2**64:
            raise InvalidConfig("seed must be a 64-bit integer")
        for name in (field.name for field in fields(self) if field.name != "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise InvalidConfig(f"{name} must be a non-negative integer, got {value!r}")
        if self.subscriptions < 1:
            raise InvalidConfig("at least one subscription is required")
        needs_resources = self.tight_spns or self.dispersed_spns
        if needs_resources and (
            self.resource_groups_per_subscription < 1 or self.resources_per_resource_group < 1
        ):
            raise InvalidConfig("tight and dispersed archetypes require resources to scope to")
        if self.dispersed_spns and self.subscriptions < 2:
            raise InvalidConfig("dispersed archetype requires at least two subscriptions")


def generate_synthetic_tenant(config: GeneratorConfig) -> TenantSnapshot:
    """Build a snapshot that always passes parse_snapshot validation."""
    rng = random.Random(config.seed)
    nodes = [HierarchyNode("root", NodeKind.TENANT_ROOT, None)]

    eligible = ["root"]  # parents a new group may take: the root and each group shallower than the cap
    sub_parents = ["root"]  # parents a subscription may take: the root and every group
    mg_depth = {"root": 0}
    for i in range(config.management_groups):
        mg_id = f"mg-{i:03d}"
        parent = rng.choice(eligible)
        nodes.append(HierarchyNode(mg_id, NodeKind.MANAGEMENT_GROUP, parent))
        mg_depth[mg_id] = mg_depth[parent] + 1
        if mg_depth[mg_id] < MAX_MG_DEPTH:
            eligible.append(mg_id)
        sub_parents.append(mg_id)

    sub_ids: list[str] = []
    resources_by_sub: dict[str, list[str]] = {}
    scopes_by_sub: dict[str, list[str]] = {}  # a tight draw's pool: the resources, then the parts
    for i in range(config.subscriptions):
        sub_id = f"sub-{i:03d}"
        parent = rng.choice(sub_parents)
        nodes.append(HierarchyNode(sub_id, NodeKind.SUBSCRIPTION, parent))
        sub_ids.append(sub_id)
        resources, parts = [], []
        for j in range(config.resource_groups_per_subscription):
            rg_id = f"rg-{i:03d}-{j:02d}"
            nodes.append(HierarchyNode(rg_id, NodeKind.RESOURCE_GROUP, sub_id))
            for k in range(config.resources_per_resource_group):
                res_id = f"res-{i:03d}-{j:02d}-{k:02d}"
                nodes.append(HierarchyNode(res_id, NodeKind.RESOURCE, rg_id))
                resources.append(res_id)
                for p in range(config.parts_per_resource):
                    part_id = f"part-{i:03d}-{j:02d}-{k:02d}-{p:02d}"
                    nodes.append(HierarchyNode(part_id, NodeKind.RESOURCE_PART, res_id))
                    parts.append(part_id)
        resources_by_sub[sub_id] = resources
        scopes_by_sub[sub_id] = resources + parts

    all_node_ids = [n.id for n in nodes]
    spns: list[str] = []
    rows: list[tuple[str, str, str, str]] = []

    def pick_access() -> tuple[str, tuple[str, ...]]:
        """A drawn grant's access string and action pool."""
        return _DRAWS[rng.random() < WRITE_FRACTION]

    for i in range(config.tight_spns):
        spn = f"spn-tight-{i:04d}"
        spns.append(spn)
        sub = rng.choice(sub_ids)
        scope = rng.choice(scopes_by_sub[sub])
        access, pool = pick_access()
        for action in rng.sample(pool, rng.randint(2, 6)):
            rows.append((spn, action, access, scope))

    for i in range(config.dispersed_spns):
        spn = f"spn-dispersed-{i:04d}"
        spns.append(spn)
        cluster_count = rng.randint(2, min(3, len(sub_ids)))
        for sub in rng.sample(sub_ids, cluster_count):
            scope = rng.choice(resources_by_sub[sub])
            access, pool = pick_access()
            for action in rng.sample(pool, rng.randint(2, 3)):
                rows.append((spn, action, access, scope))

    for i in range(config.mixed_spns):
        spn = f"spn-mixed-{i:04d}"
        spns.append(spn)
        for _ in range(rng.randint(1, 5)):
            access, pool = pick_access()
            rows.append((spn, rng.choice(pool), access, rng.choice(all_node_ids)))

    return canonical_snapshot(nodes, (), (), spns, rows)
