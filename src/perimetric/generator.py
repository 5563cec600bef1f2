"""Deterministic synthetic tenants for experiments and tests.

Same seed, same snapshot, byte for byte. Three principal archetypes:

    tight      every grant on one resource or resource part with one
               access class, so all pairwise distances coincide
    dispersed  two or more clusters of grants in different
               subscriptions: small inside clusters, large across
    mixed      grants sprinkled anywhere in the hierarchy

Each grant draws its action from READ_ACTIONS or WRITE_ACTIONS, the pool of its access class.
It returns through canonical_snapshot, the builder that ends parse_snapshot.

Every draw is a call of random.Random(seed)'s getrandbits or random(), so the bytes
depend on those two alone, not on how a Python release writes choice, randint or
sample: the reproducibility note
(https://docs.python.org/3/library/random.html#notes-on-reproducibility) promises
random()'s sequence for a seed and no more. Two rules copy what CPython's methods do
with the bits, so the bytes are the ones those methods drew: below(n) is _randbelow
(n.bit_length() bits, drawn again while n or more), a choice from p is
p[below(len(p))] and randint(a, b) is a + below(b - a + 1); sample is
random.sample over below.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from math import ceil, log

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
# the most nodes, and the most SPNs, a config may ask for, checked before anything
# is drawn; an SPN draws at most 9 assignments, so the cap bounds those too
_MAX_COUNT = 1_000_000
# (access string, action pool) of a read draw, then of a write draw, indexed by
# "is a write": rows take the string from here, not from .value per row
_DRAWS = ((AccessClass.READ.value, READ_ACTIONS), (AccessClass.WRITE.value, WRITE_ACTIONS))


@dataclass(frozen=True)
class GeneratorConfig:
    """Generator seed and counts; every field but the seed is a non-negative count.

    A config whose tenant would have more than 1,000,000 nodes or SPNs raises InvalidConfig.

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
        nodes = 1 + self.management_groups + self.subscriptions * (
            1 + self.resource_groups_per_subscription * (
                1 + self.resources_per_resource_group * (1 + self.parts_per_resource)))
        spns = self.tight_spns + self.dispersed_spns + self.mixed_spns
        for what, count in (("nodes", nodes), ("SPNs", spns)):
            if count > _MAX_COUNT:
                shown = f"{count:,}" if count < 10**18 else "more than 10**18"
                raise InvalidConfig(f"the tenant would have {shown} {what}, above the cap of {_MAX_COUNT:,}")


def below(getrandbits, n: int) -> int:
    """A draw from range(n) as random.Random._randbelow makes it: getrandbits(k) with
    k = n.bit_length(), drawn again while it is n or more. An empty range raises
    ValueError, where getrandbits(0) would return 0 forever."""
    if n < 1:
        raise ValueError(f"cannot draw from range({n})")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def sample(getrandbits, pool, k: int) -> list:
    """k distinct members of pool, in draw order, as random.Random.sample draws them:
    from a shrinking copy of pool while that is smaller than a set of k indices,
    else by redrawing each index already taken."""
    n = len(pool)
    if not 0 <= k <= n:
        raise ValueError(f"cannot sample {k} of {n}")
    setsize = 21
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    result = []
    if n <= setsize:
        left = list(pool)  # left[:i] holds the members not yet drawn
        for i in range(n, n - k, -1):
            j = below(getrandbits, i)
            result.append(left[j])
            left[j] = left[i - 1]
    else:
        taken = set()
        for _ in range(k):
            j = below(getrandbits, n)
            while j in taken:
                j = below(getrandbits, n)
            taken.add(j)
            result.append(pool[j])
    return result


def generate_synthetic_tenant(config: GeneratorConfig) -> TenantSnapshot:
    """Build a snapshot that always passes parse_snapshot validation."""
    rng = random.Random(config.seed)
    bits, uniform = rng.getrandbits, rng.random
    new = tuple.__new__  # skips the Python-level __new__ of a NamedTuple, as parse does
    nodes = [new(HierarchyNode, ("root", NodeKind.TENANT_ROOT, None))]

    eligible = ["root"]  # parents a new group may take: the root and each group shallower than the cap
    sub_parents = ["root"]  # parents a subscription may take: the root and every group
    mg_depth = {"root": 0}
    for i in range(config.management_groups):
        mg_id = f"mg-{i:03d}"
        parent = eligible[below(bits, len(eligible))]
        nodes.append(new(HierarchyNode, (mg_id, NodeKind.MANAGEMENT_GROUP, parent)))
        mg_depth[mg_id] = mg_depth[parent] + 1
        if mg_depth[mg_id] < MAX_MG_DEPTH:
            eligible.append(mg_id)
        sub_parents.append(mg_id)

    sub_ids: list[str] = []
    resources_by_sub: dict[str, list[str]] = {}
    scopes_by_sub: dict[str, list[str]] = {}  # a tight draw's pool: the resources, then the parts
    for i in range(config.subscriptions):
        sub_id = f"sub-{i:03d}"
        parent = sub_parents[below(bits, len(sub_parents))]
        nodes.append(new(HierarchyNode, (sub_id, NodeKind.SUBSCRIPTION, parent)))
        sub_ids.append(sub_id)
        resources, parts = [], []
        for j in range(config.resource_groups_per_subscription):
            rg_id = f"rg-{i:03d}-{j:02d}"
            nodes.append(new(HierarchyNode, (rg_id, NodeKind.RESOURCE_GROUP, sub_id)))
            for k in range(config.resources_per_resource_group):
                res_id = f"res-{i:03d}-{j:02d}-{k:02d}"
                nodes.append(new(HierarchyNode, (res_id, NodeKind.RESOURCE, rg_id)))
                resources.append(res_id)
                for p in range(config.parts_per_resource):
                    part_id = f"part-{i:03d}-{j:02d}-{k:02d}-{p:02d}"
                    nodes.append(new(HierarchyNode, (part_id, NodeKind.RESOURCE_PART, res_id)))
                    parts.append(part_id)
        resources_by_sub[sub_id] = resources
        scopes_by_sub[sub_id] = resources + parts

    all_node_ids = [n.id for n in nodes]
    spns: list[str] = []
    rows: list[tuple[str, str, str, str]] = []

    for i in range(config.tight_spns):
        spn = f"spn-tight-{i:04d}"
        spns.append(spn)
        scopes = scopes_by_sub[sub_ids[below(bits, len(sub_ids))]]
        scope = scopes[below(bits, len(scopes))]
        access, pool = _DRAWS[uniform() < WRITE_FRACTION]
        for action in sample(bits, pool, 2 + below(bits, 5)):
            rows.append((spn, action, access, scope))

    for i in range(config.dispersed_spns):
        spn = f"spn-dispersed-{i:04d}"
        spns.append(spn)
        cluster_count = 2 + below(bits, min(3, len(sub_ids)) - 1)
        for sub in sample(bits, sub_ids, cluster_count):
            scopes = resources_by_sub[sub]
            scope = scopes[below(bits, len(scopes))]
            access, pool = _DRAWS[uniform() < WRITE_FRACTION]
            for action in sample(bits, pool, 2 + below(bits, 2)):
                rows.append((spn, action, access, scope))

    for i in range(config.mixed_spns):
        spn = f"spn-mixed-{i:04d}"
        spns.append(spn)
        for _ in range(1 + below(bits, 5)):
            access, pool = _DRAWS[uniform() < WRITE_FRACTION]
            action = pool[below(bits, len(pool))]
            rows.append((spn, action, access, all_node_ids[below(bits, len(all_node_ids))]))

    return canonical_snapshot(nodes, (), (), spns, rows)
