"""Rooted tenant tree: validation, canonical levels, LCA queries.

A tenant hierarchy is a single tree rooted at the tenant root, with
management groups nested at most 6 deep, then subscriptions, resource
groups, resources and resource parts. Every node gets a canonical level
used by the distance formula: the tenant root is 0, a management group
takes its nesting depth (1..6), subscriptions are 7, resource groups 8,
resources 9 and resource parts 10, so levels rise strictly down every root
path and MAX_LEVEL, the deepest, is the largest fixed level. A
HierarchyNode is a tuple of (id, kind, parent); a TenantTree is two maps,
node -> parent (None at the root) and node -> canonical level, immutable
after build.

build_tree walks each node up to the root once, rejecting a cycle and
setting levels on the way back down; the nesting limit is checked after,
in input order, so a cycle is reported before a chain that is too deep.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple, Sequence

from perimetric.errors import (
    CycleDetected,
    DuplicateId,
    IllegalParentKind,
    MgDepthExceeded,
    MissingRoot,
    MultipleRoots,
    UnknownNode,
    UnknownParent,
)

MAX_MG_DEPTH = 6


class NodeKind(Enum):
    TENANT_ROOT = "tenant_root"
    MANAGEMENT_GROUP = "management_group"
    SUBSCRIPTION = "subscription"
    RESOURCE_GROUP = "resource_group"
    RESOURCE = "resource"
    RESOURCE_PART = "resource_part"

    # members are singletons and Enum equality is identity, so the C-level
    # identity hash agrees with it (Enum's own hashes the name in Python)
    __hash__ = object.__hash__


# Legal parent kinds per kind; None means the node must be parentless.
_ALLOWED_PARENTS: dict[NodeKind, tuple[NodeKind, ...] | None] = {
    NodeKind.TENANT_ROOT: None,
    NodeKind.MANAGEMENT_GROUP: (NodeKind.TENANT_ROOT, NodeKind.MANAGEMENT_GROUP),
    NodeKind.SUBSCRIPTION: (NodeKind.TENANT_ROOT, NodeKind.MANAGEMENT_GROUP),
    NodeKind.RESOURCE_GROUP: (NodeKind.SUBSCRIPTION,),
    NodeKind.RESOURCE: (NodeKind.RESOURCE_GROUP,),
    NodeKind.RESOURCE_PART: (NodeKind.RESOURCE,),
}

# Fixed canonical levels; management groups take their nesting depth instead.
_KIND_LEVELS = {
    NodeKind.TENANT_ROOT: 0,
    NodeKind.SUBSCRIPTION: 7,
    NodeKind.RESOURCE_GROUP: 8,
    NodeKind.RESOURCE: 9,
    NodeKind.RESOURCE_PART: 10,
}
MAX_LEVEL = max(_KIND_LEVELS.values())


class HierarchyNode(NamedTuple):
    id: str
    kind: NodeKind
    parent: str | None = None


class TenantTree(NamedTuple):
    """Validated tenant hierarchy: each node's parent (None at the root) and canonical level."""

    parent: dict[str, str | None]
    canonical_level: dict[str, int]


def build_tree(nodes: Sequence[HierarchyNode] | Iterable[HierarchyNode]) -> TenantTree:
    """Validate a node sequence and assemble the tenant tree."""
    by_id: dict[str, HierarchyNode] = {}
    for node in nodes:
        if node.id in by_id:
            raise DuplicateId(f"hierarchy node id {node.id!r} defined twice")
        by_id[node.id] = node
    if not by_id:
        raise MissingRoot("hierarchy is empty")

    roots = [n for n in by_id.values() if n.kind is NodeKind.TENANT_ROOT]
    if not roots:
        raise MissingRoot("no tenant_root node present")
    if len(roots) > 1:
        raise MultipleRoots(
            "multiple tenant_root nodes: " + ", ".join(sorted(n.id for n in roots))
        )
    root = roots[0]

    for node in by_id.values():
        allowed = _ALLOWED_PARENTS[node.kind]
        if allowed is None:
            if node.parent is not None:
                raise IllegalParentKind(f"tenant_root {node.id!r} must not have a parent")
            continue
        if node.parent is None:
            raise IllegalParentKind(f"{node.kind.value} {node.id!r} requires a parent")
        parent = by_id.get(node.parent)
        if parent is None:
            raise UnknownParent(f"{node.id!r} names unknown parent {node.parent!r}")
        if parent.kind not in allowed:
            raise IllegalParentKind(
                f"{node.kind.value} {node.id!r} cannot attach to {parent.kind.value} {parent.id!r}"
            )

    levels: dict[str, int] = {root.id: 0}
    for node in by_id.values():
        walk: dict[str, HierarchyNode] = {}  # the nodes on the path from `node` up, in order
        cur = node.id
        while cur not in levels:
            if cur in walk:
                raise CycleDetected(f"parent chain through {cur!r} never reaches the root")
            walk[cur] = by_id[cur]
            cur = walk[cur].parent  # type: ignore[assignment]
        for below in reversed(walk.values()):
            # MG ancestors are all MGs, so an MG's level is its nesting depth
            kind = below.kind
            levels[below.id] = levels[below.parent] + 1 if kind is NodeKind.MANAGEMENT_GROUP else _KIND_LEVELS[kind]

    for node in by_id.values():
        if node.kind is NodeKind.MANAGEMENT_GROUP and levels[node.id] > MAX_MG_DEPTH:
            raise MgDepthExceeded(
                f"management group {node.id!r} nested {levels[node.id]} deep (limit {MAX_MG_DEPTH})"
            )

    return TenantTree({nid: node.parent for nid, node in by_id.items()}, levels)


def meet(tree: TenantTree, a: str, b: str) -> tuple[str, str | None, str | None]:
    """The LCA of a and b, and the last node below it on each side (None for the LCA itself)."""
    parent, level = tree
    for node_id in (a, b):
        if node_id not in parent:
            raise UnknownNode(f"node {node_id!r} not in tree")
    ca = cb = None
    while a != b:  # the side at the higher level (both, on a tie) is below the LCA
        la, lb = level[a], level[b]
        if la >= lb:
            ca, a = a, parent[a]
        if lb >= la:
            cb, b = b, parent[b]
    return a, ca, cb


def lca(tree: TenantTree, a: str, b: str) -> str:
    """Deepest node that is an ancestor-or-self of both a and b."""
    return meet(tree, a, b)[0]


def lca_level(tree: TenantTree, a: str, b: str) -> int:
    """Canonical level (0..10) of the lowest common ancestor of a and b."""
    return tree.canonical_level[lca(tree, a, b)]
