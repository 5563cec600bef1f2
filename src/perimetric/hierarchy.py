"""Rooted tenant tree: validation, canonical levels, LCA queries.

A tenant hierarchy is a single tree rooted at the tenant root, with
management groups nested at most 6 deep, then subscriptions, resource
groups, resources and resource parts. Every node gets a canonical level
used by the distance formula: the tenant root is 0, a management group
takes its nesting depth (1..6), subscriptions are 7, resource groups 8,
resources 9 and resource parts 10. Trees are immutable after build.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

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
MAX_LEVEL = 10


class NodeKind(Enum):
    TENANT_ROOT = "tenant_root"
    MANAGEMENT_GROUP = "management_group"
    SUBSCRIPTION = "subscription"
    RESOURCE_GROUP = "resource_group"
    RESOURCE = "resource"
    RESOURCE_PART = "resource_part"


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


@dataclass(frozen=True)
class HierarchyNode:
    id: str
    kind: NodeKind
    parent: str | None = None


@dataclass(frozen=True)
class TenantTree:
    """Validated tenant hierarchy. Treat as immutable."""

    nodes: dict[str, HierarchyNode]
    canonical_level: dict[str, int]
    depth: dict[str, int]


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

    depth: dict[str, int] = {root.id: 0}
    for node in by_id.values():
        if node.id in depth:
            continue
        walk: list[str] = []
        on_path: set[str] = set()
        cur = node.id
        while cur not in depth:
            if cur in on_path:
                raise CycleDetected(f"parent chain through {cur!r} never reaches the root")
            on_path.add(cur)
            walk.append(cur)
            cur = by_id[cur].parent  # type: ignore[assignment]
        base = depth[cur]
        for offset, nid in enumerate(reversed(walk), start=1):
            depth[nid] = base + offset

    levels: dict[str, int] = {}
    for node in by_id.values():
        if node.kind is NodeKind.MANAGEMENT_GROUP:
            # MG ancestors are all MGs, so nesting depth equals tree depth.
            if depth[node.id] > MAX_MG_DEPTH:
                raise MgDepthExceeded(
                    f"management group {node.id!r} nested {depth[node.id]} deep (limit {MAX_MG_DEPTH})"
                )
            levels[node.id] = depth[node.id]
        else:
            levels[node.id] = _KIND_LEVELS[node.kind]

    return TenantTree(nodes=by_id, canonical_level=levels, depth=depth)


def meet(tree: TenantTree, a: str, b: str) -> tuple[str, str | None, str | None]:
    """The LCA of a and b, and the last node below it on each side (None for the LCA itself)."""
    for node_id in (a, b):
        if node_id not in tree.nodes:
            raise UnknownNode(f"node {node_id!r} not in tree")
    ca = cb = None
    da, db = tree.depth[a], tree.depth[b]
    while da > db:
        ca, a = a, tree.nodes[a].parent  # type: ignore[assignment]
        da -= 1
    while db > da:
        cb, b = b, tree.nodes[b].parent  # type: ignore[assignment]
        db -= 1
    while a != b:
        ca, a = a, tree.nodes[a].parent  # type: ignore[assignment]
        cb, b = b, tree.nodes[b].parent  # type: ignore[assignment]
    return a, ca, cb


def lca(tree: TenantTree, a: str, b: str) -> str:
    """Deepest node that is an ancestor-or-self of both a and b."""
    return meet(tree, a, b)[0]


def lca_level(tree: TenantTree, a: str, b: str) -> int:
    """Canonical level (0..10) of the lowest common ancestor of a and b."""
    return tree.canonical_level[lca(tree, a, b)]
