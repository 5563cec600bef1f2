"""Tenant snapshot documents: parsing, validation, serialization, expansion.

A snapshot is a JSON document with these top-level keys:

    version      int, currently 1
    hierarchy    list of {"id", "kind", "parent"?}; kind is one of
                 tenant_root, management_group, subscription,
                 resource_group, resource, resource_part
    alternates   list of {"name", "parents": {node id: new parent id}};
                 each map re-parents a subset of nodes, everything else
                 keeps its native parent
    groups       list of {"id", "members": [spn or group ids]}
    spns         list of service principal ids
    assignments  list of {"principal", "action", "access", "scope"};
                 access is "read" or "write", principal is an SPN or a
                 group, scope is a hierarchy node

All ids are case-sensitive opaque strings. Parsing validates every cross-reference,
rejects duplicate ids and keys, group cycles, lone surrogates and oversized numbers,
and normalizes ordering, so parse -> serialize -> parse round-trips byte-identically.
Validation works in bulk: a prescan decides whether the per-string surrogate
check runs, assignments are checked as tuples in one pass, and duplicates are
dropped in input order before one sort. Scopes are checked here, once: the
closures built on resolved grants do not check them again. The group order
found while checking for cycles is kept on the snapshot for grant resolution.

serialize_snapshot writes exactly the bytes of json.dumps(doc, indent=2,
sort_keys=True), from per-record templates over the C string encoder (see render).

Assignment, Group, AlternateHierarchy and HierarchyNode, like Grant, are tuples
of their fields; TenantSnapshot stays a dataclass because perfbench/workloads.py
copies it with dataclasses.replace (cached_property needs only a __dict__). The
grant index keeps one Grant object per distinct (action, access, scope), shared by
every principal that holds it, whether parsed or built with TenantSnapshot(...).
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Iterable, NamedTuple, NoReturn

from perimetric.errors import (
    DuplicateId,
    GroupCycle,
    PerimetricError,
    SnapshotSyntaxError,
    UnknownPrincipal,
    UnknownReference,
    UnsupportedSchemaVersion,
)
from perimetric.hierarchy import HierarchyNode, NodeKind, TenantTree, build_tree
from perimetric.metric import AccessClass, Grant, HierarchyFamily
from perimetric.render import json_block

SCHEMA_VERSION = 1
_ACCESS = {access.value: access for access in AccessClass}
_KINDS = {kind.value: kind for kind in NodeKind}
_ASSIGNMENT_FIELDS = itemgetter("principal", "action", "access", "scope")
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_RAW_SURROGATE = re.compile(r"[\ud800-\udfff]")
# enum values encoded once: a dict lookup is several times cheaper than .value
_KIND_JSON = {kind: encode_basestring_ascii(kind.value) for kind in NodeKind}
_ACCESS_JSON = {access: encode_basestring_ascii(access.value) for access in AccessClass}


class Assignment(NamedTuple):
    principal: str
    action: str
    access: AccessClass
    scope: str


class Group(NamedTuple):
    id: str
    members: tuple[str, ...]


class AlternateHierarchy(NamedTuple):
    """Named re-parenting overlay; pairs are (node id, new parent id)."""

    name: str
    parents: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class TenantSnapshot:
    version: int
    hierarchy: tuple[HierarchyNode, ...]
    alternates: tuple[AlternateHierarchy, ...]
    groups: tuple[Group, ...]
    spns: tuple[str, ...]
    assignments: tuple[Assignment, ...]

    def native_tree(self) -> TenantTree:
        """The native tree, built once per snapshot."""
        return self.family().native

    def family(self) -> HierarchyFamily:
        """Native tree plus every alternate, each fully validated, built once per snapshot."""
        return self._family

    @cached_property
    def _family(self) -> HierarchyFamily:
        return self._family_over(build_tree(self.hierarchy))

    def _family_over(self, native: TenantTree) -> HierarchyFamily:
        alternates = []
        for alt in self.alternates:
            overrides = dict(alt.parents)
            nodes = [HierarchyNode(n.id, n.kind, overrides.get(n.id, n.parent)) for n in self.hierarchy]
            try:
                alternates.append((alt.name, build_tree(nodes)))
            except PerimetricError as exc:  # name the hierarchy that failed, not only the node
                raise type(exc)(f"alternate {alt.name!r}: {exc}") from None
        return HierarchyFamily(native=native, alternates=tuple(alternates))

    @cached_property
    def _group_order(self) -> tuple[str, ...]:
        """Group ids, each before the groups it contains; parse_snapshot seeds its own."""
        return _check_groups_acyclic(self.groups)

    @cached_property
    def _effective_grants(self) -> dict[str, frozenset[Grant]]:
        return _grant_index(self)


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise SnapshotSyntaxError(message)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """object_pairs_hook for json.loads: no key twice in one object."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        repeated = next(key for key, count in Counter(key for key, _ in pairs).items() if count > 1)
        raise SnapshotSyntaxError(f"duplicate key {repeated!r}")
    return doc


def _checked_object(pairs: list[tuple[str, object]]) -> dict:
    """_unique_keys, and no lone surrogate in any text of the object."""
    doc = _unique_keys(pairs)
    for value in (*doc, *doc.values()):
        if isinstance(value, str):
            if not value.isascii():
                _expect(not _RAW_SURROGATE.search(value), f"lone surrogate in {value!r}")
        elif isinstance(value, list):
            for text in value:
                if isinstance(text, str) and not text.isascii():
                    _expect(not _RAW_SURROGATE.search(text), f"lone surrogate in {text!r}")
    return doc


def _string_field(entry: dict, key: str, where: str) -> str:
    value = entry.get(key)
    _expect(isinstance(value, str) and value != "", f"{where}: {key!r} must be a non-empty string")
    return value


def _list_field(doc: dict, key: str) -> list:
    value = doc.get(key, [])
    _expect(isinstance(value, list), f"{key!r} must be a list")
    return value


def parse_snapshot(data: str | bytes) -> TenantSnapshot:
    """Parse and validate a snapshot document.

    One prescan of the text decides whether the per-string lone-surrogate
    check runs. Assignments are validated as (principal, action, access,
    scope) tuples in one pass; duplicates are dropped in input order before
    one sort, linear on sorted input.

    Raises SnapshotSyntaxError (with position) for malformed documents,
    UnsupportedSchemaVersion, DuplicateId, UnknownReference or GroupCycle
    for documents that are well-formed but inconsistent, and the
    hierarchy errors for invalid trees: the first error in document order,
    checking hierarchy, spns, groups, assignments, then alternates.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SnapshotSyntaxError(f"input is not valid UTF-8 (byte offset {exc.start})") from None
        raw_surrogate = None
    else:
        raw_surrogate = not data.isascii() and _RAW_SURROGATE.search(data)
    # A lone surrogate needs a raw one in str input (strict UTF-8 rejects an
    # encoded one) or a \uD800-\uDFFF escape. A one-character test runs at memchr
    # speed and skips the regex on text with no backslash at all; a false hit, such
    # as an escaped backslash before "ud800", only costs the per-object check.
    suspect = raw_surrogate or ("\\" in data and _SURROGATE_ESCAPE.search(data))
    try:
        doc = json.loads(data, object_pairs_hook=_checked_object if suspect else _unique_keys)
    except json.JSONDecodeError as exc:
        raise SnapshotSyntaxError(exc.msg, exc.lineno, exc.colno) from None
    except ValueError:  # an integer literal past the int-to-str digit limit
        raise SnapshotSyntaxError("number has too many digits") from None
    except RecursionError:
        raise SnapshotSyntaxError("document is nested too deeply") from None
    del data  # the text is not read again; free it before the records are built

    _expect(isinstance(doc, dict), "top level must be an object")
    version = doc.get("version")
    _expect(
        isinstance(version, int) and not isinstance(version, bool),
        "'version' must be an integer",
    )
    if version != SCHEMA_VERSION:
        raise UnsupportedSchemaVersion(f"schema version {version} (supported: {SCHEMA_VERSION})")

    raw_hierarchy = doc.get("hierarchy")
    _expect(isinstance(raw_hierarchy, list) and raw_hierarchy, "'hierarchy' must be a non-empty list")
    nodes = []
    for entry in raw_hierarchy:
        _expect(isinstance(entry, dict), "hierarchy entries must be objects")
        node_id, kind_name, parent = entry.get("id"), entry.get("kind"), entry.get("parent")
        # checked inline; a message is formatted, by the helper, only for a bad field
        if not (type(node_id) is str and node_id):
            _string_field(entry, "id", "hierarchy")
        if not (type(kind_name) is str and kind_name):
            _string_field(entry, "kind", f"node {node_id!r}")
        kind = _KINDS.get(kind_name)
        if kind is None:
            raise SnapshotSyntaxError(f"node {node_id!r}: unknown kind {kind_name!r}")
        if not (parent is None or (type(parent) is str and parent)):
            raise SnapshotSyntaxError(f"node {node_id!r}: 'parent' must be a non-empty string when present")
        nodes.append(HierarchyNode(id=node_id, kind=kind, parent=parent))
    tree = build_tree(nodes)  # validates duplicates, kinds, cycles, MG depth

    spns = []
    seen_principals: set[str] = set()
    for spn in _list_field(doc, "spns"):
        _expect(isinstance(spn, str) and spn != "", "'spns' entries must be non-empty strings")
        if spn in seen_principals:
            raise DuplicateId(f"spn {spn!r} declared twice")
        seen_principals.add(spn)
        spns.append(spn)

    groups = []
    for entry in _list_field(doc, "groups"):
        _expect(isinstance(entry, dict), "group entries must be objects")
        group_id = _string_field(entry, "id", "groups")
        if group_id in seen_principals:
            raise DuplicateId(f"principal id {group_id!r} declared twice")
        seen_principals.add(group_id)
        members = entry.get("members", [])
        _expect(isinstance(members, list), f"group {group_id!r}: 'members' must be a list")
        for member in members:
            _expect(
                isinstance(member, str) and member != "",
                f"group {group_id!r}: members must be non-empty strings",
            )
        groups.append(Group(id=group_id, members=tuple(sorted(set(members)))))

    for group in groups:
        for member in group.members:
            if member not in seen_principals:
                raise UnknownReference(f"group {group.id!r} member {member!r} is not declared")
    group_order = _check_groups_acyclic(groups)

    raw_assignments = _list_field(doc, "assignments")
    try:
        rows = list(map(_ASSIGNMENT_FIELDS, raw_assignments))
    except (KeyError, TypeError):  # an entry that lacks a field or is not an object
        _reject_assignments(raw_assignments, seen_principals, tree)
    # type(x) is str comes first: a JSON list or object in a set lookup raises TypeError
    for principal, action, access, scope in rows:
        if not (
            type(principal) is str and type(action) is str and type(access) is str and type(scope) is str
            and action and principal in seen_principals and access in _ACCESS and scope in tree.parent
        ):
            _reject_assignments(raw_assignments, seen_principals, tree)

    alternates = []
    alternate_names: set[str] = set()
    for entry in _list_field(doc, "alternates"):
        _expect(isinstance(entry, dict), "alternate entries must be objects")
        name = _string_field(entry, "name", "alternates")
        if name in alternate_names:
            raise DuplicateId(f"alternate hierarchy {name!r} declared twice")
        alternate_names.add(name)
        parents = entry.get("parents", {})
        _expect(isinstance(parents, dict), f"alternate {name!r}: 'parents' must be an object")
        for child, parent in parents.items():
            _expect(
                isinstance(parent, str) and parent != "",
                f"alternate {name!r}: parent of {child!r} must be a node id",
            )
            if child not in tree.parent:
                raise UnknownReference(f"alternate {name!r} re-parents unknown node {child!r}")
            if parent not in tree.parent:
                raise UnknownReference(f"alternate {name!r} names unknown parent {parent!r}")
        alternates.append(
            AlternateHierarchy(name=name, parents=tuple(sorted(parents.items())))
        )

    del doc, raw_assignments  # free the decoded entries before the Assignments are built
    snapshot = canonical_snapshot(nodes, alternates, groups, spns, rows)
    # cached_property reads the instance dict: seed it with the validated trees and group order
    vars(snapshot).update(_family=snapshot._family_over(tree), _group_order=group_order)
    return snapshot


def canonical_snapshot(
    hierarchy: Iterable[HierarchyNode], alternates: Iterable[AlternateHierarchy],
    groups: Iterable[Group], spns: Iterable[str], rows: Iterable[tuple[str, str, str, str]],
) -> TenantSnapshot:
    """The snapshot of validated records in canonical order, each (principal, action,
    access value, scope) row kept once; parse_snapshot and the generator return it."""
    new = tuple.__new__  # skips the Python-level __new__ of a NamedTuple
    return TenantSnapshot(
        version=SCHEMA_VERSION,
        hierarchy=tuple(sorted(hierarchy, key=lambda n: n.id)),
        alternates=tuple(sorted(alternates, key=lambda a: a.name)),
        groups=tuple(sorted(groups, key=lambda g: g.id)),
        spns=tuple(sorted(spns)),
        # string tuples sort as (principal, action, access.value, scope) does
        assignments=tuple(
            new(Assignment, (principal, action, _ACCESS[access], scope))
            for principal, action, access, scope in sorted(dict.fromkeys(rows))
        ),
    )


def _reject_assignments(entries: list, principals: set[str], tree: TenantTree) -> NoReturn:
    """Raise the error of the first invalid assignment entry, checking each
    field in turn; called only once a bulk check has found one."""
    for entry in entries:
        _expect(isinstance(entry, dict), "assignment entries must be objects")
        principal = _string_field(entry, "principal", "assignments")
        action = _string_field(entry, "action", f"assignment for {principal!r}")
        access = _string_field(entry, "access", f"assignment for {principal!r}")
        _expect(
            access in _ACCESS,
            f"assignment for {principal!r}: access must be 'read' or 'write', got {access!r}",
        )
        scope = _string_field(entry, "scope", f"assignment for {principal!r}")
        if principal not in principals:
            raise UnknownReference(f"assignment principal {principal!r} is not declared")
        if scope not in tree.parent:
            raise UnknownReference(f"assignment scope {scope!r} is not in the hierarchy")
    raise AssertionError("no invalid assignment entry")


def serialize_snapshot(snapshot: TenantSnapshot) -> str:
    """Canonical JSON text; parse(serialize(s)) == s, byte for byte.

    The text is json.dumps(doc, indent=2, sort_keys=True) + "\\n" of the snapshot's
    document, written from one f-string template per record shape: keys in sorted
    order, indented for the record's depth (an f-string builds a record about four
    times faster than a % template).
    """
    enc, kinds, access_of = encode_basestring_ascii, _KIND_JSON, _ACCESS_JSON
    alternates = []
    for name, parents in snapshot.alternates:
        pairs = [f"{enc(child)}: {enc(parent)}" for child, parent in sorted(dict(parents).items())]
        alternates.append(f'{{\n      "name": {enc(name)},\n      "parents": {json_block(pairs, 3, "{}")}\n    }}')
    assignments = [
        f'{{\n      "access": {access_of[access]},\n      "action": {enc(action)},\n'
        f'      "principal": {enc(principal)},\n      "scope": {enc(scope)}\n    }}'
        for principal, action, access, scope in snapshot.assignments
    ]
    groups = [
        f'{{\n      "id": {enc(group_id)},\n      "members": {json_block(map(enc, members), 3)}\n    }}'
        for group_id, members in snapshot.groups
    ]
    hierarchy = [
        f'{{\n      "id": {enc(node_id)},\n      "kind": {kinds[kind]},\n      "parent": {enc(parent)}\n    }}'
        if parent else f'{{\n      "id": {enc(node_id)},\n      "kind": {kinds[kind]}\n    }}'
        for node_id, kind, parent in snapshot.hierarchy
    ]
    return (
        f'{{\n  "alternates": {json_block(alternates, 1)},\n  "assignments": {json_block(assignments, 1)},\n'
        f'  "groups": {json_block(groups, 1)},\n  "hierarchy": {json_block(hierarchy, 1)},\n'
        f'  "spns": {json_block(map(enc, snapshot.spns), 1)},\n  "version": {snapshot.version}\n}}\n'
    )


def _check_groups_acyclic(groups: Iterable[Group]) -> tuple[str, ...]:
    """Raise GroupCycle on a membership cycle; otherwise return the group ids
    ordered so that every group comes before the groups it contains.

    graphlib's TopologicalSorter orders them, so chains of any depth are fine. Ids go in
    sorted, edges in member order: the cycle named is the first met in that order.
    """
    members_of = {g.id: g.members for g in groups}
    order = TopologicalSorter(dict.fromkeys(sorted(members_of), ()))
    for gid, members in members_of.items():
        for member in members:
            if member in members_of:
                order.add(member, gid)
    try:
        return tuple(order.static_order())
    except CycleError as exc:
        raise GroupCycle("group membership cycle: " + " -> ".join(exc.args[1])) from None


def _grant_index(snapshot: TenantSnapshot) -> dict[str, frozenset[Grant]]:
    """Effective grants of every SPN, in one pass over assignments and groups.

    Each distinct (action, access, scope) becomes one Grant, shared by
    every principal that holds it. Each group's closure (its own grants
    plus those of every group containing it) is computed once, containers
    first, and shared by all its members; a closure that adds nothing is
    the container's own set.
    """
    new = tuple.__new__
    shared: dict[Grant, Grant] = {}
    direct: dict[str, set[Grant]] = {}
    for principal, action, access, scope in snapshot.assignments:
        grant = new(Grant, (action, access, scope))
        direct.setdefault(principal, set()).add(shared.setdefault(grant, grant))
    containers: dict[str, list[str]] = {}
    for group in snapshot.groups:
        for member in group.members:
            containers.setdefault(member, []).append(group.id)
    closure: dict[str, frozenset[Grant]] = {}

    def effective(principal: str) -> frozenset[Grant]:
        own = direct.get(principal)
        inherited = [closure[gid] for gid in containers.get(principal, ())]
        if own is None and len(inherited) == 1:
            return inherited[0]
        return frozenset().union(own or (), *inherited)

    for gid in snapshot._group_order:
        closure[gid] = effective(gid)
    return {spn: effective(spn) for spn in snapshot.spns}


def resolve_effective_grants(spn: str, snapshot: TenantSnapshot) -> frozenset[Grant]:
    """Union of direct grants and grants of every group containing the SPN,
    through arbitrarily nested membership, deduplicated on (action, access, scope).

    The whole snapshot is resolved on the first call and memoized on it,
    so each further call is a dictionary lookup.
    """
    try:
        return snapshot._effective_grants[spn]
    except KeyError:
        raise UnknownPrincipal(f"spn {spn!r} is not declared in the snapshot") from None
