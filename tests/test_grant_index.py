"""The per-snapshot grant index against the per-SPN assignment scan it replaces."""

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perimetric import ingestion
from perimetric.errors import GroupCycle, UnknownPrincipal
from perimetric.ingestion import TenantSnapshot, parse_snapshot, resolve_effective_grants
from perimetric.metric import AccessClass, Grant

from helpers import invoke, nested_group_chains, scan_effective_grants

HIERARCHY = [
    {"id": "root", "kind": "tenant_root"},
    {"id": "sub-1", "kind": "subscription", "parent": "root"},
    {"id": "sub-2", "kind": "subscription", "parent": "root"},
    {"id": "rg-1", "kind": "resource_group", "parent": "sub-1"},
]
SCOPES = [node["id"] for node in HIERARCHY]


def _doc(groups=(), spns=(), assignments=(), alternates=()):
    return json.dumps({
        "version": 1,
        "hierarchy": HIERARCHY,
        "alternates": list(alternates),
        "groups": list(groups),
        "spns": list(spns),
        "assignments": list(assignments),
    })


@st.composite
def snapshots(draw):
    """Snapshots whose groups form a random DAG: group i may contain SPNs and
    groups j > i, so nesting, diamonds, empty groups and groups holding only
    groups all occur. Group ids are shuffled so id order is not DAG order."""
    n_spns = draw(st.integers(0, 6))
    n_groups = draw(st.integers(0, 8))
    spns = [f"s{i}" for i in range(n_spns)]
    names = draw(st.permutations([f"g{i}" for i in range(n_groups)]))
    groups = []
    for i, gid in enumerate(names):
        inner = draw(st.lists(st.sampled_from(names[i + 1:]), max_size=3)) if i + 1 < n_groups else []
        direct = draw(st.lists(st.sampled_from(spns), max_size=3)) if spns else []
        groups.append({"id": gid, "members": inner + direct})
    principals = spns + names
    assignments = []
    if principals:
        assignments = draw(st.lists(
            st.fixed_dictionaries({
                "principal": st.sampled_from(principals),
                "action": st.sampled_from(["ReadBlob", "WriteBlob", "ListKeys"]),
                "access": st.sampled_from(["read", "write"]),
                "scope": st.sampled_from(SCOPES),
            }),
            max_size=20,
        ))
    return parse_snapshot(_doc(groups, spns, assignments))


@settings(max_examples=300, deadline=None)
@given(snapshots())
def test_index_matches_assignment_scan(snapshot):
    for spn in snapshot.spns:
        assert resolve_effective_grants(spn, snapshot) == scan_effective_grants(spn, snapshot)
    for principal in [g.id for g in snapshot.groups] + ["ghost"]:
        with pytest.raises(UnknownPrincipal):
            resolve_effective_grants(principal, snapshot)
        with pytest.raises(UnknownPrincipal):
            scan_effective_grants(principal, snapshot)


def _rebuilt(snapshot, rng):
    """The snapshot through TenantSnapshot(...) and through dataclasses.replace,
    its assignments shuffled and half of them repeated, as a caller may pass them."""
    assignments = list(snapshot.assignments)
    rng.shuffle(assignments)
    assignments = tuple(assignments + assignments[: len(assignments) // 2])
    fields = {field.name: getattr(snapshot, field.name) for field in dataclasses.fields(snapshot)}
    return TenantSnapshot(**{**fields, "assignments": assignments}), dataclasses.replace(snapshot, assignments=assignments)


def _assert_index_matches_the_scan(snapshot, rng):
    """The parsed and the rebuilt snapshots resolve as the oracle does, and
    each holds one Grant object per distinct grant across all its SPNs."""
    for built in (snapshot, *_rebuilt(snapshot, rng)):
        shared = {}
        for spn in snapshot.spns:
            grants = resolve_effective_grants(spn, built)
            assert grants == scan_effective_grants(spn, snapshot)
            for grant in grants:
                assert type(grant) is Grant
                assert shared.setdefault(grant, grant) is grant


@settings(max_examples=200, deadline=None)
@given(snapshots(), st.randoms(use_true_random=False))
def test_index_is_one_builder_for_parsed_and_constructed_snapshots(snapshot, rng):
    _assert_index_matches_the_scan(snapshot, rng)


@pytest.mark.parametrize("seed", range(3))
def test_nested_chains_share_one_object_per_grant(seed):
    _assert_index_matches_the_scan(parse_snapshot(nested_group_chains(seed)), random.Random(seed))


def test_diamond_membership_counts_each_grant_once():
    snapshot = parse_snapshot(_doc(
        groups=[
            {"id": "top", "members": ["left", "right"]},
            {"id": "left", "members": ["svc"]},
            {"id": "right", "members": ["svc"]},
        ],
        spns=["svc"],
        assignments=[
            {"principal": "top", "action": "ReadBlob", "access": "read", "scope": "sub-1"},
            {"principal": "left", "action": "ReadBlob", "access": "read", "scope": "sub-1"},
            {"principal": "right", "action": "WriteBlob", "access": "write", "scope": "rg-1"},
        ],
    ))
    assert resolve_effective_grants("svc", snapshot) == {
        Grant("ReadBlob", AccessClass.READ, "sub-1"),
        Grant("WriteBlob", AccessClass.WRITE, "rg-1"),
    }


def test_snapshot_resolves_and_builds_its_tree_once(monkeypatch):
    builds = []
    real_build = ingestion.build_tree

    def counting_build(nodes):
        builds.append(nodes)
        return real_build(nodes)

    monkeypatch.setattr(ingestion, "build_tree", counting_build)
    snapshot = parse_snapshot(_doc(
        groups=[{"id": "team", "members": ["a", "b"]}],
        spns=["a", "b"],
        assignments=[{"principal": "team", "action": "ReadBlob", "access": "read", "scope": "sub-2"}],
    ))
    assert snapshot.native_tree() is snapshot.native_tree()
    snapshot.family()
    assert len(builds) == 1
    assert resolve_effective_grants("a", snapshot) is resolve_effective_grants("a", snapshot)
    # members that add nothing share their group's set
    assert resolve_effective_grants("a", snapshot) is resolve_effective_grants("b", snapshot)


def test_snapshot_builds_its_family_once(monkeypatch):
    builds = []
    real_build = ingestion.build_tree

    def counting_build(nodes):
        builds.append(nodes)
        return real_build(nodes)

    monkeypatch.setattr(ingestion, "build_tree", counting_build)
    snapshot = parse_snapshot(_doc(alternates=[
        {"name": "flat", "parents": {"rg-1": "sub-2"}},
        {"name": "same", "parents": {}},
    ]))
    assert len(builds) == 3  # the native tree and one per alternate, all while parsing
    family = snapshot.family()
    assert snapshot.native_tree() is family.native
    assert snapshot.family() is family
    assert [name for name, _ in family.members()] == ["native", "flat", "same"]
    assert family.alternates[0][1].parent["rg-1"] == "sub-2"
    assert len(builds) == 3


DEPTH = 3000


def _deep_chain_text():
    groups = [{"id": f"g{i:04d}", "members": [f"g{i + 1:04d}"]} for i in range(DEPTH - 1)]
    groups.append({"id": f"g{DEPTH - 1:04d}", "members": ["svc-bottom"]})
    return _doc(
        groups=groups,
        spns=["svc-bottom"],
        assignments=[{"principal": "g0000", "action": "ReadBlob", "access": "read", "scope": "rg-1"}],
    )


def test_deep_group_chain_parses_and_inherits_top_grant():
    snapshot = parse_snapshot(_deep_chain_text())
    assert resolve_effective_grants("svc-bottom", snapshot) == {Grant("ReadBlob", AccessClass.READ, "rg-1")}
    result = invoke(["scan", "-"], input=_deep_chain_text())
    assert result.exit_code == 0
    assert result.output.splitlines()[1].startswith("svc-bottom,1,")


def test_group_cycle_message_names_the_cycle():
    with pytest.raises(GroupCycle, match=r"^group membership cycle: b -> c -> d -> b$"):
        parse_snapshot(_doc(groups=[
            {"id": "a", "members": ["b"]},
            {"id": "b", "members": ["c"]},
            {"id": "c", "members": ["d"]},
            {"id": "d", "members": ["b"]},
        ]))


@st.composite
def group_graphs(draw):
    """Group graphs of any shape: each group's members are drawn from the group
    ids and the declared SPNs, so cycles, self-loops and diamonds all occur."""
    spns = [f"s{i}" for i in range(draw(st.integers(0, 3)))]
    ids = draw(st.permutations([f"g{i}" for i in range(draw(st.integers(1, 9)))]))
    return spns, {gid: draw(st.lists(st.sampled_from(ids + spns), max_size=4)) for gid in ids}


def _peels_away(groups):
    """Whether the graph is acyclic, decided without graphlib: drop the groups
    that no remaining group contains until none is left or none can go."""
    left = {gid: set(members) for gid, members in groups.items()}
    while left:
        contained = set().union(*left.values())
        top = [gid for gid in left if gid not in contained]
        if not top:
            return False
        for gid in top:
            del left[gid]
    return True


@settings(max_examples=500, deadline=None)
@given(group_graphs())
def test_group_order_puts_containers_first_or_names_a_cycle(graph):
    spns, groups = graph
    text = _doc(groups=[{"id": gid, "members": members} for gid, members in groups.items()], spns=spns)
    if _peels_away(groups):
        order = ingestion._check_groups_acyclic(parse_snapshot(text).groups)
        assert sorted(order) == sorted(groups)
        position = {gid: i for i, gid in enumerate(order)}
        for gid, members in groups.items():
            for member in members:
                if member in groups:
                    assert position[gid] < position[member]
    else:
        with pytest.raises(GroupCycle) as info:
            parse_snapshot(text)
        prefix, _, chain = str(info.value).partition(": ")
        assert prefix == "group membership cycle"
        chain = chain.split(" -> ")
        assert len(chain) >= 2 and chain[0] == chain[-1]
        for container, member in zip(chain, chain[1:]):
            assert member in groups[container]


@pytest.mark.parametrize(
    "groups, cycle",
    [
        # two disjoint cycles: the one met first in id order is named
        ({"p": ["q", "svc"], "q": ["p"], "m": ["n"], "n": ["m", "svc"]}, "m -> n -> m"),
        # a self-loop beside a longer cycle, met after it and before it
        ({"a": ["b"], "b": ["c"], "c": ["a", "c"]}, "a -> b -> c -> a"),
        ({"a": ["b"], "b": ["c"], "c": ["c", "d"], "d": ["b"]}, "c -> c"),
    ],
    ids=["disjoint", "self-loop-after", "self-loop-first"],
)
def test_group_cycle_message_is_pinned(groups, cycle):
    text = _doc(groups=[{"id": gid, "members": members} for gid, members in groups.items()], spns=["svc"])
    with pytest.raises(GroupCycle) as info:
        parse_snapshot(text)
    assert str(info.value) == f"group membership cycle: {cycle}"


def test_a_parse_and_a_scan_order_the_groups_once(monkeypatch):
    calls = []
    order_groups = ingestion._check_groups_acyclic
    monkeypatch.setattr(ingestion, "_check_groups_acyclic", lambda groups: calls.append(1) or order_groups(groups))
    text = nested_group_chains(seed=3)
    assert invoke(["scan", "-"], input=text).exit_code == 0
    assert len(calls) == 1
    # a snapshot not made by parse_snapshot orders its groups on its first resolution, once
    parsed = parse_snapshot(text)
    built = TenantSnapshot(*(getattr(parsed, field.name) for field in dataclasses.fields(parsed)))
    for snapshot in (dataclasses.replace(parsed), built):
        calls.clear()
        for spn in snapshot.spns:
            assert resolve_effective_grants(spn, snapshot) == resolve_effective_grants(spn, parsed)
        assert len(calls) == 1
