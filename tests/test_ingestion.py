import json
from fractions import Fraction

import pytest

from helpers import nested_group_chains, parse_snapshot_oracle
from perimetric import ingestion
from perimetric.errors import (
    DuplicateId,
    GroupCycle,
    IllegalParentKind,
    InvalidConfig,
    SnapshotSyntaxError,
    UnknownPrincipal,
    UnknownReference,
    UnsupportedSchemaVersion,
)
from perimetric.generator import GeneratorConfig, generate_synthetic_tenant
from perimetric.ingestion import parse_snapshot, resolve_effective_grants, serialize_snapshot
from perimetric.metric import AccessClass, DistanceModel, Grant, effective_distance
from perimetric.perimeter import blast_radius, is_ultracycle


def _doc(**overrides):
    doc = {
        "version": 1,
        "hierarchy": [
            {"id": "root", "kind": "tenant_root"},
            {"id": "sub", "kind": "subscription", "parent": "root"},
        ],
        "groups": [],
        "spns": ["svc-1"],
        "assignments": [],
    }
    doc.update(overrides)
    return json.dumps(doc)


def test_parse_minimal_document():
    snapshot = parse_snapshot(_doc())
    assert snapshot.version == 1
    assert snapshot.spns == ("svc-1",)
    assert resolve_effective_grants("svc-1", snapshot) == frozenset()


def test_parse_accepts_bytes():
    assert parse_snapshot(_doc().encode()) == parse_snapshot(_doc())


def test_parse_malformed_json_reports_position():
    with pytest.raises(SnapshotSyntaxError) as err:
        parse_snapshot("{ nope")
    assert err.value.line == 1


def test_parse_unsupported_version():
    with pytest.raises(UnsupportedSchemaVersion):
        parse_snapshot(_doc(version=2))


def test_parse_unknown_scope_reference():
    with pytest.raises(UnknownReference):
        parse_snapshot(_doc(assignments=[
            {"principal": "svc-1", "action": "ReadBlob", "access": "read", "scope": "ghost"}
        ]))


def test_parse_unknown_principal_reference():
    with pytest.raises(UnknownReference):
        parse_snapshot(_doc(assignments=[
            {"principal": "ghost", "action": "ReadBlob", "access": "read", "scope": "sub"}
        ]))


def test_parse_bad_access_value():
    with pytest.raises(SnapshotSyntaxError):
        parse_snapshot(_doc(assignments=[
            {"principal": "svc-1", "action": "ReadBlob", "access": "admin", "scope": "sub"}
        ]))


def test_parse_duplicate_spn():
    with pytest.raises(DuplicateId):
        parse_snapshot(_doc(spns=["svc-1", "svc-1"]))


def test_parse_group_spn_collision():
    with pytest.raises(DuplicateId):
        parse_snapshot(_doc(groups=[{"id": "svc-1", "members": []}]))


@pytest.mark.parametrize("field", ["spns", "groups", "assignments", "alternates"])
@pytest.mark.parametrize("value", ["abc", 3, None, {}])
def test_parse_top_level_lists_are_type_checked(field, value):
    with pytest.raises(SnapshotSyntaxError, match=f"'{field}' must be a list"):
        parse_snapshot(_doc(**{field: value}))


@pytest.mark.parametrize(
    "overrides",
    [
        {"spns": ["svc-1", "svc-\ud800"]},
        {"groups": [{"id": "team", "members": ["svc-1", "\udc00"]}]},
        {"assignments": [{"principal": "svc-1", "action": "Read\udfff", "access": "read", "scope": "sub"}]},
        {"alternates": [{"name": "alt", "parents": {"\ud83d": "root"}}]},
    ],
    ids=["spn", "member", "action", "key"],
)
def test_parse_rejects_a_lone_surrogate(overrides):
    # json.dumps writes each lone surrogate back as a \u escape
    with pytest.raises(SnapshotSyntaxError, match="lone surrogate"):
        parse_snapshot(_doc(**overrides))


def test_parse_keeps_an_escaped_surrogate_pair():
    text = _doc(spns=["svc-\U0001f600"])
    assert "\\ud83d\\ude00" in text
    for document in (text, text.encode(), text.replace("\\ud83d\\ude00", "\\uD83D\\uDE00")):
        assert parse_snapshot(document).spns == ("svc-\U0001f600",)


def test_parse_accepts_an_escaped_backslash_before_ud800():
    text = _doc(spns=["svc-\\ud800"])
    assert '"svc-\\\\ud800"' in text
    assert parse_snapshot(text).spns == ("svc-\\ud800",)


@pytest.mark.parametrize(
    "tail, checked, error",
    [("", False, None), (r"\ud800", True, "lone surrogate"), (r"\\ud800", True, None)],
    ids=["no-u-escape", "lone-surrogate", "escaped-backslash-before-ud800"],
)
def test_backslash_escapes_take_the_surrogate_check_only_before_a_surrogate(tail, checked, error, monkeypatch):
    # the prescan's one-character test finds every backslash; the regex still picks the hook
    text = r'{"version": 1, "hierarchy": [{"id": "root", "kind": "tenant_root"}], "spns": ["q\"b", "b\\s", "n\nl'
    text += tail + '"]}'
    calls, checked_object = [], ingestion._checked_object
    monkeypatch.setattr(ingestion, "_checked_object", lambda pairs: calls.append(1) or checked_object(pairs))
    if error:
        for parse in (parse_snapshot, parse_snapshot_oracle):
            with pytest.raises(SnapshotSyntaxError, match=error):
                parse(text)
    else:
        snapshot = parse_snapshot(text)
        assert snapshot.spns == tuple(sorted(('q"b', "b\\s", "n\nl" + json.loads(f'"{tail}"'))))
        assert snapshot == parse_snapshot_oracle(text)
    assert bool(calls) == checked


def test_parse_rejects_a_raw_lone_surrogate_in_str_input():
    text = json.dumps(json.loads(_doc(spns=["svc-\ud800"])), ensure_ascii=False)
    assert "\ud800" in text
    with pytest.raises(SnapshotSyntaxError, match="lone surrogate"):
        parse_snapshot(text)


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"principal": []}, "assignments: 'principal' must be a non-empty string"),
        ({"scope": {}}, "assignment for 'svc-1': 'scope' must be a non-empty string"),
    ],
)
def test_parse_rejects_an_unhashable_assignment_field(entry, message):
    assignment = {"principal": "svc-1", "action": "ReadBlob", "access": "read", "scope": "sub", **entry}
    with pytest.raises(SnapshotSyntaxError) as err:
        parse_snapshot(_doc(assignments=[assignment]))
    assert str(err.value) == message


def test_parse_assignment_order_and_repeats_do_not_matter():
    entries = [
        {"principal": principal, "action": action, "access": access, "scope": scope}
        for principal in ("svc-1", "svc-2")
        for action, access in (("ReadBlob", "read"), ("WriteBlob", "write"))
        for scope in ("root", "sub")
    ]
    spns = ["svc-1", "svc-2"]
    snapshot = parse_snapshot(_doc(spns=spns, assignments=entries))
    # entries are listed in canonical order
    assert [(a.principal, a.action, a.access.value, a.scope) for a in snapshot.assignments] == [
        tuple(e.values()) for e in entries
    ]
    for shuffled in (entries[::-1], entries + entries[::2], entries[3:] + entries[:5]):
        assert parse_snapshot(_doc(spns=spns, assignments=shuffled)) == snapshot


def test_parse_accepts_an_assignment_with_an_extra_key():
    entry = {"principal": "svc-1", "action": "ReadBlob", "access": "read", "scope": "sub"}
    snapshot = parse_snapshot(_doc(assignments=[{**entry, "note": "granted by ticket 7"}]))
    assert snapshot == parse_snapshot(_doc(assignments=[entry]))


def test_parse_group_cycle():
    with pytest.raises(GroupCycle):
        parse_snapshot(_doc(groups=[
            {"id": "g1", "members": ["g2"]},
            {"id": "g2", "members": ["g1"]},
        ]))


def test_parse_alternate_validation():
    with pytest.raises(UnknownReference):
        parse_snapshot(_doc(alternates=[{"name": "alt", "parents": {"ghost": "root"}}]))
    with pytest.raises(UnknownReference, match="^alternate 'a' names unknown parent 'ghost'$"):
        parse_snapshot(_doc(alternates=[{"name": "a", "parents": {"sub": "ghost"}}]))
    # re-parenting a subscription under itself is structurally illegal
    with pytest.raises(IllegalParentKind):
        parse_snapshot(_doc(alternates=[{"name": "alt", "parents": {"sub": "sub"}}]))


def test_round_trip_is_byte_identical():
    messy = json.dumps({
        "version": 1,
        "spns": ["svc-b", "svc-a"],
        "hierarchy": [
            {"id": "sub", "kind": "subscription", "parent": "root"},
            {"id": "root", "kind": "tenant_root"},
        ],
        "assignments": [
            {"principal": "svc-b", "action": "ReadBlob", "access": "read", "scope": "sub"},
            {"principal": "svc-a", "action": "ReadBlob", "access": "read", "scope": "sub"},
            {"principal": "svc-a", "action": "ReadBlob", "access": "read", "scope": "sub"},
        ],
    })
    for document in (messy, *(nested_group_chains(seed) for seed in range(3))):
        snapshot = parse_snapshot(document)
        text = serialize_snapshot(snapshot)
        assert parse_snapshot(text) == snapshot
        assert serialize_snapshot(parse_snapshot(text)) == text
    snapshot = parse_snapshot(messy)
    assert snapshot.spns == ("svc-a", "svc-b")
    assert len(snapshot.assignments) == 2  # exact duplicate collapsed


def test_resolve_direct_only():
    snapshot = parse_snapshot(_doc(assignments=[
        {"principal": "svc-1", "action": "ReadBlob", "access": "read", "scope": "sub"},
    ]))
    assert resolve_effective_grants("svc-1", snapshot) == frozenset(
        {Grant("ReadBlob", AccessClass.READ, "sub")}
    )


def test_resolve_nested_groups():
    snapshot = parse_snapshot(_doc(
        groups=[
            {"id": "outer", "members": ["inner"]},
            {"id": "inner", "members": ["svc-1"]},
        ],
        assignments=[
            {"principal": "outer", "action": "WriteBlob", "access": "write", "scope": "sub"},
        ],
    ))
    assert resolve_effective_grants("svc-1", snapshot) == frozenset(
        {Grant("WriteBlob", AccessClass.WRITE, "sub")}
    )


def test_resolve_deduplicates_direct_and_group_grant():
    snapshot = parse_snapshot(_doc(
        groups=[{"id": "g", "members": ["svc-1"]}],
        assignments=[
            {"principal": "g", "action": "ReadBlob", "access": "read", "scope": "sub"},
            {"principal": "svc-1", "action": "ReadBlob", "access": "read", "scope": "sub"},
        ],
    ))
    assert len(resolve_effective_grants("svc-1", snapshot)) == 1


def test_resolve_is_monotone_under_membership():
    base = _doc(
        groups=[{"id": "g", "members": []}],
        assignments=[
            {"principal": "g", "action": "WriteBlob", "access": "write", "scope": "sub"},
            {"principal": "svc-1", "action": "ReadBlob", "access": "read", "scope": "sub"},
        ],
    )
    joined = _doc(
        groups=[{"id": "g", "members": ["svc-1"]}],
        assignments=[
            {"principal": "g", "action": "WriteBlob", "access": "write", "scope": "sub"},
            {"principal": "svc-1", "action": "ReadBlob", "access": "read", "scope": "sub"},
        ],
    )
    before = resolve_effective_grants("svc-1", parse_snapshot(base))
    after = resolve_effective_grants("svc-1", parse_snapshot(joined))
    assert before <= after


def test_resolve_unknown_spn():
    with pytest.raises(UnknownPrincipal):
        resolve_effective_grants("ghost", parse_snapshot(_doc()))


def test_generator_determinism():
    config = GeneratorConfig(seed=0, tight_spns=5, dispersed_spns=5, mixed_spns=5)
    first = serialize_snapshot(generate_synthetic_tenant(config))
    second = serialize_snapshot(generate_synthetic_tenant(config))
    assert first == second
    different = serialize_snapshot(generate_synthetic_tenant(
        GeneratorConfig(seed=1, tight_spns=5, dispersed_spns=5, mixed_spns=5)
    ))
    assert different != first


# seed 0 with 200 mixed SPNs on a one-resource tenant draws 624 rows, 615 of them distinct
REPEATING = GeneratorConfig(
    seed=0, mixed_spns=200, management_groups=1, subscriptions=1,
    resource_groups_per_subscription=1, resources_per_resource_group=1,
)


@pytest.mark.parametrize(
    "config",
    [
        *(GeneratorConfig(seed=seed, tight_spns=4, dispersed_spns=4, mixed_spns=4) for seed in (3, 11, 2**40)),
        *(GeneratorConfig(seed=seed, tight_spns=6) for seed in (0, 5)),
        *(GeneratorConfig(seed=seed, dispersed_spns=6) for seed in (0, 5)),
        *(GeneratorConfig(seed=seed, mixed_spns=6) for seed in (0, 5)),
        REPEATING,
    ],
    ids=[
        "all-seed3", "all-seed11", "all-seed2^40", "tight-seed0", "tight-seed5",
        "dispersed-seed0", "dispersed-seed5", "mixed-seed0", "mixed-seed5", "mixed-repeating",
    ],
)
def test_generator_output_parses_and_round_trips(config):
    snapshot = generate_synthetic_tenant(config)
    assert parse_snapshot(serialize_snapshot(snapshot)) == snapshot
    keys = [(a.principal, a.action, a.access.value, a.scope) for a in snapshot.assignments]
    assert keys == sorted(set(keys))  # in order, none repeated
    if config is REPEATING:
        assert len(snapshot.assignments) == 615


def test_generator_tight_spns_are_ultracycles():
    snapshot = generate_synthetic_tenant(GeneratorConfig(seed=7, tight_spns=6))
    tree = snapshot.native_tree()
    for spn in snapshot.spns:
        grants = resolve_effective_grants(spn, snapshot)
        assert is_ultracycle(grants, effective_distance(grants, tree)) is not None


def test_generator_dispersed_spns_reach_across_subscriptions():
    snapshot = generate_synthetic_tenant(GeneratorConfig(seed=7, dispersed_spns=6))
    tree = snapshot.native_tree()
    for spn in snapshot.spns:
        grants = resolve_effective_grants(spn, snapshot)
        # cross-subscription LCA sits at level 6 or above: radius >= 1/2^13
        assert blast_radius(grants, DistanceModel(tree)) >= Fraction(1, 2**13)


def test_generator_invalid_configs():
    with pytest.raises(InvalidConfig):
        GeneratorConfig(tight_spns=-1)
    with pytest.raises(InvalidConfig):
        GeneratorConfig(subscriptions=1, dispersed_spns=3)
    with pytest.raises(InvalidConfig):
        GeneratorConfig(resource_groups_per_subscription=0, tight_spns=1)
    with pytest.raises(InvalidConfig):
        GeneratorConfig(seed="nope")
    with pytest.raises(InvalidConfig, match="^at least one subscription is required$"):
        GeneratorConfig(subscriptions=0)
