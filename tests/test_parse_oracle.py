"""Differential test: parse_snapshot against the field-by-field parse it replaced.

Each example takes a valid document (a fixture, or a generated tenant with
nested group chains and an alternate hierarchy), applies no mutation, a byte
or structure mutation, or an assignment- or hierarchy-field mutation, and
feeds the result to both parses as bytes and as str. Either both return
equal snapshots that serialize to the same bytes, or both raise the same
exception type with the same message.
"""

import json
from itertools import combinations, product
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import mutate_bytes, mutate_structure, nested_group_chains, parse_snapshot_oracle
from perimetric.ingestion import parse_snapshot, serialize_snapshot

FIXTURES = Path(__file__).parent / "fixtures"
FIELDS = ("principal", "action", "access", "scope")
NODE_FIELDS = ("id", "kind", "parent")
# A wrong-case access, an undeclared id and lone surrogates from both ends of
# the range; "group" stands for a declared group's id.
FIELD_VALUES = (None, 0, "", [], {}, "READ", "ghost", "group", "\ud800", "x\udfff")


def _generated(seed: int) -> bytes:
    """A generated tenant with nested group chains and one alternate that
    moves every resource group under the next subscription."""
    doc = json.loads(nested_group_chains(seed, chains=2, depth=3))
    subs = [n["id"] for n in doc["hierarchy"] if n["kind"] == "subscription"]
    rgs = [n for n in doc["hierarchy"] if n["kind"] == "resource_group"]
    doc["alternates"] = [
        {"name": "rotated", "parents": {rg["id"]: subs[(subs.index(rg["parent"]) + 1) % len(subs)] for rg in rgs}}
    ]
    return json.dumps(doc).encode()


SOURCES = (
    *((FIXTURES / name).read_bytes() for name in ("golden_tenant.json", "counterexample_family.json")),
    *(_generated(seed) for seed in range(3)),
)


CHANGES = (*(("set", value) for value in FIELD_VALUES), ("drop", None), ("extra", None))


def _change(doc: dict, entry: dict, field: str, change: tuple) -> None:
    """Set one assignment or hierarchy field to a bad value, drop it, or add an extra key."""
    kind, value = change
    if kind == "set":
        entry[field] = doc["groups"][0]["id"] if value == "group" and doc["groups"] else value
    elif kind == "drop":
        entry.pop(field, None)
    else:
        entry["note"] = field


def _encode(doc: dict, ascii_only: bool) -> bytes:
    """JSON bytes; without ascii_only a lone surrogate is written raw, as an
    encoded surrogate that strict UTF-8 decoding rejects."""
    return json.dumps(doc, ensure_ascii=ascii_only).encode("utf-8", "surrogatepass")


def mutate_assignment(data, text: bytes) -> bytes:
    doc = json.loads(text)
    for _ in range(data.draw(st.integers(1, 2)) if doc["assignments"] else 0):
        entry = data.draw(st.sampled_from(doc["assignments"]))
        _change(doc, entry, data.draw(st.sampled_from(FIELDS)), data.draw(st.sampled_from(CHANGES)))
    return _encode(doc, data.draw(st.booleans()))


def mutate_node(data, text: bytes) -> bytes:
    doc = json.loads(text)
    for _ in range(data.draw(st.integers(1, 2))):
        entry = data.draw(st.sampled_from(doc["hierarchy"]))
        _change(doc, entry, data.draw(st.sampled_from(NODE_FIELDS)), data.draw(st.sampled_from(CHANGES)))
    return _encode(doc, data.draw(st.booleans()))


def _outcome(parse, document):
    try:
        snapshot = parse(document)
    except Exception as exc:  # any exception, so one a command would not handle also shows
        return type(exc), str(exc)
    return snapshot, serialize_snapshot(snapshot)


def _assert_same_outcome(text: bytes) -> None:
    # surrogateescape turns each undecodable byte into a raw lone surrogate
    for document in (text, text.decode("utf-8", "surrogateescape")):
        assert _outcome(parse_snapshot, document) == _outcome(parse_snapshot_oracle, document)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_parse_matches_the_field_by_field_oracle(data):
    text = data.draw(st.sampled_from(SOURCES))
    mutate = data.draw(st.sampled_from((None, mutate_bytes, mutate_structure, mutate_assignment, mutate_node)))
    _assert_same_outcome(text if mutate is None else mutate(data, text))


def test_each_single_field_change_matches_the_oracle():
    base = _generated(0)
    for field, change, ascii_only in product(FIELDS, CHANGES, (True, False)):
        doc = json.loads(base)
        _change(doc, doc["assignments"][len(doc["assignments"]) // 2], field, change)
        _assert_same_outcome(_encode(doc, ascii_only))


def test_each_node_field_change_matches_the_oracle():
    # one field, or two on the same node, so the order of the checks shows
    base = _generated(0)
    fields = (*((f,) for f in NODE_FIELDS), *combinations(NODE_FIELDS, 2))
    for changed, change, ascii_only in product(fields, CHANGES, (True, False)):
        doc = json.loads(base)
        entry = doc["hierarchy"][len(doc["hierarchy"]) // 2]
        for field in changed:
            _change(doc, entry, field, change)
        _assert_same_outcome(_encode(doc, ascii_only))
