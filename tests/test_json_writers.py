"""The snapshot, scan and band-report JSON writers against the json.dumps oracles they replace."""

import ast
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import perimetric
from perimetric import cli
from perimetric.hierarchy import HierarchyNode, NodeKind
from perimetric.ingestion import AlternateHierarchy, Assignment, Group, TenantSnapshot, serialize_snapshot
from perimetric.kernels import SCALE
from perimetric.metric import AccessClass
from perimetric.perimeter import PrincipalRisk
from perimetric.ranking import render_band_report_json
from perimetric.render import json_block

from helpers import (
    band_reports,
    invoke,
    render_band_report_json_oracle,
    render_scan_json_oracle,
    scan_records,
    serialize_snapshot_oracle,
)

# ids of any code point, surrogates included, weighted towards the characters JSON escapes
_HOSTILE = st.text(
    st.one_of(st.characters(exclude_categories=()), st.sampled_from('"\\/\x00\x1f\x7f é𐏿\U0001f600')),
    max_size=6,
)


@st.composite
def snapshots(draw):
    """TenantSnapshots as a caller may build them: no validation, so parents may be
    None or "", alternates may re-parent one node twice or none, and groups may be empty."""
    def lists(strategy):
        return draw(st.lists(strategy, max_size=4))

    nodes = lists(st.builds(
        HierarchyNode, _HOSTILE, st.sampled_from(list(NodeKind)), st.one_of(st.none(), st.just(""), _HOSTILE)
    ))
    alternates = lists(st.builds(
        AlternateHierarchy, _HOSTILE, st.lists(st.tuples(_HOSTILE, _HOSTILE), max_size=4).map(tuple)
    ))
    groups = lists(st.builds(Group, _HOSTILE, st.lists(_HOSTILE, max_size=4).map(tuple)))
    assignments = lists(st.builds(Assignment, _HOSTILE, _HOSTILE, st.sampled_from(list(AccessClass)), _HOSTILE))
    spns = lists(_HOSTILE)
    version = draw(st.integers(-(2**70), 2**70))
    return TenantSnapshot(version, tuple(nodes), tuple(alternates), tuple(groups), tuple(spns), tuple(assignments))


@settings(max_examples=400, deadline=None)
@given(snapshots())
def test_serialize_snapshot_writes_the_json_dumps_bytes(snapshot):
    assert serialize_snapshot(snapshot) == serialize_snapshot_oracle(snapshot)


def test_repeated_parents_keep_the_last_target_in_sorted_order():
    alternate = AlternateHierarchy("alt", (("z", "a"), ("b", "x"), ("z", "c"), ("a", "b")))
    text = serialize_snapshot(TenantSnapshot(1, (), (alternate,), (), (), ()))
    assert json.loads(text)["alternates"] == [{"name": "alt", "parents": {"a": "b", "b": "x", "z": "c"}}]
    assert text.index('"a": "b"') < text.index('"b": "x"') < text.index('"z": "c"')


@settings(max_examples=400, deadline=None)
@given(scan_records(_HOSTILE))
def test_scan_json_writes_the_json_dumps_bytes(records):
    assert cli._render_scan_json(records) == render_scan_json_oracle(records)


def test_scan_json_covers_both_ultracycle_states_and_an_empty_list():
    ultra = PrincipalRisk('sp"n\\\x01é', 3, SCALE // 4, SCALE // 2, 3 * (SCALE // 4))
    plain = PrincipalRisk("spn", 3, SCALE // 4, SCALE // 2, SCALE // 2)
    assert ultra.ultracycle is not None and plain.ultracycle is None
    records = [(ultra, "Tight-III"), (plain, None)]
    assert cli._render_scan_json(records) == render_scan_json_oracle(records)
    assert cli._render_scan_json([]) == render_scan_json_oracle([]) == '{\n  "records": []\n}\n'


def test_scan_command_writes_the_oracle_bytes_for_hostile_ids():
    sub = 's"\\\x02é\U0001f600'
    nodes = (HierarchyNode("root", NodeKind.TENANT_ROOT), HierarchyNode(sub, NodeKind.SUBSCRIPTION, "root"))
    spns = ("a b", 'q"uote', "zero")
    grants = (("ReadBlob", AccessClass.READ, sub), ("WriteBlob", AccessClass.WRITE, "root"))
    assignments = tuple(Assignment(spn, *grant) for spn in spns[:2] for grant in grants)
    snapshot = TenantSnapshot(1, nodes, (), (), spns, assignments)
    result = invoke(["scan", "--format", "json", "-"], input=serialize_snapshot(snapshot))
    assert result.exit_code == 0, result.stderr
    assert result.stdout == render_scan_json_oracle(cli._scan_records(snapshot))


@settings(max_examples=400, deadline=None)
@given(band_reports(_HOSTILE))
@example(([], 0))
def test_band_report_json_writes_the_json_dumps_bytes(report):
    assert render_band_report_json(*report) == render_band_report_json_oracle(*report)


def test_no_module_writes_json_through_json_dumps():
    # every JSON writer is a template over encode_basestring_ascii; json.dumps stays the tests' oracle
    found = []
    for path in sorted(Path(perimetric.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                found += [(path.name, a.name) for a in node.names if a.name in ("dump", "dumps")]
            elif isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps"):
                if isinstance(node.value, ast.Name) and node.value.id == "json":
                    found.append((path.name, f"json.{node.attr}"))
    assert found == []


@pytest.mark.parametrize("depth", [0, 1, 3])
@pytest.mark.parametrize("members", [[], ["x"], ["x", 2, None, []]])
def test_json_block_lays_out_members_as_json_dumps(members, depth):
    block, doc = json_block([json.dumps(m) for m in members], depth), members
    for level in reversed(range(depth)):  # the block's enclosing lists, each with one member
        block, doc = json_block([block], level), [doc]
    assert block == json.dumps(doc, indent=2)


def test_json_block_lays_out_an_object():
    assert json_block([], 2, "{}") == "{}"
    assert json_block(['"a": 1', '"b": []'], 0, "{}") == json.dumps({"a": 1, "b": []}, indent=2)
