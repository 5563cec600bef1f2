"""Plain records are tuples of their fields, two classes stay dataclasses, AccessClass hashes by identity."""

import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import perimetric
from perimetric.hierarchy import HierarchyNode, NodeKind
from perimetric.ingestion import AlternateHierarchy, Assignment, Group
from perimetric.metric import AccessClass, DistanceModel, Grant
from perimetric.perimeter import PrincipalRisk, Tour
from perimetric.ranking import Band, BandReportRow, Regime

READ = AccessClass.READ

texts = st.text(min_size=1, max_size=4)
accesses = st.sampled_from(AccessClass)
fractions = st.fractions(min_value=0, max_value=1, max_denominator=64)
bands = st.builds(Band, fractions, st.integers(0, 10), accesses)

RECORDS = [
    (Grant, ("action", "access", "scope"), st.tuples(texts, accesses, texts)),
    (Assignment, ("principal", "action", "access", "scope"), st.tuples(texts, texts, accesses, texts)),
    (HierarchyNode, ("id", "kind", "parent"), st.tuples(texts, st.sampled_from(NodeKind), st.none() | texts)),
    (
        PrincipalRisk,
        ("spn", "n", "radius", "length", "pair_sum"),
        st.tuples(texts, *[st.integers(0, 3)] * 4),
    ),
    (Group, ("id", "members"), st.tuples(texts, st.lists(texts, max_size=3).map(tuple))),
    (
        AlternateHierarchy,
        ("name", "parents"),
        st.tuples(texts, st.lists(st.tuples(texts, texts), max_size=3).map(tuple)),
    ),
    # any hashable hierarchy makes a record of one field; a call would need a tree
    (DistanceModel, ("hierarchy",), st.tuples(texts)),
    (Tour, ("order", "length"), st.tuples(st.lists(st.integers(0, 5), max_size=4).map(tuple), fractions)),
    (Band, ("value", "level", "access"), st.tuples(fractions, st.integers(0, 10), accesses)),
    (
        BandReportRow,
        ("label", "spn_count", "avg_spread_ratio", "regime", "band"),
        st.tuples(texts, st.integers(0, 5), fractions, st.sampled_from(Regime), st.none() | bands),
    ),
]


@pytest.mark.parametrize("record, fields, values", RECORDS, ids=[r[0].__name__ for r in RECORDS])
@given(data=st.data())
def test_record_is_a_tuple_of_its_fields(record, fields, values, data):
    first, second = data.draw(values), data.draw(values)
    built = record(*first)
    assert record._fields == fields
    assert built == record(**dict(zip(fields, first))) == first
    assert tuple(built) == first
    assert [getattr(built, name) for name in fields] == list(first)
    assert repr(built) == f"{record.__name__}({', '.join(f'{n}={v!r}' for n, v in zip(fields, first))})"
    assert (built == record(*second)) == (first == second)
    if built == record(*second):
        assert hash(built) == hash(record(*second))
    assert hash(built) == hash(first)
    assert pickle.loads(pickle.dumps(built)) == built


def test_reprs_read_as_before():
    assert repr(Grant("ReadBlob", READ, "sub")) == (
        "Grant(action='ReadBlob', access=<AccessClass.READ: 'read'>, scope='sub')"
    )
    assert repr(PrincipalRisk("svc", 1, 0, 0, 0)) == (
        "PrincipalRisk(spn='svc', n=1, radius=0, length=0, pair_sum=0)"
    )
    assert repr(DistanceModel("tree")) == "DistanceModel(hierarchy='tree')"
    assert repr(HierarchyNode("sub", NodeKind.SUBSCRIPTION, "root")) == (
        "HierarchyNode(id='sub', kind=<NodeKind.SUBSCRIPTION: 'subscription'>, parent='root')"
    )
    assert repr(HierarchyNode("root", NodeKind.TENANT_ROOT)) == (
        "HierarchyNode(id='root', kind=<NodeKind.TENANT_ROOT: 'tenant_root'>, parent=None)"
    )
    assert repr(Band(Fraction(1, 2), 0, READ)) == (
        "Band(value=Fraction(1, 2), level=0, access=<AccessClass.READ: 'read'>)"
    )


def test_only_two_classes_stay_dataclasses():
    probe = (
        "import dataclasses, inspect, json, sys; import perimetric.cli; "
        "print(json.dumps(sorted(name for module in list(sys.modules) if module.startswith('perimetric') "
        "for name, cls in inspect.getmembers(sys.modules[module], inspect.isclass) "
        "if cls.__module__ == module and dataclasses.is_dataclass(cls))))"
    )
    src = str(Path(perimetric.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, check=True, timeout=60)
    assert json.loads(result.stdout) == sorted(["HierarchyFamily", "TenantSnapshot"])


def test_access_class_hash_agrees_with_equality():
    for access in AccessClass:
        copy = pickle.loads(pickle.dumps(access))
        assert copy is access and copy == access and hash(copy) == hash(access)
        assert {access: 1}[copy] == 1
        assert AccessClass(access.value) is access
    assert AccessClass.READ != AccessClass.WRITE
    assert len({AccessClass.READ, AccessClass.WRITE, pickle.loads(pickle.dumps(AccessClass.READ))}) == 2
