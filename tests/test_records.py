"""Grant, Assignment and PrincipalRisk are tuples of their fields; AccessClass hashes by identity."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from perimetric import kernels
from perimetric.ingestion import Assignment
from perimetric.metric import AccessClass, Grant
from perimetric.perimeter import PrincipalRisk

READ = AccessClass.READ

texts = st.text(min_size=1, max_size=4)
accesses = st.sampled_from(AccessClass)

RECORDS = [
    (Grant, ("action", "access", "scope"), st.tuples(texts, accesses, texts)),
    (Assignment, ("principal", "action", "access", "scope"), st.tuples(texts, texts, accesses, texts)),
    (
        PrincipalRisk,
        ("spn", "n", "radius", "length", "pair_sum", "unit"),
        st.tuples(texts, *[st.integers(0, 3)] * 4, st.sampled_from([kernels.SCALE, 3])),
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
        f"PrincipalRisk(spn='svc', n=1, radius=0, length=0, pair_sum=0, unit={kernels.SCALE})"
    )


def test_access_class_hash_agrees_with_equality():
    for access in AccessClass:
        copy = pickle.loads(pickle.dumps(access))
        assert copy is access and copy == access and hash(copy) == hash(access)
        assert {access: 1}[copy] == 1
        assert AccessClass(access.value) is access
    assert AccessClass.READ != AccessClass.WRITE
    assert len({AccessClass.READ, AccessClass.WRITE, pickle.loads(pickle.dumps(AccessClass.READ))}) == 2
