import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perimetric.errors import UnknownNode
from perimetric.hierarchy import HierarchyNode, NodeKind, build_tree
from perimetric.metric import (
    AccessClass,
    DistanceModel,
    EffectiveDistance,
    Grant,
    HierarchyFamily,
    check_ultrametricity,
    distance,
    effective_distance,
    infimum_distance,
    pair_impact,
    raw_violates,
)

from helpers import chain_nodes, chain_tree, grants_at, random_grants, random_tree

READ = AccessClass.READ
WRITE = AccessClass.WRITE

# every distance a default-weight tenant can produce
CANONICAL_VALUES = {
    Fraction(i, 1 << (2 * level + 1)) for i in (1, 2) for level in range(11)
} | {Fraction(0)}


def test_pair_impact():
    a = Grant("a", READ, "s")
    b = Grant("b", WRITE, "s")
    assert pair_impact(a, a) == 1
    assert pair_impact(a, b) == 2
    assert pair_impact(b, b) == 2


def test_identical_grants_distance_zero():
    tree, scopes = chain_tree()
    g = Grant("a", READ, scopes[9])
    assert distance(g, g, tree) == 0


def test_tenant_wide_write_distance_is_one():
    tree = build_tree([
        HierarchyNode("root", NodeKind.TENANT_ROOT),
        HierarchyNode("sub1", NodeKind.SUBSCRIPTION, "root"),
        HierarchyNode("sub2", NodeKind.SUBSCRIPTION, "root"),
    ])
    a = Grant("WriteBlob", WRITE, "sub1")
    b = Grant("WriteSecret", WRITE, "sub2")
    assert distance(a, b, tree) == 1


def test_read_pair_on_same_resource_parts():
    scopes = chain_tree()[1]
    parts = build_tree(chain_nodes() + [HierarchyNode("part-b", NodeKind.RESOURCE_PART, scopes[9])])
    a = Grant("ReadBlob", READ, scopes[10])
    b = Grant("ReadBlob", READ, "part-b")
    assert distance(a, b, parts) == Fraction(1, 2**19)


def test_same_scope_distinct_grants_use_scope_level():
    tree, scopes = chain_tree()
    a = Grant("ReadBlob", READ, scopes[9])
    b = Grant("ReadSecret", READ, scopes[9])
    assert distance(a, b, tree) == Fraction(1, 2**19)


def test_distance_unknown_scope():
    tree, _ = chain_tree()
    a = Grant("a", READ, "ghost")
    b = Grant("b", READ, "lvl00")
    with pytest.raises(UnknownNode):
        distance(a, b, tree)


@pytest.mark.parametrize(
    "unknown, named",
    [([Grant("w", WRITE, "ghost")], "ghost"), ([Grant("x", READ, "phantom"), Grant("w", WRITE, "ghost")], "phantom")],
    ids=["write", "read-then-write"],
)
def test_closure_over_an_unknown_scope_raises_unknown_node(unknown, named):
    tree, level = chain_tree()
    known = [Grant("r", READ, level[3]), Grant("s", READ, level[5])]
    grants = [known[0], *unknown, known[1]]
    dist = EffectiveDistance(grants, tree)  # scopes are checked by the queries, not on construction
    queries = (
        lambda: dist(*known),
        lambda: dist.geometry(known),  # a proper subset reads the dirty set
        lambda: dist.geometry(grants),
        lambda: raw_violates(grants, tree),
    )
    for query in queries:  # the first unknown scope in the set, never a KeyError
        with pytest.raises(UnknownNode) as caught:
            query()
        assert str(caught.value) == f"node {named!r} not in tree"


def _counterexample_family():
    base = [
        HierarchyNode("root", NodeKind.TENANT_ROOT),
        HierarchyNode("sub-a", NodeKind.SUBSCRIPTION, "root"),
        HierarchyNode("rg-1", NodeKind.RESOURCE_GROUP, "sub-a"),
        HierarchyNode("rg-2", NodeKind.RESOURCE_GROUP, "sub-a"),
    ]
    native = build_tree(base + [
        HierarchyNode("res-x", NodeKind.RESOURCE, "rg-1"),
        HierarchyNode("res-y", NodeKind.RESOURCE, "rg-1"),
        HierarchyNode("res-z", NodeKind.RESOURCE, "rg-2"),
    ])
    reorg = build_tree(base + [
        HierarchyNode("res-x", NodeKind.RESOURCE, "rg-2"),
        HierarchyNode("res-y", NodeKind.RESOURCE, "rg-1"),
        HierarchyNode("res-z", NodeKind.RESOURCE, "rg-1"),
    ])
    return HierarchyFamily(native=native, alternates=(("reorg", reorg),))


def test_infimum_singleton_family_equals_native():
    tree, scopes = chain_tree()
    family = HierarchyFamily(native=tree)
    a = Grant("a", READ, scopes[9])
    b = Grant("b", WRITE, scopes[10])
    assert infimum_distance(a, b, family) == distance(a, b, tree)


def test_infimum_takes_pointwise_minimum():
    family = _counterexample_family()
    x = Grant("x", READ, "res-x")
    y = Grant("y", WRITE, "res-y")
    z = Grant("z", READ, "res-z")
    assert infimum_distance(x, y, family) == Fraction(1, 2**16)
    assert infimum_distance(y, z, family) == Fraction(1, 2**16)
    assert infimum_distance(x, z, family) == Fraction(1, 2**15)


def test_infimum_never_exceeds_any_member():
    family = _counterexample_family()
    grants = [
        Grant("x", READ, "res-x"),
        Grant("y", WRITE, "res-y"),
        Grant("z", READ, "res-z"),
    ]
    for a, b in combinations(grants, 2):
        inf = infimum_distance(a, b, family)
        for _, tree in family.members():
            assert inf <= distance(a, b, tree)


def test_infimum_unknown_scope_names_hierarchy():
    tree, _ = chain_tree()
    family = HierarchyFamily(native=tree)
    with pytest.raises(UnknownNode, match="native"):
        infimum_distance(Grant("a", READ, "ghost"), Grant("b", READ, "lvl00"), family)


def test_alternate_reparenting_can_lower_distance():
    base = [
        HierarchyNode("root", NodeKind.TENANT_ROOT),
        HierarchyNode("sub", NodeKind.SUBSCRIPTION, "root"),
        HierarchyNode("rg-1", NodeKind.RESOURCE_GROUP, "sub"),
        HierarchyNode("rg-2", NodeKind.RESOURCE_GROUP, "sub"),
    ]
    native = build_tree(base + [
        HierarchyNode("res-1", NodeKind.RESOURCE, "rg-1"),
        HierarchyNode("res-2", NodeKind.RESOURCE, "rg-2"),
    ])
    merged = build_tree(base + [
        HierarchyNode("res-1", NodeKind.RESOURCE, "rg-1"),
        HierarchyNode("res-2", NodeKind.RESOURCE, "rg-1"),
    ])
    a = Grant("a", READ, "res-1")
    b = Grant("b", READ, "res-2")
    family = HierarchyFamily(native=native, alternates=(("merged", merged),))
    assert distance(a, b, native) == Fraction(1, 2**15)  # meet at the subscription
    assert infimum_distance(a, b, family) == Fraction(1, 2**17)  # meet at the merged rg


def test_family_requires_same_node_set():
    tree, _ = chain_tree()
    other = build_tree([HierarchyNode("root2", NodeKind.TENANT_ROOT)])
    with pytest.raises(ValueError):
        HierarchyFamily(native=tree, alternates=(("bad", other),))


def test_family_rejects_a_repeated_alternate_name():
    tree, _ = chain_tree()
    with pytest.raises(ValueError, match="^alternate hierarchy name 'a' repeated$"):
        HierarchyFamily(native=tree, alternates=(("a", tree), ("a", tree)))


def test_check_ultrametricity_pointwise_minimum_literal():
    # pointwise minimum of two 3-point ultrametrics: d = (1, 1, 2)
    table = {
        frozenset(("x", "y")): 1,
        frozenset(("y", "z")): 1,
        frozenset(("x", "z")): 2,
    }
    points = ["x", "y", "z"]
    violations = check_ultrametricity(points, lambda a, b: table[frozenset((a, b))])
    assert violations == [(0, 1, 2)]


def test_check_ultrametricity_on_family_infimum():
    family = _counterexample_family()
    grants = [
        Grant("x", READ, "res-x"),
        Grant("y", WRITE, "res-y"),
        Grant("z", READ, "res-z"),
    ]
    assert check_ultrametricity(grants, DistanceModel(family)) == [(0, 1, 2)]


def test_check_ultrametricity_trivial_cases():
    tree, scopes = chain_tree()
    dist = DistanceModel(tree)
    assert check_ultrametricity(grants_at(scopes[9], 2), dist) == []
    assert check_ultrametricity([], dist) == []


def test_check_ultrametricity_respects_limit():
    # every triple violates: d grows with index distance
    points = list(range(8))
    dist = lambda a, b: abs(a - b)
    capped = check_ultrametricity(points, dist, limit=5)
    assert len(capped) == 5
    assert len(check_ultrametricity(points, dist, limit=1000)) > 5
    assert check_ultrametricity(points, dist, limit=0) == []


def test_effective_distances_are_ultrametric_fuzz():
    rng = random.Random(13)
    for _ in range(25):
        tree = random_tree(rng)
        grants = random_grants(rng, tree, rng.randint(3, 25))
        assert check_ultrametricity(grants, effective_distance(grants, tree)) == []


def test_raw_distance_breaks_ultrametricity_on_mixed_access():
    # a write grant riding next to a read grant defeats the raw pair formula;
    # the effective (closure) distance repairs exactly this
    scopes = chain_tree()[1]
    extra = build_tree(chain_nodes() + [HierarchyNode("sub-b", NodeKind.SUBSCRIPTION, scopes[6])])
    x = Grant("x", READ, scopes[9])
    y = Grant("y", WRITE, scopes[9])
    z = Grant("z", READ, "sub-b")
    raw = DistanceModel(extra)
    assert check_ultrametricity([x, y, z], raw) != []
    closed = effective_distance([x, y, z], extra)
    assert check_ultrametricity([x, y, z], closed) == []
    # the repair never touches the diameter
    raw_diameter = max(raw(a, b) for a, b in combinations((x, y, z), 2))
    closed_diameter = max(closed(a, b) for a, b in combinations((x, y, z), 2))
    assert raw_diameter == closed_diameter


def test_effective_distance_matches_raw_on_uniform_access():
    rng = random.Random(29)
    for _ in range(10):
        tree = random_tree(rng)
        grants = [
            Grant(f"a{i:02d}", READ, scope)
            for i, scope in enumerate(rng.choices(sorted(tree.parent), k=8))
        ]
        raw = DistanceModel(tree)
        closed = effective_distance(grants, tree)
        for a, b in combinations(grants, 2):
            assert closed(a, b) == raw(a, b)


def test_effective_distance_preserves_diameter_fuzz():
    rng = random.Random(31)
    for _ in range(40):
        tree = random_tree(rng)
        grants = random_grants(rng, tree, rng.randint(2, 12))
        raw = DistanceModel(tree)
        closed = effective_distance(grants, tree)
        pairs = list(combinations(grants, 2))
        assert max(closed(a, b) for a, b in pairs) == max(raw(a, b) for a, b in pairs)
        # the closure only ever raises a pair, never lowers it
        for a, b in pairs:
            assert closed(a, b) >= raw(a, b)


def test_distance_values_live_in_band_census_fuzz():
    rng = random.Random(17)
    for _ in range(20):
        tree = random_tree(rng)
        grants = random_grants(rng, tree, 12)
        dist = DistanceModel(tree)
        for a, b in combinations(grants, 2):
            assert dist(a, b) in CANONICAL_VALUES


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 10))
def test_distance_symmetry_and_identity(seed, n):
    rng = random.Random(seed)
    tree = random_tree(rng, max_nodes=20)
    grants = random_grants(rng, tree, n)
    dist = DistanceModel(tree)
    for a, b in combinations(grants, 2):
        assert dist(a, b) == dist(b, a)
        assert dist(a, b) > 0  # distinct grants never coincide
    for g in grants:
        assert dist(g, g) == 0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_strong_triangle_inequality_exact(seed):
    rng = random.Random(seed)
    tree = random_tree(rng, max_nodes=25)
    grants = random_grants(rng, tree, 6)
    dist = effective_distance(grants, tree)
    for x, y, z in combinations(grants, 3):
        assert dist(x, z) <= max(dist(x, y), dist(y, z))
