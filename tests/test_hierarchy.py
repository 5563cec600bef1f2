import random
from itertools import product

import pytest

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
from perimetric.hierarchy import HierarchyNode, NodeKind, build_tree, lca, lca_level, meet

from helpers import random_nodes, random_tree


def _node(node_id, kind, parent=None):
    return HierarchyNode(node_id, kind, parent)


def test_minimal_tree():
    tree = build_tree([_node("root", NodeKind.TENANT_ROOT)])
    assert tree.parent == {"root": None}
    assert tree.canonical_level["root"] == 0


def test_full_chain_levels():
    nodes = [
        _node("root", NodeKind.TENANT_ROOT),
        _node("mg1", NodeKind.MANAGEMENT_GROUP, "root"),
        _node("mg2", NodeKind.MANAGEMENT_GROUP, "mg1"),
        _node("sub", NodeKind.SUBSCRIPTION, "mg2"),
        _node("rg", NodeKind.RESOURCE_GROUP, "sub"),
        _node("res", NodeKind.RESOURCE, "rg"),
        _node("part", NodeKind.RESOURCE_PART, "res"),
    ]
    tree = build_tree(nodes)
    assert [tree.canonical_level[n.id] for n in nodes] == [0, 1, 2, 7, 8, 9, 10]


def _mg_chain(depth):
    """A tenant root with a chain of `depth` management groups, mg0 at the top."""
    nodes = [_node("root", NodeKind.TENANT_ROOT)]
    parent = "root"
    for i in range(depth):
        nodes.append(_node(f"mg{i}", NodeKind.MANAGEMENT_GROUP, parent))
        parent = f"mg{i}"
    return nodes


def test_mg_chain_of_seven_rejected():
    with pytest.raises(MgDepthExceeded) as caught:
        build_tree(_mg_chain(7))
    assert str(caught.value) == "management group 'mg6' nested 7 deep (limit 6)"


def test_mg_chain_of_six_allowed():
    tree = build_tree(_mg_chain(6))
    assert tree.canonical_level["mg5"] == 6


def test_missing_root():
    with pytest.raises(MissingRoot):
        build_tree([])
    with pytest.raises(MissingRoot):
        build_tree([_node("mg", NodeKind.MANAGEMENT_GROUP, "root")])


def test_multiple_roots():
    with pytest.raises(MultipleRoots):
        build_tree([_node("r1", NodeKind.TENANT_ROOT), _node("r2", NodeKind.TENANT_ROOT)])


def test_unknown_parent():
    with pytest.raises(UnknownParent):
        build_tree([
            _node("root", NodeKind.TENANT_ROOT),
            _node("sub", NodeKind.SUBSCRIPTION, "ghost"),
        ])


def test_illegal_parent_kind():
    with pytest.raises(IllegalParentKind):
        build_tree([
            _node("root", NodeKind.TENANT_ROOT),
            _node("rg", NodeKind.RESOURCE_GROUP, "root"),
        ])
    # a second tenant root is rejected even when it has a parent
    with pytest.raises(MultipleRoots):
        build_tree([
            _node("root", NodeKind.TENANT_ROOT),
            _node("root2", NodeKind.TENANT_ROOT, "root"),
        ])
    # non-root node without a parent
    with pytest.raises(IllegalParentKind):
        build_tree([
            _node("root", NodeKind.TENANT_ROOT),
            _node("sub", NodeKind.SUBSCRIPTION, None),
        ])


def test_cycle_detected():
    # a chain too deep, listed first, still loses to the cycle after it
    with pytest.raises(CycleDetected):
        build_tree([
            *_mg_chain(7),
            _node("a", NodeKind.MANAGEMENT_GROUP, "b"),
            _node("b", NodeKind.MANAGEMENT_GROUP, "a"),
        ])


def test_duplicate_node_id():
    with pytest.raises(DuplicateId):
        build_tree([
            _node("root", NodeKind.TENANT_ROOT),
            _node("x", NodeKind.SUBSCRIPTION, "root"),
            _node("x", NodeKind.SUBSCRIPTION, "root"),
        ])


def test_lca_reflexive():
    tree = random_tree(random.Random(1), max_nodes=20)
    for node_id in tree.parent:
        assert lca(tree, node_id, node_id) == node_id


def test_lca_disjoint_branches_meet_at_root():
    tree = build_tree([
        _node("root", NodeKind.TENANT_ROOT),
        _node("mg1", NodeKind.MANAGEMENT_GROUP, "root"),
        _node("mg2", NodeKind.MANAGEMENT_GROUP, "root"),
        _node("sub1", NodeKind.SUBSCRIPTION, "mg1"),
        _node("sub2", NodeKind.SUBSCRIPTION, "mg2"),
    ])
    assert lca(tree, "sub1", "sub2") == "root"


def test_lca_shared_mg():
    tree = build_tree([
        _node("root", NodeKind.TENANT_ROOT),
        _node("mg1", NodeKind.MANAGEMENT_GROUP, "root"),
        _node("sub1", NodeKind.SUBSCRIPTION, "mg1"),
        _node("sub2", NodeKind.SUBSCRIPTION, "mg1"),
    ])
    assert lca(tree, "sub1", "sub2") == "mg1"


def test_lca_unknown_node():
    tree = build_tree([_node("root", NodeKind.TENANT_ROOT)])
    with pytest.raises(UnknownNode):
        lca(tree, "root", "ghost")


def test_lca_level_same_resource():
    tree = build_tree([
        _node("root", NodeKind.TENANT_ROOT),
        _node("sub", NodeKind.SUBSCRIPTION, "root"),
        _node("rg", NodeKind.RESOURCE_GROUP, "sub"),
        _node("res", NodeKind.RESOURCE, "rg"),
    ])
    assert lca_level(tree, "res", "res") == 9


def test_lca_level_cross_subscription_is_root():
    tree = build_tree([
        _node("root", NodeKind.TENANT_ROOT),
        _node("sub1", NodeKind.SUBSCRIPTION, "root"),
        _node("sub2", NodeKind.SUBSCRIPTION, "root"),
    ])
    assert lca_level(tree, "sub1", "sub2") == 0


def test_lca_level_sibling_resource_groups():
    tree = build_tree([
        _node("root", NodeKind.TENANT_ROOT),
        _node("sub", NodeKind.SUBSCRIPTION, "root"),
        _node("rg1", NodeKind.RESOURCE_GROUP, "sub"),
        _node("rg2", NodeKind.RESOURCE_GROUP, "sub"),
    ])
    assert lca_level(tree, "rg1", "rg2") == 7


def test_lca_with_ancestor_is_ancestor():
    rng = random.Random(5)
    for _ in range(20):
        tree = random_tree(rng, max_nodes=30)
        for node_id, anc in tree.parent.items():
            while anc is not None:
                assert lca(tree, node_id, anc) == anc
                anc = tree.parent[anc]


def test_lca_commutes_and_level_triple_inequality():
    # exhaustive over all triples of a handful of random trees
    rng = random.Random(7)
    for _ in range(5):
        tree = random_tree(rng, max_nodes=15)
        ids = sorted(tree.parent)
        for a, b in product(ids, repeat=2):
            assert lca(tree, a, b) == lca(tree, b, a)
        for a, b, c in product(ids, repeat=3):
            assert lca_level(tree, a, c) >= min(lca_level(tree, a, b), lca_level(tree, b, c))


def _ancestry(tree, node):
    """node and its ancestors, bottom-up."""
    path = [node]
    while (node := tree.parent[node]) is not None:
        path.append(node)
    return path


def test_meet_returns_the_lca_and_the_node_below_it_on_each_side():
    rng = random.Random(13)
    # two subscriptions at level 7, at depths 1 and 7: one under the root, one under six nested MGs
    chain = [_node("root", NodeKind.TENANT_ROOT)]
    for i in range(6):
        chain.append(_node(f"mg{i}", NodeKind.MANAGEMENT_GROUP, chain[-1].id))
    chain += [_node("sub-deep", NodeKind.SUBSCRIPTION, "mg5"), _node("sub-top", NodeKind.SUBSCRIPTION, "root")]
    for tree in [build_tree(chain)] + [random_tree(rng, max_nodes=15) for _ in range(5)]:
        for a, b in product(sorted(tree.parent), repeat=2):
            top, ca, cb = meet(tree, a, b)
            up_a, up_b = _ancestry(tree, a), _ancestry(tree, b)
            assert top == next(node for node in up_a if node in up_b)
            for side, below in ((a, ca), (b, cb)):
                if side == top:
                    assert below is None
                else:
                    assert tree.parent[below] == top
                    assert below in _ancestry(tree, side)
            if ca is not None and cb is not None:
                assert ca != cb
    with pytest.raises(UnknownNode):
        meet(tree, "root", "ghost")


def test_canonical_level_follows_kind():
    rng = random.Random(11)
    fixed = {
        NodeKind.TENANT_ROOT: 0,
        NodeKind.SUBSCRIPTION: 7,
        NodeKind.RESOURCE_GROUP: 8,
        NodeKind.RESOURCE: 9,
        NodeKind.RESOURCE_PART: 10,
    }
    for _ in range(20):
        nodes = random_nodes(rng, max_nodes=40)
        tree = build_tree(nodes)
        for node in nodes:
            if node.kind is NodeKind.MANAGEMENT_GROUP:
                assert 1 <= tree.canonical_level[node.id] <= 6
                assert tree.canonical_level[node.id] == len(_ancestry(tree, node.id)) - 1
            else:
                assert tree.canonical_level[node.id] == fixed[node.kind]
