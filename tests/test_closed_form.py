"""Closed forms and fast scans against the oracles they replace.

assess_principal reads an EffectiveDistance through its dendrogram; the
matrix path (any other callable) and the exhaustive tour are the
references. The integer record, its ranking, banding and rendering are
checked against the Fraction arithmetic they replace, and the integer
tour kernels, on tables of values on the 2**-21 grid, against Fraction loops.
check_ultrametricity's bitset scan is checked against the plain cubic
loop, DistanceModel's integer matrix against the Fraction matrix of
per-pair calls, the cells check-family prints from its matrix over the
named grants against the family distance of each pair, raw_violates against a full triple scan of the raw
distances, and the family distance against the minimum over the family.
EffectiveDistance.geometry is checked against the merge list of the walk to
the tree root it replaced, on the closure's whole set and on subsets of it,
where assess_principal's closed form also meets the matrix path and the
exhaustive tour; the closed form is also checked against reorderings of its
input. EffectiveDistance.tour is checked against the nearest-neighbor tour
it replaces, and its edges against the closed form's length.
"""

import json
import random
import re
from fractions import Fraction
from functools import partial, reduce
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from perimetric import kernels
from perimetric.errors import UnbandableRadius, UnknownNode
from perimetric.hierarchy import MAX_MG_DEPTH, HierarchyNode, NodeKind, build_tree, lca
from perimetric.metric import (
    AccessClass,
    DistanceModel,
    EffectiveDistance,
    Grant,
    HierarchyFamily,
    check_ultrametricity,
    distance,
    effective_distance,
    raw_violates,
)
from perimetric.perimeter import (
    BRUTE_FORCE_LIMIT,
    Tour,
    assess_principal,
    brute_force_tour,
    nn_tour,
    sorted_grants,
)
from perimetric.ranking import band_of, enumerate_bands, rank_spns
from perimetric.render import format_fixed, fraction_str

from helpers import (
    band_of_linear,
    chain_tree,
    format_fixed_fraction,
    fraction_assess,
    fraction_brute_force,
    fraction_nn_tour,
    fraction_rank,
    invoke,
    merges_geometry,
    merges_oracle,
    random_grants,
    random_tree,
    triple_violations_cubic,
)

READ = AccessClass.READ
WRITE = AccessClass.WRITE

_CHILD_KINDS = {
    NodeKind.TENANT_ROOT: (NodeKind.MANAGEMENT_GROUP, NodeKind.SUBSCRIPTION),
    NodeKind.MANAGEMENT_GROUP: (NodeKind.MANAGEMENT_GROUP, NodeKind.SUBSCRIPTION),
    NodeKind.SUBSCRIPTION: (NodeKind.RESOURCE_GROUP,),
    NodeKind.RESOURCE_GROUP: (NodeKind.RESOURCE,),
    NodeKind.RESOURCE: (NodeKind.RESOURCE_PART,),
    NodeKind.RESOURCE_PART: (),
}


@st.composite
def random_node_lists(draw):
    """The nodes of a random valid tenant tree, root first."""
    nodes = [HierarchyNode("root", NodeKind.TENANT_ROOT)]
    mg_depth = {"root": 0}
    for i in range(draw(st.integers(0, 16))):
        parent = nodes[draw(st.integers(0, len(nodes) - 1))]
        kinds = [
            kind
            for kind in _CHILD_KINDS[parent.kind]
            if kind is not NodeKind.MANAGEMENT_GROUP or mg_depth[parent.id] < MAX_MG_DEPTH
        ]
        if not kinds:
            continue
        node = HierarchyNode(f"n{i:02d}", draw(st.sampled_from(kinds)), parent.id)
        if node.kind is NodeKind.MANAGEMENT_GROUP:
            mg_depth[node.id] = mg_depth[parent.id] + 1
        nodes.append(node)
    return nodes


def random_trees():
    return random_node_lists().map(build_tree)


def grant_lists(tree, max_size=BRUTE_FORCE_LIMIT + 2):
    # few actions, so duplicates and same-scope read/write pairs are common
    return st.lists(
        st.builds(
            Grant,
            action=st.sampled_from("abc"),
            access=st.sampled_from(AccessClass),
            scope=st.sampled_from(sorted(tree.parent)),
        ),
        max_size=max_size,
    )


@st.composite
def instances(draw, max_size=BRUTE_FORCE_LIMIT + 2):
    # the maximal chain has six nested management groups and every kind
    tree = draw(st.one_of(st.just(chain_tree()[0]), random_trees()))
    grants = draw(grant_lists(tree, max_size))
    return tree, grants


@st.composite
def families(draw, native_nodes=None):
    """A random tree (or one built from `native_nodes`) plus one to three alternates, each moving
    some subscriptions, resource groups, resources and parts under another node of a legal parent kind."""
    if native_nodes is None:
        native_nodes = draw(random_node_lists())
    of_kind = {kind: [n.id for n in native_nodes if n.kind is kind] for kind in NodeKind}
    legal = {
        NodeKind.SUBSCRIPTION: of_kind[NodeKind.TENANT_ROOT] + of_kind[NodeKind.MANAGEMENT_GROUP],
        NodeKind.RESOURCE_GROUP: of_kind[NodeKind.SUBSCRIPTION],
        NodeKind.RESOURCE: of_kind[NodeKind.RESOURCE_GROUP],
        NodeKind.RESOURCE_PART: of_kind[NodeKind.RESOURCE],
    }
    alternates = []
    for index in range(draw(st.integers(1, 3))):
        nodes = []
        for node in native_nodes:
            parent = node.parent
            if node.kind in legal and draw(st.booleans()):
                parent = draw(st.sampled_from(legal[node.kind]))
            nodes.append(HierarchyNode(node.id, node.kind, parent))
        alternates.append((f"alt{index}", build_tree(nodes)))
    return HierarchyFamily(native=build_tree(native_nodes), alternates=tuple(alternates))


@settings(max_examples=400, deadline=None)
@given(instances())
def test_closed_form_matches_matrix_path_and_exhaustive_tour(instance):
    tree, grants = instance
    dist = effective_distance(grants, tree)
    closed = assess_principal("spn", grants, dist)
    # a plain callable is not an EffectiveDistance, so it takes the matrix path
    assert closed == assess_principal("spn", grants, lambda a, b: dist(a, b))
    items = sorted_grants(grants)
    if 1 <= len(items) <= BRUTE_FORCE_LIMIT:
        assert closed.perimeter == brute_force_tour(items, dist)


_PUBLIC_FIELDS = ("spn", "n", "blast_radius", "perimeter", "mean_distance", "spread_ratio", "ultracycle")


@st.composite
def principal_sets(draw):
    """One tree, and one to five principals of 0 to 16 grants on it."""
    tree = draw(st.one_of(st.just(chain_tree()[0]), random_trees()))
    grant_sets = draw(st.lists(grant_lists(tree, max_size=16), min_size=1, max_size=5))
    return tree, grant_sets


# root -> management group n00 (level 1) and root -> subscription n01 (level 7), a read
# on each, radius 1/2: the fold takes n01, then n00, then the root, by level, while
# merges_oracle takes n00 and n01 together, by the depth it counts itself
_MG_BESIDE_SUBSCRIPTION = (
    build_tree([
        HierarchyNode("root", NodeKind.TENANT_ROOT),
        HierarchyNode("n00", NodeKind.MANAGEMENT_GROUP, "root"),
        HierarchyNode("n01", NodeKind.SUBSCRIPTION, "root"),
    ]),
    [[Grant("a", READ, "n00"), Grant("a", READ, "n01")]],
)


@settings(max_examples=400, deadline=None)
@given(principal_sets())
@example(_MG_BESIDE_SUBSCRIPTION)
def test_integer_record_matches_fraction_oracle(case):
    tree, grant_sets = case
    bands = enumerate_bands()
    for closed_form in (True, False):
        risks, oracles = [], []
        for index, grants in enumerate(grant_sets):
            dist = effective_distance(grants, tree)
            if not closed_form:
                dist = lambda a, b, dist=dist: dist(a, b)  # noqa: E731
            risk = assess_principal(f"s{index}", grants, dist)
            oracle = fraction_assess(f"s{index}", grants, dist)
            for field in _PUBLIC_FIELDS:
                assert getattr(risk, field) == getattr(oracle, field), field
            assert band_of(risk.radius, kernels.SCALE) == band_of_linear(oracle.blast_radius, bands)
            risks.append(risk)
            oracles.append(oracle)
        assert [r.spn for r in rank_spns(risks)] == [r.spn for r in fraction_rank(oracles)]


def test_non_dyadic_table_stays_exact():
    # a table of thirds or fifths is refused, never rounded onto the 2**-21
    # grid: the closed form's generic path and the ultrametricity check raise
    thirds = {frozenset(pair): Fraction(1, 3) for pair in ((0, 1), (1, 2), (0, 2))}
    mixed = {frozenset((0, 1)): Fraction(1, 3), frozenset((1, 2)): Fraction(1, 5), frozenset((0, 2)): Fraction(1, 8)}
    for table in (thirds, mixed):
        dist = lambda a, b, table=table: table[frozenset((a, b))]  # noqa: E731
        float_dist = lambda a, b, dist=dist: float(dist(a, b))  # noqa: E731
        for call in (partial(assess_principal, "t"), check_ultrametricity):
            with pytest.raises(ValueError, match="distance 1/3 is not a whole number of 2\\*\\*-21 units"):
                call([0, 1, 2], dist)
            with pytest.raises(TypeError):
                call([0, 1, 2], float_dist)
    # records on the grid rank as on Fraction keys
    tree, scopes = chain_tree()
    dyadic = [Grant("a", READ, scopes[0]), Grant("b", WRITE, scopes[1])]
    ranked = [assess_principal(spn, dyadic, effective_distance(dyadic, tree)) for spn in ("d1", "d0")]
    assert [r.spn for r in rank_spns(ranked)] == ["d0", "d1"]
    assert rank_spns(ranked) == fraction_rank(ranked)
    # a band is found whatever the unit; radius 1/3 is in no band
    assert band_of(3 * kernels.SCALE, 3 * kernels.SCALE) == band_of_linear(1, enumerate_bands())
    with pytest.raises(UnbandableRadius, match="radius 1/3 is not"):
        band_of(Fraction(1, 3))
    with pytest.raises(UnbandableRadius, match="radius 1/3 is not"):
        band_of(kernels.SCALE, 3 * kernels.SCALE)


# Distances of every kind the matrix path scales onto the 2**-21 grid: dyadics
# down to 2**-21, plain ints, and ints of 2**40 and above. Values off the grid
# are rejected (test_non_dyadic_table_stays_exact, and in test_kernels.py).
_TABLE_VALUES = st.one_of(
    st.builds(Fraction, st.integers(0, 2**22), st.sampled_from([2**e for e in range(22)])),
    st.integers(0, 100),
    st.integers(2**40, 2**64),
)


@st.composite
def symmetric_tables(draw):
    """n in 1..8 points and a symmetric distance table over them, with ties.

    Each cell is drawn from a small palette, so equal distances (tie-breaks)
    and all-equal tables (ultracycles) come up often.
    """
    n = draw(st.integers(1, 8))
    palette = draw(st.lists(_TABLE_VALUES, min_size=1, max_size=5))
    table = {frozenset((i, j)): draw(st.sampled_from(palette)) for i in range(n) for j in range(i + 1, n)}
    return n, table


@settings(max_examples=300, deadline=None)
@given(symmetric_tables())
def test_integer_kernels_match_fraction_oracles(case):
    n, table = case
    points = list(range(n))
    dist = lambda a, b: table[frozenset((a, b))]  # noqa: E731
    flat = kernels.build_matrix(points, dist)
    for start in points:
        assert nn_tour(points, dist, start) == Tour(*fraction_nn_tour(flat, n, start))
    assert brute_force_tour(points, dist) == fraction_brute_force(flat, n)
    for cap in (1, 7, 100):
        assert check_ultrametricity(points, dist, limit=cap) == triple_violations_cubic(flat, n, cap)
    risk = assess_principal("t", points, dist)
    oracle = fraction_assess("t", points, dist)
    for field in _PUBLIC_FIELDS:
        assert getattr(risk, field) == getattr(oracle, field), field
    float_dist = lambda a, b: float(dist(a, b))  # noqa: E731
    if n >= 2:
        for call in (nn_tour, brute_force_tour, partial(assess_principal, "t")):
            with pytest.raises(TypeError):
                call(points, float_dist)
    if n >= 3:
        with pytest.raises(TypeError):
            check_ultrametricity(points, float_dist)


@settings(max_examples=400, deadline=None)
@given(
    st.integers(0, 10**12),
    st.integers(1, 10**12),
    st.integers(1, 10**6),
)
def test_format_fixed_on_unreduced_parts_matches_fraction_oracle(num, den, k):
    value = Fraction(num, den)
    assert format_fixed(num * k, den * k) == format_fixed_fraction(value)
    assert format_fixed(value) == format_fixed_fraction(value)
    assert format_fixed(value, k) == format_fixed_fraction(value / k)
    assert fraction_str(num * k, den * k) == str(value)
    assert fraction_str(value) == str(value) and fraction_str(value, k) == str(value / k)
    # an exact tie at the last digit, unreduced: half-to-even on both
    tie = 2 * (num % 10**7) + 1, 2 * 10**6
    assert format_fixed(tie[0] * k, tie[1] * k) == format_fixed_fraction(Fraction(*tie))


@settings(max_examples=400, deadline=None)
@given(instances(max_size=16))
def test_raw_violates_matches_triple_scan_of_raw_distances(instance):
    tree, grants = instance
    scanned = check_ultrametricity(grants, DistanceModel(tree), limit=1)
    assert raw_violates(grants, tree) == bool(scanned)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_infimum_is_the_minimum_over_the_family(data):
    family = data.draw(families())
    grants = data.draw(grant_lists(family.native))
    for a in grants:
        for b in grants:
            expected = min(distance(a, b, tree) for _, tree in family.members())
            assert distance(a, b, family) == expected


@st.composite
def distance_models(draw):
    """A DistanceModel over a family or a bare tree, and grants on its nodes."""
    hierarchy = draw(st.one_of(families(), random_trees(), st.just(chain_tree()[0])))
    tree = hierarchy.native if isinstance(hierarchy, HierarchyFamily) else hierarchy
    return DistanceModel(hierarchy), draw(grant_lists(tree, max_size=16))


@settings(max_examples=400, deadline=None)
@given(distance_models())
def test_integer_path_matches_per_pair_calls(case):
    dist, grants = case
    assert dist.matrix(grants) == kernels.try_scale(kernels.build_matrix(grants, dist))
    # a plain callable is not a DistanceModel, so it takes the generic path
    for cap in (1, 7, 100):
        assert check_ultrametricity(grants, dist, limit=cap) == check_ultrametricity(
            grants, lambda a, b: dist(a, b), limit=cap
        )


_PRINTED_TRIPLE = re.compile(
    r"  d3\((\w+), (\w+)\) = ([\d/]+), d3\(\2, (\w+)\) = ([\d/]+), d3\(\1, \4\) = ([\d/]+) \(unit: ([\d/]+)\)"
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_check_family_prints_the_infimum_distances_of_the_grants_it_names(data):
    # check-family prints each cell from a matrix over the named grants; the reference is one
    # distance call over the family per pair, and each grant has its own action, so a line names its grants
    native_nodes = data.draw(random_node_lists())
    family = data.draw(families(native_nodes))
    moves = [
        {node: parent for node, parent in tree.parent.items() if parent != family.native.parent[node]}
        for _, tree in family.alternates
    ]
    assume(any(moves))
    drawn = data.draw(st.lists(
        st.tuples(st.sampled_from(AccessClass), st.sampled_from(sorted(family.native.parent))), min_size=3, max_size=12
    ))
    by_action = {f"g{i:02d}": Grant(f"g{i:02d}", access, scope) for i, (access, scope) in enumerate(drawn)}
    doc = {
        "version": 1,
        "hierarchy": [{"id": n.id, "kind": n.kind.value, **({"parent": n.parent} if n.parent else {})}
                      for n in native_nodes],
        "alternates": [{"name": name, "parents": moved} for (name, _), moved in zip(family.alternates, moves)],
        "spns": ["svc"],
        "assignments": [{"principal": "svc", "action": g.action, "access": g.access.value, "scope": g.scope}
                        for g in by_action.values()],
    }
    result = invoke(["check-family", "-"], input=json.dumps(doc))
    printed = [_PRINTED_TRIPLE.fullmatch(line) for line in result.stdout.splitlines() if line.startswith("  d3(")]
    assert all(printed)
    assert result.exit_code == (1 if printed else 0)
    if printed:
        assert f"spn svc: {len(printed)} violating triple(s)" in result.stdout
    for match in printed:
        i, j, d_ij, k, d_jk, d_ik, unit = match.groups()
        a, b, c = by_action[i], by_action[j], by_action[k]
        inf_ij, inf_jk, inf_ik = (distance(x, y, family) for x, y in ((a, b), (b, c), (a, c)))
        least = min(inf_ij, inf_jk, inf_ik)
        assert Fraction(unit) == least
        assert (Fraction(d_ij), Fraction(d_jk), Fraction(d_ik)) == (inf_ij / least, inf_jk / least, inf_ik / least)
        assert inf_ik > max(inf_ij, inf_jk)


@pytest.mark.parametrize("hierarchy", ["tree", "family"])
def test_integer_matrix_names_the_first_unknown_scope(hierarchy):
    tree = chain_tree()[0]
    dist = DistanceModel(HierarchyFamily(tree, (("copy", tree),)) if hierarchy == "family" else tree)
    grants = [Grant("a", READ, "lvl03"), Grant("b", READ, "ghost"), Grant("c", WRITE, "phantom")]
    messages = []
    for call in (dist, lambda a, b: dist(a, b)):
        with pytest.raises(UnknownNode) as caught:
            check_ultrametricity(grants, call)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert "'ghost'" in messages[0]
    assert ("(hierarchy 'native')" in messages[0]) == (hierarchy == "family")
    # equal points are at 0 without a lookup, on both paths
    assert dist.matrix([grants[1]] * 3) == [0] * 9
    assert check_ultrametricity([grants[1]] * 3, lambda a, b: dist(a, b)) == []


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_distance_model_check_matches_the_cubic_scan_of_the_matrix(data):
    native_nodes = data.draw(random_node_lists())
    family = data.draw(families(native_nodes))
    # some alternates are copies of the native tree, which agree on every scope and are dropped
    copies = [data.draw(st.booleans()) for _ in family.alternates]
    family = HierarchyFamily(family.native, tuple(
        (name, build_tree(native_nodes) if copy else tree)
        for (name, tree), copy in zip(family.alternates, copies)
    ))
    grants = data.draw(grant_lists(family.native, max_size=16))
    if grants:  # repeated grants, beside the same-key grants of other actions grant_lists draws
        grants += data.draw(st.lists(st.sampled_from(grants), max_size=4))
    if data.draw(st.booleans()):  # one access class
        access = data.draw(st.sampled_from(AccessClass))
        grants = [grant._replace(access=access) for grant in grants]
    dist = DistanceModel(family)
    flat, n = dist.matrix(grants), len(grants)

    def root_path(tree, node):
        return [node, *root_path(tree, tree.parent[node])] if node is not None else []

    # no matrix exactly when no alternate moves a scope's root path and the native tree is clean
    unmoved = all(
        root_path(tree, grant.scope) == root_path(family.native, grant.scope)
        for _, tree in family.alternates for grant in grants
    )
    native_clean = triple_violations_cubic(DistanceModel(family.native).matrix(grants), n, 1) == []
    no_matrix = n < 3 or len(set(grants)) < 2 or (unmoved and native_clean)
    for cap in (1, 7, 100):
        oracle = triple_violations_cubic(flat, n, cap)
        with patch.object(DistanceModel, "matrix", autospec=True, side_effect=DistanceModel.matrix) as matrix:
            assert check_ultrametricity(grants, dist, limit=cap) == oracle
        assert matrix.called != no_matrix


def test_clean_2000_grant_principal_builds_no_matrix():
    # three subscriptions of 10 x 10 resources; the grants sit in sub0 (and sub2), and the
    # alternates carry sub1 under another management group, so all agree on sub0 and sub2
    nodes = [HierarchyNode("root", NodeKind.TENANT_ROOT)]
    nodes += [HierarchyNode(f"mg{m}", NodeKind.MANAGEMENT_GROUP, "root") for m in range(3)]
    for s in range(3):
        nodes.append(HierarchyNode(f"sub{s}", NodeKind.SUBSCRIPTION, f"mg{s}"))
        for g in range(10):
            nodes.append(HierarchyNode(f"rg{s}.{g}", NodeKind.RESOURCE_GROUP, f"sub{s}"))
            nodes += [HierarchyNode(f"res{s}.{g}.{r}", NodeKind.RESOURCE, f"rg{s}.{g}") for r in range(10)]
    native = build_tree(nodes)

    def moving(sub):
        return tuple(
            (f"alt{m}", build_tree([node._replace(parent=f"mg{m}") if node.id == sub else node for node in nodes]))
            for m in (1, 2) if f"mg{m}" != native.parent[sub]
        )

    scopes = ["sub0"] + [node.id for node in nodes if node.id.startswith(("rg0.", "res0."))]
    grants = [Grant(f"a{i:02d}", READ, scope) for i in range(19) for scope in scopes][:2000]
    assert len(set(grants)) == 2000
    dist = DistanceModel(HierarchyFamily(native, moving("sub1")))
    with patch.object(DistanceModel, "matrix", autospec=True) as matrix:
        assert check_ultrametricity(sorted_grants(grants), dist) == []
    assert not matrix.called
    # reads in sub0 and writes in sub2, neither moved, are clean on the native tree: still no matrix
    mixed = [Grant(f"a{i:02d}", READ, scope) for i in range(10) for scope in scopes][:1000]
    mixed += [Grant(f"a{i:02d}", WRITE, scope.replace("0", "2", 1)) for i in range(10) for scope in scopes][:1000]
    assert len(set(mixed)) == 2000
    with patch.object(DistanceModel, "matrix", autospec=True) as matrix:
        assert check_ultrametricity(sorted_grants(mixed), dist) == []
    assert not matrix.called
    # a write among the reads, or alternates that move sub0 itself, send the set to the matrix
    dirty = [*grants[:40], Grant("w", WRITE, "res0.0.0")]
    assert check_ultrametricity(dirty, dist, limit=1) == triple_violations_cubic(dist.matrix(dirty), len(dirty), 1) != []
    moved = DistanceModel(HierarchyFamily(native, moving("sub0")))
    with patch.object(DistanceModel, "matrix", autospec=True, side_effect=DistanceModel.matrix) as matrix:
        assert check_ultrametricity(grants[:200], moved) == []
    assert matrix.called


@pytest.mark.parametrize("first", ["moving", "copy"])
def test_an_alternate_moving_an_ancestor_of_a_scope_sends_reads_to_the_matrix(first):
    # part-b keeps its parent res-b, but one alternate moves res-b next to res-a: the infimum
    # puts part-b a resource group from both res-a and res-c, which stay a subscription apart
    nodes = [
        HierarchyNode("root", NodeKind.TENANT_ROOT),
        HierarchyNode("sub", NodeKind.SUBSCRIPTION, "root"),
        HierarchyNode("rg-1", NodeKind.RESOURCE_GROUP, "sub"),
        HierarchyNode("rg-2", NodeKind.RESOURCE_GROUP, "sub"),
        HierarchyNode("res-a", NodeKind.RESOURCE, "rg-2"),
        HierarchyNode("res-b", NodeKind.RESOURCE, "rg-1"),
        HierarchyNode("res-c", NodeKind.RESOURCE, "rg-1"),
        HierarchyNode("part-b", NodeKind.RESOURCE_PART, "res-b"),
    ]
    moving = ("moving", build_tree([node._replace(parent="rg-2") if node.id == "res-b" else node for node in nodes]))
    copy = ("copy", build_tree(nodes))
    alternates = (moving, copy) if first == "moving" else (copy, moving)
    dist = DistanceModel(HierarchyFamily(build_tree(nodes), alternates))
    grants = [Grant("r", READ, scope) for scope in ("part-b", "res-a", "res-c")]
    found = check_ultrametricity(grants, dist)
    assert found == triple_violations_cubic(dist.matrix(grants), 3, 100) != []
    assert check_ultrametricity(grants, DistanceModel(HierarchyFamily(build_tree(nodes), (copy,)))) == []


@pytest.mark.parametrize("hierarchy", ["tree", "family"])
@pytest.mark.parametrize(
    "order",
    [("known", "ghost", "known"), ("known", "known", "ghost"), ("ghost", "other", "ghost")],
    ids=["repeat-after", "repeat-before", "one-key-two-actions"],
)
def test_two_distinct_grants_and_a_repeat_still_check_their_scopes(hierarchy, order):
    tree = chain_tree()[0]
    dist = DistanceModel(HierarchyFamily(tree, (("copy", tree),)) if hierarchy == "family" else tree)
    by_name = {"known": Grant("a", READ, "lvl03"), "ghost": Grant("b", READ, "ghost"), "other": Grant("c", READ, "ghost")}
    grants = [by_name[name] for name in order]
    messages = []
    for call in (dist, lambda a, b: dist(a, b)):
        with pytest.raises(UnknownNode) as caught:
            check_ultrametricity(grants, call)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert "'ghost'" in messages[0]


def test_merges_show_a_write_raising_a_read_pair():
    tree = build_tree([
        HierarchyNode("root", NodeKind.TENANT_ROOT),
        HierarchyNode("sub", NodeKind.SUBSCRIPTION, "root"),
        HierarchyNode("rg", NodeKind.RESOURCE_GROUP, "sub"),
        HierarchyNode("res1", NodeKind.RESOURCE, "rg"),
        HierarchyNode("res2", NodeKind.RESOURCE, "rg"),
    ])
    grants = [Grant("a", READ, "res1"), Grant("a", WRITE, "res1"), Grant("b", READ, "res2")]
    dist = effective_distance(grants, tree)
    # res1's read and write meet at the write height of level 9, 2/2**19;
    # the write dirties res1, so res2's read joins at level 8's write height
    assert merges_oracle(dist, grants) == [(2 << 2, (1, 1)), (2 << 4, (1, 2))]
    # the fold: radius 32; length 8 + 32 * (2 - 1) + 32 once more; pairs 8 * 1 + 32 * 2
    assert dist.geometry(grants) == (3, 2 << 4, 8 + 32 + 32, 8 + 32 * 2)
    risk = assess_principal("spn", grants, dist)
    assert risk.blast_radius == Fraction(1, 2**16)
    assert risk.perimeter == Fraction(2 * 32 + 8, 2**21) == brute_force_tour(sorted_grants(grants), dist)
    assert risk.mean_distance == Fraction(8 + 32 + 32, 3 * 2**21)
    assert risk.ultracycle is None


class _Recorded(dict):
    """A parent map that records every id read by subscript."""

    def __init__(self, parents):
        super().__init__(parents)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def _oracle_geometry(dist, grants):
    return (len(set(grants)), *merges_geometry(merges_oracle(dist, grants)))


@settings(max_examples=400, deadline=None)
@given(instances(max_size=16), st.data())
def test_geometry_matches_the_walk_to_the_root(instance, data):
    tree, grants = instance
    dist = effective_distance(grants, tree)
    # the closure's whole set, in the input order and reversed, never builds the dirty set
    for seq in (grants, grants[::-1]):
        dist.geometry(seq)
    assert "_dirty" not in vars(dist)
    # the whole set, then sequences that read the dirty set: the reads (the
    # raw_violates shape), random sub-multisets, repeats and all, one of them
    # with every write dropped, and the empty set
    reads = [g for g in grants if g.access is READ]
    subset = data.draw(st.lists(st.sampled_from(grants), max_size=16)) if grants else []
    read_subset = data.draw(st.lists(st.sampled_from(reads), max_size=16)) if reads else []
    for seq in (grants, grants[::-1], reads, subset, read_subset, []):
        assert dist.geometry(seq) == _oracle_geometry(dist, seq)
        # the closed form is the closure's own distances, pair by pair, over the subset too
        risk = assess_principal("spn", seq, dist)
        assert risk == assess_principal("spn", seq, lambda a, b: dist(a, b))
        if 0 < risk.n <= BRUTE_FORCE_LIMIT:
            assert risk.perimeter == brute_force_tour(sorted_grants(seq), dist)
    raised = merges_oracle(dist, reads) != merges_oracle(EffectiveDistance(reads, tree), reads)
    assert raw_violates(grants, tree) == raised
    # nothing at or above the lowest common ancestor of the folded set is read
    recorded = tree._replace(parent=_Recorded(tree.parent))
    dist._tree = recorded
    for seq in (grants, reads):
        recorded.parent.read.clear()
        dist.geometry(seq)
        if seq:
            top = reduce(partial(lca, tree), (g.scope for g in seq))
            assert all(lca(tree, node, top) != node for node in recorded.parent.read)
    dist._tree = tree
    # an unknown scope anywhere in the sequence, inserted (a larger set, which reads
    # the dirty set) or in place of a grant (the whole set's size): the same first one named
    unknown = [Grant("z", data.draw(st.sampled_from(AccessClass)), ghost) for ghost in ("ghost", "phantom")]
    inserted = list(grants)
    for grant in unknown[: data.draw(st.integers(1, 2))]:
        inserted.insert(data.draw(st.integers(0, len(inserted))), grant)
    in_place = list(dict.fromkeys(grants))
    for grant in unknown[: len(in_place)]:
        in_place[data.draw(st.integers(0, len(in_place) - 1))] = grant
    for seq in (inserted, in_place):
        if not any(g in unknown for g in seq):
            continue
        messages = []
        for fold in (dist.geometry, partial(merges_oracle, dist)):
            with pytest.raises(UnknownNode) as caught:
                fold(seq)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_tour_is_the_nearest_neighbor_tour(seed, data):
    rng = random.Random(seed)
    tree = random_tree(rng)
    grants = random_grants(rng, tree, rng.randint(1, 12))
    top = reduce(partial(lca, tree), (g.scope for g in grants))
    # the closure's whole set read-only, write-only, mixed, and mixed with a write at the grants' LCA
    for whole in (
        [g._replace(access=READ) for g in grants],
        [g._replace(access=WRITE) for g in grants],
        grants,
        [*grants, Grant("w", WRITE, top)],
    ):
        dist = effective_distance(whole, tree)
        proper = rng.sample(whole, rng.randint(1, len(whole) - 1)) if len(whole) > 1 else []
        repeated = data.draw(st.lists(st.sampled_from(whole), min_size=1, max_size=16))
        for seq in (whole, proper, repeated):
            if not seq:
                continue
            order = dist.tour(seq)
            assert order == nn_tour(seq, dist).order
            # equal grants are visited in index order
            visits: dict[Grant, list[int]] = {}
            for index in order[:-1]:
                visits.setdefault(seq[index], []).append(index)
            assert all(indices == sorted(indices) for indices in visits.values())
            length = sum(dist(seq[a], seq[b]) for a, b in zip(order, order[1:]))
            assert length == Fraction(dist.geometry(seq)[2], kernels.SCALE)


def test_a_subset_keeps_the_writes_of_the_whole_set():
    tree = build_tree([
        HierarchyNode("root", NodeKind.TENANT_ROOT),
        HierarchyNode("s1", NodeKind.SUBSCRIPTION, "root"),
        HierarchyNode("s2", NodeKind.SUBSCRIPTION, "root"),
    ])
    r1, w1, r2 = Grant("r1", READ, "s1"), Grant("w1", WRITE, "s1"), Grant("r2", READ, "s2")
    dist = effective_distance({r1, w1, r2}, tree)
    # w1 dirties s1, so r1 meets r2 at the root's write height, 2/2, with or without w1
    assert dist(r1, r2) == 1
    subset = [r1, r2]
    risk = assess_principal("spn", subset, dist)
    assert (risk.blast_radius, risk.perimeter) == (1, 2)
    assert risk.perimeter == brute_force_tour(subset, dist)
    assert risk == assess_principal("spn", subset, lambda a, b: dist(a, b))


@settings(max_examples=300, deadline=None)
@given(instances(max_size=16), st.integers(0, 16))
def test_closed_form_reads_the_set_in_any_order(instance, repeated):
    tree, grants = instance
    dist = effective_distance(grants, tree)
    risk = assess_principal("spn", frozenset(grants), dist)
    for given_as in (
        sorted_grants(grants),
        list(reversed(grants)) + grants[:repeated],
        (g for g in grants),
    ):
        assert assess_principal("spn", given_as, dist) == risk
    assert risk == assess_principal("spn", grants, lambda a, b: dist(a, b))


_VALUE_POOLS = (
    [Fraction(1, 2**k) for k in (1, 3, 5, 7)],  # dyadic: scaled to integers
    [0, 1, 2, 3],
    [1 << 40, 1 << 41, 1 << 63, 1 << 64],  # large ints
)


@pytest.mark.parametrize("seed", range(40))
def test_bitset_scan_matches_cubic_loop(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 30)
    pool = rng.choice(_VALUE_POOLS)[: rng.randint(1, 4)]
    flat = [0] * (n * n)
    for i in range(n):
        for j in range(i + 1, n):
            flat[i * n + j] = flat[j * n + i] = rng.choice(pool)
    points = list(range(n))
    dist = lambda i, j: flat[i * n + j]  # noqa: E731
    everything = triple_violations_cubic(flat, n, n**3 + 1)
    for cap in (1, 7, 100, len(everything) + 1):
        assert check_ultrametricity(points, dist, limit=cap) == triple_violations_cubic(flat, n, cap)
