"""Closed forms and fast scans against the oracles they replace.

assess_principal reads an EffectiveDistance through its dendrogram; the
matrix path (any other callable) and the exhaustive tour are the
references. The integer record, its ranking, banding and rendering are
checked against the Fraction arithmetic they replace, and the integer
tour kernels, on tables of any rational unit, against Fraction loops.
check_ultrametricity's bitset scan is checked against the plain cubic
loop, DistanceModel's integer matrix against the Fraction matrix of
per-pair calls, raw_violates against a full triple scan of the raw
distances, and infimum_distance against the minimum over the family.
EffectiveDistance.geometry is checked against the merge list of the walk to
the tree root it replaced, on the closure's whole set and on subsets of it,
where assess_principal's closed form also meets the matrix path and the
exhaustive tour; the closed form is also checked against reorderings of its
input.
"""

import random
from dataclasses import replace
from fractions import Fraction
from functools import partial, reduce
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perimetric import kernels
from perimetric.errors import UnbandableRadius, UnknownNode
from perimetric.hierarchy import MAX_MG_DEPTH, HierarchyNode, NodeKind, build_tree, lca
from perimetric.metric import (
    DEFAULT_IMPACT,
    AccessClass,
    DistanceModel,
    EffectiveDistance,
    Grant,
    HierarchyFamily,
    ImpactModel,
    check_ultrametricity,
    distance,
    effective_distance,
    infimum_distance,
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
    merges_geometry,
    merges_oracle,
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
def random_trees(draw):
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
    return build_tree(nodes)


def grant_lists(tree, max_size=BRUTE_FORCE_LIMIT + 2):
    # few actions, so duplicates and same-scope read/write pairs are common
    return st.lists(
        st.builds(
            Grant,
            action=st.sampled_from("abc"),
            access=st.sampled_from(AccessClass),
            scope=st.sampled_from(sorted(tree.nodes)),
        ),
        max_size=max_size,
    )


@st.composite
def instances(draw, max_size=BRUTE_FORCE_LIMIT + 2):
    # the maximal chain has six nested management groups and every kind
    tree = draw(st.one_of(st.just(chain_tree()[0]), random_trees()))
    grants = draw(grant_lists(tree, max_size))
    model = draw(st.sampled_from([DEFAULT_IMPACT, ImpactModel(2, 7)]))
    return tree, grants, model


@st.composite
def families(draw):
    """A random tree plus one to three alternates, each moving some subscriptions,
    resource groups, resources and parts under another node of a legal parent kind."""
    native = draw(random_trees())
    of_kind = {kind: [n.id for n in native.nodes.values() if n.kind is kind] for kind in NodeKind}
    legal = {
        NodeKind.SUBSCRIPTION: of_kind[NodeKind.TENANT_ROOT] + of_kind[NodeKind.MANAGEMENT_GROUP],
        NodeKind.RESOURCE_GROUP: of_kind[NodeKind.SUBSCRIPTION],
        NodeKind.RESOURCE: of_kind[NodeKind.RESOURCE_GROUP],
        NodeKind.RESOURCE_PART: of_kind[NodeKind.RESOURCE],
    }
    alternates = []
    for index in range(draw(st.integers(1, 3))):
        nodes = []
        for node in native.nodes.values():
            parent = node.parent
            if node.kind in legal and draw(st.booleans()):
                parent = draw(st.sampled_from(legal[node.kind]))
            nodes.append(HierarchyNode(node.id, node.kind, parent))
        alternates.append((f"alt{index}", build_tree(nodes)))
    return HierarchyFamily(native=native, alternates=tuple(alternates))


@settings(max_examples=400, deadline=None)
@given(instances())
def test_closed_form_matches_matrix_path_and_exhaustive_tour(instance):
    tree, grants, model = instance
    dist = effective_distance(grants, tree, model)
    closed = assess_principal("spn", grants, dist)
    # a plain callable is not an EffectiveDistance, so it takes the matrix path
    assert closed == assess_principal("spn", grants, lambda a, b: dist(a, b))
    items = sorted_grants(grants)
    if 1 <= len(items) <= BRUTE_FORCE_LIMIT:
        assert closed.perimeter == brute_force_tour(items, dist)


_PUBLIC_FIELDS = ("spn", "n", "blast_radius", "perimeter", "mean_distance", "spread_ratio", "ultracycle")


@st.composite
def principal_sets(draw):
    """One tree and model, and one to five principals of 0 to 16 grants on it."""
    tree = draw(st.one_of(st.just(chain_tree()[0]), random_trees()))
    model = draw(st.sampled_from([DEFAULT_IMPACT, ImpactModel(2, 7)]))
    grant_sets = draw(st.lists(grant_lists(tree, max_size=16), min_size=1, max_size=5))
    return tree, model, grant_sets


@settings(max_examples=400, deadline=None)
@given(principal_sets())
def test_integer_record_matches_fraction_oracle(case):
    tree, model, grant_sets = case
    bands = enumerate_bands(model)
    for closed_form in (True, False):
        risks, oracles = [], []
        for index, grants in enumerate(grant_sets):
            dist = effective_distance(grants, tree, model)
            if not closed_form:
                dist = lambda a, b, dist=dist: dist(a, b)  # noqa: E731
            risk = assess_principal(f"s{index}", grants, dist)
            oracle = fraction_assess(f"s{index}", grants, dist)
            assert risk.unit == kernels.SCALE
            for field in _PUBLIC_FIELDS:
                assert getattr(risk, field) == getattr(oracle, field), field
            assert band_of(risk.radius, bands, risk.unit) == band_of_linear(oracle.blast_radius, bands)
            risks.append(risk)
            oracles.append(oracle)
        assert [r.spn for r in rank_spns(risks)] == [r.spn for r in fraction_rank(oracles)]


def test_non_dyadic_table_stays_exact():
    thirds = {frozenset(pair): Fraction(1, 3) for pair in ((0, 1), (1, 2), (0, 2))}
    thirds_risk = assess_principal("thirds", [0, 1, 2], lambda a, b: thirds[frozenset((a, b))])
    assert thirds_risk.unit == 3 * kernels.SCALE
    assert (thirds_risk.blast_radius, thirds_risk.perimeter) == (Fraction(1, 3), 1)
    assert (thirds_risk.mean_distance, thirds_risk.spread_ratio) == (Fraction(1, 3), 1)
    assert thirds_risk.ultracycle == Fraction(1, 3)
    mixed = {frozenset((0, 1)): Fraction(1, 3), frozenset((1, 2)): Fraction(1, 5), frozenset((0, 2)): Fraction(1, 8)}
    dist = lambda a, b: mixed[frozenset((a, b))]  # noqa: E731
    risk = assess_principal("mixed", [0, 1, 2], dist)
    oracle = fraction_assess("mixed", [0, 1, 2], dist)
    assert risk.unit == 15 * kernels.SCALE
    for field in _PUBLIC_FIELDS:
        assert getattr(risk, field) == getattr(oracle, field), field
    assert risk.mean_distance == Fraction(1, 3 * 3) + Fraction(1, 5 * 3) + Fraction(1, 8 * 3)
    # records of different units rank on a common one, as on Fraction keys
    tree, scopes = chain_tree()
    dyadic = [Grant("a", READ, scopes[0]), Grant("b", WRITE, scopes[1])]
    ranked = [risk, thirds_risk] + [
        assess_principal(spn, dyadic, effective_distance(dyadic, tree)) for spn in ("d1", "d0")
    ]
    assert [r.spn for r in rank_spns(ranked)] == ["d0", "d1", "thirds", "mixed"]
    assert rank_spns(ranked) == fraction_rank(ranked)
    # a band is found whatever the unit; radius 1/3 is in no band
    bands = enumerate_bands()
    for census in (bands, list(bands)):  # a plain sequence is indexed on the call
        assert band_of(3 * kernels.SCALE, census, 3 * kernels.SCALE) == band_of_linear(1, bands)
    with pytest.raises(UnbandableRadius, match="radius 1/3 is not"):
        band_of(thirds_risk.radius, bands, thirds_risk.unit)


# Distances of every kind the matrix path scales to one unit: dyadics down to
# 2**-21, thirds, fifths and sevenths, plain ints, and ints of 2**40 and above.
_TABLE_VALUES = st.one_of(
    st.builds(Fraction, st.integers(0, 2**22), st.sampled_from([2**e for e in range(22)])),
    st.builds(Fraction, st.integers(0, 30), st.sampled_from([3, 5, 7])),
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
    assert risk.unit == lcm(kernels.SCALE, *(Fraction(v).denominator for v in table.values()))
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
    st.integers(0, 9),
)
def test_format_fixed_on_unreduced_parts_matches_fraction_oracle(num, den, k, digits):
    value = Fraction(num, den)
    assert format_fixed(num * k, den * k, digits=digits) == format_fixed_fraction(value, digits)
    assert format_fixed(value, digits=digits) == format_fixed_fraction(value, digits)
    assert format_fixed(value, k, digits=digits) == format_fixed_fraction(value / k, digits)
    assert fraction_str(num * k, den * k) == str(value)
    # an exact tie at the last digit, unreduced: half-to-even on both
    tie = 2 * (num % 10**7) + 1, 2 * 10**digits
    assert format_fixed(tie[0] * k, tie[1] * k, digits=digits) == format_fixed_fraction(
        Fraction(*tie), digits
    )


@settings(max_examples=400, deadline=None)
@given(instances(max_size=16))
def test_raw_violates_matches_triple_scan_of_raw_distances(instance):
    tree, grants, model = instance
    scanned = check_ultrametricity(grants, DistanceModel(tree, model), limit=1)
    assert raw_violates(grants, tree, model) == bool(scanned)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_infimum_is_the_minimum_over_the_family(data):
    family = data.draw(families())
    grants = data.draw(grant_lists(family.native))
    model = data.draw(st.sampled_from([DEFAULT_IMPACT, ImpactModel(2, 7)]))
    for a in grants:
        for b in grants:
            expected = min(distance(a, b, tree, model) for _, tree in family.members())
            assert infimum_distance(a, b, family, model) == expected


@st.composite
def distance_models(draw):
    """A DistanceModel over a family or a bare tree, and grants on its nodes."""
    hierarchy = draw(st.one_of(families(), random_trees(), st.just(chain_tree()[0])))
    tree = hierarchy.native if isinstance(hierarchy, HierarchyFamily) else hierarchy
    model = draw(st.sampled_from([DEFAULT_IMPACT, ImpactModel(2, 7)]))
    return DistanceModel(hierarchy, model), draw(grant_lists(tree, max_size=16))


@settings(max_examples=400, deadline=None)
@given(distance_models())
def test_integer_path_matches_per_pair_calls(case):
    dist, grants = case
    assert (dist.matrix(grants), kernels.SCALE) == kernels.try_scale(kernels.build_matrix(grants, dist))
    # a plain callable is not a DistanceModel, so it takes the generic path
    for cap in (1, 7, 100):
        assert check_ultrametricity(grants, dist, limit=cap) == check_ultrametricity(
            grants, lambda a, b: dist(a, b), limit=cap
        )


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
    """A node map that records every id read by subscript."""

    def __init__(self, nodes):
        super().__init__(nodes)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def _oracle_geometry(dist, grants):
    return (len(set(grants)), *merges_geometry(merges_oracle(dist, grants)))


@settings(max_examples=400, deadline=None)
@given(instances(max_size=16), st.data())
def test_geometry_matches_the_walk_to_the_root(instance, data):
    tree, grants, model = instance
    dist = effective_distance(grants, tree, model)
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
    raised = merges_oracle(dist, reads) != merges_oracle(EffectiveDistance(reads, tree, model), reads)
    assert raw_violates(grants, tree, model) == raised
    # nothing at or above the lowest common ancestor of the folded set is read
    recorded = replace(tree, nodes=_Recorded(tree.nodes))
    dist._tree = recorded
    for seq in (grants, reads):
        recorded.nodes.read.clear()
        dist.geometry(seq)
        if seq:
            top = reduce(partial(lca, tree), (g.scope for g in seq))
            assert all(lca(tree, node, top) != node for node in recorded.nodes.read)
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
    tree, grants, model = instance
    dist = effective_distance(grants, tree, model)
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
    [Fraction(1, 3), Fraction(1, 5), Fraction(2, 3), Fraction(1, 7)],  # not dyadic
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
