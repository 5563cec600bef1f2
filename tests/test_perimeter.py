import random
from fractions import Fraction

import pytest

from perimetric.errors import EmptyInput, TooLarge
from perimetric.hierarchy import HierarchyNode, NodeKind, build_tree
from perimetric.metric import AccessClass, DistanceModel, Grant, effective_distance
from perimetric.perimeter import assess_principal, brute_force_tour, nn_tour, sorted_grants

from helpers import chain_tree, fraction_assess, grants_at, random_grants, random_tree

READ = AccessClass.READ
WRITE = AccessClass.WRITE


def _literal_dist(table):
    return lambda a, b: table[frozenset((a, b))]


# three points with pairwise distances 1/8, 1/8, 1/2 (not a metric from any
# tree; mean and the oracle are generic over the distance callable)
TRIANGLE = {
    frozenset(("p", "q")): Fraction(1, 8),
    frozenset(("q", "r")): Fraction(1, 8),
    frozenset(("p", "r")): Fraction(1, 2),
}


def two_cluster_fixture():
    """Six read grants in two 3-resource clusters: intra 1/2^17, inter 1/2^3."""
    nodes = [
        HierarchyNode("root", NodeKind.TENANT_ROOT),
        HierarchyNode("mg", NodeKind.MANAGEMENT_GROUP, "root"),
        HierarchyNode("sub-a", NodeKind.SUBSCRIPTION, "mg"),
        HierarchyNode("sub-b", NodeKind.SUBSCRIPTION, "mg"),
        HierarchyNode("rg-a", NodeKind.RESOURCE_GROUP, "sub-a"),
        HierarchyNode("rg-b", NodeKind.RESOURCE_GROUP, "sub-b"),
    ]
    for side in "ab":
        for i in range(3):
            nodes.append(HierarchyNode(f"res-{side}{i}", NodeKind.RESOURCE, f"rg-{side}"))
    tree = build_tree(nodes)
    grants = [Grant(f"{side}{i}", READ, f"res-{side}{i}") for side in "ab" for i in range(3)]
    return grants, DistanceModel(tree)


def test_blast_radius_empty_and_singleton():
    tree, scopes = chain_tree()
    dist = DistanceModel(tree)
    assert assess_principal("spn", [], dist).blast_radius == 0
    assert assess_principal("spn", grants_at(scopes[9], 1), dist).blast_radius == 0


def test_blast_radius_tenant_wide_writes():
    tree = build_tree([
        HierarchyNode("root", NodeKind.TENANT_ROOT),
        HierarchyNode("sub1", NodeKind.SUBSCRIPTION, "root"),
        HierarchyNode("sub2", NodeKind.SUBSCRIPTION, "root"),
    ])
    grants = [Grant("WriteBlob", WRITE, "sub1"), Grant("WriteSecret", WRITE, "sub2")]
    assert assess_principal("spn", grants, DistanceModel(tree)).blast_radius == 1


def test_blast_radius_three_grant_mix():
    # two read grants in one resource group plus one in a sibling group:
    # pairwise distances 1/2^17, 1/2^15, 1/2^15
    tree = build_tree([
        HierarchyNode("root", NodeKind.TENANT_ROOT),
        HierarchyNode("sub", NodeKind.SUBSCRIPTION, "root"),
        HierarchyNode("rg1", NodeKind.RESOURCE_GROUP, "sub"),
        HierarchyNode("rg2", NodeKind.RESOURCE_GROUP, "sub"),
        HierarchyNode("res1", NodeKind.RESOURCE, "rg1"),
        HierarchyNode("res2", NodeKind.RESOURCE, "rg1"),
    ])
    grants = [
        Grant("a", READ, "res1"),
        Grant("b", READ, "res2"),
        Grant("c", READ, "rg2"),
    ]
    assert assess_principal("spn", grants, DistanceModel(tree)).blast_radius == Fraction(1, 2**15)


def test_nn_tour_singleton():
    tree, scopes = chain_tree()
    tour = nn_tour(grants_at(scopes[9], 1), DistanceModel(tree))
    assert tour.order == (0, 0)
    assert tour.length == 0


def test_nn_tour_pair_doubles_the_distance():
    tree, scopes = chain_tree()
    grants = grants_at(scopes[9], 2)
    tour = nn_tour(grants, DistanceModel(tree))
    assert tour.order == (0, 1, 0)
    assert tour.length == 2 * Fraction(1, 2**19)


def test_nn_tour_three_equal_distances():
    tree, scopes = chain_tree()
    grants = grants_at(scopes[7], 3)
    tour = nn_tour(grants, DistanceModel(tree))
    assert tour.length == 3 * Fraction(1, 2**15)


def test_nn_tour_empty_input():
    tree, _ = chain_tree()
    with pytest.raises(EmptyInput):
        nn_tour([], DistanceModel(tree))


def test_nn_tour_start_out_of_range():
    grants, dist = two_cluster_fixture()
    for start in (len(grants), -1):
        with pytest.raises(EmptyInput, match=f"^start index {start} out of range for 6 grants$"):
            nn_tour(grants, dist, start=start)


def test_nn_tour_visits_cluster_before_jumping():
    grants, dist = two_cluster_fixture()
    tour = nn_tour(grants, dist, start=0)
    assert tour.order == (0, 1, 2, 3, 4, 5, 0)
    assert tour.length == 4 * Fraction(1, 2**17) + 2 * Fraction(1, 8)


def test_nn_tour_length_start_invariant_on_fixture():
    grants, dist = two_cluster_fixture()
    lengths = {nn_tour(grants, dist, start=s).length for s in range(len(grants))}
    assert len(lengths) == 1


def test_brute_force_three_points_is_pair_sum():
    points = ["p", "q", "r"]
    total = brute_force_tour(points, _literal_dist(TRIANGLE))
    assert total == Fraction(1, 8) + Fraction(1, 8) + Fraction(1, 2)


def test_brute_force_ultracycle_five_points():
    # five read grants on one level-3 management group: all pairs 1/2^7
    tree, scopes = chain_tree()
    grants = grants_at(scopes[3], 5)
    assert brute_force_tour(grants, DistanceModel(tree)) == Fraction(5, 2**7)


def test_brute_force_guard():
    tree, scopes = chain_tree()
    with pytest.raises(TooLarge):
        brute_force_tour(grants_at(scopes[9], 10), DistanceModel(tree))
    with pytest.raises(EmptyInput):
        brute_force_tour([], DistanceModel(tree))


def test_nn_matches_oracle_on_random_seven_grant_instance():
    rng = random.Random(99)
    tree = random_tree(rng)
    grants = sorted_grants(random_grants(rng, tree, 7))
    dist = effective_distance(grants, tree)
    assert nn_tour(grants, dist).length == brute_force_tour(grants, dist)


def test_perimeter_degenerate_sizes():
    tree, scopes = chain_tree()
    dist = DistanceModel(tree)
    assert assess_principal("spn", [], dist).perimeter == 0
    assert assess_principal("spn", grants_at(scopes[9], 1), dist).perimeter == 0
    assert assess_principal("spn", grants_at(scopes[9], 2), dist).perimeter == 2 * Fraction(1, 2**19)


def test_perimeter_of_ultracycle_is_n_xi():
    tree, scopes = chain_tree()
    for n in (2, 4, 7):
        grants = grants_at(scopes[8], n, WRITE)
        assert assess_principal("spn", grants, DistanceModel(tree)).perimeter == n * Fraction(2, 2**17)


def test_perimeter_on_raw_distances_is_the_greedy_tour():
    # raw distances on a mixed read/write set are not ultrametric: the greedy
    # tour 0, 1, 3, 2, 0 pays the write's 1 back to the root, the minimum 1/2 twice
    tree = build_tree([
        HierarchyNode("root", NodeKind.TENANT_ROOT),
        HierarchyNode("s1", NodeKind.SUBSCRIPTION, "root"),
        HierarchyNode("rg1", NodeKind.RESOURCE_GROUP, "s1"),
    ])
    grants = [Grant("a0", READ, "root"), Grant("a1", READ, "s1"), Grant("a2", WRITE, "s1"), Grant("a3", READ, "rg1")]
    dist = DistanceModel(tree)
    assert nn_tour(grants, dist).order == (0, 1, 3, 2, 0)
    assert assess_principal("spn", grants, dist).perimeter == Fraction(49155, 32768)
    assert brute_force_tour(grants, dist) == Fraction(8193, 8192)


def test_mean_distance_values():
    tree, scopes = chain_tree()
    dist = DistanceModel(tree)
    assert assess_principal("spn", grants_at(scopes[5], 4), dist).mean_distance == Fraction(1, 2**11)
    assert assess_principal("spn", grants_at(scopes[9], 2), dist).mean_distance == Fraction(1, 2**19)
    assert assess_principal("spn", ["p", "q", "r"], _literal_dist(TRIANGLE)).mean_distance == Fraction(1, 4)


def test_spread_ratio_two_cluster_exact_value():
    # frozen from the exhaustive oracle: perimeter 8193/32768,
    # mean 24577/327680, ratio (8193/32768) / (6 * 24577/327680)
    grants, dist = two_cluster_fixture()
    items = sorted_grants(grants)
    oracle = brute_force_tour(items, dist)
    nn = nn_tour(items, dist).length
    assert nn == oracle == Fraction(8193, 32768)
    risk = assess_principal("spn", items, dist)
    assert risk.mean_distance == Fraction(24577, 327680)
    ratio = risk.spread_ratio
    assert ratio == Fraction(13655, 24577)
    assert ratio < 1


def test_is_ultracycle_cases():
    tree, scopes = chain_tree()
    dist = DistanceModel(tree)
    assert assess_principal("spn", grants_at(scopes[9], 4, WRITE), dist).ultracycle == Fraction(2, 2**19)
    assert assess_principal("spn", grants_at(scopes[9], 1), dist).ultracycle is None
    mixed_levels = grants_at(scopes[9], 2) + grants_at(scopes[4], 1)
    assert assess_principal("spn", mixed_levels, dist).ultracycle is None


def test_assess_principal_consistency():
    rng = random.Random(4242)
    for _ in range(20):
        tree = random_tree(rng)
        grants = sorted_grants(random_grants(rng, tree, rng.randint(0, 8)))
        dist = effective_distance(grants, tree)
        risk = assess_principal("spn", grants, dist)
        assert risk.n == len(grants)
        oracle = fraction_assess("spn", grants, dist)
        assert (risk.blast_radius, risk.perimeter, risk.mean_distance, risk.spread_ratio, risk.ultracycle) == (
            oracle.blast_radius, oracle.perimeter, oracle.mean_distance, oracle.spread_ratio, oracle.ultracycle
        )


def test_blast_radius_monotone_under_added_grants():
    rng = random.Random(321)
    for _ in range(20):
        tree = random_tree(rng)
        grants = random_grants(rng, tree, 7)
        dist = DistanceModel(tree)
        radius = assess_principal("spn", grants[:-1], dist).blast_radius
        assert assess_principal("spn", grants, dist).blast_radius >= radius


def test_perimeter_never_exceeds_n_times_mean():
    rng = random.Random(777)
    for _ in range(30):
        tree = random_tree(rng)
        grants = sorted_grants(random_grants(rng, tree, rng.randint(2, 9)))
        dist = effective_distance(grants, tree)
        ratio = assess_principal("spn", grants, dist).spread_ratio
        assert 0 < ratio <= 1
