"""Matrix kernels: integer scaling, exact results, tie-breaks, traced names."""

from fractions import Fraction

import pytest

from perimetric import kernels
from perimetric.metric import AccessClass, DistanceModel, Grant, HierarchyFamily, check_ultrametricity
from perimetric.perimeter import assess_principal, brute_force_tour, nn_tour

from helpers import chain_tree


def test_benchmark_reads_these_names():
    # the benchmark records BACKEND on every run and wraps the four
    # functions by module attribute to time each layer
    assert kernels.BACKEND == "pure-python"
    for name in ("build_matrix", "try_scale", "nn_tour_flat", "violations_flat"):
        assert callable(getattr(kernels, name))


def _record_calls(monkeypatch, names) -> list[str]:
    """Wrap kernels by module attribute; the returned list fills with the names called."""
    seen = []

    def recording(name, real):
        def wrapper(*args):
            seen.append(name)
            return real(*args)

        return wrapper

    for name in names:
        monkeypatch.setattr(kernels, name, recording(name, getattr(kernels, name)))
    return seen


def test_callers_look_kernels_up_by_module_attribute(monkeypatch):
    seen = _record_calls(monkeypatch, ("build_matrix", "nn_tour_flat", "violations_flat"))
    table = {frozenset("pq"): Fraction(1, 8), frozenset("qr"): Fraction(1, 8), frozenset("pr"): Fraction(1, 2)}
    dist = lambda a, b: table[frozenset((a, b))]  # noqa: E731
    assert assess_principal("spn", ["p", "q", "r"], dist).perimeter == Fraction(3, 4)
    assert check_ultrametricity(["p", "q", "r"], dist) == [(0, 1, 2)]
    assert seen == ["build_matrix", "nn_tour_flat", "build_matrix", "violations_flat"]


def test_distance_model_scan_calls_only_the_triple_scan(monkeypatch):
    # a set no alternate moves is decided on the native tree by raw_violates when it is clean
    # there: no kernel and no matrix; a dirty one builds its integer matrix and calls only the triple scan
    seen = _record_calls(monkeypatch, ("build_matrix", "try_scale", "nn_tour_flat", "violations_flat"))
    matrix = DistanceModel.matrix
    monkeypatch.setattr(DistanceModel, "matrix", lambda self, points: seen.append("matrix") or matrix(self, points))
    tree = chain_tree()[0]
    dist = DistanceModel(HierarchyFamily(tree, (("copy", tree),)))
    reads = [Grant(a, AccessClass.READ, scope) for a, scope in (("x", "lvl09"), ("y", "lvl10"), ("z", "lvl03"))]
    assert check_ultrametricity(reads, dist) == []
    assert seen == []
    # a write above two reads raises no read pair's merge
    clean = [Grant("w", AccessClass.WRITE, "lvl03"), *reads[:2]]
    assert check_ultrametricity(clean, dist) == []
    assert seen == []
    # a write under a read, and a read higher up: the write pair is the longest side
    mixed = [reads[0], Grant("y", AccessClass.WRITE, "lvl10"), reads[2]]
    assert check_ultrametricity(mixed, dist) == [(1, 0, 2)]
    assert seen == ["matrix", "violations_flat"]


def test_nn_tour_tie_break_prefers_lowest_index():
    # all distances equal: tour must walk indices in order
    n = 6
    flat = [0 if i == j else 5 for i in range(n) for j in range(n)]
    order, total = kernels.nn_tour_flat(flat, n, 0)
    assert order == (0, 1, 2, 3, 4, 5, 0)
    assert total == 30


def test_flat_kernels_reject_what_they_cannot_walk():
    with pytest.raises(ValueError, match="^empty matrix$"):
        kernels.nn_tour_flat([], 0, 0)
    with pytest.raises(ValueError, match="^start out of range$"):
        kernels.nn_tour_flat([0], 1, 1)
    with pytest.raises(ValueError, match="^empty matrix$"):
        kernels.brute_force_flat([], 0)
    # a cap of 0 reports nothing, though the pair (0, 2) has a violating middle
    flat = [0, 1, 2, 1, 0, 1, 2, 1, 0]
    assert kernels.violations_flat(flat, 3, 1) == [(0, 1, 2)]
    assert kernels.violations_flat(flat, 3, 0) == []


def test_try_scale_dyadic_values():
    scaled = kernels.try_scale([Fraction(1, 2), 1, 0, Fraction(1, 2**21)])
    assert scaled == [2**20, 2**21, 0, 1]
    assert kernels.try_scale([1 << 45]) == [1 << 66]
    with pytest.raises(TypeError):
        kernels.try_scale([float("nan")])


def test_kernels_stay_exact_on_non_dyadic_values():
    # the kernels work on the 2**-21 grid and never round onto it: a distance
    # off the grid among distances on it raises ValueError, a float TypeError
    for off_grid in (Fraction(1, 3), Fraction(2, 3), Fraction(1, 5), Fraction(1, 7), Fraction(1, 2**22)):
        with pytest.raises(ValueError, match=f"distance {off_grid} is not"):
            kernels.try_scale([Fraction(1, 2), off_grid])
        table = {frozenset((0, 1)): off_grid, frozenset((1, 2)): Fraction(1, 8), frozenset((0, 2)): Fraction(1, 8)}
        dist = lambda a, b: table[frozenset((a, b))]  # noqa: E731
        float_dist = lambda a, b: float(dist(a, b))  # noqa: E731
        for call in (nn_tour, brute_force_tour):
            with pytest.raises(ValueError, match="not a whole number of 2\\*\\*-21 units"):
                call([0, 1, 2], dist)
            with pytest.raises(TypeError):
                call([0, 1, 2], float_dist)


def test_tour_wrappers_return_exact_fractions():
    tiny = Fraction(1, 2**21)
    points, dist = range(4), lambda a, b: tiny
    for length in (nn_tour(points, dist).length, brute_force_tour(points, dist)):
        assert length == 4 * tiny
        assert isinstance(length, Fraction)
