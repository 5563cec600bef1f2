"""Matrix kernels: integer scaling, exact results, tie-breaks, traced names."""

from fractions import Fraction

from perimetric import kernels
from perimetric.metric import AccessClass, DistanceModel, Grant, HierarchyFamily, check_ultrametricity
from perimetric.perimeter import perimeter

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
    assert perimeter(["p", "q", "r"], dist) == Fraction(3, 4)
    assert check_ultrametricity(["p", "q", "r"], dist) == [(0, 1, 2)]
    assert seen == ["build_matrix", "nn_tour_flat", "build_matrix", "violations_flat"]


def test_distance_model_scan_calls_only_the_triple_scan(monkeypatch):
    seen = _record_calls(monkeypatch, ("build_matrix", "try_scale", "nn_tour_flat", "violations_flat"))
    tree = chain_tree()[0]
    family = HierarchyFamily(tree, (("copy", tree),))
    grants = [Grant(a, AccessClass.READ, scope) for a, scope in (("x", "lvl09"), ("y", "lvl10"), ("z", "lvl03"))]
    assert check_ultrametricity(grants, DistanceModel(family)) == []
    assert seen == ["violations_flat"]


def test_nn_tour_tie_break_prefers_lowest_index():
    # all distances equal: tour must walk indices in order
    n = 6
    flat = [0 if i == j else 5 for i in range(n) for j in range(n)]
    order, total = kernels.nn_tour_flat(flat, n, 0)
    assert order == (0, 1, 2, 3, 4, 5, 0)
    assert total == 30


def test_try_scale_dyadic_values():
    scaled = kernels.try_scale([Fraction(1, 2), 1, 0, Fraction(1, 2**21)])
    assert scaled == [2**20, 2**21, 0, 1]
    assert kernels.try_scale([Fraction(1, 3)]) is None
    assert kernels.try_scale([float("nan")]) is None
    assert kernels.try_scale([1 << 45]) is None


def test_kernels_fall_back_on_non_dyadic_values():
    # 1/3 is not dyadic: the kernels run on the values as given and stay exact
    third = Fraction(1, 3)
    flat = [0 if i == j else third for i in range(3) for j in range(3)]
    order, length = kernels.nn_tour_flat(flat, 3, 0)
    assert order == (0, 1, 2, 0)
    assert length == 1
    assert kernels.brute_force_flat(flat, 3) == 1
    assert kernels.violations_flat(flat, 3, 100) == []


def test_flat_wrappers_return_exact_fractions():
    tiny = Fraction(1, 2**21)
    flat = [0 if i == j else tiny for i in range(4) for j in range(4)]
    _, length = kernels.nn_tour_flat(flat, 4, 0)
    assert length == 4 * tiny
    assert isinstance(length, Fraction)
