"""Per-principal geometry: blast radius, tour perimeter, mean, spread ratio.

The data perimeter of a grant set is the minimal cyclic tour length over
all grants. Over the closure, EffectiveDistance.geometry folds every
figure off the dendrogram in one integer pass, with no distance matrix:
a minimal tour crosses the top merge once per block and every other
merge one time fewer than it has blocks. The grant set may come in any
order, and EffectiveDistance.tour reads the greedy tour's order off the
same dendrogram. Any other distance callable goes through the pairwise
matrix over the sorted grants (the only path that sorts) and the greedy
nearest-neighbor tour, which attains the minimum on ultrametric
distances; that matrix tour and the exhaustive one are the oracles the
tests check the closure against, and no command takes that path. That
matrix holds integers in units of 2**-21 (kernels.try_scale), as the
closed form does, and a distance off that grid raises ValueError.
Lengths stay integers in those units inside;
PrincipalRisk's properties and Tour.length are exact Fractions built from
them. A PrincipalRisk, like a Tour, is a tuple of its fields. The grants
it is folded from are the snapshot index's shared Grant objects, whose
scopes parse checked once.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

from perimetric import kernels
from perimetric.errors import EmptyInput, TooLarge, UndefinedMean
from perimetric.metric import EffectiveDistance, Grant, grant_sort_key

BRUTE_FORCE_LIMIT = 9

DistFn = Callable[[Grant, Grant], object]


class Tour(NamedTuple):
    """Cyclic visit order (start repeated at the end) and its exact length."""

    order: tuple[int, ...]
    length: Fraction


class PrincipalRisk(NamedTuple):
    """Risk geometry of one service principal's effective grant set.

    radius, length (the perimeter) and pair_sum (of all distinct pairs'
    distances) are integers in units of 2**-21 (kernels.SCALE). The
    public figures are exact Fractions built from them on each read.
    A tuple of its five fields, as a Grant is of its three.
    """

    spn: str
    n: int
    radius: int
    length: int
    pair_sum: int

    @property
    def blast_radius(self) -> Fraction:
        return Fraction(self.radius, kernels.SCALE)

    @property
    def perimeter(self) -> Fraction:
        return Fraction(self.length, kernels.SCALE)

    @property
    def mean_parts(self) -> tuple[int, int]:
        """Mean distance as an unreduced (numerator, denominator); 0 below two grants."""
        pairs = self.n * (self.n - 1) // 2
        return (self.pair_sum, kernels.SCALE * pairs) if pairs else (0, 1)

    @property
    def mean_distance(self) -> Fraction:
        return Fraction(*self.mean_parts)

    @property
    def spread_parts(self) -> tuple[int, int]:
        """Perimeter over n times the mean, unreduced; (1, 1) where that is undefined."""
        if self.pair_sum > 0:
            return self.length * (self.n - 1), 2 * self.pair_sum
        return 1, 1

    @property
    def spread_ratio(self) -> Fraction:
        return Fraction(*self.spread_parts)

    @property
    def ultracycle(self) -> Fraction | None:
        """Common pairwise distance if all pairs are equal and positive, else None."""
        if self.radius > 0 and self.pair_sum == self.radius * (self.n * (self.n - 1) // 2):
            return self.blast_radius
        return None


def sorted_grants(grants: Iterable[Grant]) -> tuple[Grant, ...]:
    """Deduplicate and order a grant set canonically for indexing.

    Plain orderable points (as used with literal distance tables in
    tests) sort by their natural order.
    """
    items = set(grants)
    try:
        return tuple(sorted(items, key=grant_sort_key))
    except AttributeError:
        return tuple(sorted(items))


def blast_radius(grants: Iterable[Grant], dist: DistFn) -> Fraction:
    """Diameter of the grant set: the maximum pairwise distance.

    Empty and singleton sets have radius 0.
    """
    return assess_principal("", grants, dist).blast_radius


def nn_tour(grants: Sequence[Grant], dist: DistFn, start: int = 0) -> Tour:
    """Greedy nearest-neighbor cycle over an already-indexed grant sequence.

    Ties are broken toward the lowest index, so the tour is reproducible.
    The sequence is used as given; callers own the index assignment.
    """
    n = len(grants)
    if n == 0:
        raise EmptyInput("nn_tour needs at least one grant")
    if not 0 <= start < n:
        raise EmptyInput(f"start index {start} out of range for {n} grants")
    flat = kernels.try_scale(kernels.build_matrix(grants, dist))
    order, length = kernels.nn_tour_flat(flat, n, start)
    return Tour(order=order, length=Fraction(length, kernels.SCALE))


def brute_force_tour(grants: Sequence[Grant], dist: DistFn) -> Fraction:
    """Exact minimal cyclic length by enumerating all (n-1)! orders.

    Test-time oracle; refuses instances beyond 9 grants.
    """
    n = len(grants)
    if n == 0:
        raise EmptyInput("brute_force_tour needs at least one grant")
    if n > BRUTE_FORCE_LIMIT:
        raise TooLarge(f"{n} grants exceed the exhaustive limit of {BRUTE_FORCE_LIMIT}")
    flat = kernels.try_scale(kernels.build_matrix(grants, dist))
    return Fraction(kernels.brute_force_flat(flat, n), kernels.SCALE)


def perimeter(grants: Iterable[Grant], dist: DistFn) -> Fraction:
    """Cyclic tour length over the grant set; 0 for n <= 1.

    The minimal tour when `dist` is ultrametric, as an EffectiveDistance is;
    on any other callable, the greedy tour's length, an upper bound on the minimum.
    """
    return assess_principal("", grants, dist).perimeter


def mean_distance(grants: Iterable[Grant], dist: DistFn) -> Fraction:
    """Average over unordered distinct pairs. Undefined below two grants."""
    risk = assess_principal("", grants, dist)
    if risk.n < 2:
        raise UndefinedMean(f"mean distance needs two grants, got {risk.n}")
    return risk.mean_distance


def spread_ratio(n: int, perimeter_length: Fraction, mean: Fraction) -> Fraction:
    """Perimeter over n times the mean; 1 by convention when that is undefined.

    Point-like sets score exactly 1; genuinely spread sets score below 1.
    """
    if n >= 2 and mean > 0:
        return Fraction(perimeter_length) / (n * Fraction(mean))
    return Fraction(1)


def is_ultracycle(grants: Iterable[Grant], dist: DistFn) -> Fraction | None:
    """Common pairwise distance if all pairs are equal and positive, else None."""
    return assess_principal("", grants, dist).ultracycle


def assess_principal(spn: str, grants: Iterable[Grant], dist: DistFn) -> PrincipalRisk:
    """Full risk record for one principal.

    An EffectiveDistance folds its own grant set or a subset of it, in any
    order, into the record in closed form (EffectiveDistance.geometry); any
    other distance callable is evaluated once per pair into a matrix, over
    the sorted grants. The perimeter is then the nearest-neighbor tour's
    length from the first grant: minimal when the callable is ultrametric,
    else an upper bound on the minimum.
    """
    if isinstance(dist, EffectiveDistance):
        return PrincipalRisk(spn, *dist.geometry(grants))
    items = sorted_grants(grants)
    n = len(items)
    if n <= 1:
        return PrincipalRisk(spn, n, 0, 0, 0)
    return PrincipalRisk(spn, n, *_matrix_geometry(items, dist))


def _matrix_geometry(items: Sequence[Grant], dist: DistFn) -> tuple[int, int, int]:
    """Radius, nearest-neighbor tour length from index 0 and pair sum.

    All three are read off the matrix as kernels.try_scale returns it:
    integers in units of 2**-21, so the record matches the closed form's.
    """
    n = len(items)
    flat = kernels.try_scale(kernels.build_matrix(items, dist))
    _, length = kernels.nn_tour_flat(flat, n, 0)
    radius = max(max(flat[i * n + i + 1 : i * n + n]) for i in range(n - 1))
    return radius, length, sum(flat) // 2
