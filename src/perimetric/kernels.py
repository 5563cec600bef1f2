"""Distance-matrix kernels: nearest-neighbor tour, exhaustive tour, triple scan.

These run on a flat row-major matrix and serve the inputs that have no
closed form and the test oracles: the matrix tour is the oracle the
closure's closed forms (EffectiveDistance.geometry and .tour) are tested
against, and no command calls build_matrix, try_scale or nn_tour_flat.
build_matrix calls a distance once per pair; check_ultrametricity skips
it for a DistanceModel (raw-tree and family-infimum distances), which
fills an integer matrix itself (DistanceModel.matrix), or needs none for
a set whose scopes' root paths no alternate moves and that raw_violates
finds clean. Every matrix a
kernel sees holds plain integers in units of 2**-21 (SCALE), the grid
every distance of a tenant lies on: try_scale turns int and Fraction
distances into those integers and rejects any value off the grid.
Callers turn a result back into a Fraction over SCALE, so every result
is exact. The nearest-neighbor tour takes each step with min() over the
unvisited indices in ascending order, so a tie goes to the lowest index.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from typing import Callable, Sequence, TypeVar

BACKEND = "pure-python"

SCALE_BITS = 21
SCALE = 1 << SCALE_BITS

T = TypeVar("T")


def build_matrix(items: Sequence[T], dist: Callable[[T, T], object]) -> list:
    """Flat row-major matrix of pairwise distances with a zero diagonal.

    dist is called once per unordered pair and mirrored.
    """
    n = len(items)
    flat = [0] * (n * n)
    for i in range(n):
        for j in range(i + 1, n):
            value = dist(items[i], items[j])
            flat[i * n + j] = value
            flat[j * n + i] = value
    return flat


def try_scale(values: Sequence[int | Fraction]) -> list[int]:
    """The values as integers in units of 2**-21.

    Only int and Fraction values are accepted; anything else raises
    TypeError, and a value that is not a whole number of units (1/3,
    2**-22) raises ValueError.
    """
    for value in values:
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"distance {value!r} is not an int or a Fraction")
        if SCALE % value.denominator:
            raise ValueError(f"distance {value} is not a whole number of 2**-21 units")
    return [value.numerator * (SCALE // value.denominator) for value in values]


def nn_tour_flat(flat: Sequence[int], n: int, start: int) -> tuple[tuple[int, ...], int]:
    """Greedy nearest-unvisited cycle from `start`; ties go to the lowest index.

    Returns (order, length) where order lists n+1 indices with the start
    repeated at the end.
    """
    if n <= 0:
        raise ValueError("empty matrix")
    if not 0 <= start < n:
        raise ValueError("start out of range")
    unvisited = [j for j in range(n) if j != start]  # ascending: min() returns the first minimum
    order = [start]
    total = 0
    cur = start
    while unvisited:
        row = flat[cur * n : cur * n + n]
        cur = min(unvisited, key=row.__getitem__)
        unvisited.remove(cur)
        order.append(cur)
        total += row[cur]
    total += flat[cur * n + start]
    order.append(start)
    return tuple(order), total


def brute_force_flat(flat: Sequence[int], n: int) -> int:
    """Exact minimum cyclic tour length with index 0 fixed first."""
    if n <= 0:
        raise ValueError("empty matrix")
    if n == 1:
        return flat[0]
    best = None
    for perm in permutations(range(1, n)):
        total = flat[perm[0]]
        prev = perm[0]
        for nxt in perm[1:]:
            total += flat[prev * n + nxt]
            prev = nxt
        total += flat[prev * n]
        if best is None or total < best:
            best = total
    return best


def violations_flat(flat: Sequence[int], n: int, cap: int) -> list[tuple[int, int, int]]:
    """Strong-triangle-inequality violations of a symmetric integer flat matrix.

    A triple (i, j, k) with i < k is reported when d[i,k] > max(d[i,j], d[j,k]);
    mirror images are not repeated. Emission order is (i, k, j) ascending,
    capped at `cap` findings.

    For each threshold t and row i a Python-int bitset marks every j with
    d[i,j] < t, so the violating j of a pair (i, k) are the set bits of
    below(d[i,k], i) & below(d[i,k], k); i and k themselves never qualify,
    since d[i,k] is not below itself. Bitsets are built on first use, so a
    scan that stops at the cap builds only the rows it reached.
    """
    if cap <= 0:
        return []
    below: dict[object, list[int | None]] = {}  # threshold -> bitset per row

    def row_below(t, row: int) -> int:
        cells = flat[row * n : row * n + n]
        return int("".join(["1" if d < t else "0" for d in reversed(cells)]), 2)

    found = []
    for i in range(n):
        row_i = i * n
        for k in range(i + 1, n):
            t = flat[row_i + k]
            rows = below.get(t)
            if rows is None:
                rows = below[t] = [None] * n
            bits_i = rows[i]
            if bits_i is None:
                bits_i = rows[i] = row_below(t, i)
            bits_k = rows[k]
            if bits_k is None:
                bits_k = rows[k] = row_below(t, k)
            hits = bits_i & bits_k
            while hits:
                low = hits & -hits
                found.append((i, low.bit_length() - 1, k))
                if len(found) == cap:
                    return found
                hits ^= low
    return found
