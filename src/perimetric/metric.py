"""Dyadic distances between permission grants.

Two distinct grants sit at raw distance impact / 2**(2 * level + 1),
where level is the canonical level of the lowest common ancestor of
their scopes and impact is the larger of the two access weights,
READ_WEIGHT 1 and WRITE_WEIGHT 2. These are the paper's weights and the
only ones used: they give the 22-value band census, keep every distance
at most 1, and satisfy read < write < 4 * read, which the closure and
raw_violates rely on. Identical grants are at distance 0. All values are
exact dyadic rationals and every comparison is exact; there are no
tolerances anywhere.

Inside, the metric reads every distance from one table built at import,
HEIGHTS, in integer units of 2**-21. Only DistanceModel's per-pair call works
the formula out again, as the independent reference the table is tested against.

The raw pair formula is what blast radii, band values and hierarchy
infima are defined on. For tour geometry over one grant set, use
EffectiveDistance: the raw formula's ultrametric closure, which repairs
the strong triangle inequality on sets that mix read and write grants
while preserving the diameter exactly (raw_violates tells from it whether
a set needed the repair). The pointwise infimum over a family of alternate
hierarchies is generally not ultrametric, which check_ultrametricity finds.

A Grant is a tuple of (action, access, scope), and AccessClass hashes by
identity, so hashing and comparing grants runs in C. EffectiveDistance does
not check its scopes when built, since a snapshot's scopes were checked once
at parse; the queries that read the tree check the scopes they meet.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence, TypeVar

from perimetric import kernels
from perimetric.errors import UnknownNode
from perimetric.hierarchy import MAX_LEVEL, TenantTree, lca_level, meet


class AccessClass(Enum):
    READ = "read"
    WRITE = "write"

    # members are singletons and Enum equality is identity, so the C-level
    # identity hash agrees with it (Enum's own hashes the name in Python)
    __hash__ = object.__hash__


class Grant(NamedTuple):
    """One (action, access class, scope) permission atom.

    A tuple: it hashes, compares and unpacks as (action, access, scope).
    """

    action: str
    access: AccessClass
    scope: str


def grant_sort_key(grant: Grant) -> tuple[str, str, str]:
    """Canonical ordering used everywhere a grant set needs an index."""
    return (grant.action, grant.access.value, grant.scope)


READ_WEIGHT = 1
WRITE_WEIGHT = 2

# HEIGHTS[write][level]: the raw distance, in integer units of 2**-21, of a pair
# whose LCA has that level, for two reads (write 0) and for a pair holding a write (1)
HEIGHTS = tuple(
    tuple(weight << (kernels.SCALE_BITS - 2 * level - 1) for level in range(MAX_LEVEL + 1))
    for weight in (READ_WEIGHT, WRITE_WEIGHT)
)


def pair_impact(a: Grant, b: Grant) -> int:
    """Impact of a grant pair: the larger of the two access weights."""
    return WRITE_WEIGHT if AccessClass.WRITE in (a.access, b.access) else READ_WEIGHT


@dataclass(frozen=True)
class HierarchyFamily:
    """A native hierarchy plus named re-parented alternates.

    Every alternate must cover exactly the native node-id set; each is a
    fully validated tree in its own right.
    """

    native: TenantTree
    alternates: tuple[tuple[str, TenantTree], ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for name, tree in self.alternates:
            if name in seen:
                raise ValueError(f"alternate hierarchy name {name!r} repeated")
            seen.add(name)
            if tree.parent.keys() != self.native.parent.keys():
                raise ValueError(
                    f"alternate {name!r} does not cover the native node-id set"
                )

    def members(self):
        """Yield (name, tree) pairs, native first."""
        yield "native", self.native
        yield from self.alternates


def _members(hierarchy: TenantTree | HierarchyFamily) -> list[tuple[str | None, TenantTree]]:
    """(name, tree) pairs, native first; a bare tree is a family of one, with no name."""
    if isinstance(hierarchy, HierarchyFamily):
        return list(hierarchy.members())
    return [(None, hierarchy)]


def _unknown(scope: str, name: str | None) -> UnknownNode:
    """The error for a scope missing from the tree called `name` (None for a bare tree)."""
    return UnknownNode(f"node {scope!r} not in tree" + (f" (hierarchy {name!r})" if name is not None else ""))


class DistanceModel(NamedTuple):
    """Callable distance under a tree or a family of trees."""

    hierarchy: TenantTree | HierarchyFamily

    def __call__(self, a: Grant, b: Grant) -> Fraction:
        """The raw distance at the deepest LCA level across the members; 0 for equal grants."""
        if a == b:
            return Fraction(0)
        level = 0
        for name, tree in _members(self.hierarchy):
            for scope in (a.scope, b.scope):
                if scope not in tree.parent:
                    raise _unknown(scope, name)
            level = max(level, lca_level(tree, a.scope, b.scope))
        return Fraction(pair_impact(a, b), 1 << (2 * level + 1))

    def matrix(self, points: Sequence[Grant]) -> list[int]:
        """Flat row-major matrix of this distance over `points`, in integer units of 2**-21.

        A bare tree counts as a family of one. The level of each pair of distinct
        scopes is found once (see _scope_levels), and a cell is read from HEIGHTS
        at that level, so the n * n cells share its 22 ints. Equal
        points are at 0. With two or more distinct points, the first unknown
        scope in `points` order raises UnknownNode, as a per-pair call would.
        """
        n = len(points)
        flat = [0] * (n * n)
        if len(set(points)) < 2:
            return flat
        scopes = list(dict.fromkeys(g.scope for g in points))
        m = len(scopes)
        column = {scope: index for index, scope in enumerate(scopes)}
        keys = [column[g.scope] + m * (g.access is AccessClass.WRITE) for g in points]
        levels = _scope_levels(scopes, _members(self.hierarchy))
        pick = itemgetter(*keys)
        with_key: dict[int, list[int]] = {}
        for i, key in enumerate(keys):
            with_key.setdefault(key, []).append(i)
        for key, indices in with_key.items():
            write, scope = divmod(key, m)
            # the cell against a read on each scope, then against a write
            by_key = [*map(HEIGHTS[write].__getitem__, levels[scope]), *map(HEIGHTS[1].__getitem__, levels[scope])]
            row = pick(by_key)
            for i in indices:
                flat[i * n : i * n + n] = row
        same: dict[Grant, list[int]] = {}
        for i, point in enumerate(points):
            same.setdefault(point, []).append(i)
        for indices in same.values():
            for i in indices:
                for j in indices:
                    flat[i * n + j] = 0
        return flat


def distance(a: Grant, b: Grant, hierarchy: TenantTree | HierarchyFamily) -> Fraction:
    """Exact dyadic distance between two grants under a tree, or under a family.

    Under a HierarchyFamily it is the pointwise minimum across the members, at the
    deepest LCA level: tighter than any single member, but no longer ultrametric in
    general.
    """
    return DistanceModel(hierarchy)(a, b)


def _scope_levels(scopes: Sequence[str], trees: Sequence[tuple[str | None, TenantTree]]) -> list[list[int]]:
    """levels[s][t]: the largest canonical level of a node above both scopes[s] and scopes[t].

    Levels rise strictly down every root path, so within one tree that is the
    level of the deepest common node, and across trees the deepest LCA level
    distance takes under a family. Each scope's root path is walked once per tree;
    the first scope missing from a tree raises UnknownNode naming that tree.
    A node is skipped when one child holds all its scopes (a chain of
    management groups, say), since that child's higher level wins anyway.
    """
    m = len(scopes)
    levels = [[0] * m for _ in range(m)]
    for name, (parent_of, level_of) in trees:
        under: dict[str, list[int]] = {}  # node -> indices of the scopes at or below it
        via: dict[str, str] = {}  # node -> a child some of those scopes sit under
        for t, scope in enumerate(scopes):
            if scope not in parent_of:
                raise _unknown(scope, name)
            node = scope
            under.setdefault(node, []).append(t)
            while (parent := parent_of[node]) is not None:
                via[parent] = node
                under.setdefault(parent, []).append(t)
                node = parent
        for node, members in under.items():
            level = level_of[node]
            if level == 0 or (node in via and len(under[via[node]]) == len(members)):
                continue
            for s in members:
                row = levels[s]
                for t in members:
                    if row[t] < level:
                        row[t] = level
    return levels


def _unmoved(points: Sequence[Grant], model: DistanceModel) -> bool:
    """Whether every alternate gives the scopes of `points` their native root paths.

    Then each pair's LCA is one node, at one canonical level, in every tree, so the infimum
    is the native raw distance, which raw_violates decides. A set of fewer than two distinct
    points holds; otherwise unknown scopes raise UnknownNode as in matrix().
    """
    if len(set(points)) < 2:
        return True
    (name, native), *alternates = _members(model.hierarchy)
    path: dict[str, str | None] = {}  # node on a scope's native root path -> its parent
    for scope in dict.fromkeys(g.scope for g in points):
        if scope not in native.parent:
            raise _unknown(scope, name)
        node = scope
        while node is not None and node not in path:
            path[node] = node = native.parent[node]
    return all(tree.parent[n] == p for _, tree in alternates for n, p in path.items())


class EffectiveDistance:
    """Ultrametric over one grant set under one hierarchy.

    The raw pair formula stops being an ultrametric once read and write
    grants mix: a write grant can sit arbitrarily close to a read grant
    while every path around the resulting write pair stays cheap. The
    repair mirrors how clusters actually merge: a write grant raises the
    merge height of every cluster that contains it, so a read pair whose
    sides hold a write meets at the write value of its LCA level. The
    result is a dendrogram, hence a true ultrametric, and it preserves
    the raw distance's diameter (the blast radius) exactly, because write
    is below four times read: a write pair one level deeper never outweighs
    a read pair above it. Sets with a single access class are untouched.

    Instances are bound to one grant set; only pairs and subsets of that
    set may be queried. A subset gets the closure's own distances: a write
    left out of it still raises the merges it raised in the whole set. The
    dirty set (nodes with a write at or below them) is built on first use;
    geometry over the whole set never needs it.
    Scopes are not checked on construction (a snapshot's grants were
    checked when it was parsed): geometry checks the scopes it folds, and
    building the dirty set checks the set's own, so every query still
    raises UnknownNode for the first unknown scope.
    """

    def __init__(self, grants: Iterable[Grant], tree: TenantTree) -> None:
        self._tree, self._grants = tree, tuple(grants)
        # a set's length is its distinct count; a sequence may repeat a grant
        self._distinct = len(grants) if isinstance(grants, (set, frozenset)) else len(set(self._grants))

    @cached_property
    def _dirty(self) -> set[str]:
        parent_of, dirty = self._tree.parent, set()
        for grant in self._grants:  # a repeated write stops at its scope, already dirty
            if grant.scope not in parent_of:
                raise _unknown(grant.scope, None)
            node = grant.scope if grant.access is AccessClass.WRITE else None
            while node is not None and node not in dirty:
                dirty.add(node)
                node = parent_of[node]
        return dirty

    def __call__(self, a: Grant, b: Grant) -> Fraction:
        if a == b:
            return Fraction(0)
        dirty = self._dirty  # checks the set's scopes before the pair's
        top, ca, cb = meet(self._tree, a.scope, b.scope)
        side_a = ca in dirty if ca is not None else a.access is AccessClass.WRITE
        side_b = cb in dirty if cb is not None else b.access is AccessClass.WRITE
        return Fraction(HEIGHTS[side_a or side_b][self._tree.canonical_level[top]], kernels.SCALE)

    def geometry(self, grants: Iterable[Grant]) -> tuple[int, int, int, int]:
        """(n, radius, length, pair_sum) of the closure's dendrogram over the distinct `grants`.

        Heights are integers in units of 2**-21. At a node of level L, its grants and
        occupied child subtrees are blocks: the clean ones merge at read height
        HEIGHTS[0][L], then, if one is dirty, all at write height HEIGHTS[1][L]. A merge of
        blocks of sizes s adds its height times len(s) - 1 to the tour length and times
        (sum(s)**2 - sum(s*s)) / 2 to the pair sum. The fold stops at the grants' lowest
        common ancestor, whose top merge the tour crosses once more. `grants` must be
        drawn from the closure's own set. When they are all of it (as many distinct
        grants), a subtree is dirty when one of its blocks is, and the dirty set is never
        built; for a proper subset the dirty set decides, so every figure is the closure's
        own distances over the subset. The first unknown scope, in order, raises UnknownNode.
        """
        parent_of, level_of = self._tree
        items = dict.fromkeys(grants)
        own = len(items) == self._distinct
        raised_nodes = None if own else self._dirty
        # node -> count, size sum and size-square sum of its clean blocks, then of its dirty ones
        blocks: dict[str, list[int]] = {}
        by_level: list[list[str]] = [[] for _ in range(MAX_LEVEL + 1)]  # a parent's level is below its child's
        for grant in items:
            scope = grant.scope
            here = blocks.get(scope)
            if here is None:
                if scope not in parent_of:
                    raise _unknown(scope, None)
                here = blocks[scope] = [0, 0, 0, 0, 0, 0]
                by_level[level_of[scope]].append(scope)
            k = 3 if grant.access is AccessClass.WRITE else 0
            here[k] += 1
            here[k + 1] += 1
            here[k + 2] += 1
        reads, writes = HEIGHTS
        height = length = pair_sum = 0
        for level in range(MAX_LEVEL, -1, -1):
            for node in by_level[level]:
                here = blocks.pop(node)
                clean, clean_sum, clean_squares, dirty, dirty_sum, dirty_squares = here
                size = clean_sum + dirty_sum
                if clean + dirty > 1:  # a lone block passes up as it is
                    height = reads[level]
                    if clean:  # the clean blocks merge at read height
                        length += height * (clean - 1)
                        pair_sum += height * ((clean_sum * clean_sum - clean_squares) >> 1)
                    if dirty:  # then, joined into one, they meet the dirty ones at write height
                        height = writes[level]
                        length += height * (dirty if clean else dirty - 1)
                        pair_sum += height * ((size * size - clean_sum * clean_sum - dirty_squares) >> 1)
                if not blocks:  # this node holds every grant
                    return len(items), height, length + height, pair_sum
                parent = parent_of[node]
                raised = dirty if own else node in raised_nodes
                up = blocks.get(parent)
                if up is None:
                    by_level[level_of[parent]].append(parent)
                    if clean + dirty == 1 and raised == dirty:  # a lone block's entry is its new parent's
                        blocks[parent] = here
                        continue
                    up = blocks[parent] = [0, 0, 0, 0, 0, 0]
                k = 3 if raised else 0
                up[k] += 1
                up[k + 1] += size
                up[k + 2] += size * size
        return 0, 0, 0, 0

    def tour(self, grants: Sequence[Grant]) -> tuple[int, ...]:
        """nn_tour(grants, self).order, the start repeated at the end, with no distance computed.

        On an ultrametric the greedy tour from index 0 enters every cluster at its lowest
        index and visits the cluster's children in the order of their lowest indices. At
        a node, the blocks are its child subtrees and its distinct grants; the clean ones
        (a subtree outside the dirty set, a read) form one cluster below the write merge.
        So each index sorts on, per node from the root down: the clean blocks' lowest index
        if its block is clean, else its block's own; then its block's own. Equal grants
        share a block and stay in index order. `grants` must be drawn from the closure's
        own set; the first unknown scope, in order, raises UnknownNode.
        """
        parent_of, dirty = self._tree.parent, self._dirty
        lowest: dict[tuple[str, object], int] = {}  # (node, block) -> the block's lowest index
        clean_lowest: dict[str, int] = {}  # node -> the lowest index of its clean blocks
        keys = []
        for i, grant in enumerate(grants):  # in index order, a lowest index is final once set
            if grant.scope not in parent_of:
                raise _unknown(grant.scope, None)
            key, node, block, clean = [], grant.scope, grant, grant.access is AccessClass.READ
            while node is not None:
                own = lowest.setdefault((node, block), i)
                key.append((clean_lowest.setdefault(node, i) if clean else own, own))
                node, block, clean = parent_of[node], node, node not in dirty
            keys.append(key[::-1])
        order = sorted(range(len(keys)), key=keys.__getitem__)
        return (*order, *order[:1])


def effective_distance(grants: Iterable[Grant], tree: TenantTree) -> EffectiveDistance:
    """The per-set ultrametric the analytics pipeline runs on."""
    return EffectiveDistance(grants, tree)


def raw_violates(grants: Sequence[Grant], tree: TenantTree) -> bool:
    """Whether raw distances under `tree` break the strong triangle inequality on `grants`.

    Since READ_WEIGHT < WRITE_WEIGHT < 4 * READ_WEIGHT and levels rise strictly down every
    root path, they do exactly where a write w raises the closure's merge of two reads: w
    and a read j under one child of a node, a read k elsewhere at it, so
    d(w, k) > max(d(w, j), d(j, k)).
    That is when the reads' pair sum under the full closure exceeds that under their own. A set
    of one access class has no write to raise a read pair, so it returns False at once.
    """
    reads = [g for g in grants if g.access is AccessClass.READ]
    if not reads or len(reads) == len(grants):
        return False
    raised = EffectiveDistance(grants, tree).geometry(reads)[3]
    return raised > EffectiveDistance(reads, tree).geometry(reads)[3]


P = TypeVar("P")


def check_ultrametricity(
    points: Sequence[P],
    dist: Callable[[P, P], object],
    limit: int = 100,
) -> list[tuple[int, int, int]]:
    """Scan all triples for strong-triangle-inequality violations.

    Returns canonical (i, j, k) index triples with i < k where
    d(i, k) > max(d(i, j), d(j, k)), capped at `limit` findings. An empty
    result means the distance is ultrametric on this point set.

    The path is chosen by the type of dist. A DistanceModel (one tree, or a
    family's infimum) is never called per pair. On a set whose scopes no
    alternate moves off their native root paths (see _unmoved) it is the
    native raw distance, so a set raw_violates finds clean builds no matrix:
    2,000 such read and write grants take a few thousandths of a second.
    Any other set fills an integer matrix (DistanceModel.matrix) for the
    triple scan. Any other callable is called once per pair
    (kernels.build_matrix), and kernels.try_scale turns that matrix into
    integers in units of 2**-21 (ValueError for a distance off that grid);
    this is the oracle the integer path is tested against. Either way the
    scan compares integers. The matrix holds n * n cells, and a scan that
    stops short of `limit` ANDs two n-bit rows for every pair: about 2 s
    for 2000 points, so keep the sets that reach it (moved by an alternate,
    or dirty on the native tree) at or below about 2000 points.
    """
    n = len(points)
    if n < 3:
        return []
    if isinstance(dist, DistanceModel):
        if _unmoved(points, dist) and not raw_violates(points, _members(dist.hierarchy)[0][1]):
            return []
        flat = dist.matrix(points)
    else:
        flat = kernels.try_scale(kernels.build_matrix(points, dist))
    return kernels.violations_flat(flat, n, limit)
