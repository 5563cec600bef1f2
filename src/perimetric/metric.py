"""Dyadic distances between permission grants.

Two distinct grants sit at raw distance impact / 2**(2 * level + 1),
where level is the canonical level of the lowest common ancestor of
their scopes and impact is the larger of the two access weights (read 1,
write 2 by default). Identical grants are at distance 0. All values are
exact dyadic rationals and every comparison is exact; there are no
tolerances anywhere.

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


@dataclass(frozen=True)
class ImpactModel:
    """Access-class weights feeding the distance numerator.

    Weights other than the defaults are allowed (write must outweigh
    read), but only the defaults guarantee the canonical 22-band census
    and distances bounded by 1.
    """

    read_weight: int = 1
    write_weight: int = 2

    def __post_init__(self) -> None:
        for name, w in (("read_weight", self.read_weight), ("write_weight", self.write_weight)):
            if not isinstance(w, int) or w <= 0:
                raise ValueError(f"{name} must be a positive integer, got {w!r}")
        if self.write_weight <= self.read_weight:
            raise ValueError("write_weight must exceed read_weight")

    def weight(self, access: AccessClass) -> int:
        return self.write_weight if access is AccessClass.WRITE else self.read_weight


DEFAULT_IMPACT = ImpactModel()


def pair_impact(a: Grant, b: Grant, model: ImpactModel = DEFAULT_IMPACT) -> int:
    """Impact of a grant pair: the larger of the two access weights."""
    return max(model.weight(a.access), model.weight(b.access))


def distance(
    a: Grant,
    b: Grant,
    tree: TenantTree,
    model: ImpactModel = DEFAULT_IMPACT,
) -> Fraction:
    """Exact dyadic distance between two grants under one hierarchy."""
    if a == b:
        return Fraction(0)
    level = lca_level(tree, a.scope, b.scope)
    return Fraction(pair_impact(a, b, model), 1 << (2 * level + 1))


@dataclass(frozen=True)
class HierarchyFamily:
    """A native hierarchy plus named re-parented alternates.

    Every alternate must cover exactly the native node-id set; each is a
    fully validated tree in its own right.
    """

    native: TenantTree
    alternates: tuple[tuple[str, TenantTree], ...] = ()

    def __post_init__(self) -> None:
        native_ids = set(self.native.nodes)
        seen = set()
        for name, tree in self.alternates:
            if name in seen:
                raise ValueError(f"alternate hierarchy name {name!r} repeated")
            seen.add(name)
            if set(tree.nodes) != native_ids:
                raise ValueError(
                    f"alternate {name!r} does not cover the native node-id set"
                )

    def members(self):
        """Yield (name, tree) pairs, native first."""
        yield "native", self.native
        yield from self.alternates


def infimum_distance(
    a: Grant,
    b: Grant,
    family: HierarchyFamily,
    model: ImpactModel = DEFAULT_IMPACT,
) -> Fraction:
    """Pointwise minimum of the distance across the family, hence at the deepest LCA level.

    Tighter than any single member, but no longer ultrametric in general.
    """
    if a == b:
        return Fraction(0)
    level = 0
    for name, tree in family.members():
        try:
            level = max(level, lca_level(tree, a.scope, b.scope))
        except UnknownNode as exc:
            raise UnknownNode(f"{exc} (hierarchy {name!r})") from None
    return Fraction(pair_impact(a, b, model), 1 << (2 * level + 1))


@dataclass(frozen=True)
class DistanceModel:
    """Callable pairing an impact model with a tree or family of trees."""

    hierarchy: TenantTree | HierarchyFamily
    impact: ImpactModel = DEFAULT_IMPACT

    def __call__(self, a: Grant, b: Grant) -> Fraction:
        if isinstance(self.hierarchy, HierarchyFamily):
            return infimum_distance(a, b, self.hierarchy, self.impact)
        return distance(a, b, self.hierarchy, self.impact)

    def matrix(self, points: Sequence[Grant]) -> list[int]:
        """Flat row-major matrix of this distance over `points`, in integer units of 2**-21.

        A bare tree counts as a family of one. The level of each pair of distinct
        scopes is found once (see _scope_levels), and a cell is the pair impact
        shifted by that level, read from a table of at most 2 x 11 ints. Equal
        points are at 0. With two or more distinct points, the first unknown
        scope in `points` order raises UnknownNode, as a per-pair call would.
        """
        if isinstance(self.hierarchy, HierarchyFamily):
            trees = list(self.hierarchy.members())
        else:
            trees = [(None, self.hierarchy)]
        n = len(points)
        flat = [0] * (n * n)
        if len(set(points)) < 2:
            return flat
        scopes = list(dict.fromkeys(g.scope for g in points))
        m = len(scopes)
        column = {scope: index for index, scope in enumerate(scopes)}
        keys = [column[g.scope] + m * (g.access is AccessClass.WRITE) for g in points]
        weights = (self.impact.read_weight, self.impact.write_weight)
        # table[max(access of i, access of j)][level]; the n * n cells share these ints
        table = [[w << (kernels.SCALE_BITS - 2 * level - 1) for level in range(MAX_LEVEL + 1)] for w in weights]
        levels = _scope_levels(scopes, trees)
        pick = itemgetter(*keys)
        with_key: dict[int, list[int]] = {}
        for i, key in enumerate(keys):
            with_key.setdefault(key, []).append(i)
        for key, indices in with_key.items():
            write, scope = divmod(key, m)
            # the cell against a read on each scope, then against a write
            by_key = [*map(table[write].__getitem__, levels[scope]), *map(table[1].__getitem__, levels[scope])]
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


def _scope_levels(scopes: Sequence[str], trees: Sequence[tuple[str | None, TenantTree]]) -> list[list[int]]:
    """levels[s][t]: the largest canonical level of a node above both scopes[s] and scopes[t].

    Levels rise strictly down every root path, so within one tree that is the
    level of the deepest common node, and across trees the deepest LCA level
    infimum_distance takes. Each scope's root path is walked once per tree;
    the first scope missing from a tree raises UnknownNode naming that tree.
    A node is skipped when one child holds all its scopes (a chain of
    management groups, say), since that child's higher level wins anyway.
    """
    m = len(scopes)
    levels = [[0] * m for _ in range(m)]
    for name, tree in trees:
        under: dict[str, list[int]] = {}  # node -> indices of the scopes at or below it
        via: dict[str, str] = {}  # node -> a child some of those scopes sit under
        for t, scope in enumerate(scopes):
            if scope not in tree.nodes:
                where = f" (hierarchy {name!r})" if name is not None else ""
                raise UnknownNode(f"node {scope!r} not in tree{where}")
            node = scope
            under.setdefault(node, []).append(t)
            while (parent := tree.nodes[node].parent) is not None:
                via[parent] = node
                under.setdefault(parent, []).append(t)
                node = parent
        for node, members in under.items():
            level = tree.canonical_level[node]
            if level == 0 or (node in via and len(under[via[node]]) == len(members)):
                continue
            for s in members:
                row = levels[s]
                for t in members:
                    if row[t] < level:
                        row[t] = level
    return levels


class EffectiveDistance:
    """Ultrametric over one grant set under one hierarchy.

    The raw pair formula stops being an ultrametric once read and write
    grants mix: a write grant can sit arbitrarily close to a read grant
    while every path around the resulting write pair stays cheap. The
    repair mirrors how clusters actually merge: a write grant raises the
    merge height of every cluster that contains it, so a read pair whose
    sides hold a write meets at the write value of its LCA level. The
    result is a dendrogram, hence a true ultrametric, and it preserves
    the raw distance's diameter (the blast radius) exactly. Sets with a
    single access class are untouched.

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

    def __init__(
        self,
        grants: Iterable[Grant],
        tree: TenantTree,
        model: ImpactModel = DEFAULT_IMPACT,
    ) -> None:
        if model.write_weight >= 4 * model.read_weight:
            raise ValueError(
                "ultrametric closure needs write_weight below four times read_weight"
            )
        self._tree, self._model, self._grants = tree, model, tuple(grants)
        # a set's length is its distinct count; a sequence may repeat a grant
        self._distinct = len(grants) if isinstance(grants, (set, frozenset)) else len(set(self._grants))

    @cached_property
    def _dirty(self) -> set[str]:
        nodes, dirty = self._tree.nodes, set()
        for grant in self._grants:  # a repeated write stops at its scope, already dirty
            if grant.scope not in nodes:
                raise UnknownNode(f"node {grant.scope!r} not in tree")
            node = grant.scope if grant.access is AccessClass.WRITE else None
            while node is not None and node not in dirty:
                dirty.add(node)
                node = nodes[node].parent
        return dirty

    def __call__(self, a: Grant, b: Grant) -> Fraction:
        if a == b:
            return Fraction(0)
        dirty = self._dirty  # checks the set's scopes before the pair's
        top, ca, cb = meet(self._tree, a.scope, b.scope)
        side_a = ca in dirty if ca is not None else a.access is AccessClass.WRITE
        side_b = cb in dirty if cb is not None else b.access is AccessClass.WRITE
        weight = self._model.write_weight if (side_a or side_b) else self._model.read_weight
        return Fraction(weight, 1 << (2 * self._tree.canonical_level[top] + 1))

    def geometry(self, grants: Iterable[Grant]) -> tuple[int, int, int, int]:
        """(n, radius, length, pair_sum) of the closure's dendrogram over the distinct `grants`.

        Heights are integers in units of 2**-21. At a node of level L, its grants and
        occupied child subtrees are blocks: the clean ones merge at read height
        r/2**(2L+1), then, if one is dirty, all at write height w/2**(2L+1). A merge of
        blocks of sizes s adds its height times len(s) - 1 to the tour length and times
        (sum(s)**2 - sum(s*s)) / 2 to the pair sum. The fold stops at the grants' lowest
        common ancestor, whose top merge the tour crosses once more. `grants` must be
        drawn from the closure's own set. When they are all of it (as many distinct
        grants), a subtree is dirty when one of its blocks is, and the dirty set is never
        built; for a proper subset the dirty set decides, so every figure is the closure's
        own distances over the subset. The first unknown scope, in order, raises UnknownNode.
        """
        tree = self._tree
        nodes, depth_of, level_of = tree.nodes, tree.depth, tree.canonical_level
        read, write = self._model.read_weight, self._model.write_weight
        items = dict.fromkeys(grants)
        own = len(items) == self._distinct
        raised_nodes = None if own else self._dirty
        # node -> count, size sum and size-square sum of its clean blocks, then of its dirty ones
        blocks: dict[str, list[int]] = {}
        by_depth: list[list[str]] = [[] for _ in range(MAX_LEVEL + 1)]  # depth <= level
        for grant in items:
            scope = grant.scope
            here = blocks.get(scope)
            if here is None:
                if scope not in nodes:
                    raise UnknownNode(f"node {scope!r} not in tree")
                here = blocks[scope] = [0, 0, 0, 0, 0, 0]
                by_depth[depth_of[scope]].append(scope)
            k = 3 if grant.access is AccessClass.WRITE else 0
            here[k] += 1
            here[k + 1] += 1
            here[k + 2] += 1
        height = length = pair_sum = 0
        for depth in range(len(by_depth) - 1, -1, -1):
            for node in by_depth[depth]:
                here = blocks.pop(node)
                clean, clean_sum, clean_squares, dirty, dirty_sum, dirty_squares = here
                size = clean_sum + dirty_sum
                if clean + dirty > 1:  # a lone block passes up as it is
                    shift = kernels.SCALE_BITS - (2 * level_of[node] + 1)
                    height = read << shift
                    if clean:  # the clean blocks merge at read height
                        length += height * (clean - 1)
                        pair_sum += height * ((clean_sum * clean_sum - clean_squares) >> 1)
                    if dirty:  # then, joined into one, they meet the dirty ones at write height
                        height = write << shift
                        length += height * (dirty if clean else dirty - 1)
                        pair_sum += height * ((size * size - clean_sum * clean_sum - dirty_squares) >> 1)
                if not blocks:  # this node holds every grant
                    return len(items), height, length + height, pair_sum
                parent = nodes[node].parent
                raised = dirty if own else node in raised_nodes
                up = blocks.get(parent)
                if up is None:
                    by_depth[depth - 1].append(parent)
                    if clean + dirty == 1 and raised == dirty:  # a lone block's entry is its new parent's
                        blocks[parent] = here
                        continue
                    up = blocks[parent] = [0, 0, 0, 0, 0, 0]
                k = 3 if raised else 0
                up[k] += 1
                up[k + 1] += size
                up[k + 2] += size * size
        return 0, 0, 0, 0


def effective_distance(
    grants: Iterable[Grant],
    tree: TenantTree,
    model: ImpactModel = DEFAULT_IMPACT,
) -> EffectiveDistance:
    """The per-set ultrametric the analytics pipeline runs on."""
    return EffectiveDistance(grants, tree, model)


def raw_violates(grants: Sequence[Grant], tree: TenantTree, model: ImpactModel = DEFAULT_IMPACT) -> bool:
    """Whether raw distances under `tree` break the strong triangle inequality on `grants`.

    With read < write < 4 * read and levels rising strictly down every root path, they
    do exactly where a write w raises the closure's merge of two reads: w and a read j
    under one child of a node, a read k elsewhere at it, so d(w, k) > max(d(w, j), d(j, k)).
    That is when the reads' pair sum under the full closure exceeds that under their own.
    """
    reads = [g for g in grants if g.access is AccessClass.READ]
    raised = EffectiveDistance(grants, tree, model).geometry(reads)[3]
    return raised > EffectiveDistance(reads, tree, model).geometry(reads)[3]


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
    family's infimum) fills an integer matrix itself (DistanceModel.matrix)
    and is never called per pair. Any other callable is called once per
    pair (kernels.build_matrix), and kernels.try_scale turns that matrix
    into integers over one exact unit; this is the oracle the integer
    path is tested against. Either way the scan compares integers. The
    matrix holds n * n cells, and a scan that finds nothing ANDs two
    n-bit rows for every pair: a clean 1000-grant principal over three
    trees takes about 0.5 s and 2000 grants about 2 s, so keep it at or
    below 2000. Any other callable costs several times that.
    """
    n = len(points)
    if n < 3:
        return []
    if isinstance(dist, DistanceModel):
        flat = dist.matrix(points)
    else:
        flat = kernels.try_scale(kernels.build_matrix(points, dist))[0]
    return kernels.violations_flat(flat, n, limit)
