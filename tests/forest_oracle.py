"""References for the topology table ``topology.forest_rows`` and the
forests ``topology._forests``.

``all_forests`` is the unflowed forest stream: every forest over every
partition into blocks of two or more, one ``forest_shapes`` tree per block,
skipping no block and no shape for its masses, each as a plain
``(n_branch, edges)`` tuple.  Flows come afterwards, one forest at a time,
from ``assign_flows(n_branch, edges, b)``, which rejects unbalanced
components and drops zero-flow edges.

``full_splits`` is the tuple construction of the full trees that the
vectorized ``topology._full_splits`` replaced, ``forest_shapes`` the table
of trees whose branch vertices have degree >= 3, one per split key, and
``set_partitions`` the partitions the stream runs over.

``flowed_forests`` is the per-block generator of full forests that the mask
tables and the block walk replaced: it runs over ``set_partitions``, each
block re-sums its masses, and each shape's sides come from one DFS
(``_splits``).  Its forests carry no signature.  ``forest_key`` compares
flowed forests whatever their branch labels.
"""
import itertools
from fractions import Fraction
from functools import lru_cache

from gsteiner.topology import FlowedTopology, _splits, contract


def set_partitions(items):
    """All set partitions, each exactly once, in a deterministic order."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + [list(b) for b in part]
        for i in range(len(part)):
            yield [list(b) for b in part[:i]] + [[first] + list(part[i])] + \
                [list(b) for b in part[i + 1:]]


@lru_cache(maxsize=None)
def full_splits(s):
    """Full trees on s >= 2 terminal slots (0..s-1) and s - 2 branch slots,
    each as (edges, far masks, signs): per edge, the mask of the terminal
    slots on its side away from slot 0, and +1 when that side holds the
    edge's higher endpoint, -1 when it holds the lower one.

    Smith insertion, one tree and one edge at a time: each full tree on the
    first s - 1 terminals has its branch slots shifted up by one, and
    terminal s - 1 is attached to a new branch slot w = 2s - 3 that
    subdivides one of its edges, (x, y) with far mask f and x on the far
    side.  The far half (x, w) keeps f, the near half (y, w) gets f plus the
    new bit, the leaf edge only the bit, and every other edge whose far side
    holds f's terminals gets the bit too.
    """
    if s == 2:
        return ((((0, 1),), (0b10,), (1,)),)
    t, w, bit = s - 1, 2 * s - 3, 1 << (s - 1)
    out = []
    for shape, far, signs in full_splits(s - 1):
        rows = [((u if u < t else u + 1, v if v < t else v + 1), f, sign)
                for (u, v), f, sign in zip(shape, far, signs)]
        for i, ((u, v), fi, sign) in enumerate(rows):
            x, y = (v, u) if sign > 0 else (u, v)
            new = [(e, f | bit if f & fi == fi else f, g)
                   for j, (e, f, g) in enumerate(rows) if j != i]
            new += [((x, w), fi, -1), ((y, w), fi | bit, 1), ((t, w), bit, -1)]
            new.sort()
            out.append(tuple(zip(*new)))
    return tuple(out)


def full_shapes(s):
    """Full trees on s >= 2 terminal slots (0..s-1) and s - 2 branch slots,
    the edges of ``full_splits``."""
    return tuple(shape for shape, _, _ in full_splits(s))


def join(n, blocks, shapes):
    """The branch count and the edges of one shape per block, in block
    order: terminal slots map to the block's atoms, branch slots to fresh
    branch vertices in block order."""
    edges = []
    next_branch = n
    for blk, shape in zip(blocks, shapes):
        m = len(shape) + 1 - len(blk)
        mapping = list(blk) + list(range(next_branch, next_branch + m))
        next_branch += m
        edges.extend((mapping[u], mapping[v]) for u, v in shape)
    return next_branch - n, edges


@lru_cache(maxsize=None)
def forest_shapes(s):
    """Trees on s >= 2 terminal slots (0..s-1) and branch slots s.. of
    degree >= 3, one per split key, ordered by edge count.

    Every such tree is a contraction of a full shape that merges no two
    terminals.  Contracting edges leaves the splits of the other edges as
    they were, so each contraction's key is known before it is built.
    """
    shapes = {}
    for full, splits, _ in full_splits(s):
        unit = FlowedTopology(s, s - 2, full, (1,) * len(full))
        for bits in range(1 << len(full)):
            key = tuple(sorted(side for i, side in enumerate(splits)
                               if not bits >> i & 1))
            if key not in shapes:
                pairs = [e for i, e in enumerate(full) if bits >> i & 1]
                shape, cluster = contract(unit, pairs)
                # contract skips a pair that would merge two terminals
                if all(cluster[u] == cluster[v] for u, v in pairs):
                    shapes[key] = shape.edges
    return tuple(sorted(shapes.values(), key=lambda sh: (len(sh), sh)))


def all_forests(b):
    """Every forest topology for the atoms of ``b``, deterministically, as
    ``(n_branch, edges)``.

    Terminals are indexed by the canonical (sorted) atom order of ``b``.
    Components with unbalanced mass are still emitted.  Singleton
    components are impossible (their terminal would have degree 0) and are
    not generated.  A block of s terminals has at most s - 2 branch
    vertices, so a forest has at most n - 2.
    """
    n = len(b.atoms)
    if n < 2:
        raise ValueError("boundary must have at least 2 atoms")
    for partition in set_partitions(tuple(range(n))):
        blocks = sorted(tuple(sorted(blk)) for blk in partition)
        if any(len(blk) < 2 for blk in blocks):
            continue
        for combo in itertools.product(*(forest_shapes(len(blk))
                                         for blk in blocks)):
            m, edges = join(n, blocks, combo)
            yield m, tuple(sorted(edges))


def shrank(topo, ft):
    """Whether flow assignment took an edge or a branch vertex from the
    ``(n_branch, edges)`` forest ``topo``: ``ft`` is then a smaller forest,
    not a current on ``topo``'s support."""
    m, edges = topo
    return (len(ft.edges), ft.n_branch) != (len(edges), m)


@lru_cache(maxsize=None)
def _flowing_shapes(masses):
    """The full shapes with flow on every edge on a balanced block of
    ``masses``, each with its flows in edge order: the flow on an edge is
    the mass on its higher endpoint's side, summed once per side."""
    s = len(masses)
    full = (1 << s) - 1

    @lru_cache(maxsize=None)
    def mass(side):
        return sum((m for i, m in enumerate(masses) if side >> i & 1),
                   Fraction(0))

    out = []
    for shape in full_shapes(s):
        _, splits, signs = _splits(s, shape)
        flows = tuple(mass(side if sign > 0 else full ^ side)
                      for side, sign in zip(splits, signs))
        if all(flows):
            out.append((shape, flows))
    return out


def flowed_forests(masses):
    """Every forest over a balanced partition whose blocks span full shapes
    with flow on every edge, in ``set_partitions`` order."""
    n = len(masses)
    for partition in set_partitions(tuple(range(n))):
        blocks = sorted(tuple(sorted(blk)) for blk in partition)
        if any(len(blk) < 2 or sum(masses[i] for i in blk) != 0
               for blk in blocks):
            continue
        for combo in itertools.product(*(
                _flowing_shapes(tuple(masses[i] for i in blk))
                for blk in blocks)):
            block_shapes, flows = zip(*combo)
            m, edges = join(n, blocks, block_shapes)
            edges, flows = zip(*sorted(zip(edges, itertools.chain(*flows))))
            yield FlowedTopology(n, m, edges, flows)


def forest_key(ft):
    """``ft``'s signature, with per split the flow out of the split's side
    beside it, which do not depend on how the branch vertices are
    labeled."""
    components, splits, signs = _splits(ft.n_terminals, ft.edges)
    return (ft.n_terminals, ft.n_branch, tuple(sorted(components)),
            tuple(sorted((side, flow if sign > 0 else -flow)
                         for side, sign, flow in zip(splits, signs,
                                                     ft.edge_flows))))
