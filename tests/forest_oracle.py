"""References for the flowed generators ``topology._flowed_forests`` and
``topology._forests``.

``all_forests`` is the unflowed forest stream: every forest over every
partition into blocks of two or more, one ``forest_shapes`` tree per block,
skipping no block and no shape for its masses, each as a plain
``(n_branch, edges)`` tuple.  Flows come afterwards, one forest at a time,
from ``assign_flows(n_branch, edges, b)``, which rejects unbalanced
components and drops zero-flow edges.

``forest_shapes`` is the table of trees whose branch vertices have degree
>= 3, one per split key, and ``set_partitions`` the partitions the stream
runs over.

``flowed_forests`` is the per-block generator of full forests that the mask
tables and the block walk replaced: it runs over ``set_partitions``, each
block re-sums its masses, and each shape's sides come from one DFS
(``_splits``).  Its forests carry no signature.
"""
import itertools
from fractions import Fraction
from functools import lru_cache

from gsteiner.topology import (FlowedTopology, _full_splits, _join, _splits,
                               contract)


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


def full_shapes(s):
    """Full trees on s >= 2 terminal slots (0..s-1) and s - 2 branch slots,
    the edges of ``_full_splits``."""
    return tuple(shape for shape, _, _ in _full_splits(s))


@lru_cache(maxsize=None)
def forest_shapes(s):
    """Trees on s >= 2 terminal slots (0..s-1) and branch slots s.. of
    degree >= 3, one per split key, ordered by edge count.

    Every such tree is a contraction of a full shape that merges no two
    terminals.  Contracting edges leaves the splits of the other edges as
    they were, so each contraction's key is known before it is built.
    """
    shapes = {}
    for full, splits, _ in _full_splits(s):
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
            m, edges = _join(n, blocks, combo)
            yield m, tuple(sorted(edges))


def shrank(topo, ft):
    """Whether flow assignment took an edge or a branch vertex from the
    ``(n_branch, edges)`` forest ``topo``: ``ft`` is then a smaller forest,
    not a current on ``topo``'s support."""
    m, edges = topo
    return (len(ft.edges), ft.n_branch) != (len(edges), m)


def _flowing_shapes(masses):
    """The full shapes with flow on every edge on a balanced block of
    ``masses``, each with its flows in edge order: the flow on an edge is
    the mass on its higher endpoint's side."""
    s = len(masses)
    full = (1 << s) - 1
    out = []
    for shape in full_shapes(s):
        _, splits, signs = _splits(s, shape)
        flows = tuple(sum((m for i, m in enumerate(masses)
                           if (side if sign > 0 else full ^ side) >> i & 1),
                          Fraction(0))
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
            m, edges = _join(n, blocks, block_shapes)
            edges, flows = zip(*sorted(zip(edges, itertools.chain(*flows))))
            yield FlowedTopology(n, m, edges, flows)
