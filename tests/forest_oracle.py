"""References for the flowed generator ``topology._flowed_forests``.

``all_forests`` is the unflowed forest stream: every forest from the same
partitions, shapes and joins as ``_flowed_forests`` over ``_forest_shapes``,
but skipping no block and no shape for its masses.  Flows come afterwards,
one forest at a time, from ``assign_flows``, which rejects unbalanced
components and drops zero-flow edges.

``flowed_forests`` is the per-block generator that the mask tables replaced:
each block re-sums its masses, and each shape's sides come from one DFS
(``_splits``).  Its forests carry no signature.
"""
import itertools
from fractions import Fraction

from gsteiner.topology import (FlowedTopology, SteinerTopology,
                               _forest_shapes, _join, _set_partitions,
                               _splits)


def all_forests(b):
    """Every forest topology for the atoms of ``b``, deterministically.

    Terminals are indexed by the canonical (sorted) atom order of ``b``.
    Components with unbalanced mass are still emitted.  Singleton
    components are impossible (their terminal would have degree 0) and are
    not generated.  A block of s terminals has at most s - 2 branch
    vertices, so a forest has at most n - 2.
    """
    n = len(b.atoms)
    if n < 2:
        raise ValueError("boundary must have at least 2 atoms")
    masses = tuple(m for _, m in b.atoms)
    for partition in _set_partitions(tuple(range(n))):
        blocks = sorted(tuple(sorted(blk)) for blk in partition)
        if any(len(blk) < 2 for blk in blocks):
            continue
        for combo in itertools.product(*(_forest_shapes(len(blk))
                                         for blk in blocks)):
            m, edges = _join(n, blocks, combo)
            yield SteinerTopology(n, m, tuple(sorted(edges)), masses)


def shrank(topo, ft):
    """Whether flow assignment took an edge or a branch vertex from
    ``topo``: ``ft`` is then a smaller forest, not a current on ``topo``'s
    support."""
    return (len(ft.topology.edges), ft.topology.n_branch) != \
        (len(topo.edges), topo.n_branch)


def _flowing_shapes(masses, shapes):
    """The shapes of ``shapes(len(masses))`` with flow on every edge on a
    balanced block of ``masses``, each with its flows in edge order: the
    flow on an edge is the mass on its higher endpoint's side."""
    s = len(masses)
    full = (1 << s) - 1
    out = []
    for shape in shapes(s):
        _, splits, signs = _splits(s, shape)
        flows = tuple(sum((m for i, m in enumerate(masses)
                           if (side if sign > 0 else full ^ side) >> i & 1),
                          Fraction(0))
                      for side, sign in zip(splits, signs))
        if all(flows):
            out.append((shape, flows))
    return out


def flowed_forests(masses, shapes):
    """Every forest over a balanced partition whose blocks span shapes of
    ``shapes`` with flow on every edge, in ``_flowed_forests``' order."""
    n = len(masses)
    for partition in _set_partitions(tuple(range(n))):
        blocks = sorted(tuple(sorted(blk)) for blk in partition)
        if any(len(blk) < 2 or sum(masses[i] for i in blk) != 0
               for blk in blocks):
            continue
        for combo in itertools.product(*(
                _flowing_shapes(tuple(masses[i] for i in blk), shapes)
                for blk in blocks)):
            block_shapes, flows = zip(*combo)
            m, edges = _join(n, blocks, block_shapes)
            edges, flows = zip(*sorted(zip(edges, itertools.chain(*flows))))
            yield FlowedTopology(SteinerTopology(n, m, edges, masses), flows)
