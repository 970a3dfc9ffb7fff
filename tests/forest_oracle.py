"""The unflowed forest stream, the tests' reference for the flowed generator.

``all_forests`` builds every forest from the same partitions, shapes and
joins as ``topology._flowed_forests`` over ``_forest_shapes``, but skips no
block and no shape for its masses: flows come afterwards, one forest at a
time, from ``assign_flows``, which rejects unbalanced components and drops
zero-flow edges.
"""
import itertools

from gsteiner.topology import (SteinerTopology, _forest_shapes, _join,
                               _set_partitions)


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
