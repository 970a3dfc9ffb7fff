"""Enumeration of network topologies for an atomic boundary.

A candidate topology is a forest on the labeled terminals (one per boundary
atom) plus unlabeled auxiliary branch vertices.  Flows on a forest are
uniquely determined by mass conservation (leaf stripping).

Every forest here is built from full trees (terminals are leaves, s - 2
branch vertices of degree 3 on a block of s terminals).  The (2s - 5)!!
full trees of a block come from Smith's insertion scheme (W. D. Smith,
Algorithmica 7, 1992): terminal i is inserted on every edge of each full
tree on the terminals before it, which yields every full tree exactly once
up to branch relabeling.

The solver's candidate set, :func:`enumerate_topologies`, holds only the
full topologies over *balanced* partitions: blocks of total mass zero, each
spanning a full tree.  Any other forest is a contraction of a full one,
whose location-energy domain contains the contracted configuration, so the
full optimum is never larger and collapses onto the same chain.  A full tree
with a zero-flow edge is not built: without that edge it is a full topology
of a finer balanced partition, which is enumerated anyway.

:func:`_all_forests` yields every forest whose branch vertices have degree
>= 3, each once: per block, the contractions of the full trees that merge no
two terminals (:func:`_forest_shapes`).  It serves the 4-point local
classification, which needs the non-full supports, and the independent
brute-force oracle.  Both streams are deterministic.

Topologies are identified by their splits.  Each edge of a forest splits
its component's terminals in two, and a tree whose unlabeled vertices all
have degree >= 3 is determined by the set of these splits (Buneman's
splits-equivalence theorem: P. Buneman 1971; Semple & Steel,
*Phylogenetics*, 2003).  So the component terminal sets plus the splits are
a canonical key that needs no search over branch relabelings; the flows
follow from the masses.

Enumeration is exhaustive by design and intended for small n; callers guard
instance size.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .currents import Boundary

Edge = tuple[int, int]


class InfeasibleTopologyError(Exception):
    """Raised when a forest component is incompatible with the boundary."""


@dataclass(frozen=True)
class SteinerTopology:
    """Forest over terminals 0..n-1 and branch vertices n..n+m-1."""
    n_terminals: int
    n_branch: int
    edges: tuple[Edge, ...]
    terminal_masses: tuple[Fraction, ...]

    def __post_init__(self):
        if self.n_branch > max(0, self.n_terminals - 2):
            raise ValueError("too many branch vertices (bound is n - 2)")
        for u, v in self.edges:
            if not (0 <= u < v < self.n_terminals + self.n_branch):
                raise ValueError("edge endpoints out of range or unordered")

    def degree(self, v: int) -> int:
        return sum(1 for u, w in self.edges if u == v or w == v)


@dataclass(frozen=True)
class FlowedTopology:
    """Topology with the unique conservative edge flows.

    ``edge_flows[i]`` is the signed rational flow on ``topology.edges[i]``,
    positive when flowing from the lower-indexed endpoint to the higher.
    ``degenerate`` marks a topology rewritten into a smaller forest, by
    dropping zero-flow edges and splicing out branch vertices of degree 2
    when flows were assigned, or by merging collapsed vertices; its
    signature is that of the smaller forest, so it deduplicates against it.
    """
    topology: SteinerTopology
    edge_flows: tuple[Fraction, ...]
    degenerate: bool = False

    def signature(self) -> tuple:
        """Canonical key, invariant under branch-vertex relabeling.

        ``(n, m, component masks, split masks)``, both mask tuples sorted
        (see :func:`_splits`).  The masks determine the forest, and the
        masses its flows; ``m`` is implied too, but kept second so that
        ``repr`` of the key orders topologies by branch count first.
        """
        t = self.topology
        components, splits = _splits(t.n_terminals, t.edges)
        return (t.n_terminals, t.n_branch, tuple(sorted(components)),
                tuple(sorted(splits)))


def _splits(n: int, edges: tuple[Edge, ...]) -> tuple[list[int], list[int]]:
    """Terminal bitmasks of a forest over terminals 0..n-1.

    One DFS per component, rooted at its lowest terminal, returns the mask
    of each component's terminals and, per edge, the mask of the terminals
    on its side away from that root.
    """
    adj: dict[int, list[tuple[int, int]]] = {}
    for i, (u, v) in enumerate(edges):
        adj.setdefault(u, []).append((v, i))
        adj.setdefault(v, []).append((u, i))
    mask: dict[int, int] = {}
    components: list[int] = []
    splits = [0] * len(edges)
    for root in range(n):
        if root in mask:
            continue
        order, stack = [], [(root, -1, -1)]
        while stack:
            x, parent, i = stack.pop()
            order.append((x, parent, i))
            mask[x] = 1 << x if x < n else 0
            stack.extend((y, x, j) for y, j in adj.get(x, ()) if y != parent)
        for x, parent, i in reversed(order):
            if i < 0:
                components.append(mask[x])
            else:
                splits[i] = mask[x]
                mask[parent] |= mask[x]
    return components, splits


# ---------------------------------------------------------------------------
# combinatorial generators
# ---------------------------------------------------------------------------

def _set_partitions(items: tuple[int, ...]) -> Iterator[list[list[int]]]:
    """All set partitions, each exactly once, in a deterministic order."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + [list(b) for b in part]
        for i in range(len(part)):
            yield [list(b) for b in part[:i]] + [[first] + list(part[i])] + \
                [list(b) for b in part[i + 1:]]


@lru_cache(maxsize=None)
def _full_shapes(s: int) -> tuple[tuple[Edge, ...], ...]:
    """Full trees on s >= 2 terminal slots (0..s-1) and s - 2 branch slots.

    Smith insertion: each full tree on the first s - 1 terminals has its
    branch slots shifted up by one, and terminal s - 1 is attached to a new
    branch slot 2s - 3 that subdivides one of its 2s - 5 edges.
    """
    if s == 2:
        return (((0, 1),),)
    w = 2 * s - 3
    shapes = []
    for shape in _full_shapes(s - 1):
        shifted = [(u if u < s - 1 else u + 1, v if v < s - 1 else v + 1)
                   for u, v in shape]
        for i, (u, v) in enumerate(shifted):
            shapes.append(tuple(sorted(
                shifted[:i] + shifted[i + 1:] + [(u, w), (v, w), (s - 1, w)])))
    return tuple(shapes)


@lru_cache(maxsize=None)
def _inner_sides(s: int) -> tuple[tuple[int, ...], ...]:
    """Per shape of ``_full_shapes(s)``, one side of each branch-branch edge.

    A side is the bitmask of the terminal slots the edge separates from the
    rest (the other side is its complement).
    """
    return tuple(
        tuple(side for (u, _), side in zip(shape, _splits(s, shape)[1])
              if u >= s)
        for shape in _full_shapes(s))


@lru_cache(maxsize=None)
def _forest_shapes(s: int) -> tuple[tuple[Edge, ...], ...]:
    """Trees on s >= 2 terminal slots (0..s-1) and branch slots s.. of
    degree >= 3, one per split key, ordered by edge count.

    Every such tree is a contraction of a full shape: expanding each
    terminal of degree >= 2 into a leaf on a new branch vertex, and
    splitting each branch vertex of degree > 3, gives a full tree back.  So
    the contractions of the full shapes that merge no two terminals are all
    of them.  Contracting edges leaves the splits of the other edges as
    they were, so each contraction's key is known before it is built.
    """
    shapes: dict[tuple[int, ...], tuple[Edge, ...]] = {}
    for full in _full_shapes(s):
        splits = _splits(s, full)[1]
        for bits in range(1 << len(full)):
            key = tuple(sorted(side for i, side in enumerate(splits)
                               if not bits >> i & 1))
            if key not in shapes:
                shape = _contract(full, bits, s)
                if shape is not None:
                    shapes[key] = shape
    return tuple(sorted(shapes.values(), key=lambda sh: (len(sh), sh)))


def _contract(full: tuple[Edge, ...], bits: int, s: int
              ) -> tuple[Edge, ...] | None:
    """``full`` with the edges of the set bits contracted, its branch slots
    renumbered from s in order; None when two terminals merge."""
    rep = list(range(2 * s - 2))

    def find(x: int) -> int:
        while rep[x] != x:
            x = rep[x]
        return x

    for i, (u, v) in enumerate(full):
        if bits >> i & 1:
            a, b = sorted((find(u), find(v)))
            if b < s:
                return None
            rep[b] = a  # a merged class keeps its terminal, if any
    roots = [find(x) for x in range(2 * s - 2)]
    slot = {r: s + k for k, r in enumerate(sorted({r for r in roots if r >= s}))}
    label = [slot.get(r, r) for r in roots]
    return tuple(sorted(tuple(sorted((label[u], label[v])))
                        for i, (u, v) in enumerate(full) if not bits >> i & 1))


def _flowing_shapes(masses: tuple[Fraction, ...]) -> list[tuple[Edge, ...]]:
    """Full shapes on a balanced block in which every edge carries flow.

    The flow on an edge is the total mass on one side of it, so an edge is
    flowless exactly when it splits the block into two balanced parts.  A
    leaf edge carries its atom's nonzero mass.
    """
    s = len(masses)
    sums = [Fraction(0)] * (1 << s)
    for mask in range(1, 1 << s):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + masses[low.bit_length() - 1]
    return [shape for shape, sides in zip(_full_shapes(s), _inner_sides(s))
            if all(sums[side] != 0 for side in sides)]


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _join(masses: tuple[Fraction, ...], blocks, shapes) -> SteinerTopology:
    """The forest of one shape per block: terminal slots map to the block's
    atoms, branch slots to fresh branch vertices in block order."""
    n = len(masses)
    edges: list[Edge] = []
    next_branch = n
    for blk, shape in zip(blocks, shapes):
        m = len(shape) + 1 - len(blk)
        mapping = list(blk) + list(range(next_branch, next_branch + m))
        next_branch += m
        edges.extend(tuple(sorted((mapping[u], mapping[v])))
                     for u, v in shape)
    return SteinerTopology(n_terminals=n, n_branch=next_branch - n,
                           edges=tuple(sorted(edges)), terminal_masses=masses)


def enumerate_topologies(b: Boundary) -> Iterator[SteinerTopology]:
    """Every full topology over a balanced partition of ``b``'s atoms.

    Terminals are indexed by the canonical (sorted) atom order of ``b``.
    Partitions with a block of nonzero total mass, or a singleton block,
    are skipped before any tree is built, and so are the full trees with a
    zero-flow edge: such an edge splits its block into two balanced parts,
    and dropping it leaves a full topology of that finer partition, which is
    yielded on its own.  Every yielded topology therefore carries nonzero
    conservative flows on all its edges.  The stream is deterministic.
    """
    n = len(b.atoms)
    if n < 2:
        raise ValueError("boundary must have at least 2 atoms")
    masses = tuple(m for _, m in b.atoms)
    for partition in _set_partitions(tuple(range(n))):
        blocks = sorted(tuple(sorted(blk)) for blk in partition)
        if any(len(blk) < 2 or sum(masses[i] for i in blk) != 0
               for blk in blocks):
            continue
        for combo in itertools.product(*(
                _flowing_shapes(tuple(masses[i] for i in blk))
                for blk in blocks)):
            yield _join(masses, blocks, combo)


def _all_forests(b: Boundary) -> Iterator[SteinerTopology]:
    """Every forest topology for the atoms of ``b``, deterministically.

    Terminals are indexed by the canonical (sorted) atom order of ``b``.
    Components with unbalanced mass are still emitted; flow assignment
    rejects them.  Singleton components are impossible (their terminal would
    have degree 0) and are not generated.  A block of s terminals has at
    most s - 2 branch vertices, so a forest has at most n - 2.
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
            yield _join(masses, blocks, combo)


# ---------------------------------------------------------------------------
# flow assignment
# ---------------------------------------------------------------------------

def assign_flows(t: SteinerTopology, b: Boundary) -> FlowedTopology:
    """Unique conservative flows by leaf stripping, exact rationals.

    Raises :class:`InfeasibleTopologyError` when some component's terminal
    masses do not sum to zero.  Zero-flow edges are removed; branch vertices
    falling below degree 3 are spliced out and the result is flagged
    degenerate.
    """
    masses = tuple(m for _, m in b.atoms)
    if masses != t.terminal_masses:
        raise ValueError("topology terminal masses do not match boundary")
    nv = t.n_terminals + t.n_branch
    adj: dict[int, set[int]] = {v: set() for v in range(nv)}
    edge_index: dict[Edge, int] = {}
    for i, (u, v) in enumerate(t.edges):
        adj[u].add(v)
        adj[v].add(u)
        edge_index[(u, v)] = i

    # required net inflow at each vertex
    demand: list[Fraction] = [
        t.terminal_masses[v] if v < t.n_terminals else Fraction(0)
        for v in range(nv)]
    flows: list[Fraction | None] = [None] * len(t.edges)
    for v in range(t.n_terminals):
        if not adj[v]:
            raise InfeasibleTopologyError(f"terminal {v} is isolated")

    stack = [v for v in range(nv) if len(adj[v]) == 1]
    processed = [False] * nv
    while stack:
        v = stack.pop(0)
        if processed[v] or len(adj[v]) != 1:
            continue
        processed[v] = True
        u = next(iter(adj[v]))
        e = (min(u, v), max(u, v))
        i = edge_index[e]
        # flow oriented low -> high endpoint; inflow at v must equal demand[v]
        f = demand[v] if e[1] == v else -demand[v]
        flows[i] = f
        demand[u] += demand[v]
        demand[v] = Fraction(0)
        adj[u].discard(v)
        adj[v].clear()
        if len(adj[u]) == 1:
            stack.append(u)
        elif len(adj[u]) == 0 and demand[u] != 0:
            raise InfeasibleTopologyError("component masses do not balance")
    for v in range(nv):
        if adj[v]:
            raise AssertionError("leaf stripping left a cycle (not a forest)")
        if demand[v] != 0:
            raise InfeasibleTopologyError("component masses do not balance")

    assert all(f is not None for f in flows)
    return _normalize(t, [f for f in flows])[0]


def _normalize(t: SteinerTopology, flows: list[Fraction]
               ) -> tuple[FlowedTopology, dict[int, int]]:
    """Drop zero-flow edges, splice degree<3 branch vertices, relabel.

    Also returns the map from surviving old vertex ids to new ids.
    """
    edges = [(e, f) for e, f in zip(t.edges, flows) if f != 0]
    changed = len(edges) != len(t.edges)

    # splice branch vertices of degree 2; drop isolated / degree-1 ones
    while True:
        spliced = False
        for v in range(t.n_terminals, t.n_terminals + t.n_branch):
            incident = [(i, e, f) for i, (e, f) in enumerate(edges)
                        if v in e]
            if len(incident) == 2:
                (i1, (a1, c1), f1), (i2, (a2, c2), f2) = incident
                u = a1 if c1 == v else c1
                w = a2 if c2 == v else c2
                if u == w:
                    # parallel pair through v cancels into nothing
                    for i in sorted((i1, i2), reverse=True):
                        edges.pop(i)
                    changed = spliced = True
                    break
                # inflow at v from (u,v) equals outflow to (w,v): reorient
                fin = f1 if max(a1, c1) == v else -f1
                e = (min(u, w), max(u, w))
                f = fin if e[0] == u else -fin
                for i in sorted((i1, i2), reverse=True):
                    edges.pop(i)
                edges.append((e, f))
                changed = spliced = True
                break
            if len(incident) == 1:
                raise AssertionError("degree-1 branch vertex with nonzero flow")
        if not spliced:
            break

    # compact branch labels
    used_branch = sorted({v for (a, c), _ in edges for v in (a, c)
                          if v >= t.n_terminals})
    remap = {v: t.n_terminals + i for i, v in enumerate(used_branch)}
    out_edges: list[Edge] = []
    out_flows: list[Fraction] = []
    for (a, c), f in sorted(edges):
        a2 = remap.get(a, a)
        c2 = remap.get(c, c)
        if a2 > c2:
            a2, c2, f = c2, a2, -f
        out_edges.append((a2, c2))
        out_flows.append(f)
    order = sorted(range(len(out_edges)), key=lambda i: out_edges[i])
    new_t = SteinerTopology(
        n_terminals=t.n_terminals,
        n_branch=len(used_branch),
        edges=tuple(out_edges[i] for i in order),
        terminal_masses=t.terminal_masses,
    )
    changed = changed or len(used_branch) != t.n_branch
    vertex_map = {v: v for v in range(t.n_terminals)}
    vertex_map.update(remap)
    return FlowedTopology(new_t, tuple(out_flows[i] for i in order),
                          degenerate=changed), vertex_map
