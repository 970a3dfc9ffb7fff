"""Enumeration of network topologies for an atomic boundary.

A candidate topology is a forest on the labeled terminals (one per boundary
atom) plus unlabeled auxiliary branch vertices.  Flows on a forest are
uniquely determined by mass conservation (leaf stripping).

The solver's candidate set, :func:`enumerate_topologies`, holds only *full*
topologies over *balanced* partitions: the terminals are split into blocks
of total mass zero, and each block of s terminals spans a full Steiner tree
(terminals are leaves, s - 2 branch vertices of degree 3).  The (2s - 5)!!
full trees of a block come from Smith's insertion scheme (W. D. Smith,
Algorithmica 7, 1992): terminal i is inserted on every edge of each full
tree on the terminals before it, which yields every full tree exactly once
up to branch relabeling.  Any other forest is a contraction of a full one,
whose location-energy domain contains the contracted configuration, so the
full optimum is never larger and collapses onto the same chain.  A full tree
with a zero-flow edge is not built: without that edge it is a full topology
of a finer balanced partition, which is enumerated anyway.

:func:`_all_forests` is the exhaustive generator it replaced: every forest
whose branch vertices have degree >= 3, built from Pruefer sequences in
which every branch symbol appears at least twice and deduplicated up to
permutations of the branch labels.  It is kept for the 4-point local
classification, which needs the non-full supports, and for the independent
brute-force oracle.  Both streams are deterministic.

Enumeration is exhaustive by design and intended for small n; callers guard
instance size.
"""
from __future__ import annotations

import heapq
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
    ``degenerate`` marks topologies rewritten after zero-flow edges were
    removed (they reduce to a smaller topology and should be deduplicated).
    """
    topology: SteinerTopology
    edge_flows: tuple[Fraction, ...]
    degenerate: bool = False

    def signature(self) -> tuple:
        """Canonical key, invariant under branch-vertex relabeling."""
        t = self.topology
        n, m = t.n_terminals, t.n_branch
        best = None
        for perm in itertools.permutations(range(m)):
            relabel = list(range(n)) + [n + perm[i] for i in range(m)]
            rows = []
            for (u, v), f in zip(t.edges, self.edge_flows):
                a, b = relabel[u], relabel[v]
                if a > b:
                    a, b, f = b, a, -f
                rows.append((a, b, f))
            key = tuple(sorted(rows))
            if best is None or key < best:
                best = key
        return (n, m, best)


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


def _multiset_permutations(symbols: list[int], counts: list[int]) -> Iterator[tuple[int, ...]]:
    total = sum(counts)
    seq: list[int] = []

    def rec():
        if len(seq) == total:
            yield tuple(seq)
            return
        for idx, s in enumerate(symbols):
            if counts[idx] > 0:
                counts[idx] -= 1
                seq.append(s)
                yield from rec()
                seq.pop()
                counts[idx] += 1

    yield from rec()


def _pruefer_decode(seq: tuple[int, ...], nv: int) -> list[Edge]:
    """Standard Pruefer decoding over vertices 0..nv-1."""
    degree = [1] * nv
    for s in seq:
        degree[s] += 1
    edges: list[Edge] = []
    leaves = [v for v in range(nv) if degree[v] == 1]
    heapq.heapify(leaves)
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, s), max(leaf, s)))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


@lru_cache(maxsize=None)
def _tree_shapes(s: int, m: int) -> tuple[tuple[Edge, ...], ...]:
    """Trees on s terminal slots (0..s-1) and m branch slots (s..s+m-1).

    Branch slots have degree >= 3 and are deduplicated as interchangeable.
    """
    nv = s + m
    if nv < 2:
        return ()
    if nv == 2:
        return (((0, 1),),) if m == 0 else ()
    length = nv - 2
    shapes: set[tuple[Edge, ...]] = set()
    # counts: branch slot appears >= 2 times (degree >= 3), terminals free
    branch_syms = list(range(s, s + m))
    term_syms = list(range(s))
    for branch_counts in _compositions_at_least(m, 2, length):
        rem = length - sum(branch_counts)
        for term_counts in _compositions_at_least(s, 0, rem, exact=True):
            counts = list(term_counts) + list(branch_counts)
            for seq in _multiset_permutations(term_syms + branch_syms, counts):
                edges = _pruefer_decode(seq, nv)
                shapes.add(_canonical_shape(edges, s, m))
    return tuple(sorted(shapes))


def _compositions_at_least(parts: int, low: int, total: int,
                           exact: bool = False) -> Iterator[tuple[int, ...]]:
    """Integer vectors of length ``parts`` with entries >= low; sum == total
    when ``exact`` else sum <= total."""
    if parts == 0:
        if total == 0 or not exact:
            yield ()
        return
    hi = total - low * (parts - 1)
    for first in range(low, hi + 1):
        for rest in _compositions_at_least(parts - 1, low, total - first, exact):
            yield (first,) + rest


def _canonical_shape(edges: list[Edge], s: int, m: int) -> tuple[Edge, ...]:
    best = None
    for perm in itertools.permutations(range(m)):
        relabel = list(range(s)) + [s + perm[i] for i in range(m)]
        key = tuple(sorted(
            (min(relabel[u], relabel[v]), max(relabel[u], relabel[v]))
            for u, v in edges))
        if best is None or key < best:
            best = key
    return best


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

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
    out = []
    for shape in _full_shapes(s):
        adj: dict[int, list[int]] = {}
        for u, v in shape:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        sides = []
        for u, v in shape:
            if u < s:
                continue
            mask, stack, seen = 0, [u], {u, v}
            while stack:
                x = stack.pop()
                if x < s:
                    mask |= 1 << x
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            sides.append(mask)
        out.append(tuple(sides))
    return tuple(out)


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
        n_branch = n - 2 * len(blocks)
        for combo in itertools.product(*(
                _flowing_shapes(tuple(masses[i] for i in blk))
                for blk in blocks)):
            edges: list[Edge] = []
            next_branch = n
            for blk, shape in zip(blocks, combo):
                mapping = list(blk) + list(range(next_branch,
                                                 next_branch + len(blk) - 2))
                next_branch += len(blk) - 2
                edges.extend(tuple(sorted((mapping[u], mapping[v])))
                             for u, v in shape)
            yield SteinerTopology(
                n_terminals=n,
                n_branch=n_branch,
                edges=tuple(sorted(edges)),
                terminal_masses=masses,
            )


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
        blocks = tuple(sorted(tuple(sorted(blk)) for blk in partition))
        if any(len(blk) < 2 for blk in blocks):
            continue
        # per-block choices: (m, shape) with m <= len(block) - 2
        per_block: list[list[tuple[int, tuple[Edge, ...]]]] = []
        for blk in blocks:
            s = len(blk)
            choices = []
            for m in range(0, s - 1):
                for shape in _tree_shapes(s, m):
                    choices.append((m, shape))
            per_block.append(choices)
        for combo in itertools.product(*per_block):
            total_branch = sum(m for m, _ in combo)
            edges: list[Edge] = []
            next_branch = n
            for blk, (m, shape) in zip(blocks, combo):
                mapping = list(blk) + list(range(next_branch, next_branch + m))
                next_branch += m
                for u, v in shape:
                    a, c = mapping[u], mapping[v]
                    edges.append((min(a, c), max(a, c)))
            yield SteinerTopology(
                n_terminals=n,
                n_branch=total_branch,
                edges=tuple(sorted(edges)),
                terminal_masses=masses,
            )


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
