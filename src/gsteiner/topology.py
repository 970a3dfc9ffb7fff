"""Enumeration of network topologies for an atomic boundary.

A candidate topology is a forest on the labeled terminals (one per boundary
atom) plus unlabeled auxiliary branch vertices.  Flows on a forest are
uniquely determined by mass conservation: each edge splits its component's
terminals in two, and the flow from its lower endpoint to its higher one is
the mass on the higher endpoint's side.

One generator, :func:`_flowed_forests`, builds every flowed full forest:
it splits the atoms into *balanced* blocks (total mass zero, at least two
atoms), gives each block a full tree (terminals are leaves, s - 2 branch
vertices of degree 3 on a block of s terminals) from one per-size table,
and reads each edge's flow from the boundary's subset sums.  A tree with a
zero-flow edge is not built.  The (2s - 5)!! full trees of a block come
from Smith's insertion scheme (W. D. Smith, Algorithmica 7, 1992): terminal
i is inserted on every edge of each full tree on the terminals before it,
which yields every full tree exactly once up to branch relabeling.  They
make the solver's candidate set, :func:`enumerate_topologies`.

Any other forest is a contraction of a full one, whose location-energy
domain contains the contracted configuration, so the full optimum is never
larger and collapses onto the same chain.  The 4-point local
classification needs the non-full supports themselves: :func:`_forests`
gives every forest whose branch vertices have degree >= 3, with flow on
every edge, each once, as the contractions of the full forests that merge
no two atoms.  A forest with a zero-flow edge is not a current with that
support, so skipping it is what the classification wants.

Topologies are identified by their splits.  Each edge of a forest splits
its component's terminals in two, and a tree whose unlabeled vertices all
have degree >= 3 is determined by the set of these splits (Buneman's
splits-equivalence theorem: P. Buneman 1971; Semple & Steel,
*Phylogenetics*, 2003).  So the component terminal sets plus the splits are
a canonical key that needs no search over branch relabelings; the flows
follow from the masses.

Everything the generator reads is an exact table over integer bitmasks
(bit i for terminal slot or atom i), built on first use and kept:

* per block size s, each full tree with, per edge, the mask of the
  terminal slots on its side away from slot 0 (its split) and which
  endpoint lies on that side, carried through Smith's insertion
  (:func:`_full_splits`).  Inserting terminal s - 1, with bit b, on an edge
  whose far side holds the slot set f puts a new branch vertex on that
  edge: the far half keeps f, the near half gets f | b, the new leaf edge
  gets b alone, and every other edge whose far mask contains f gets b as
  well (those edges lie between slot 0 and the insertion).
* per call, the total mass of every subset of the atoms, one exact
  Fraction per atom mask.  A block is balanced, and an edge flowless,
  exactly when its mask's sum is zero, and an edge's flow is the sum of
  its higher endpoint's side.  The partitions are walked from its balanced
  masks, block by block.  A block's slot masks map to atom masks in
  increasing atom order, so its root, the lowest atom, is slot 0, and its
  trees' splits map straight into the forest's signature, which every
  generated full forest carries.

One routine, :func:`contract`, merges vertices of a flowed forest, for
:func:`_forests`, :func:`assign_flows` and collapse handling alike.  Gilbert's
"at most one minimum network per topology" holds once degenerate vertices
are merged away: a forest and its contraction realize the same current, and
the contraction's cluster map lifts a placement of it back onto the forest.
A contraction depends on the forest and its flows and on the merged pairs
alone, so each :class:`FlowedTopology` keeps a private memo, made with it:
every contraction of it, keyed by the tuple of merged pairs, and its edge
weights |flow|^alpha (``placement._weights``), keyed by alpha.  A repeat
call returns the same objects, whose own memos hold what was derived from
them, so a caller that keeps its topologies, as the four-point lab's
candidate cache does, derives each contraction once.  Since each entry is
that pure function's value, no result can depend on which calls filled the
memo.  The memo takes no part in equality, hashing, ``repr`` or the
signature, and ``replace``, copies and pickles start with an empty one.
:func:`_forests` meets each pair set once, and :func:`assign_flows`
contracts a forest it has just made, so both call the routine without the
memo, :func:`_contract`.

Enumeration is exhaustive by design and intended for small n; callers guard
instance size.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator

from .currents import Boundary

Edge = tuple[int, int]


class InfeasibleTopologyError(Exception):
    """Raised when a forest component is incompatible with the boundary."""


def _check_forest(n: int, m: int, edges: tuple[Edge, ...]) -> None:
    """Raise ``ValueError`` unless m <= n - 2 (or m = 0) and every edge
    (u, v) has 0 <= u < v < n + m."""
    if m > max(0, n - 2):
        raise ValueError("too many branch vertices (bound is n - 2)")
    for u, v in edges:
        if not (0 <= u < v < n + m):
            raise ValueError("edge endpoints out of range or unordered")


@dataclass(frozen=True)
class FlowedTopology:
    """Forest over terminals 0..n-1 and branch vertices n..n+m-1, with the
    unique conservative edge flows.

    ``edge_flows[i]`` is the signed rational flow on ``edges[i]``, positive
    when flowing from the lower-indexed endpoint to the higher.  The
    boundary's masses enter here alone, and so do the edge weights
    |flow|^alpha (``placement._weights``).  The generators yield nonzero
    flows only; :func:`assign_flows` and collapse contraction rewrite a
    forest whose flows vanish on some edge into the smaller forest without
    it (:func:`contract`).  Raises ``ValueError`` for an edge out of range
    or unordered, or for more than n - 2 branch vertices.
    """
    n_terminals: int
    n_branch: int
    edges: tuple[Edge, ...]
    edge_flows: tuple[Fraction, ...]
    # the signature as :func:`_flowed_forests` read it from its tables; no
    # part of equality, hashing or repr
    _signature: tuple | None = field(default=None, compare=False, repr=False)
    # :func:`contract`'s results by the tuple of merged pairs and
    # ``placement._weights``' by alpha (module docstring); no part of
    # equality, hashing or repr, and empty in a ``replace``, copy or pickle
    _memo: dict = field(default_factory=dict, init=False, compare=False,
                        repr=False)

    def __post_init__(self):
        _check_forest(self.n_terminals, self.n_branch, self.edges)

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_memo"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, _memo={})

    def signature(self) -> tuple:
        """Canonical key, invariant under branch-vertex relabeling.

        ``(n, m, component masks, split masks)``, both mask tuples sorted
        (see :func:`_splits`).  The masks determine the forest, and the
        masses its flows; ``m`` is implied too, but kept second so that
        ``repr`` of the key orders topologies by branch count first.  A
        forest from :func:`_flowed_forests` carries its key; any other one
        gets it from one DFS.
        """
        if self._signature is not None:
            return self._signature
        components, splits, _ = _splits(self.n_terminals, self.edges)
        return (self.n_terminals, self.n_branch, tuple(sorted(components)),
                tuple(sorted(splits)))


def _splits(n: int, edges: tuple[Edge, ...]
            ) -> tuple[list[int], list[int], list[int]]:
    """Terminal bitmasks of a forest over terminals 0..n-1.

    One DFS per component, rooted at its lowest terminal, returns the mask
    of each component's terminals and, per edge, the mask of the terminals
    on its side away from that root, with +1 when that side holds the
    edge's higher endpoint and -1 when it holds the lower one.  Components
    without terminals are walked too: their edges split off empty masks.
    Raises ``AssertionError`` when the edges contain a cycle.
    """
    adj: dict[int, list[tuple[int, int]]] = {}
    for i, (u, v) in enumerate(edges):
        adj.setdefault(u, []).append((v, i))
        adj.setdefault(v, []).append((u, i))
    mask: dict[int, int] = {}
    components: list[int] = []
    splits = [0] * len(edges)
    signs = [1] * len(edges)
    for root in itertools.chain(range(n), adj):
        if root in mask:
            continue
        order, stack = [], [(root, -1, -1)]
        while stack:
            x, parent, i = stack.pop()
            if x in mask:  # reached a second way
                raise AssertionError("edges contain a cycle (not a forest)")
            order.append((x, parent, i))
            mask[x] = 1 << x if x < n else 0
            stack.extend((y, x, j) for y, j in adj.get(x, ()) if j != i)
        for x, parent, i in reversed(order):
            if i >= 0:
                splits[i] = mask[x]
                signs[i] = 1 if x > parent else -1
                mask[parent] |= mask[x]
            elif root < n:
                components.append(mask[x])
    return components, splits, signs


# ---------------------------------------------------------------------------
# combinatorial generators
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _full_splits(s: int) -> tuple[tuple[tuple[Edge, ...], tuple[int, ...],
                                         tuple[int, ...]], ...]:
    """Full trees on s >= 2 terminal slots (0..s-1) and s - 2 branch slots,
    each as (edges, far masks, signs): per edge, the mask of the terminal
    slots on its side away from slot 0, and +1 when that side holds the
    edge's higher endpoint, -1 when it holds the lower one, as
    :func:`_splits` returns them.

    Smith insertion: each full tree on the first s - 1 terminals has its
    branch slots shifted up by one, which keeps every edge's orientation,
    and terminal s - 1 is attached to a new branch slot w = 2s - 3 that
    subdivides one of its 2s - 5 edges, (x, y) with far mask f and x on the
    far side.  The far half (x, w) keeps f, the near half (y, w) gets f plus
    the new bit, the leaf edge only the bit, and every other edge whose far
    side holds f's terminals gets the bit too: in a full tree every far
    side holds a terminal, so such an edge lies between slot 0 and (x, y).
    """
    if s == 2:
        return ((((0, 1),), (0b10,), (1,)),)
    t, w, bit = s - 1, 2 * s - 3, 1 << (s - 1)
    out = []
    for shape, far, signs in _full_splits(s - 1):
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


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _join(n: int, blocks, shapes) -> tuple[int, list[Edge]]:
    """The branch count and the edges of one shape per block, in block order.

    Terminal slots map to the block's atoms, branch slots to fresh branch
    vertices in block order.  Both maps increase, so every edge keeps the
    orientation of its slots.
    """
    edges: list[Edge] = []
    next_branch = n
    for blk, shape in zip(blocks, shapes):
        m = len(shape) + 1 - len(blk)
        mapping = list(blk) + list(range(next_branch, next_branch + m))
        next_branch += m
        edges.extend((mapping[u], mapping[v]) for u, v in shape)
    return next_branch - n, edges


def _flowed_forests(masses: tuple[Fraction, ...]
                    ) -> Iterator[FlowedTopology]:
    """Every full forest over a balanced partition of the atoms with flow
    on every edge, with its flows and its signature.

    Terminal i carries ``masses[i]``.  One table holds the total mass of
    every subset of the atoms, by bitmask, and its zero entries of two or
    more atoms are the blocks.  The partitions are walked from it: each
    next block holds the lowest atom that the blocks before it leave, so no
    partition with a singleton or unbalanced block is met.  A block's
    terminal slots map to its atoms in increasing order, so a slot mask
    maps to an atom mask, and the flow from an edge's lower endpoint to its
    higher one is the table's entry for the higher endpoint's side
    (:func:`_full_splits`).  A full tree with a zero-flow edge, one that
    splits its block into two balanced parts, is not built; the flowing
    trees of a block are found once per call.  A block's root is its
    lowest atom, slot 0, so its trees' splits map over into the forest's
    signature.  Partitions come in walk order, and per partition the tree
    combinations in product order.  The stream is deterministic.  Raises
    ``ValueError`` when the masses do not sum to zero.
    """
    n = len(masses)
    sums = [Fraction(0)] * (1 << n)  # atom mask -> total mass
    for mask in range(1, 1 << n):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + masses[low.bit_length() - 1]
    if sums[-1]:
        raise ValueError(
            "boundary has nonzero total mass; no transport path exists")
    balanced = {mask for mask, total in enumerate(sums) if not total}
    blocks = sorted(mask for mask in balanced if mask & (mask - 1))
    flowing: dict[tuple[int, ...], list] = {}

    def partitions(rest: int) -> Iterator[tuple[int, ...]]:
        if not rest:
            yield ()
            return
        low = rest & -rest
        for blk in blocks:
            if blk & low and blk & rest == blk:
                for tail in partitions(rest ^ blk):
                    yield (blk, *tail)

    def shapes_of(blk: tuple[int, ...]) -> list:
        if blk not in flowing:
            atom = [0] * (1 << len(blk))  # slot mask -> atom mask
            for mask in range(1, len(atom)):
                low = mask & -mask
                atom[mask] = atom[mask ^ low] | 1 << blk[low.bit_length() - 1]
            full = len(atom) - 1
            flowless = {side for side, mask in enumerate(atom)
                        if mask in balanced}
            flowing[blk] = [
                (shape, tuple(sums[atom[far if sign > 0 else full ^ far]]
                              for far, sign in zip(splits, signs)),
                 [atom[far] for far in splits])
                for shape, splits, signs in _full_splits(len(blk))
                if flowless.isdisjoint(splits)]
        return flowing[blk]

    for partition in partitions(len(sums) - 1):
        # blocks holding successive lowest atoms are in sorted tuple order
        atoms = [tuple(i for i in range(n) if blk >> i & 1)
                 for blk in partition]
        components = tuple(sorted(partition))
        for combo in itertools.product(*map(shapes_of, atoms)):
            block_shapes, flows, splits = zip(*combo)
            m, edges = _join(n, atoms, block_shapes)
            edges, flows = zip(*sorted(zip(edges, itertools.chain(*flows))))
            yield FlowedTopology(n, m, edges, flows, (
                n, m, components, tuple(sorted(itertools.chain(*splits)))))


def _forests(masses: tuple[Fraction, ...]) -> list[FlowedTopology]:
    """Every forest over a balanced partition of the atoms whose branch
    vertices have degree >= 3, with flow on every edge, each once, with its
    flows: the contractions of the forests of :func:`_flowed_forests` that
    merge no two atoms, ordered by edge count, then edges.  So every
    contraction of a forest comes before it, and a placement memo shared
    along the list already holds the contractions a collapse meets.

    Every such forest is one of them: expanding each terminal of degree
    >= 2 into a leaf on a new branch vertex, and splitting a pair of sides
    with nonzero total mass off each branch vertex of degree > 3 (the
    sides' masses are nonzero and sum to zero, so some pair has one), gives
    a full forest with flow on every edge back.  Contracting edges leaves
    the flows of the others as they were.  Raises ``ValueError`` when the
    masses do not sum to zero.
    """
    out: dict[tuple[Edge, ...], FlowedTopology] = {}
    for ft in _flowed_forests(masses):
        edges = ft.edges
        for bits in range(1 << len(edges)):
            # contract skips a pair that would merge two terminals, which
            # leaves the contraction by the other pairs, met on its own;
            # each pair set is met once, so no memo keeps it
            forest, _ = _contract(ft, [e for i, e in enumerate(edges)
                                       if bits >> i & 1])
            out.setdefault(forest.edges, forest)
    return sorted(out.values(), key=lambda ft: (len(ft.edges), ft.edges))


def enumerate_topologies(b: Boundary) -> Iterator[FlowedTopology]:
    """Every full topology over a balanced partition of ``b``'s atoms, with
    its flows: :func:`_flowed_forests`.

    Terminals are indexed by the canonical (sorted) atom order of ``b``.  A
    full tree with a zero-flow edge is not built: that edge splits its
    block into two balanced parts, and dropping it leaves a full topology
    of that finer partition, which is yielded on its own.  Every yielded
    topology is therefore what :func:`assign_flows` makes of it, and no two
    share a signature.  Raises ``ValueError`` when ``b`` has fewer than two
    atoms or a nonzero total mass.
    """
    if len(b.atoms) < 2:
        raise ValueError("boundary must have at least 2 atoms")
    yield from _flowed_forests(tuple(m for _, m in b.atoms))


# ---------------------------------------------------------------------------
# flow assignment
# ---------------------------------------------------------------------------

def assign_flows(n_branch: int, edges: tuple[Edge, ...], b: Boundary
                 ) -> FlowedTopology:
    """Unique conservative flows, exact rationals, on the forest with
    ``n_branch`` branch vertices and ``edges`` over ``b``'s atoms.

    The flow from an edge's lower endpoint to its higher one is the mass on
    the higher endpoint's side of its split (:func:`_splits`), terminal i
    carrying the mass of ``b``'s atom i.  Raises ``ValueError`` when the
    forest is malformed (as :class:`FlowedTopology` does), before any flow
    is computed, :class:`InfeasibleTopologyError` when some component's
    terminal masses do not sum to zero, and ``AssertionError`` when the
    edges contain a cycle.  Zero-flow edges are removed, and branch
    vertices falling below degree 3 are spliced out.
    """
    masses = tuple(m for _, m in b.atoms)
    n = len(masses)
    _check_forest(n, n_branch, edges)
    components, splits, signs = _splits(n, edges)

    def mass(side: int) -> Fraction:
        return sum((m for i, m in enumerate(masses) if side >> i & 1),
                   Fraction(0))

    if any(mass(c) != 0 for c in components):
        raise InfeasibleTopologyError("component masses do not balance")
    # a new topology, so no memo would be read again
    return _contract(FlowedTopology(n, n_branch, edges, tuple(
        sign * mass(side) for side, sign in zip(splits, signs))), ())[0]


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------

def contract(ft: FlowedTopology, pairs: Iterable[Edge] = ()
             ) -> tuple[FlowedTopology, tuple[int, ...]]:
    """``ft`` with the vertex ``pairs`` merged in order, and the cluster
    map: the vertex of the result that each vertex of ``ft`` lifts to;
    ``ft`` and the identity map when the merged edges would close a cycle.

    A pair that would put two terminals in one cluster is skipped.  Edges
    inside a cluster go, parallel edges combine, zero-flow edges drop and
    branch clusters left with two neighbors are spliced out; one left with
    one neighbor breaks conservation (``AssertionError``).  The surviving
    branch clusters are numbered from n in order, which keeps every edge's
    orientation.  A cluster spliced out or left without flow lifts onto a
    neighbor, and one of a component without terminals onto terminal 0.
    Placing every vertex of ``ft`` at its image lifts a placement of the
    result to ``ft``, with the same energy unless parallel edges combined.

    The result depends on ``ft``'s forest and flows and on the pairs
    alone, so it is made once (:func:`_contract`): ``ft``'s memo keeps it,
    keyed by ``tuple(pairs)``, and a repeat call returns the same objects,
    whose own memos then keep what is derived from them.  Whichever calls
    filled the memo, an entry is the value a fresh copy of ``ft`` would get.
    """
    key = tuple(pairs)
    found = ft._memo.get(key)
    if found is None:
        found = ft._memo[key] = _contract(ft, key)
    return found


def _contract(ft: FlowedTopology, pairs: Iterable[Edge]
              ) -> tuple[FlowedTopology, tuple[int, ...]]:
    """:func:`contract` without the memo: a new result on every call."""
    n = ft.n_terminals
    # union-find whose root is the lowest vertex of its class, so a class
    # holds a terminal exactly when its root is below n
    parent = list(range(n + ft.n_branch))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv and max(ru, rv) >= n:  # never two terminals in a class
            parent[max(ru, rv)] = min(ru, rv)
    roots = [find(v) for v in range(len(parent))]

    merged: dict[Edge, Fraction] = {}
    for (u, v), f in zip(ft.edges, ft.edge_flows):
        a, c = roots[u], roots[v]
        if a != c:
            e, f = ((a, c), f) if a < c else ((c, a), -f)
            merged[e] = merged[e] + f if e in merged else f
    flows = {e: f for e, f in merged.items() if f != 0}
    nbrs: dict[int, list[int]] = {r: [] for r in roots}
    for a, c in flows:
        ra, rc = find(a), find(c)  # the same union-find, across edges
        if ra == rc:
            return ft, tuple(range(len(parent)))
        parent[max(ra, rc)] = min(ra, rc)
        nbrs[a].append(c)
        nbrs[c].append(a)
    # splicing a cluster leaves its neighbors' degrees as they were
    for v in sorted(r for r in nbrs if r >= n and len(nbrs[r]) < 3):
        if len(nbrs[v]) == 1:
            raise AssertionError("degree-1 branch vertex with nonzero flow")
        if nbrs[v]:
            u, w = sorted(nbrs[v])
            fu = flows.pop((u, v) if u < v else (v, u))
            fw = flows.pop((v, w) if v < w else (w, v))
            # u < v or v < w, and that edge's flow, from its lower end to
            # its higher one, is the flow from u to w
            flows[(u, w)] = fu if u < v else fw
            nbrs[u][nbrs[u].index(v)] = w
            nbrs[w][nbrs[w].index(v)] = u
        del nbrs[v]
    label = {r: r for r in range(n)}
    label.update((r, n + i) for i, r in enumerate(
        sorted(r for r in nbrs if r >= n)))
    edges = sorted(((label[a], label[c]), f) for (a, c), f in flows.items())
    contracted = FlowedTopology(n, len(label) - n, tuple(e for e, _ in edges),
                                tuple(f for _, f in edges))
    while lifts := {x: label[y] for e in merged for x, y in (e, e[::-1])
                    if x not in label and y in label}:
        label.update(lifts)
    return contracted, tuple(label.get(r, 0) for r in roots)


