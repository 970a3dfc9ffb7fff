"""Enumeration of network topologies for an atomic boundary.

A candidate topology is a forest on the labeled terminals (one per boundary
atom) plus unlabeled auxiliary branch vertices.  Flows on a forest are
uniquely determined by mass conservation: each edge splits its component's
terminals in two, and the flow from its lower endpoint to its higher one is
the mass on the higher endpoint's side.

One table, :func:`forest_rows`, holds every flowed full forest as a row
of numpy arrays: it splits the atoms into *balanced* blocks (total mass
zero, at least two atoms), gives each block a full tree (terminals are
leaves, s - 2 branch vertices of degree 3 on a block of s terminals) from
one per-size table, and reads each edge's flow from the boundary's subset
sums.  A tree with a zero-flow edge is not kept.  The (2s - 5)!! full trees
of a block come from Smith's insertion scheme (W. D. Smith, Algorithmica 7,
1992): terminal i is inserted on every edge of each full tree on the
terminals before it, which yields every full tree exactly once up to branch
relabeling.  The rows make the solver's candidate set; the solver bounds
them as arrays, keys them by their signatures read from the tables
(:meth:`ForestRows.signature`), and makes a :class:`FlowedTopology` only
for the rows it optimizes (:meth:`ForestRows.topology`).
:func:`enumerate_topologies` yields every row as an object, for the CLI.

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

Everything the table is made of is exact and indexed by integer bitmasks
(bit i for terminal slot or atom i):

* per block size s, built on first use and kept up to s = 9, each full
  tree as a row of three arrays (:func:`_full_splits`): its edges, and per
  edge the mask of the terminal slots on its side away from slot 0 (its
  split) and which endpoint lies on that side, carried through Smith's
  insertion.
  Inserting terminal s - 1, with bit b, on an edge whose far side holds
  the slot set f puts a new branch vertex on that edge: the far half keeps
  f, the near half gets f | b, the new leaf edge gets b alone, and every
  other edge whose far mask contains f gets b as well (those edges lie
  between slot 0 and the insertion).  One level of insertion is a few
  array operations over all trees and edges at once.
* per call, the total mass of every subset of the atoms, one integer over
  the masses' common denominator per atom mask.  A block is balanced, and
  an edge flowless, exactly when its mask's sum is zero, and an edge's
  flow is the sum of its higher endpoint's side; a row keeps that side's
  mask per edge, and the weights |flow|^alpha of all rows come from one
  value per mask (:meth:`ForestRows.side_weights`).  The partitions are
  walked from the balanced masks, block by block.  A block's slot masks
  map to atom masks in increasing atom order, so its root, the lowest
  atom, is slot 0, and its trees' splits map straight into the forest's
  signature (:meth:`ForestRows.signature`), the one a DFS finds on the
  row's object.  The flowing trees of every block are found by fancy
  indexing, and a partition's rows are the product of its blocks' trees,
  concatenated.

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
:func:`_forests` meets each forest once, and :func:`assign_flows`
contracts a forest it has just made, so both call the routine without the
memo, :func:`_contract`.

Enumeration is exhaustive by design and intended for small n; callers guard
instance size.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

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
        ``repr`` of the key orders topologies by branch count first.  One
        DFS finds the masks; a row of :func:`forest_rows` has the same key
        without the object (:meth:`ForestRows.signature`).
        """
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
# the shape table
# ---------------------------------------------------------------------------

# the tables are built this many rows (parent trees, pooled trees, forests)
# at a time, which bounds the temporaries of a build: at s = 10 the 135135
# parent trees make 2027025 trees
_ROW_CHUNK = 8192

# the shape tables up to this block size, about 16 MB together, are kept
# once built; a larger one (241 MB at s = 10) is built again on every call,
# so that no process carries it after the solve that needed it
_KEPT_SIZE = 9
_kept: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _full_splits(s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full trees on s >= 2 terminal slots (0..s-1) and s - 2 branch slots,
    one per row of three arrays: the edges (S, 2s - 3, 2), each (lower,
    higher) and sorted; per edge the mask of the terminal slots on its side
    away from slot 0; and +1 when that side holds the edge's higher
    endpoint, -1 when it holds the lower one, as :func:`_splits` returns
    them.  Ends and signs are int8, masks int32 (s <= 31).

    Smith insertion, vectorized: each full tree on the first s - 1 terminals
    has its branch slots shifted up by one, which keeps every edge's
    orientation, and terminal s - 1 is attached to a new branch slot
    w = 2s - 3 that subdivides one of its 2s - 5 edges, (x, y) with far mask
    f and x on the far side.  The far half (x, w) keeps f, the near half
    (y, w) gets f plus the new bit, the leaf edge only the bit, and every
    other edge whose far side holds f's terminals gets the bit too: in a
    full tree every far side holds a terminal, so such an edge lies between
    slot 0 and (x, y).  Tree a's insertion on its edge i is row
    a (2s - 5) + i.  Tables up to s = ``_KEPT_SIZE`` are kept in ``_kept``.
    """
    if s in _kept:
        return _kept[s]
    if s == 2:
        return (np.array([[[0, 1]]], np.int8), np.array([[0b10]], np.int32),
                np.array([[1]], np.int8))
    t, w, bit = s - 1, 2 * s - 3, 1 << (s - 1)
    ends, far, signs = _full_splits(s - 1)
    ends = ends + (ends >= t)
    size, e = far.shape
    out = (np.empty((size * e, e + 2, 2), np.int8),
           np.empty((size * e, e + 2), np.int32),
           np.empty((size * e, e + 2), np.int8))
    split = np.eye(e, dtype=bool)  # [i, j]: child i subdivides edge j
    for lo in range(0, size, _ROW_CHUNK):
        en, fa, sg = (v[lo:lo + _ROW_CHUNK] for v in (ends, far, signs))
        c = len(fa)
        u, v, fi, fj = en[:, None, :, 0], en[:, None, :, 1], fa[..., None], \
            fa[:, None]
        x = np.where(sg > 0, en[..., 1], en[..., 0])[..., None]
        # child i's edges: the parent's, edge i turned into the far half
        # (x, w), then the near half (y, w) and the leaf edge (t, w)
        child_u = np.concatenate([np.where(split, x, u), en.sum(
            axis=2, keepdims=True, dtype=np.int8) - x,
            np.full((c, e, 1), t, np.int8)], axis=2)
        child_v = np.concatenate([np.where(split, np.int8(w), v),
                                  np.full((c, e, 2), w, np.int8)], axis=2)
        child_far = np.concatenate([
            np.where(split, fi, np.where(fj & fi == fi, fj | bit, fj)),
            fi | bit, np.full((c, e, 1), bit, np.int32)], axis=2)
        child_signs = np.concatenate([
            np.where(split, np.int8(-1), sg[:, None]),
            np.ones((c, e, 1), np.int8), np.full((c, e, 1), -1, np.int8)],
            axis=2)
        # sorted by edge; float keys are exact here, and the stable float
        # sort is the one the solver's queue uses
        at = (np.arange(c)[:, None, None], np.arange(e)[:, None],
              np.argsort(child_u * (w + 1.0) + child_v, axis=2,
                         kind="stable"))
        rows = slice(lo * e, (lo + c) * e)
        for got, child in zip((out[0][..., 0], out[0][..., 1], *out[1:]),
                              (child_u, child_v, child_far, child_signs)):
            got[rows] = child[at].reshape(-1, e + 2)
    if s <= _KEPT_SIZE:
        _kept[s] = out
    return out


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ForestRows:
    """Every full forest over a balanced partition of the atoms with flow on
    every edge, one per row, in the order of :func:`forest_rows`.

    Row r's edges are ``ends[r]``, sorted and padded with (-1, -1) to the
    table's width, and ``sides[r]`` holds per edge the atom mask of its
    higher endpoint's side, 0 on padding: the flow from the edge's lower
    endpoint to its higher one is that side's total mass,
    ``sums[side] / den``.  ``partitions`` holds each partition's block masks
    in walk order, ``part`` each row's partition and ``n_branch`` its branch
    count.  The bounding pass reads the arrays, a row's weights |flow|^alpha
    being :meth:`side_weights` at its sides; objects are made only for the
    rows asked for (:meth:`topology`).
    """
    n: int
    den: int
    sums: tuple[int, ...]
    partitions: tuple[tuple[int, ...], ...]
    part: np.ndarray
    n_branch: np.ndarray
    ends: np.ndarray
    sides: np.ndarray

    def __len__(self) -> int:
        return len(self.part)

    def side_weights(self, alpha: float) -> np.ndarray:
        """|total mass|^alpha of every atom mask.  int / int true division
        rounds correctly, as ``float`` of a Fraction does, so these are the
        bits of ``placement._weights``."""
        return np.array([abs(total / self.den) ** alpha
                         for total in self.sums])

    def _own(self, r: int) -> tuple[list, list[int]]:
        """Row ``r``'s edges and sides without the padding: k blocks of n
        atoms have 2n - 3k edges and n - 2k branch vertices."""
        e = (self.n + 3 * int(self.n_branch[r])) // 2
        return self.ends[r, :e].tolist(), self.sides[r, :e].tolist()

    def splits(self, r: int) -> list[int]:
        """Per edge of row ``r``, the atom mask of its side away from its
        block's lowest atom."""
        blocks = [(blk, blk & -blk) for blk in self.partitions[self.part[r]]]
        return [blk ^ side if side & root else side
                for side in self._own(r)[1]
                for blk, root in blocks if blk & side]

    def signature(self, r: int) -> tuple:
        """:meth:`FlowedTopology.signature` of row ``r``, without the
        object."""
        return (self.n, int(self.n_branch[r]),
                tuple(sorted(self.partitions[self.part[r]])),
                tuple(sorted(self.splits(r))))

    def topology(self, r: int) -> FlowedTopology:
        """Row ``r`` as a flowed topology."""
        edges, sides = self._own(r)
        return FlowedTopology(
            self.n, int(self.n_branch[r]), tuple(map(tuple, edges)),
            tuple(Fraction(self.sums[side], self.den) for side in sides))


def _pool(n: int, sums: list[int], used: list[int]
          ) -> tuple[np.ndarray, np.ndarray, dict[int, int], dict[int, int]]:
    """The flowing trees of every block in ``used`` (sorted by size) in one
    pool, block by block, padded to the widest block: each tree's edges
    between vertices of all n atoms and its sides as atom masks (the
    layout of :class:`ForestRows`), then one empty entry for missing block
    positions; with each block's first entry and its number of trees.
    Branch slot s + j of a block of s atoms becomes vertex n + j.  Only the
    pool outlives the call, so the shape tables and the trees' indices are
    freed before :func:`forest_rows` gathers its rows: at s = 10 the table,
    the pool and the rows take about 240 MB each.
    """
    zero = np.array([not total for total in sums])
    groups, start, count, size = [], {}, {}, 0
    for s, group in itertools.groupby(used, int.bit_count):
        group = list(group)
        atoms = [[a for a in range(n) if blk >> a & 1] for blk in group]
        slot_atoms = []  # per block, slot mask -> atom mask
        for block_atoms in atoms:
            masks = [0]
            for a in block_atoms:
                masks += [mask | 1 << a for mask in masks]
            slot_atoms.append(masks)
        atom = np.array(slot_atoms, np.int32)
        # slot -> vertex: the block's atoms, then its branch vertices
        vertex = np.array([a + list(range(n, n + s - 2)) for a in atoms],
                          np.int8)
        table = _full_splits(s)
        g, tree = np.nonzero(np.concatenate([
            ~zero[atom[:, table[1][lo:lo + _ROW_CHUNK]]].any(axis=2)
            for lo in range(0, len(table[1]), _ROW_CHUNK)], axis=1))
        groups.append((s, table, atom, vertex, g, tree))
        for blk, c in zip(group, np.bincount(g, minlength=len(group)).tolist()):
            start[blk], count[blk] = size, c
            size += c
    pool_width = 2 * used[-1].bit_count() - 3
    pool_ends = np.full((size + 1, pool_width, 2), -1, np.int8)
    pool_sides = np.zeros((size + 1, pool_width), np.int32)
    first = 0
    for s, (ends, far, signs), atom, vertex, g, tree in groups:
        for lo in range(0, len(g), _ROW_CHUNK):
            gg, tt = g[lo:lo + _ROW_CHUNK], tree[lo:lo + _ROW_CHUNK]
            rows = slice(first + lo, first + lo + len(gg))
            pool_ends[rows, :2 * s - 3] = vertex[gg[:, None, None], ends[tt]]
            pool_sides[rows, :2 * s - 3] = atom[gg[:, None], np.where(
                signs[tt] > 0, far[tt], (1 << s) - 1 ^ far[tt])]
        first += len(g)
    return pool_ends, pool_sides, start, count


def forest_rows(masses: tuple[Fraction, ...]) -> ForestRows:
    """Every full forest over a balanced partition of the atoms with flow
    on every edge, terminal i carrying ``masses[i]``.

    One table holds the total mass of every subset of the atoms, by
    bitmask, as an integer over the masses' common denominator, and its zero
    entries of two or more atoms are the blocks.  The partitions are walked
    from it: each next block holds the lowest atom that the blocks before
    it leave, so no partition with a singleton or unbalanced block is met.
    A block's terminal slots map to its atoms in increasing order, so a
    slot mask maps to an atom mask, and the flow on an edge is the table's
    entry for its higher endpoint's side (:func:`_full_splits`).  A full
    tree with a zero-flow edge, one that splits its block into two balanced
    parts, is not kept.  The flowing trees of all blocks of one size come
    from one round of fancy indexing, into one pool.  A partition's rows are
    the product of its blocks' trees, concatenated, with each block's
    branch vertices numbered on from the blocks before it and the edges
    sorted, and all rows are gathered from the pool together,
    ``_ROW_CHUNK`` at a time.  Rows come in walk order of the partitions
    and, per partition, in product order of the blocks' trees.  Raises
    ``ValueError`` when the masses do not sum to zero.
    """
    n = len(masses)
    den = math.lcm(*(m.denominator for m in masses))
    scaled = [m.numerator * (den // m.denominator) for m in masses]
    sums = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + scaled[low.bit_length() - 1]
    if sums[-1]:
        raise ValueError(
            "boundary has nonzero total mass; no transport path exists")
    blocks = sorted(mask for mask, total in enumerate(sums)
                    if not total and mask & (mask - 1))

    def walk(rest: int) -> Iterator[tuple[int, ...]]:
        if not rest:
            yield ()
            return
        low = rest & -rest
        for blk in blocks:
            if blk & low and blk & rest == blk:
                for tail in walk(rest ^ blk):
                    yield (blk, *tail)

    partitions = tuple(walk(len(sums) - 1))
    used = sorted({blk for p in partitions for blk in p},
                  key=lambda blk: (blk.bit_count(), blk))
    pool_ends, pool_sides, start, count = _pool(n, sums, used)
    size, pool_width = pool_sides.shape
    size -= 1

    # per partition and block (empty blocks pad): the block's first pool
    # entry, its number of trees and of branch vertices, then the stride of
    # its tree index in the product and the branch vertices before it
    kmax = max(map(len, partitions))
    first, tree_count, branch = np.array([
        [(start[blk], count[blk], blk.bit_count() - 2) for blk in p]
        + [(size, 1, 0)] * (kmax - len(p)) for p in partitions]).transpose(
        2, 0, 1)
    stride = np.cumprod(tree_count[:, ::-1], axis=1)[:, ::-1] // tree_count
    branch = np.cumsum(branch, axis=1) - branch
    # each partition's column for every pool edge.  A full tree on s >= 3
    # slots has its leaf edges first, by slot, and its branch edges after,
    # so in a row sorted by edge the leaf edges of all blocks come first, by
    # atom, and the blocks' branch edges follow, block by block: a column
    # does not depend on the trees, and the partition's first row, sorted,
    # gives it.  Column ``width`` takes the padding
    width = 2 * n - 3 * min(map(len, partitions))
    e = pool_ends[first]
    e = np.where(e >= n, e + branch[..., None, None], e).reshape(
        len(partitions), -1, 2)
    order = np.argsort(np.where(e[..., 0] < 0, 4.0 * n * n,
                                e[..., 0] * 2.0 * n + e[..., 1]),
                       axis=1, kind="stable")
    columns = np.empty_like(order)
    columns[np.arange(len(partitions))[:, None], order] = np.minimum(
        np.arange(order.shape[1]), width)
    table = np.stack([first, tree_count, stride, branch], axis=-1)
    rows_of = [math.prod(count[blk] for blk in p) for p in partitions]
    part = np.repeat(np.arange(len(partitions)), rows_of)
    first_row = np.array([0, *itertools.accumulate(rows_of)][:-1])
    blocks_of = np.array([len(p) for p in partitions])
    ends = np.full((len(part), width + 1, 2), -1, np.int8)
    sides = np.zeros((len(part), width + 1), np.int32)
    for lo in range(0, len(part), _ROW_CHUNK):
        rows = np.arange(lo, min(lo + _ROW_CHUNK, len(part)))
        p = part[rows]
        k = blocks_of[p].max()  # block positions this chunk uses
        start_of, count_of, stride_of, branch_of = table[p, :k].transpose(
            2, 0, 1)
        idx = (rows - first_row[p])[:, None] // stride_of % count_of + start_of
        e = pool_ends[idx]
        e = np.where(e >= n, e + branch_of[:, :, None, None], e)
        at = rows[:, None], columns[p, :k * pool_width]
        ends[at] = e.reshape(len(rows), -1, 2)
        sides[at] = pool_sides[idx].reshape(len(rows), -1)
    return ForestRows(n, den, tuple(sums), partitions, part,
                      n - 2 * blocks_of[part], ends[:, :width],
                      sides[:, :width])


def _forests(masses: tuple[Fraction, ...]) -> list[FlowedTopology]:
    """Every forest over a balanced partition of the atoms whose branch
    vertices have degree >= 3, with flow on every edge, each once, with its
    flows: the contractions of the rows of :func:`forest_rows` that merge
    no two atoms, ordered by edge count, then edges.  So every contraction
    of a forest comes before it, and a placement memo shared along the list
    already holds the contractions a collapse meets.

    Every such forest is one of them: expanding each terminal of degree
    >= 2 into a leaf on a new branch vertex, and splitting a pair of sides
    with nonzero total mass off each branch vertex of degree > 3 (the
    sides' masses are nonzero and sum to zero, so some pair has one), gives
    a full forest with flow on every edge back.  Contracting edges leaves
    the flows and splits of the others as they were, and the splits of a
    forest and its components determine it (module docstring), so a
    contraction's key is known before it is built: each forest is
    contracted once, from the first edge subset with its key, and a subset
    whose kept splits leave two atoms of a block together is skipped.
    Raises ``ValueError`` when the masses do not sum to zero.
    """
    rows = forest_rows(masses)
    out: list[FlowedTopology] = []
    met: set[tuple] = set()
    for r in range(len(rows)):
        blocks = rows.partitions[rows.part[r]]
        splits, ft = rows.splits(r), None
        for bits in range(1 << len(splits)):
            kept = [side for i, side in enumerate(splits) if not bits >> i & 1]
            key = (blocks, tuple(sorted(kept)))
            if key in met:
                continue
            met.add(key)
            # two atoms of a block that no kept split separates would
            # merge: contract skips such a pair, which leaves the
            # contraction by fewer edges, met under its own key
            codes = {(blk, tuple(side >> i & 1 for side in kept))
                     for blk in blocks for i in range(rows.n) if blk >> i & 1}
            if len(codes) < rows.n:
                continue
            if ft is None:
                ft = rows.topology(r)
            # each forest is met once, so no memo keeps it
            out.append(_contract(ft, [e for i, e in enumerate(ft.edges)
                                      if bits >> i & 1])[0])
    return sorted(out, key=lambda ft: (len(ft.edges), ft.edges))


def enumerate_topologies(b: Boundary) -> Iterator[FlowedTopology]:
    """Every full topology over a balanced partition of ``b``'s atoms, with
    its flows: :func:`forest_rows`, row by row.

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
    rows = forest_rows(tuple(m for _, m in b.atoms))
    yield from map(rows.topology, range(len(rows)))


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


