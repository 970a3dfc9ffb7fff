"""Enumeration of network topologies for an atomic boundary.

A candidate topology is a forest on the labeled terminals (one per boundary
atom) plus unlabeled auxiliary branch vertices.  Flows on a forest are
uniquely determined by mass conservation: each edge splits its component's
terminals in two, and the flow from its lower endpoint to its higher one is
the mass on the higher endpoint's side.

One table, :func:`forest_rows`, holds every flowed full forest over a
balanced partition of the atoms (blocks of total mass zero, each spanning
a full tree: terminals are leaves, s - 2 branch vertices of degree 3 on s
terminals), each once, as a row of numpy arrays: one of the (2n - 5)!!
full trees on all n atoms of Smith's insertion scheme (W. D. Smith,
Algorithmica 7, 1992), which inserts terminal i on every edge of each full
tree on the terminals before it.  An edge whose sides are balanced carries
no flow, and a tree with such edges is a forest in disguise: drop them and
splice out the branch vertices they leave with two edges.  A zero-flow
edge weighs nothing, so the tree costs what its forest costs.  The solver
bounds the rows as arrays, and makes a :class:`FlowedTopology`
(:meth:`ForestRows.topology`) only for the rows tied at the bound of a row
it visits, which it keys by that object's signature;
:func:`enumerate_topologies` yields every row's forest, for the CLI.

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
(bit i for terminal slot or atom i): per tree size s, built on first use
and kept up to s = 9, the full trees as two arrays (:func:`_full_splits`),
their edges and per edge the slot mask of its higher endpoint's side,
carried through Smith's insertion a few array operations per level; and
per call the total mass of every subset of the atoms, one integer over the
masses' common denominator per atom mask.  Slot i of the table of size n
is atom i, so an edge's flow is the sum of its side's mask, and the
weights |flow|^alpha of all rows come from one value per mask
(:meth:`ForestRows.side_weights`).  Which trees carry the same forest is
read from the masks alone (:func:`_components`); a forest's key is the one
its object's DFS finds (:meth:`FlowedTopology.signature`).

One routine, :func:`contract`, merges vertices of a flowed forest, for
:func:`_forests`, :func:`assign_flows` and collapse handling alike.  Gilbert's
"at most one minimum network per topology" holds once degenerate vertices
are merged away: a forest and its contraction realize the same current, and
the contraction's cluster map lifts a placement of it back onto the forest.
A contraction depends on the forest and its flows and on the merged pairs
alone, so each :class:`FlowedTopology` keeps a private memo, made with it:
every contraction of it, keyed by the tuple of merged pairs; its edge
weights |flow|^alpha (``placement._weights``), keyed by alpha; the
(weight, neighbour) lists of its branch vertices
(``placement._incident``), keyed by ``("incident", alpha)``; and its
incidence matrix, read-only (``placement._incidence``), keyed by
``"incidence"``.  A repeat call returns the same objects, whose own memos
hold what was derived from them, so a caller that keeps its topologies, as
the four-point lab's candidate cache does, derives each of them once.
Since each entry is that pure function's value, no result can depend on
which calls filled the memo, and a copy or a pickle may carry it (with a
writeable copy of the matrix).  The memo takes no part in equality,
hashing, ``repr`` or the signature, and ``replace`` starts with an empty
one.

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
    flows only (a row's full tree, :meth:`ForestRows.tree`, keeps its zero
    flows); :func:`assign_flows` and :func:`contract` rewrite a forest
    whose flows vanish on some edge into the smaller forest without it.  Raises ``ValueError`` for an edge out of range
    or unordered, or for more than n - 2 branch vertices.
    """
    n_terminals: int
    n_branch: int
    edges: tuple[Edge, ...]
    edge_flows: tuple[Fraction, ...]
    # :func:`contract`'s results by the tuple of merged pairs,
    # ``placement._weights``' by alpha, ``placement._incident``'s by
    # ("incident", alpha) and ``placement._incidence``'s by "incidence"
    # (module docstring); no part of equality, hashing or repr, and empty
    # in a ``replace``
    _memo: dict = field(default_factory=dict, init=False, compare=False,
                        repr=False)

    def __post_init__(self):
        _check_forest(self.n_terminals, self.n_branch, self.edges)

    def signature(self) -> tuple:
        """Canonical key, invariant under branch-vertex relabeling.

        ``(n, m, component masks, split masks)``, both mask tuples sorted
        (see :func:`_splits`).  The masks determine the forest, and the
        masses its flows; ``m`` is implied too, but kept second so that
        the key orders topologies by branch count first.  One DFS finds the
        masks.  The solver visits the rows tied at a bound in the order of
        their forests' keys.
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

# the tables are built and keyed this many trees at a time, which bounds
# the temporaries: at s = 10 the 135135 parent trees make 2027025 trees
_ROW_CHUNK = 8192

# the shape tables up to this size, about 13 MB together, are kept, shared
# by the rows; a larger one (207 MB at s = 10) is built for its call and
# becomes its rows, so no process carries it after the solve that needed it
_KEPT_SIZE = 9
_kept: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _full_splits(s: int) -> tuple[np.ndarray, np.ndarray]:
    """Full trees on s >= 2 terminal slots (0..s-1) and s - 2 branch slots,
    one per row of two arrays: the edges (S, 2s - 3, 2), each (lower,
    higher) and sorted, int8, and per edge the mask of the terminal slots
    on its higher endpoint's side, int32 (s <= 31).

    Smith insertion, vectorized: each full tree on the first s - 1 terminals
    has its branch slots shifted up by one, which keeps every edge's
    orientation, and terminal s - 1 is attached to a new branch slot
    w = 2s - 3 that subdivides one of its 2s - 5 edges, (x, y) with far mask
    f (its side away from slot 0) and x on the far side.  The far half
    (x, w) and the leaf edge have w's side away from x and from the new
    terminal, the near half (y, w) has f plus the new bit, and every other
    edge gets the bit on its side that holds (x, y), the far one exactly
    when its far mask contains f.  Tree a's insertion on its edge i is row
    a (2s - 5) + i.  Tables up to s = ``_KEPT_SIZE`` are kept, read-only.
    """
    if s in _kept:
        return _kept[s]
    if s == 2:
        return np.array([[[0, 1]]], np.int8), np.array([[0b10]], np.int32)
    t, w, bit, full = s - 1, 2 * s - 3, 1 << (s - 1), (1 << s) - 1
    ends, sides = _full_splits(s - 1)
    ends = ends + (ends >= t)
    size, e = sides.shape
    out = (np.empty((size * e, e + 2, 2), np.int8),
           np.empty((size * e, e + 2), np.int32))
    split = np.eye(e, dtype=bool)  # [i, j]: child i subdivides edge j
    for lo in range(0, size, _ROW_CHUNK):
        en, sd = ends[lo:lo + _ROW_CHUNK], sides[lo:lo + _ROW_CHUNK]
        c, up = len(sd), sd & 1 == 0  # up: the far side is the higher one
        far = np.where(up, sd, full ^ bit ^ sd)
        u, v, fi, fj = en[:, None, :, 0], en[:, None, :, 1], far[..., None], \
            far[:, None]
        x = np.where(up, en[..., 1], en[..., 0])[..., None]
        # child i's edges: the parent's, edge i turned into the far half
        # (x, w), then the near half (y, w) and the leaf edge (t, w)
        child_u = np.concatenate([np.where(split, x, u), en.sum(
            axis=2, keepdims=True, dtype=np.int8) - x,
            np.full((c, e, 1), t, np.int8)], axis=2)
        child_v = np.concatenate([np.where(split, np.int8(w), v),
                                  np.full((c, e, 2), w, np.int8)], axis=2)
        child_sides = np.concatenate([
            np.where(split, full ^ fi, np.where(
                up[:, None] == (fj & fi == fi), sd[:, None] | bit,
                sd[:, None])),
            fi | bit, np.full((c, e, 1), full ^ bit, np.int32)], axis=2)
        # sorted by edge; float keys are exact here, and the stable float
        # sort is the one the solver's queue uses
        at = (np.arange(c)[:, None, None], np.arange(e)[:, None],
              np.argsort(child_u * (w + 1.0) + child_v, axis=2,
                         kind="stable"))
        rows = slice(lo * e, (lo + c) * e)
        for got, child in zip((out[0][..., 0], out[0][..., 1], out[1]),
                              (child_u, child_v, child_sides)):
            got[rows] = child[at].reshape(-1, e + 2)
    if s <= _KEPT_SIZE:
        for a in out:
            a.flags.writeable = False
        _kept[s] = out
    return out


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ForestRows:
    """Every full forest over a balanced partition of the atoms with flow on
    every edge, once, each as a full tree on all n atoms, one per row, in
    the order of :func:`forest_rows`.

    Row r's edges are ``ends[r]``, 2n - 3 of them, sorted, between the atoms
    0..n-1 and the branch vertices n..2n-3, and ``sides[r]`` holds per edge
    the atom mask of its higher endpoint's side: the flow from the edge's
    lower endpoint to its higher one is that side's total mass,
    ``sums[side] / den``.  Dropping the edges without flow and splicing out
    the branch vertices they leave gives the row's forest
    (:meth:`topology`), whose :meth:`FlowedTopology.signature` is the row's
    key.  Every row has n - 2 branch vertices, none with only zero-flow
    edges, so flowing edges tie each to an atom, and the bounding pass,
    which reads the arrays, gives zero-flow edges weight 0
    (:meth:`side_weights`).
    """
    n: int
    den: int
    sums: tuple[int, ...]
    ends: np.ndarray
    sides: np.ndarray

    def __len__(self) -> int:
        return len(self.sides)

    def side_weights(self, alpha: float) -> np.ndarray:
        """|total mass|^alpha of every atom mask.  int / int true division
        rounds correctly, as ``float`` of a Fraction does, so these are the
        bits of ``placement._weights``."""
        return np.array([abs(total / self.den) ** alpha
                         for total in self.sums])

    def tree(self, r: int) -> FlowedTopology:
        """Row ``r``'s full tree, its zero flows kept."""
        return FlowedTopology(
            self.n, self.n - 2, tuple(map(tuple, self.ends[r].tolist())),
            tuple(Fraction(self.sums[side], self.den)
                  for side in self.sides[r].tolist()))

    def topology(self, r: int) -> FlowedTopology:
        """Row ``r``'s forest: its tree contracted, which drops the
        zero-flow edges and splices out the branch vertices they leave; a
        tree with flow on every edge is its own forest."""
        tree = self.tree(r)
        return tree if all(tree.edge_flows) else contract(tree, ())[0]

    def live(self, r: int) -> list[int]:
        """The i of row ``r``'s branch vertices n + i that its forest keeps,
        in order: those without a zero-flow edge."""
        cut = {v for edge, side in zip(self.ends[r].tolist(),
                                       self.sides[r].tolist())
               if not self.sums[side] for v in edge}
        return [i for i in range(self.n - 2) if self.n + i not in cut]


def _components(sides: np.ndarray, cut: np.ndarray, n: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_representatives`' key per edge of rows of full trees, their
    ``sides`` as in :class:`ForestRows` and ``cut`` their zero-flow edges:
    its component once the cut edges are dropped, the intersection of the
    sides of the cut edges that hold it, and its split there, its atoms
    away from the component's lowest atom.  An edge's far mask, its side
    away from atom 0, lies in a cut edge's exactly when it lies on that
    edge's far side.
    """
    full = (1 << n) - 1
    far = np.where(sides & 1, full ^ sides, sides)
    near = far[:, :, None]
    held = np.where(near & far[:, None] == near, far[:, None],
                    full ^ far[:, None])
    comp = np.bitwise_and.reduce(np.where(cut[:, None], held, full), axis=2)
    split = far & comp
    return comp, np.where(split & comp & -comp, comp ^ split, split)


def _representatives(ends: np.ndarray, sides: np.ndarray, zero: np.ndarray,
                     n: int) -> np.ndarray:
    """Which of the full trees ``ends`` and ``sides`` :func:`forest_rows`
    keeps, ``zero`` holding per atom mask whether its mass is zero: every
    tree without a zero-flow edge, and of the others, keyed by the set of
    (component, split) pairs of their flowing edges (:func:`_components`),
    the first of each key without a lone branch vertex, one whose three
    edges carry no flow.  Every forest has such a tree: chain its blocks,
    each joined to the next by a zero-flow edge between two flowing ones.
    """
    keep = ~zero[sides].any(axis=1)
    rows, keys = np.flatnonzero(~keep), []
    for lo in range(0, len(rows), _ROW_CHUNK):
        chunk = rows[lo:lo + _ROW_CHUNK]
        cut = zero[sides[chunk]]
        comp, split = _components(sides[chunk], cut, n)
        # a forest edge subdivided by zero-flow edges is several tree
        # edges with one pair: each pair counts once
        key = np.where(cut, -1, comp.astype(np.int64) << n | split)
        key.sort(axis=1)
        key[:, 1:][key[:, 1:] == key[:, :-1]] = -1
        key.sort(axis=1)
        at = np.where(cut[..., None], ends[chunk], -1)
        key[(at[..., None] == np.arange(n, 2 * n - 2)).sum(axis=(1, 2)).max(
            axis=1, initial=0) == 3] = -2  # lone: a key of its own
        keys.append(key)
    # the first tree of each key, after a stable sort of the keys: on the
    # 9-atom instance's 19467 keys, np.unique over rows took 40 ms, this 5
    keys = np.concatenate(keys)
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    first = np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)]
    keep[rows[order[first & (keys[:, 0] != -2)]]] = True
    return keep


def forest_rows(masses: tuple[Fraction, ...]) -> ForestRows:
    """Every full forest over a balanced partition of the atoms with flow
    on every edge, each once as a full tree on all n atoms, terminal i
    carrying ``masses[i]``.

    One table holds the total mass of every subset of the atoms, by
    bitmask, as an integer over the masses' common denominator.  The trees
    are those of :func:`_full_splits` ``(n)``, slot i being atom i, so an
    edge's flow is the table's entry for its side mask; the rows are the
    shape table's arrays when the atoms have no balanced proper subset, and
    the trees :func:`_representatives` keeps otherwise.  Raises
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
    ends, sides = _full_splits(n)
    zero = np.array([not total for total in sums])
    if zero[1:-1].any():
        keep = _representatives(ends, sides, zero, n)
        if not keep.all():
            ends, sides = ends[keep], sides[keep]
    return ForestRows(n, den, tuple(sums), ends, sides)


def _forests(masses: tuple[Fraction, ...]) -> list[FlowedTopology]:
    """Every forest over a balanced partition of the atoms whose branch
    vertices have degree >= 3, with flow on every edge, each once: the
    contractions of the forests of :func:`forest_rows` that merge no two
    atoms, ordered by edge count, then edges, so a placement memo shared
    along the list already holds the contractions a collapse meets.

    Every such forest is one of them: expanding each terminal of degree
    >= 2 into a leaf on a new branch vertex, and splitting a pair of sides
    with nonzero total mass off each branch vertex of degree > 3 (the
    sides' masses are nonzero and sum to zero, so some pair has one), gives
    a full forest with flow on every edge back.  Contracting edges leaves
    the flows and splits of the others as they were, and the splits of a
    forest and its components determine it (module docstring), so a
    contraction's key is known before it is built: each forest is
    contracted once, from the first edge subset with its key, and a subset
    whose kept splits leave two atoms of a component together is skipped.
    Raises ``ValueError`` when the masses do not sum to zero.
    """
    rows = forest_rows(masses)
    out: list[FlowedTopology] = []
    met: set[tuple] = set()
    for ft in map(rows.topology, range(len(rows))):
        components, splits, _ = _splits(rows.n, ft.edges)
        blocks = tuple(sorted(components))
        for bits in range(1 << len(splits)):
            kept = [side for i, side in enumerate(splits) if not bits >> i & 1]
            key = (blocks, tuple(sorted(kept)))
            if key in met:
                continue
            met.add(key)
            # two atoms of a component that no kept split separates would
            # merge: contract skips such a pair, which leaves the
            # contraction by fewer edges, met under its own key
            codes = {(blk, tuple(side >> i & 1 for side in kept))
                     for blk in blocks for i in range(rows.n) if blk >> i & 1}
            if len(codes) < rows.n:
                continue
            out.append(contract(ft, [e for i, e in enumerate(ft.edges)
                                     if bits >> i & 1])[0])
    return sorted(out, key=lambda ft: (len(ft.edges), ft.edges))


def enumerate_topologies(b: Boundary) -> Iterator[FlowedTopology]:
    """Every full forest over a balanced partition of ``b``'s atoms with
    flow on every edge, with its flows: the forests of :func:`forest_rows`,
    row by row.

    Terminals are indexed by the canonical (sorted) atom order of ``b``.
    Every yielded topology is what :func:`assign_flows` makes of it, and no
    two share a signature.  Raises ``ValueError`` when ``b`` has fewer than
    two atoms or a nonzero total mass.
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
    return contract(FlowedTopology(n, n_branch, edges, tuple(
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


