"""The topology table against the paths it replaced.

``topology.forest_rows`` holds every flowing full forest once, as a full
tree on all the atoms whose zero-flow edges the forest drops, and the
solver bounds those trees (``placement.bound_rows``) and makes objects only
for the rows it visits.  Here the rows' forests are compared with the
per-block generator of ``forest_oracle`` by signature and flows, and their
bounds with those of the rows' own full trees, zero flows kept
(``topology_bounds.lower_bounds``), bit for bit; every bound lies below the
optimum of the row's forest.  The rows and bounds are compared with the
same ones built in small chunks.  Every row is a full tree whose forest is
full, no row has a branch vertex without flow, the branch positions the
bounding pass returns reproduce its bounds (the solver starts its kernel
runs there), and a table built for the call becomes the rows.
"""
import random
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forest_oracle import flowed_forests, forest_key
from gsteiner import placement, topology
from gsteiner.currents import make_boundary
from gsteiner.placement import (Placement, dual_bound, energy,
                                optimize_topology)
from gsteiner.topology import forest_rows
from random_set import random_set
from topology_bounds import lower_bounds, row_bounds, unscreened


def solver_margin(v):
    return v + 1e-7 * (1.0 + abs(v))


def test_random_set_size():
    instances = random_set()
    assert len(instances) == 59
    assert sum(len(forest_rows(tuple(m for _, m in b.atoms)))
               for b, _ in instances) == 2593


# repeated masses and balanced proper subsets, 2 to 8 atoms
ROW_MASSES = [
    (1, -1), (-2, 1, 1), (1, -1, 1, -1), (2, -1, 1, -1, -1),
    (1, -1, 1, -1, 1, -1), (F(-3), F(-1, 2), 2, 1, F(3, 2), -1),
    (1, 1, 1, -1, -1, -1, 2, -2), (3, -1, -1, -2, 2, -2, 1),
    (F(1, 2), F(-1, 2), 1, -1, F(3, 2), F(-3, 2), 2, -2),
    (1, -1, 1, -1, 1, -1, 1, -1),
]


def _lone(rows, r):
    """Whether a branch vertex of row ``r`` has three zero-flow edges."""
    cut = [v for edge, side in zip(rows.ends[r].tolist(),
                                   rows.sides[r].tolist())
           if not rows.sums[side] for v in edge]
    return any(cut.count(v) == 3 for v in cut)


@pytest.mark.parametrize("masses", ROW_MASSES,
                         ids=lambda masses: ",".join(map(str, masses)))
def test_rows_match_oracle_forests(masses):
    # a forest of several blocks gets its branch labels from the
    # contraction of its row's tree, so forests are compared by their
    # signatures and the flows on their splits
    masses = tuple(map(F, masses))
    rows = forest_rows(masses)
    got = {forest_key(rows.topology(r)) for r in range(len(rows))}
    want = {forest_key(ft) for ft in flowed_forests(masses)}
    assert len(got) == len(rows)
    assert got == want
    assert not any(_lone(rows, r) for r in range(len(rows)))


def test_alternating_eight_atoms_keep_every_forest_once():
    # +-1 on eight atoms: 1419 forests from 10395 full trees, some of them
    # with a lone branch vertex; the oracle comparison above checks that
    # each forest is kept once, by a tree without one
    rows = forest_rows((F(1), F(-1)) * 4)
    assert len(rows) == 1419
    every = topology.ForestRows(8, rows.den, rows.sums,
                                *topology._full_splits(8))
    assert any(_lone(every, r) for r in range(len(every)))


def _same_bounds(b, alpha):
    """The table's rows and their full trees get the same bounds and trace
    records, with and without the solver's margin.  A row is compared with
    its tree and not its forest: the tree's degree-2 vertices move in the
    bounding pass, so their bounds can differ in the last digits."""
    rows = forest_rows(tuple(m for _, m in b.atoms))
    trees = [rows.tree(r) for r in range(len(rows))]
    for margin in (unscreened, solver_margin):
        got, want = [], []
        bounds, _ = row_bounds(rows, b, alpha, margin, got.append)
        assert bounds.tolist() == lower_bounds(trees, b, alpha, want.append,
                                               margin)
        assert got == want


def test_row_bounds_match_topology_bounds_on_the_random_set():
    for b, alpha in random_set():
        _same_bounds(b, alpha)


@st.composite
def instances(draw):
    """3 to 7 atoms in 2-D or 3-D with small signed masses, repeated ones
    and balanced proper subsets included."""
    n = draw(st.integers(3, 7))
    dim = draw(st.sampled_from([2, 3]))
    head = draw(st.lists(st.sampled_from([-2, -1, 1, 2, F(1, 2), F(-3, 2)]),
                         min_size=n - 1, max_size=n - 1))
    if sum(head) == 0:
        head[0] += 1 if head[0] != -1 else 2
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    points = [tuple(rng.uniform(0, 2) for _ in range(dim)) for _ in range(n)]
    masses = [F(m) for m in head] + [-F(sum(head))]
    alpha = draw(st.sampled_from([0.3, 0.5, 0.75, 1.0]))
    return make_boundary(zip(points, masses)), alpha


@settings(max_examples=15, deadline=None)
@given(instances())
def test_row_bounds_match_topology_bounds(case):
    _same_bounds(*case)


def _rows_and_bounds(b, alpha):
    """The table of ``b``, its screened bounds and branch positions, and
    their trace."""
    rows = forest_rows(tuple(m for _, m in b.atoms))
    records = []
    bounds, x = row_bounds(rows, b, alpha, solver_margin, records.append)
    return rows, bounds.tolist(), x, records


def _same_rows(got, want):
    assert (got.n, got.den, got.sums) == (want.n, want.den, want.sums)
    for name in ("ends", "sides"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_chunks_change_no_row_bound_or_record(monkeypatch, bench_instances):
    # the shape tables are built, their far masks turned into sides and
    # their trees with zero-flow edges keyed _ROW_CHUNK rows at a time, and
    # the bounds taken _BOUND_CHUNK rows at a time; chunks of 3 and 5 split
    # every loop here, the shape tables' included, and solve-n6's
    # (-1, -1, -1, 1, 1, 1) has trees with zero-flow edges to key
    cases = random_set() + bench_instances("solve-n6", 0)
    want = [_rows_and_bounds(*case) for case in cases]
    monkeypatch.setattr(topology, "_ROW_CHUNK", 3)
    monkeypatch.setattr(placement, "_BOUND_CHUNK", 5)
    monkeypatch.setattr(topology, "_kept", {})
    for case, (rows, bounds, x, records) in zip(cases, want):
        got_rows, got_bounds, got_x, got_records = _rows_and_bounds(*case)
        _same_rows(got_rows, rows)
        assert got_bounds == bounds
        assert np.array_equal(got_x, x)
        assert got_records == records


def test_rows_are_full_forests(bench_instances, bench_dent):
    # every row is a full tree on the n atoms: atoms are leaves, and its
    # n - 2 branch vertices have degree 3.  Its forest of k components
    # has n - 2k branch vertices, and a contraction keeps its row's
    # components with fewer: no row's forest is another's contraction, so
    # no lookup in the solver's memo is ever for a row
    cases = (random_set() + bench_instances("solve-n6", 0)
             + bench_instances("solve-3d", 0) + [bench_dent(0)[1:]])
    for b, _ in cases:
        rows = forest_rows(tuple(m for _, m in b.atoms))
        n = rows.n
        assert rows.ends.shape == (len(rows), 2 * n - 3, 2)
        degree = (rows.ends.reshape(len(rows), -1, 1)
                  == np.arange(2 * n - 2)).sum(axis=1)
        assert (degree == [1] * n + [3] * (n - 2)).all()
        for r in range(len(rows)):
            ft = rows.topology(r)
            k = len(ft.signature()[2])
            assert (ft.n_branch, len(ft.edges)) == (n - 2 * k, 2 * n - 3 * k)
            assert len(rows.live(r)) == ft.n_branch


@pytest.mark.parametrize("margin", [unscreened, solver_margin],
                         ids=["unscreened", "screened"])
def test_row_positions_reproduce_their_bounds(margin):
    # the solver starts each row's kernel at the branch positions
    # bound_rows returns: they are the ones its bound was taken at, on the
    # row's full tree
    for b, alpha in random_set():
        rows = forest_rows(tuple(m for _, m in b.atoms))
        bounds, x = row_bounds(rows, b, alpha, margin=margin)
        terminals = tuple(p for p, _ in b.atoms)
        eps = placement._BOUND_EPS_LAST * placement._scale(terminals)
        for r, bound in enumerate(bounds.tolist()):
            tree = rows.tree(r)
            pl = Placement(terminals, tuple(map(tuple, x[r])))
            got = dual_bound(tree, pl, alpha, eps)
            assert abs(got - bound) <= 1e-12 * abs(bound)


@st.composite
def split_instances(draw):
    """5 to 7 atoms in the plane in two balanced groups of two or more, so
    that some trees have zero-flow edges."""
    n = draw(st.integers(5, 7))
    a = draw(st.integers(2, n - 2))
    masses = []
    for size in (a, n - a):
        head = draw(st.lists(st.sampled_from([-2, -1, 1, 2, F(1, 2)]),
                             min_size=size - 1, max_size=size - 1)
                    .filter(lambda head: sum(head) != 0))
        masses += [F(m) for m in head] + [-F(sum(head))]
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    rng.shuffle(masses)
    points = [(rng.uniform(0, 2), rng.uniform(0, 2)) for _ in range(n)]
    alpha = draw(st.sampled_from([0.3, 0.5, 0.75, 1.0]))
    return make_boundary(zip(points, masses)), alpha


@settings(max_examples=5, deadline=None)
@given(split_instances())
def test_row_bounds_lie_below_their_forests_optima(case):
    # a zero-flow edge weighs nothing, so a row's tree costs what its
    # forest costs, and the tree's bound bounds the forest's minimum.  The
    # forest is valued at the placement its optimization lifts back to it:
    # a collapse that merges parallel edges can put the optimization's own
    # value below the forest's minimum, with or without zero-flow edges
    b, alpha = case
    rows = forest_rows(tuple(m for _, m in b.atoms))
    bounds, _ = row_bounds(rows, b, alpha, solver_margin)
    memo = {}
    for r, bound in enumerate(bounds.tolist()):
        ft = rows.topology(r)
        opt = optimize_topology(ft, b, alpha, None, memo)
        at = [opt.placement.position(v) for v in opt.lift]
        v = energy(ft, Placement(at[:ft.n_terminals],
                                 at[ft.n_terminals:]), alpha)
        assert bound <= v + 1e-12 * (1.0 + v)


def test_a_table_built_for_the_call_becomes_the_rows(monkeypatch):
    # nine atoms in one balanced block: the s = 9 shape table (not kept
    # here) is the rows, so no second copy of the trees is made beside it
    masses = tuple(map(F, (1, 2, 4, 8, 16, 32, 64, 128, -255)))
    monkeypatch.setattr(topology, "_KEPT_SIZE", 8)
    monkeypatch.setattr(topology, "_ROW_CHUNK", 128)
    monkeypatch.setattr(topology, "_kept", {})
    tracemalloc.start()
    try:
        rows = forest_rows(masses)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = sum(a.nbytes for a in topology._full_splits(9))
    assert len(rows) == 135135
    assert peak < table + rows.sides.nbytes / 2


def test_shape_tables_above_the_kept_size_are_not_kept(monkeypatch):
    # one balanced block of six atoms needs the s = 6 table.  A kept table
    # is shared: the rows are its arrays
    masses = tuple(map(F, (1, 1, 1, 1, 1, -5)))
    want = forest_rows(masses)
    assert want.ends is topology._kept[6][0]
    assert want.sides is topology._kept[6][1]
    monkeypatch.setattr(topology, "_KEPT_SIZE", 4)
    monkeypatch.setattr(topology, "_kept", {})
    _same_rows(forest_rows(masses), want)
    assert sorted(topology._kept) == [3, 4]
