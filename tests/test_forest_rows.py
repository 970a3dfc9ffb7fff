"""The topology table against the paths it replaced.

``topology.forest_rows`` holds every flowing full forest as array rows, and
the solver bounds those rows (``placement.bound_rows``) and makes objects
only for the rows it visits.  Here the rows are compared with the
per-block generator of ``forest_oracle`` as sets of (edges, flows,
signature), and their bounds with those of the flowed topologies the rows
stand for (``topology_bounds.lower_bounds``), bit for bit.  The rows'
signatures, which the solver keys them by, are compared with their
objects', and the rows and bounds with the same ones built in small chunks.
Every row is a full forest, the branch positions the bounding pass returns
reproduce its bounds (the solver starts its kernel runs there), and a
one-block table is freed before the rows are gathered.
"""
import random
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forest_oracle import flowed_forests
from gsteiner import placement, topology
from gsteiner.currents import make_boundary
from gsteiner.placement import Placement, bound_rows, dual_bound
from gsteiner.topology import enumerate_topologies, forest_rows
from random_set import random_set
from topology_bounds import lower_bounds, unscreened


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
]


@pytest.mark.parametrize("masses", ROW_MASSES,
                         ids=lambda masses: ",".join(map(str, masses)))
def test_rows_match_oracle_forests(masses):
    masses = tuple(map(F, masses))
    rows = forest_rows(masses)
    got = {(ft.edges, ft.edge_flows, rows.signature(r))
           for r, ft in enumerate(map(rows.topology, range(len(rows))))}
    want = {(ft.edges, ft.edge_flows, ft.signature())
            for ft in flowed_forests(masses)}
    assert len(got) == len(rows)
    assert got == want


def _same_bounds(b, alpha):
    """The table's rows and the flowed topologies they stand for get the
    same bounds and trace records, with and without the solver's margin."""
    rows = forest_rows(tuple(m for _, m in b.atoms))
    fts = list(enumerate_topologies(b))
    for margin in (unscreened, solver_margin):
        got, want = [], []
        bounds, _ = bound_rows(rows.ends, rows.n_branch, rows.sides,
                               rows.side_weights(alpha), b, alpha, margin,
                               got.append)
        assert bounds.tolist() == lower_bounds(fts, b, alpha, want.append,
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


def test_row_signatures_match_topology_signatures_on_the_random_set():
    # the solver keys a row by the table's signature, and a row's object
    # finds its own by a DFS
    for b, _ in random_set():
        rows = forest_rows(tuple(m for _, m in b.atoms))
        for r in range(len(rows)):
            assert rows.signature(r) == rows.topology(r).signature()


def _rows_and_bounds(b, alpha):
    """The table of ``b``, its screened bounds and branch positions, and
    their trace."""
    rows = forest_rows(tuple(m for _, m in b.atoms))
    records = []
    bounds, x = bound_rows(rows.ends, rows.n_branch, rows.sides,
                           rows.side_weights(alpha), b, alpha, solver_margin,
                           records.append)
    return rows, bounds.tolist(), x, records


def _same_rows(got, want):
    assert (got.n, got.den, got.sums, got.partitions) == \
        (want.n, want.den, want.sums, want.partitions)
    for name in ("part", "n_branch", "ends", "sides"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_chunks_change_no_row_bound_or_record(monkeypatch, bench_instances):
    # the tables, pooled trees and rows are built _ROW_CHUNK rows at a time
    # and the bounds taken _BOUND_CHUNK rows at a time; chunks of 3 and 5
    # split every loop here, the shape tables' included
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
    # a row over k blocks of n atoms has n - 2k branch vertices, and a
    # contraction keeps its row's blocks with fewer: no row is another's
    # contraction, so no lookup in the solver's memo is ever for a row
    cases = (random_set() + bench_instances("solve-n6", 0)
             + bench_instances("solve-3d", 0) + [bench_dent(0)[1:]])
    for b, _ in cases:
        rows = forest_rows(tuple(m for _, m in b.atoms))
        blocks = np.array([len(p) for p in rows.partitions])[rows.part]
        assert np.array_equal(rows.n_branch, rows.n - 2 * blocks)


@pytest.mark.parametrize("margin", [unscreened, solver_margin],
                         ids=["unscreened", "screened"])
def test_row_positions_reproduce_their_bounds(margin):
    # the solver starts each row's kernel at the branch positions
    # bound_rows returns: they are the ones its bound was taken at
    for b, alpha in random_set():
        rows = forest_rows(tuple(m for _, m in b.atoms))
        bounds, x = bound_rows(rows.ends, rows.n_branch, rows.sides,
                               rows.side_weights(alpha), b, alpha,
                               margin=margin)
        terminals = tuple(p for p, _ in b.atoms)
        eps = placement._BOUND_EPS_LAST * placement._scale(terminals)
        for r, bound in enumerate(bounds.tolist()):
            ft = rows.topology(r)
            pl = Placement(terminals, tuple(map(tuple, x[r, :ft.n_branch])))
            got = dual_bound(ft, pl, alpha, eps if ft.n_branch else 0.0)
            assert abs(got - bound) <= 1e-12 * abs(bound)


def test_one_block_table_is_dropped_before_the_rows_are_gathered(
        monkeypatch):
    # nine atoms in one balanced block: the s = 9 shape table (not kept
    # here), the pool of flowing trees and the gathered rows, each about
    # the size of the trees, must not all be live at once
    masses = tuple(map(F, (1, 2, 4, 8, 16, 32, 64, 128, -255)))
    monkeypatch.setattr(topology, "_KEPT_SIZE", 8)
    monkeypatch.setattr(topology, "_ROW_CHUNK", 1024)
    monkeypatch.setattr(topology, "_kept", {})
    tracemalloc.start()
    try:
        rows = forest_rows(masses)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = sum(a.nbytes for a in topology._full_splits(9))
    trees = rows.ends.nbytes + rows.sides.nbytes
    assert peak < table + 2 * trees


def test_shape_tables_above_the_kept_size_are_not_kept(monkeypatch):
    # one balanced block of six atoms needs the s = 6 table
    masses = tuple(map(F, (1, 1, 1, 1, 1, -5)))
    want = forest_rows(masses)
    monkeypatch.setattr(topology, "_KEPT_SIZE", 4)
    monkeypatch.setattr(topology, "_kept", {})
    _same_rows(forest_rows(masses), want)
    assert sorted(topology._kept) == [3, 4]
