"""The topology table against the paths it replaced.

``topology.forest_rows`` holds every flowing full forest as array rows, and
the solver bounds those rows (``placement.bound_rows``) and makes objects
only for the rows it visits.  Here the rows are compared with the
per-block generator of ``forest_oracle`` as sets of (edges, flows,
signature), and their bounds with those of the flowed topologies the rows
stand for, bit for bit.
"""
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forest_oracle import flowed_forests
from gsteiner.currents import make_boundary
from gsteiner.placement import bound_rows, lower_bounds
from gsteiner.topology import enumerate_topologies, forest_rows
from random_set import random_set


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
    for margin in (None, solver_margin):
        got, want = [], []
        bounds = bound_rows(rows.ends, rows.n_branch, rows.sides,
                            rows.side_weights(alpha), b, alpha, got.append,
                            margin)
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
