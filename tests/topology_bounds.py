"""The bounding pass for the tests: over a list of flowed topologies of one
shape, for the tests that hold topologies rather than rows
(``placement.bound_rows`` with one row per topology and each row's weights
from ``placement._weights``), and over an instance's topology table, as the
solver takes it."""
import math

import numpy as np

from gsteiner.placement import _weights, bound_rows


def unscreened(v):
    """A screening margin that never cuts: ``bound_rows`` with it takes
    every row with branch vertices through the whole schedule."""
    return math.inf


def lower_bounds(fts, b, alpha, trace=None, margin=unscreened):
    """``bound_rows`` of the topologies ``fts``, one row each, in order, as
    a list, screened with ``margin`` (by default not at all).  Raises
    ``ValueError`` when a topology's terminal count is not ``b``'s atom
    count, when the topologies differ in their numbers of branch vertices
    or edges, and as ``bound_rows`` does."""
    if any(ft.n_terminals != len(b.atoms) for ft in fts):
        raise ValueError("boundary does not match topology terminal count")
    if len({(ft.n_branch, len(ft.edges)) for ft in fts}) > 1:
        raise ValueError("topologies of more than one shape")
    ends = np.array([ft.edges for ft in fts], np.intp)
    weights = np.array([_weights(ft, alpha) for ft in fts])
    return bound_rows(ends, np.arange(weights.size).reshape(weights.shape),
                      weights.ravel(), b, alpha, margin, trace)[0].tolist()


def row_bounds(rows, b, alpha, margin=unscreened, trace=None):
    """``bound_rows`` of every row of ``b``'s topology table ``rows``
    (``topology.forest_rows``), as ``solve`` takes them: the bounds and the
    branch positions."""
    return bound_rows(rows.ends, rows.sides, rows.side_weights(alpha), b,
                      alpha, margin, trace)
