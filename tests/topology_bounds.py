"""The bounding pass over a list of flowed topologies, for the tests that
hold topologies rather than rows: ``placement.bound_rows`` with one row per
topology and each row's weights from ``placement._weights``."""
import math

import numpy as np

from gsteiner.placement import _weights, bound_rows


def unscreened(v):
    """A screening margin that never cuts: ``bound_rows`` with it takes
    every row with branch vertices through the whole schedule."""
    return math.inf


def lower_bounds(fts, b, alpha, trace=None, margin=unscreened):
    """``bound_rows`` of the topologies ``fts``, one row each, in order, as
    a list, screened with ``margin`` (by default not at all).  Raises ``ValueError`` when a topology's terminal count is not
    ``b``'s atom count, and as ``bound_rows`` does."""
    if any(ft.n_terminals != len(b.atoms) for ft in fts):
        raise ValueError("boundary does not match topology terminal count")
    width = max((len(ft.edges) for ft in fts), default=0)
    ends = np.full((len(fts), width, 2), -1, np.intp)
    weights = np.zeros((len(fts), width))
    for t, ft in enumerate(fts):
        ends[t, :len(ft.edges)] = ft.edges
        weights[t, :len(ft.edges)] = _weights(ft, alpha)
    n_branch = np.array([ft.n_branch for ft in fts], dtype=np.intp)
    return bound_rows(ends, n_branch, np.arange(weights.size).reshape(
        weights.shape), weights.ravel(), b, alpha, margin, trace)[0].tolist()
