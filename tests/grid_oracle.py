"""The independent grid oracle of the solver's optimal cost, for the tests.

It minimizes every flowed forest of the exhaustive generator over a grid,
without the solver's topology set, bounds or placement kernel.
"""
import itertools
import math

import numpy as np

from forest_oracle import all_forests
from gsteiner.currents import Boundary, Point, dist
from gsteiner.topology import (FlowedTopology, InfeasibleTopologyError,
                               assign_flows)

# finest step of the oracle's pattern search
_GRID_STEP = 1e-3


def brute_force_value(b: Boundary, alpha: float) -> float:
    """Grid-search oracle for the optimal cost, independent of the solver.

    For every flowed forest of the exhaustive generator (not the solver's
    full-topology candidate set) the location energy is minimized over grid
    positions inside the bounding box of the atoms: an exhaustive coarse
    grid followed by a halving pattern search down to ``_GRID_STEP`` (the
    energy is convex, so grid descent reaches the global basin).  Collapsed
    optima are covered exactly by the contracted forests themselves.
    Only instances with at most 2 branch vertices (<= 4 atoms) are accepted.
    """
    n = len(b.atoms)
    if n > 4:
        raise ValueError("instance too large for the brute-force oracle (> 4 atoms)")
    if b.total() != 0:
        raise ValueError("boundary has nonzero total mass")
    terminals = [p for p, _ in b.atoms]
    dim = len(terminals[0])
    los = [min(p[i] for p in terminals) for i in range(dim)]
    his = [max(p[i] for p in terminals) for i in range(dim)]

    best = math.inf
    seen: set = set()
    for m, edges in all_forests(b):
        try:
            ft = assign_flows(m, edges, b)
        except InfeasibleTopologyError:
            continue
        sig = ft.signature()
        if sig in seen:
            continue
        seen.add(sig)
        best = min(best, _grid_minimum(ft, terminals, los, his, alpha))
    return best


def _grid_minimum(ft: FlowedTopology, terminals: list[Point],
                  los: list[float], his: list[float], alpha: float) -> float:
    n, m = ft.n_terminals, ft.n_branch
    dim = len(terminals[0])
    weights = [abs(float(f)) ** alpha for f in ft.edge_flows]
    if m == 0:
        return sum(w * dist(terminals[u], terminals[v])
                   for w, (u, v) in zip(weights, ft.edges))

    nv = m * dim

    def value(x: tuple[float, ...]) -> float:
        def pos(v: int):
            if v < n:
                return terminals[v]
            i = (v - n) * dim
            return x[i:i + dim]
        total = 0.0
        for w, (u, v) in zip(weights, ft.edges):
            pu, pv = pos(u), pos(v)
            total += w * math.sqrt(sum((a - c) ** 2 for a, c in zip(pu, pv)))
        return total

    # exhaustive coarse grid (9 points per coordinate), evaluated as one
    # array: the points in itertools.product order, so argmin keeps the
    # first minimum
    axes = [np.linspace(los[i], his[i], 9)
            for _ in range(m) for i in range(dim)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, nv)
    at = [np.asarray(p) for p in terminals] + [
        grid[:, i:i + dim] for i in range(0, nv, dim)]
    total = 0.0
    for w, (u, v) in zip(weights, ft.edges):
        total = total + w * np.sqrt(((at[u] - at[v]) ** 2).sum(axis=-1))
    best = int(np.argmin(total))
    best_v = float(total[best])

    # halving pattern search with the full diagonal stencil
    h = max(max(hi - lo for lo, hi in zip(los, his)), _GRID_STEP) / 8.0
    x = grid[best].tolist()
    offsets = [off for off in itertools.product((-1.0, 0.0, 1.0), repeat=nv)
               if any(off)]
    while h >= _GRID_STEP / 2.0:
        improved = True
        while improved:
            improved = False
            for off in offsets:
                cand = tuple(xi + h * oi for xi, oi in zip(x, off))
                v = value(cand)
                if v < best_v - 1e-15 * (1.0 + abs(best_v)):
                    best_v, x = v, list(cand)
                    improved = True
        h *= 0.5
    return best_v
