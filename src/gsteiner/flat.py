"""Flat norm of atomic 0-currents.

For a finite atomic 0-current the infimum inf { M(b - dS) + M(S) } over
1-dimensional fillings S is attained by a union of straight transport arcs
plus dropped residual atoms: moving one unit of mass from a positive atom x
to a negative atom y costs |x - y| (the mass of the filling segment), while
leaving one unit unmatched anywhere costs 1 (its residual mass).  This is a
bipartite min-cost transportation problem with a unit-cost slack node.

It is solved exactly on the common-denominator lattice: with every mass
scaled by the common denominator D to a Python int, successive shortest
augmenting paths (Ahuja, Magnanti & Orlin, *Network Flows*, 1993, ch. 9)
move integer flow from positive to negative atoms while that saves cost
against dropping both ends.  Flows never leave the integers, so the witness
``Fraction(flow, D)`` conserves mass exactly.  Only the arc lengths are
floating point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .currents import Boundary, Point, dist

# a path whose cost is within this fraction of the largest arc cost of 0 is a
# tie, and ties transport (at distance exactly 2 moving and dropping agree)
TIE_TOL = 1e-12


@dataclass(frozen=True)
class FlatWitness:
    """Optimal transport plan: arcs go from positive atoms to negative ones."""
    transport_arcs: tuple[tuple[Point, Point, Fraction], ...]
    dropped_mass: tuple[tuple[Point, Fraction], ...]

    def value(self) -> float:
        moved = sum(float(f) * dist(p, q) for p, q, f in self.transport_arcs)
        dropped = sum(float(m) for _, m in self.dropped_mass)
        return moved + dropped


def flat_norm(b: Boundary) -> tuple[float, FlatWitness]:
    """Flat norm of an atomic 0-current together with an optimal witness.

    The total mass of ``b`` need not vanish; unmatched mass is dropped at
    unit cost.  The returned value always satisfies value <= mass(b).  Among
    optimal plans the witness drops the least mass.
    """
    pos = [(p, m) for p, m in b.atoms if m > 0]
    neg = [(p, -m) for p, m in b.atoms if m < 0]
    if not pos or not neg:
        dropped = tuple(pos + neg)
        return float(sum(m for _, m in dropped)), FlatWitness((), dropped)

    den = math.lcm(*(m.denominator for _, m in b.atoms))
    supply = [int(m * den) for _, m in pos]
    demand = [int(m * den) for _, m in neg]
    flow = _transport(supply, demand,
                      [[dist(p, q) - 2.0 for q, _ in neg] for p, _ in pos])
    arcs = tuple((p, q, Fraction(f, den))
                 for (p, _), row in zip(pos, flow)
                 for (q, _), f in zip(neg, row) if f)
    dropped = tuple((p, Fraction(r, den))
                    for (p, _), r in zip(pos + neg, supply + demand) if r)
    witness = FlatWitness(arcs, dropped)
    return witness.value(), witness


def _transport(supply: list[int], demand: list[int],
               cost: list[list[float]]) -> list[list[int]]:
    """Integer flows f[i][j], at most supply[i] per row and demand[j] per
    column, that minimize sum f[i][j] * cost[i][j]; ties favour more flow.
    ``supply`` and ``demand`` are left holding what stays unmatched.

    cost[i][j] = |x_i - y_j| - 2 is what moving a unit costs against
    dropping it at both ends, so only negative-cost moves pay.

    Successive shortest paths in the residual graph: forward arcs i -> j of
    cost cost[i][j] and unbounded capacity, backward arcs j -> i of cost
    -cost[i][j] wherever f[i][j] > 0, entered at a row with supply left and
    left at a column with demand left.  Bellman-Ford finds the cheapest path;
    it is augmented by its integer bottleneck while its cost is not above 0
    (up to ``TIE_TOL``).  A label improves only by more than the tolerance,
    so rounding in the float costs cannot make a zero-cost cycle look
    negative.
    """
    rows, cols = range(len(supply)), range(len(demand))
    flow = [[0] * len(demand) for _ in rows]
    tol = TIE_TOL * max(1.0, max(abs(c) for line in cost for c in line))
    while True:
        at_row = [0.0 if s else math.inf for s in supply]
        at_col = [math.inf] * len(demand)
        row_from = [-1] * len(supply)  # column before row i, -1 from supply
        col_from = [-1] * len(demand)  # row before column j
        for _ in range(len(supply) + len(demand)):
            changed = False
            for i in rows:
                for j in cols:
                    here = at_row[i] + cost[i][j]
                    if here < at_col[j] - tol:
                        at_col[j], col_from[j], changed = here, i, True
            for i in rows:
                for j in cols:
                    here = at_col[j] - cost[i][j]
                    if flow[i][j] and here < at_row[i] - tol:
                        at_row[i], row_from[i], changed = here, j, True
            if not changed:
                break
        open_cols = [j for j in cols if demand[j]]
        if not open_cols:
            return flow
        end = min(open_cols, key=at_col.__getitem__)
        if at_col[end] > tol:
            return flow
        path = []  # (row, column, +1 forward | -1 backward)
        j = end
        while True:
            i = col_from[j]
            path.append((i, j, 1))
            if row_from[i] < 0:
                break
            j = row_from[i]
            path.append((i, j, -1))
        start = i
        amount = min([supply[start], demand[end]]
                     + [flow[i][j] for i, j, sign in path if sign < 0])
        for i, j, sign in path:
            flow[i][j] += sign * amount
        supply[start] -= amount
        demand[end] -= amount


def flat_distance(b1: Boundary, b2: Boundary) -> float:
    """Flat-norm distance between two atomic 0-currents."""
    return flat_norm(b1 - b2)[0]

