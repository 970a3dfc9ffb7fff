"""Convex minimization of the location energy over branch positions.

For a fixed flowed topology the cost of a realization depends only on the
branch-vertex positions, through

    F(x_1, ..., x_m) = sum over edges of |flow|^alpha * |x_j - x_i|,

a convex (generally non-smooth) function.  It is minimized by a smoothed
Weiszfeld fixed-point iteration: each branch vertex moves to the weighted
barycenter of its neighbors with weights w_e / sqrt(len^2 + eps^2), while
eps decreases geometrically.  At the end of every smoothing stage each
branch vertex is snapped onto its nearest vertex whenever that strictly
lowers the exact energy, which accelerates convergence onto collapsed
configurations (the non-smooth minimizers these instances actually visit).

Optimality is certified by the minimal-norm subgradient residual: edges of
near-zero length contribute a ball of radius w_e to the subdifferential, so
the residual at a collapsed vertex is max(0, |g| - sum of collapsed w_e).

The kernel's constants: the smoothing parameter starts at ``EPS_INIT`` and
shrinks by ``EPS_DECAY`` per stage down to ``EPS_MIN`` (both relative to
the largest terminal distance), and all stages together run at most
``MAX_ITERS`` iterations; a run that exhausts them returns its last
smoothed iterate without the snap step.  Edges not longer than
``TOL_COLLAPSE`` (instance units) count as collapsed, in the residual and
in :func:`detect_collapse`, and :func:`minimize` reports convergence when
the residual is at most ``TOL_GRAD``.

A lower bound on the minimum comes from weak duality (Xue & Ye, SIAM J.
Optim. 7(4), 1997): :func:`dual_bound` turns the edge directions of any
placement into a feasible point of the dual problem, so the bound is valid
wherever the placement comes from.  :func:`lower_bounds` evaluates it for
many topologies at once, in numpy and in any dimension: ``_BOUND_STEPS``
smoothed Weiszfeld steps of Smith's form (one stacked weighted-Laplacian
solve per step moves all branch points of a group of topologies), eps
falling geometrically from ``EPS_INIT`` to ``_BOUND_EPS_LAST``, then the
dual projection as one more stacked solve.  :func:`dual_bound` is its
one-topology evaluation.  The solver prunes topologies with these bounds;
they are not a stopping rule for :func:`minimize`, because on some
collapsing topologies the bound stays up to about 2e-2 (relative) below
the value even at the smallest eps.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .currents import Point, PolyhedralChain, Segment, Boundary, dist
from .topology import FlowedTopology, SteinerTopology, _normalize


TOL_GRAD = 1e-8
TOL_COLLAPSE = 1e-7
EPS_INIT = 2e-2
EPS_DECAY = 0.2
EPS_MIN = 2e-7
MAX_ITERS = 20000

# receives one JSON-serializable record per smoothing stage (iteration count,
# eps, current energy) plus a final one with the stationarity residual;
# lower_bounds sends one record with "stage": "bound" per topology instead
Trace = Callable[[dict], None]


@dataclass(frozen=True)
class Placement:
    """Positions of all vertices: fixed terminals plus movable branch points."""
    terminals: tuple[Point, ...]
    branch: tuple[Point, ...]

    def position(self, v: int) -> Point:
        n = len(self.terminals)
        return self.terminals[v] if v < n else self.branch[v - n]


@dataclass(frozen=True)
class MinimizeResult:
    placement: Placement
    value: float
    residual: float
    iterations: int
    converged: bool


def _weights(ft: FlowedTopology, alpha: float) -> list[float]:
    return [abs(float(f)) ** alpha for f in ft.edge_flows]


def energy(ft: FlowedTopology, pl: Placement, alpha: float) -> float:
    """Exact location energy; zero-length edges contribute zero."""
    w = _weights(ft, alpha)
    return sum(
        wi * dist(pl.position(u), pl.position(v))
        for wi, (u, v) in zip(w, ft.topology.edges))


def stationarity_residual(ft: FlowedTopology, pl: Placement, alpha: float) -> float:
    """Max over branch vertices of the minimal-norm subgradient norm.

    Edges not longer than ``TOL_COLLAPSE`` are treated as collapsed: they
    contribute a ball of radius w_e rather than a unit direction.
    """
    n = ft.topology.n_terminals
    m = ft.topology.n_branch
    if m == 0:
        return 0.0
    d = len(pl.terminals[0])
    w = _weights(ft, alpha)
    worst = 0.0
    for bi in range(m):
        v0 = n + bi
        g = [0.0] * d
        ball = 0.0
        for wi, (u, v) in zip(w, ft.topology.edges):
            if v0 not in (u, v):
                continue
            other = v if u == v0 else u
            here = pl.position(v0)
            there = pl.position(other)
            length = dist(here, there)
            if length <= TOL_COLLAPSE:
                ball += wi
            else:
                for i in range(d):
                    g[i] += wi * (here[i] - there[i]) / length
        worst = max(worst, max(0.0, math.sqrt(sum(x * x for x in g)) - ball))
    return worst


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def _incidence(t: SteinerTopology) -> np.ndarray:
    """Vertex/edge incidence matrix: +1 at an edge's low end, -1 at its high end."""
    a = np.zeros((t.n_terminals + t.n_branch, len(t.edges)))
    for i, (u, v) in enumerate(t.edges):
        a[u, i] = 1.0
        a[v, i] = -1.0
    return a


def _barycentric_init(ft: FlowedTopology, terminals: tuple[Point, ...]) -> list[list[float]]:
    """Each branch vertex at the fixed point of neighborhood averaging.

    With A the incidence matrix split into branch rows A_b and terminal rows
    A_t, the branch positions solve (A_b A_b^T) x = -(A_b A_t^T) p.
    """
    n = ft.topology.n_terminals
    a = _incidence(ft.topology)
    x = np.linalg.solve(a[n:] @ a[n:].T, -(a[n:] @ a[:n].T) @ np.asarray(terminals))
    return [list(row) for row in x]


def _run_kernel(ft: FlowedTopology, terminals: tuple[Point, ...], alpha: float,
                trace: Trace | None) -> tuple[list[list[float]], int]:
    """Smoothed Weiszfeld from the barycentric start.

    Returns the positions and the iteration count.
    """
    t = ft.topology
    n, m = t.n_terminals, t.n_branch
    d = len(terminals[0])
    w = _weights(ft, alpha)
    scale = _scale(terminals)
    pos = _barycentric_init(ft, terminals)

    # incident edge list per branch vertex: (weight, other vertex)
    incident: list[list[tuple[float, int]]] = [[] for _ in range(m)]
    for wi, (u, v) in zip(w, t.edges):
        if u >= n:
            incident[u - n].append((wi, v))
        if v >= n:
            incident[v - n].append((wi, u))

    if d == 2:
        return _weiszfeld_2d(t.edges, w, incident, terminals, pos, scale, trace)
    return _weiszfeld_nd(t.edges, w, incident, terminals, pos, scale, trace, d)


def _scale(terminals) -> float:
    """Largest distance between two terminals (1 if they all coincide)."""
    return max(
        (dist(p, q) for i, p in enumerate(terminals) for q in terminals[:i]),
        default=1.0) or 1.0


def _terminals_for(ft: FlowedTopology, b: Boundary) -> tuple[Point, ...]:
    terminals = tuple(p for p, _ in b.atoms)
    if len(terminals) != ft.topology.n_terminals:
        raise ValueError("boundary does not match topology terminal count")
    return terminals


def minimize(ft: FlowedTopology, b: Boundary, alpha: float,
             trace: Trace | None = None) -> MinimizeResult:
    """Minimize the location energy for a flowed topology over ``b``.

    Deterministic: barycentric initialization, smoothed Weiszfeld sweeps
    with a geometric eps schedule, nearest-vertex snapping when it strictly
    improves the exact energy.  ``trace`` receives the per-stage records.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    terminals = _terminals_for(ft, b)
    if ft.topology.n_branch == 0:
        pl = Placement(terminals, ())
        return MinimizeResult(pl, energy(ft, pl, alpha), 0.0, 0, True)

    pos, iters = _run_kernel(ft, terminals, alpha, trace)
    pl = Placement(terminals, tuple(tuple(x) for x in pos))
    res = stationarity_residual(ft, pl, alpha)
    value = energy(ft, pl, alpha)
    if trace is not None:
        trace({"stage": "done", "iteration": iters, "value": value,
               "residual": res})
    return MinimizeResult(pl, value, res, iters, res <= TOL_GRAD)


# ---------------------------------------------------------------------------
# lower bounds by weak duality, batched
# ---------------------------------------------------------------------------

# the bounding pass: _BOUND_STEPS majorize-minimize steps from the
# barycentric start, eps falling geometrically from EPS_INIT to
# _BOUND_EPS_LAST (both relative to the largest terminal distance); the
# bound is taken at the last eps
_BOUND_STEPS = 20
_BOUND_EPS_LAST = 1e-3


def _weighted_laplacian(ab: np.ndarray, c: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """A_b C and the weighted Laplacian A_b C A_b^T of each topology.

    ``ab`` (T, m, E) holds the branch rows of the incidence matrices and
    ``c`` (T, E) positive edge coefficients.  The Laplacian is nonsingular,
    since every branch vertex is joined to a terminal.
    """
    cab = ab * c[:, None, :]
    return cab, cab @ ab.transpose(0, 2, 1)


def _branch_positions(ab: np.ndarray, c: np.ndarray, fixed: np.ndarray
                      ) -> np.ndarray:
    """Branch positions (T, m, d) minimizing sum_e c_e |x_u - x_v|^2.

    ``fixed`` (T, E, d) is the terminals' part of x_u - x_v, so the
    minimizer solves (A_b C A_b^T) x = -A_b C fixed.
    """
    cab, lap = _weighted_laplacian(ab, c)
    return -np.linalg.solve(lap, cab @ fixed)


def _dual_values(ab: np.ndarray, w: np.ndarray, diff: np.ndarray,
                 eps: float) -> np.ndarray:
    """:func:`dual_bound` for T topologies at once, from their edge vectors
    x_u - x_v (T, E, d), weights (T, E) and incidence branch rows (T, m, E)."""
    length = np.sqrt(np.einsum("tij,tij->ti", diff, diff) + eps * eps)
    if not length.all():
        raise ValueError("a zero-length edge needs eps > 0")
    c = w / length
    y = c[..., None] * diff
    if ab.shape[1]:
        cab, lap = _weighted_laplacian(ab, c)
        y -= cab.transpose(0, 2, 1) @ np.linalg.solve(lap, ab @ y)
        norm = np.sqrt(np.einsum("tij,tij->ti", y, y))
        y *= np.divide(w, norm, out=np.ones_like(w),
                       where=norm > w).min(axis=1)[:, None, None]
    return np.einsum("tij,tij->t", y, diff)


def dual_bound(ft: FlowedTopology, pl: Placement, alpha: float,
               eps: float = 0.0) -> float:
    """Lower bound on the minimum of the location energy, by weak duality.

    Since |z| = max over |y| <= 1 of y.z, the energy is
    F(x) = max over |y_e| <= w_e of sum_e y_e.(x_u - x_v).  For every y with
    zero divergence at the branch vertices that sum depends on the terminals
    only, so it is <= min F in every dimension.  Such a y is built from
    ``pl``:

    * the smoothed edge directions y_e = w_e (x_u - x_v) / l_e, with
      l_e = sqrt(|x_u - x_v|^2 + eps^2), which lie in the balls |y_e| <= w_e;
    * projected onto div y = 0 at the branch vertices in the metric of the
      Weiszfeld coefficients c_e = w_e / l_e: y <- y - C A^T (A C A^T)^-1 A y,
      A the branch rows of the incidence matrix.  Short edges take most of
      the correction, which is where the smoothed directions are least
      reliable (collapsed edges);
    * scaled back into the balls by s = min(1, min_e w_e / |y_e|).

    The bound is tight at an optimum without collapsed edges as eps -> 0,
    and equals the energy when the topology has no branch vertex.  A
    zero-length edge needs ``eps`` > 0.  This is the one-topology case of
    the batched evaluation behind :func:`lower_bounds`.
    """
    n = ft.topology.n_terminals
    a = _incidence(ft.topology)[None]
    x = np.asarray(pl.terminals + pl.branch, dtype=float)
    return float(_dual_values(a[:, n:], np.array([_weights(ft, alpha)]),
                              a.transpose(0, 2, 1) @ x, eps)[0])


def lower_bounds(fts: Sequence[FlowedTopology], b: Boundary, alpha: float,
                 trace: Trace | None = None) -> list[float]:
    """:func:`dual_bound` of every topology in ``fts``, computed together.

    Topologies are grouped by their numbers of branch vertices and edges.
    Each group runs ``_BOUND_STEPS`` smoothed Weiszfeld steps at once (Smith,
    Algorithmica 7, 1992): with c_e = w_e / sqrt(l_e^2 + eps^2) at the
    current positions, all branch positions move to the minimizer of
    sum_e c_e |x_u - x_v|^2, one stacked weighted-Laplacian solve.  The
    bound is taken at the last eps.  A topology without branch vertices
    gets its exact energy.  Any placement gives a valid bound, so the
    fixed step count affects only how tight it is.  ``trace`` receives one
    record with ``"stage": "bound"`` per topology, in input order.  Raises
    ``ValueError`` when a bound is not finite.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    terminals = tuple(p for p, _ in b.atoms)
    n = len(terminals)
    p = np.asarray(terminals, dtype=float)
    scale = _scale(terminals)
    schedule = EPS_INIT * scale * (_BOUND_EPS_LAST / EPS_INIT) ** (
        np.arange(_BOUND_STEPS) / (_BOUND_STEPS - 1))
    groups: dict[tuple[int, int], list[int]] = {}
    for i, ft in enumerate(fts):
        t = ft.topology
        if t.n_terminals != n:
            raise ValueError("boundary does not match topology terminal count")
        groups.setdefault((t.n_branch, len(t.edges)), []).append(i)
    bounds = np.empty(len(fts))
    for (m, _), idx in groups.items():
        a = np.stack([_incidence(fts[i].topology) for i in idx])
        ab, ab_t = a[:, n:], a[:, n:].transpose(0, 2, 1)
        w = np.array([_weights(fts[i], alpha) for i in idx])
        # the terminals' part of x_u - x_v; the branch part is ab_t @ x
        fixed = a[:, :n].transpose(0, 2, 1) @ p
        eps = 0.0
        diff = fixed
        if m:
            x = _branch_positions(ab, np.ones_like(w), fixed)
            for eps in schedule:
                diff = fixed + ab_t @ x
                x = _branch_positions(
                    ab, w / np.sqrt(np.einsum("tij,tij->ti", diff, diff)
                                    + eps * eps), fixed)
            diff = fixed + ab_t @ x
        bounds[idx] = _dual_values(ab, w, diff, eps)
    if not np.isfinite(bounds).all():
        raise ValueError("a lower bound is not finite")
    if trace is not None:
        for ft, bound in zip(fts, bounds):
            trace({"stage": "bound",
                   "iteration": _BOUND_STEPS if ft.topology.n_branch else 0,
                   "bound": float(bound)})
    return bounds.tolist()


def _weiszfeld_2d(edges, w, incident, terminals, pos, scale: float,
                  trace: Trace | None) -> tuple[list[list[float]], int]:
    """Planar hot path: flat float arithmetic, no temporaries."""
    n = len(terminals)
    m = len(pos)

    def exact_energy() -> float:
        total = 0.0
        for wi, (u, v) in zip(w, edges):
            ax, ay = terminals[u] if u < n else pos[u - n]
            bx, by = terminals[v] if v < n else pos[v - n]
            total += wi * math.sqrt((ax - bx) ** 2 + (ay - by) ** 2)
        return total

    iters = 0
    eps = EPS_INIT * scale
    eps_floor = EPS_MIN * scale
    move_tol = 1e-11 * scale
    while True:
        e2 = eps * eps
        final = eps <= eps_floor
        stage_tol = move_tol if final else max(2e-2 * eps, move_tol)
        for _ in range(400 if final else 200):
            iters += 1
            move = 0.0
            for bi in range(m):
                nx = ny = den = 0.0
                x, y = pos[bi]
                for wi, other in incident[bi]:
                    qx, qy = terminals[other] if other < n else pos[other - n]
                    coef = wi / math.sqrt((x - qx) ** 2 + (y - qy) ** 2 + e2)
                    den += coef
                    nx += coef * qx
                    ny += coef * qy
                nx /= den
                ny /= den
                dx = nx - x if nx > x else x - nx
                dy = ny - y if ny > y else y - ny
                if dx > move:
                    move = dx
                if dy > move:
                    move = dy
                pos[bi][0] = nx
                pos[bi][1] = ny
            if move <= stage_tol:
                break
            if iters >= MAX_ITERS:
                return pos, iters
        # snap to the nearest vertex when that strictly improves exact F
        current = exact_energy()
        for bi in range(m):
            x, y = pos[bi]
            best = None
            best_d = float("inf")
            for v in range(n + m):
                if v == n + bi:
                    continue
                qx, qy = terminals[v] if v < n else pos[v - n]
                dd = (x - qx) ** 2 + (y - qy) ** 2
                if dd < best_d:
                    best_d, best = dd, (qx, qy)
            saved = (x, y)
            pos[bi][0], pos[bi][1] = best
            trial = exact_energy()
            if trial < current - 1e-15 * (1.0 + abs(current)):
                current = trial
            else:
                pos[bi][0], pos[bi][1] = saved
        if trace is not None:
            trace({"stage": "eps", "iteration": iters, "eps": eps,
                   "value": current})
        if eps <= eps_floor:
            break
        eps = max(eps * EPS_DECAY, eps_floor)
    return pos, iters


def _weiszfeld_nd(edges, w, incident, terminals, pos, scale: float,
                  trace: Trace | None, d: int) -> tuple[list[list[float]], int]:
    n = len(terminals)
    m = len(pos)

    def point(v: int):
        return terminals[v] if v < n else pos[v - n]

    def exact_energy() -> float:
        total = 0.0
        for wi, (u, v) in zip(w, edges):
            pu, pv = point(u), point(v)
            total += wi * math.sqrt(sum((a - c) ** 2 for a, c in zip(pu, pv)))
        return total

    iters = 0
    eps = EPS_INIT * scale
    eps_floor = EPS_MIN * scale
    move_tol = 1e-11 * scale
    while True:
        e2 = eps * eps
        final = eps <= eps_floor
        stage_tol = move_tol if final else max(2e-2 * eps, move_tol)
        for _ in range(400 if final else 200):
            iters += 1
            move = 0.0
            for bi in range(m):
                num = [0.0] * d
                den = 0.0
                x = pos[bi]
                for wi, other in incident[bi]:
                    q = point(other)
                    l = math.sqrt(sum((a - c) ** 2 for a, c in zip(x, q)) + e2)
                    coef = wi / l
                    den += coef
                    for i in range(d):
                        num[i] += coef * q[i]
                newx = [num[i] / den for i in range(d)]
                move = max(move, max(abs(a - c) for a, c in zip(newx, x)))
                pos[bi] = newx
            if move <= stage_tol:
                break
            if iters >= MAX_ITERS:
                return pos, iters
        current = exact_energy()
        for bi in range(m):
            cands = sorted(
                (v for v in range(n + m) if v != n + bi),
                key=lambda v: dist(tuple(pos[bi]), tuple(point(v))))
            saved = list(pos[bi])
            pos[bi] = list(point(cands[0]))
            trial = exact_energy()
            if trial < current - 1e-15 * (1.0 + abs(current)):
                current = trial
            else:
                pos[bi] = saved
        if trace is not None:
            trace({"stage": "eps", "iteration": iters, "eps": eps,
                   "value": current})
        if eps <= eps_floor:
            break
        eps = max(eps * EPS_DECAY, eps_floor)
    return pos, iters


# ---------------------------------------------------------------------------
# collapse handling and realization
# ---------------------------------------------------------------------------

def detect_collapse(ft: FlowedTopology, pl: Placement
                    ) -> tuple[FlowedTopology, Placement]:
    """Merge branch vertices lying within ``TOL_COLLAPSE`` of a vertex.

    Clusters never contain two terminals.  Edges interior to a cluster are
    removed (their flow is conserved), parallel edges are combined, and
    branch vertices left with degree < 3 are spliced out; the resulting
    topology is flagged degenerate so downstream deduplication can apply.
    """
    t = ft.topology
    n, m = t.n_terminals, t.n_branch
    if m == 0:
        return ft, pl
    nv = n + m
    parent = list(range(nv))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def has_terminal(r: int) -> bool:
        return any(find(v) == r for v in range(n))

    pairs = []
    for v in range(n, nv):
        for u in range(nv):
            if u < v:
                pairs.append((dist(pl.position(u), pl.position(v)), u, v))
    for dd, u, v in sorted(pairs):
        if dd > TOL_COLLAPSE:
            break
        if u < n and v < n:
            continue
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        if has_terminal(ru) and has_terminal(rv):
            continue
        parent[max(ru, rv)] = min(ru, rv)

    clusters: dict[int, list[int]] = {}
    for v in range(nv):
        clusters.setdefault(find(v), []).append(v)
    if all(len(c) == 1 for c in clusters.values()):
        return ft, pl

    # representative position: terminal if present, else member centroid
    rep_pos: dict[int, Point] = {}
    for r, members in clusters.items():
        terms = [v for v in members if v < n]
        if terms:
            rep_pos[r] = pl.position(terms[0])
        else:
            d = len(pl.terminals[0])
            rep_pos[r] = tuple(
                sum(pl.position(v)[i] for v in members) / len(members)
                for i in range(d))

    # relabel representatives: terminals keep their index, branches compact
    branch_reps = sorted(r for r in clusters if r >= n)
    label = {r: (r if r < n else n + branch_reps.index(r)) for r in clusters}
    merged: dict[tuple[int, int], Fraction] = {}
    for (u, v), f in zip(t.edges, ft.edge_flows):
        a, c = label[find(u)], label[find(v)]
        if a == c:
            continue
        if a > c:
            a, c, f = c, a, -f
        merged[(a, c)] = merged.get((a, c), Fraction(0)) + f
    edges = tuple(sorted(e for e, f in merged.items() if f != 0))
    if _has_graph_cycle(edges):
        # contracting created a loop; leave the configuration to geometric
        # canonicalization instead of rewriting the topology
        return ft, pl
    flows = [merged[e] for e in edges]
    new_t = SteinerTopology(n, len(branch_reps), edges, t.terminal_masses)
    norm_ft, vertex_map = _normalize(new_t, flows)
    new_ft = FlowedTopology(norm_ft.topology, norm_ft.edge_flows, degenerate=True)
    # final branch slot i came from merged vertex `old`, whose cluster rep
    # position is rep_pos[branch_reps[old - n]]
    inverse = {new: old for old, new in vertex_map.items() if old >= n}
    branch_positions = tuple(
        rep_pos[branch_reps[inverse[n + i] - n]]
        for i in range(new_ft.topology.n_branch))
    return new_ft, Placement(pl.terminals, branch_positions)


def _has_graph_cycle(edges: tuple[tuple[int, int], ...]) -> bool:
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        ru, rv = find(u), find(v)
        if ru == rv:
            return True
        parent[ru] = rv
    return False


def realize_chain(ft: FlowedTopology, pl: Placement) -> PolyhedralChain:
    """Geometric chain for a flowed topology at given positions (raw form)."""
    segs = []
    for (u, v), f in zip(ft.topology.edges, ft.edge_flows):
        pu, pv = pl.position(u), pl.position(v)
        if pu == pv:
            continue
        segs.append(Segment(pu, pv, f))
    return PolyhedralChain(tuple(segs), canonical=False)


@dataclass(frozen=True)
class OptimizedTopology:
    """Result of minimizing one topology, after collapse resolution."""
    flowed: FlowedTopology
    placement: Placement
    value: float
    residual: float
    iterations: int
    converged: bool


# minimize results shared by the optimize_topology calls of one solve; see
# _sharing_minimizations
_shared: ContextVar[dict | None] = ContextVar("_shared", default=None)


@contextmanager
def _sharing_minimizations():
    """Let the :func:`optimize_topology` calls in this block reuse each
    other's :func:`minimize` results.

    Every call in the block must use the same boundary and alpha: results
    are keyed on a flowed topology's edges and flows alone, which
    spares hashing its rational terminal masses on every lookup.
    """
    token = _shared.set({})
    try:
        yield
    finally:
        _shared.reset(token)


def optimize_topology(ft: FlowedTopology, b: Boundary, alpha: float,
                      trace: Trace | None = None) -> OptimizedTopology:
    """Minimize, then merge collapsed vertices and re-minimize until stable.

    A re-minimization starts afresh from the barycentric start of the
    contracted topology; the merged placement of :func:`detect_collapse` is
    discarded.  Its result is therefore a function of the contracted
    flowed topology alone, so reusing it is exact: inside
    :func:`_sharing_minimizations`, a flowed topology that an earlier call
    already minimized (several topologies can contract onto one) is not
    minimized again.  The reported iterations include reused ones.
    """
    memo = _shared.get()
    if memo is None:
        memo = {}

    def run(ft: FlowedTopology) -> MinimizeResult:
        key = (ft.topology.edges, ft.edge_flows)
        if key not in memo:
            memo[key] = minimize(ft, b, alpha, trace)
        return memo[key]

    iters = 0
    for _ in range(4):
        res = run(ft)
        iters += res.iterations
        new_ft, new_pl = detect_collapse(ft, res.placement)
        if new_ft is ft:
            return OptimizedTopology(ft, res.placement, res.value,
                                     res.residual, iters, res.converged)
        ft = new_ft
    res = run(ft)
    iters += res.iterations
    return OptimizedTopology(ft, res.placement, res.value, res.residual,
                             iters, res.converged)
