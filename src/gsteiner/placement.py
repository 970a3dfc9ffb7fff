"""Convex minimization of the location energy over branch positions.

For a fixed flowed topology the cost of a realization depends only on the
branch-vertex positions, through

    F(x_1, ..., x_m) = sum over edges of |flow|^alpha * |x_j - x_i|,

a convex (generally non-smooth) function.

When every branch vertex is a *star*, all of its neighbors atoms, each star
is placed on its own: its terms sum_j w_j |x - p_j| share no variable with
the rest of the energy, and away from the atoms they are smooth.
:func:`_star_newton` runs damped Newton on that exact energy from the
weighted barycenter, with the Hessian sum_j (w_j / r_j) (I - u_j u_j^T)
and an Armijo backtracking on F (Calamai & Conn, SIAM J. Sci. Stat.
Comput. 1(4), 1980, for this view of sums of norms).  When an atom's value
F(p_t) is no larger than the barycenter's, a path from there could be
drawn onto that atom and close in on it without end, so Newton starts at
the best atom instead and steps off it along -R/|R|, R the pull of the
other terms, which descends because Kuhn's test (below) fails there; F
then stays below every atom's value.  The placement stands only when
:func:`dual_bound` at it certifies the value to ``_STAR_GAP`` (relative).
An iterate near an atom (where F is not smooth), a singular Hessian or
step-off (1-D, collinear atoms, a tie), a spent step budget or a failed
certificate hands the whole topology to the smoothing kernel below.

Every other topology that the two-branch tests below do not settle runs
the kernel.  It minimizes the smoothed energy F_eps = sum of
w_e sqrt(len^2 + eps^2), while eps decreases geometrically (Smith,
Algorithmica 7, 1992).  At the end of every smoothing stage each
branch vertex is snapped onto its nearest vertex whenever that strictly
lowers the exact energy, which accelerates convergence onto collapsed
configurations (the non-smooth minimizers these instances actually visit).

The kernel ends at the first collapse it can certify.  After every stage
but the last, the topology that :func:`detect_collapse` contracts the
snapped placement to, the first time the run sees it, is optimized by
:func:`optimize_topology` (with the caller's ``memo`` and ``trace``) and
its optimum lifted back, every vertex at its image's position
(:func:`_lift`).  When the dual bound of the kernel's own topology
certifies the lift (:func:`_settles`, below), the schedule stops there:
its remaining stages would only close in on that collapse.  Otherwise the
schedule goes on.  This is the active-set view of sums of norms (Calamai &
Conn above): a collapsed optimum is settled by contracting it and checking
the collapsed edges' multipliers.

One kernel, :func:`_run_kernel`, runs this in every dimension: the eps
schedule, the per-stage iteration budgets, the snap and the trace records.
Only the stage solver is chosen by the dimension of the terminals.  Planar
instances run Weiszfeld's fixed point as Gauss-Seidel sweeps,
:func:`_sweeps_2d`: each branch vertex moves to the weighted barycenter of
its neighbors with weights w_e / sqrt(len^2 + eps^2).  Every other
dimension runs damped Newton steps on F_eps, :func:`_newton_steps`, which
need an order of magnitude fewer iterations than the sweeps.  The
planar sweep stays because most planar calls (the four-point lab's) have
one or two branch points, where a sweep in flat Python costs less than the
numpy calls of a Newton step.

Optimality is certified by the minimal-norm subgradient residual: edges of
near-zero length contribute a ball of radius w_e to the subdifferential, so
the residual at a collapsed vertex is max(0, |g| - sum of collapsed w_e).

A minimizer often collapses: branch points land on each other or on an
atom.  :func:`optimize_topology` resolves that in one loop: it minimizes,
contracts what :func:`detect_collapse` finds coincident, and minimizes the
contracted topology afresh, until :func:`detect_collapse` returns its input.
Each round removes a branch vertex, so the loop ends, and the cluster maps
of its rounds compose into one map from the input's vertices to the
result's.  A kernel run that ended early returns coincident vertices,
which contract to the topology it optimized, then a memo hit.
Minimizations depend on the flowed topology alone, so a caller that
optimizes many topologies of one boundary passes one ``memo`` dict to all
of them, and a topology that several others contract onto is minimized
once.

Before each minimization the loop settles *star* branch vertices whose
optimum is an atom, without minimizing.  A star's terms
sum_j w_j |x - p_j| share no variable with the rest of the energy, so the
weighted Fermat-Weber vertex criterion (Kuhn, Math. Programming 4, 1973)
decides exactly whether its optimum is atom t:
|sum_{j != t} w_j (p_t - p_j) / |p_t - p_j|| < w_t.  When that holds by a
margin of ``_STAR_MARGIN`` times the star's total weight, the star is
contracted onto t, where Newton would stop short of it and the kernel would
only have snapped it; a tie is left to :func:`minimize`.  The test is
exact for stars only.  Any other branch vertex has a branch neighbor whose
optimal position is unknown before the minimization, and a test vertex by
vertex at a placement is necessary but not sufficient: on a 4-branch
topology of a 6-atom instance collapsed vertices pass it one at a time
(residual 8.3e-10) while the value sits 1.8e-5 (relative) above the
minimum.  Both paths contract through :func:`~gsteiner.topology.contract`.

A topology with two adjacent branch vertices b1, b2 gets two more exact
tests before it is minimized, one per collapsed shape its minimizer can
take: both on atoms, each on one of its atom neighbors (screened first by
Kuhn's test at each with the other fixed on its atom), or b1-b2 merged
into a star.  The star is optimized like any topology, the kernel
allowed, and lifted back by :func:`_lift`, as in the kernel's early exit.
A candidate stands only when :func:`dual_bound` of the two-branch topology
itself certifies its value to ``_STAR_GAP`` (:func:`_settles`): with
zero-length edges smoothed by ``_SETTLE_EPS``, its divergence projection
is the multiplier test of the collapsed edges (Calamai & Conn above).
When neither certifies, the topology is minimized as any other.

The kernel's constants: the smoothing parameter starts at ``EPS_INIT`` and
shrinks by ``EPS_DECAY`` per stage down to ``EPS_MIN`` (both relative to
the largest terminal distance).  Every stage runs at most 200 iterations
and the final one, at ``EPS_MIN``, at most 400, so a run has at most 2000.
Edges not longer than ``TOL_COLLAPSE`` (instance units) count as collapsed,
in the residual and in :func:`detect_collapse`, and :func:`minimize`
reports convergence when the residual is at most ``TOL_GRAD``.

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
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .currents import Point, PolyhedralChain, Segment, Boundary, dist
from .topology import FlowedTopology, SteinerTopology, contract


TOL_GRAD = 1e-8
TOL_COLLAPSE = 1e-7
EPS_INIT = 2e-2
EPS_DECAY = 0.2
EPS_MIN = 2e-7

# receives one JSON-serializable record per smoothing stage (iteration count,
# eps, current energy) plus a final one with the stationarity residual (the
# star path sends the final one alone, and so does a settled two-branch
# topology, at iteration 0); a kernel run that ends early sends a record with
# "stage": "collapse" (iteration count, the lift's energy) before the final
# one, and the optimization it nested sends its records before that, as does
# the merged star of a two-branch settle; lower_bounds sends one record with
# "stage": "bound" per topology instead
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
class OptimizedTopology:
    """Result of minimizing one topology: of :func:`minimize` as given, of
    :func:`optimize_topology` after collapse resolution.  ``lift`` maps each
    vertex given to its vertex of ``flowed`` (for :func:`minimize`, itself)."""
    flowed: FlowedTopology
    placement: Placement
    value: float
    residual: float
    iterations: int
    converged: bool
    lift: tuple[int, ...]


def _identity(ft: FlowedTopology) -> tuple[int, ...]:
    return tuple(range(ft.topology.n_terminals + ft.topology.n_branch))


def _weights(ft: FlowedTopology, alpha: float) -> list[float]:
    # the int true division float() makes of a Fraction, without the call
    return [abs(f.numerator / f.denominator) ** alpha
            for f in ft.edge_flows]


def energy(ft: FlowedTopology, pl: Placement, alpha: float,
           w: list[float] | None = None) -> float:
    """Exact location energy; zero-length edges contribute zero.  ``w``, when
    given, holds the edge weights |flow|^alpha (:func:`_weights`)."""
    if w is None:
        w = _weights(ft, alpha)
    return sum(
        wi * dist(pl.position(u), pl.position(v))
        for wi, (u, v) in zip(w, ft.topology.edges))


def _subgradient(here: Point, incident: list[tuple[float, Point]],
                 tol: float) -> tuple[float, float]:
    """The subdifferential at ``here`` of sum_e w_e |x - there_e|, over the
    ``incident`` (w_e, there_e), as a ball: (|g|, radius).

    An edge longer than ``tol`` adds its gradient w_e (here - there) / len
    to g; a shorter one is collapsed and adds w_e to the radius.
    """
    g = [0.0] * len(here)
    ball = 0.0
    for wi, there in incident:
        length = dist(here, there)
        if length <= tol:
            ball += wi
        else:
            for i in range(len(g)):
                g[i] += wi * (here[i] - there[i]) / length
    return math.sqrt(sum(x * x for x in g)), ball


def _incident(ft: FlowedTopology, w: list[float], v0: int) -> list[tuple[float, int]]:
    """(w_e, other end) of every edge of vertex ``v0``, in edge order."""
    return [(wi, v if u == v0 else u)
            for wi, (u, v) in zip(w, ft.topology.edges) if v0 in (u, v)]


def stationarity_residual(ft: FlowedTopology, pl: Placement, alpha: float,
                          w: list[float] | None = None) -> float:
    """Max over branch vertices of the minimal-norm subgradient norm.

    Edges not longer than ``TOL_COLLAPSE`` are treated as collapsed: they
    contribute a ball of radius w_e rather than a unit direction.  ``w`` as
    in :func:`energy`.
    """
    n = ft.topology.n_terminals
    if w is None:
        w = _weights(ft, alpha)
    worst = 0.0
    for v0 in range(n, n + ft.topology.n_branch):
        g, ball = _subgradient(
            pl.position(v0),
            [(wi, pl.position(o)) for wi, o in _incident(ft, w, v0)],
            TOL_COLLAPSE)
        worst = max(worst, max(0.0, g - ball))
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


def _run_kernel(ft: FlowedTopology, terminals: tuple[Point, ...],
                w: list[float], trace: Trace | None,
                settle: Callable[[Placement], Placement | None] | None = None
                ) -> tuple[Sequence[Sequence[float]], int]:
    """The smoothing schedule from the barycentric start, for the edge
    weights ``w``.

    Each eps stage minimizes F_eps with the stage solver of the terminals'
    dimension: planar Gauss-Seidel sweeps (:func:`_sweeps_2d`) or Newton
    steps (:func:`_newton_steps`).  Everything else is shared: the eps
    schedule, the stage budgets and move tolerances, the snap and the trace.
    After every stage but the last, ``settle`` (when given) receives the
    snapped placement; a placement it returns ends the schedule, with a
    "collapse" trace record.  Returns the branch positions and the number
    of iterations (sweeps or Newton steps).
    """
    t = ft.topology
    n = t.n_terminals
    scale = _scale(terminals)
    # every vertex, terminals first; the stages write only branch entries
    pos = [list(p) for p in terminals] + _barycentric_init(ft, terminals)
    nv = len(pos)
    if len(terminals[0]) == 2:
        # each branch vertex with its incident edges: (weight, other vertex)
        graph = [(b, _incident(ft, w, b)) for b in range(n, nv)]
        stage = _sweeps_2d
    else:
        a = _incidence(t)
        graph = (a[:n], a[n:], np.array(w))
        stage = _newton_steps

    def exact_energy() -> float:
        return sum(wi * math.dist(pos[u], pos[v])
                   for wi, (u, v) in zip(w, t.edges))

    iters = 0
    eps = EPS_INIT * scale
    eps_floor = EPS_MIN * scale
    move_tol = 1e-11 * scale
    while True:
        final = eps <= eps_floor
        iters += stage(pos, graph, eps * eps, 400 if final else 200,
                       move_tol if final else max(2e-2 * eps, move_tol))
        # snap to the nearest vertex when that strictly improves exact F;
        # whether a branch vertex ends within TOL_COLLAPSE of another
        # vertex, as detect_collapse would find, is known on the way
        current = exact_energy()
        collapsed = False
        for b in range(n, nv):
            here = pos[b]
            nearest = min((v for v in range(nv) if v != b),
                          key=lambda v: math.dist(here, pos[v]))
            pos[b] = list(pos[nearest])
            trial = exact_energy()
            if trial < current - 1e-15 * (1.0 + abs(current)):
                current = trial
                collapsed = True
            else:
                pos[b] = here
                collapsed |= math.dist(here, pos[nearest]) <= TOL_COLLAPSE
        if trace is not None:
            trace({"stage": "eps", "iteration": iters, "eps": eps,
                   "value": current})
        if final:
            return pos[n:], iters
        if collapsed and settle is not None and (found := settle(Placement(
                terminals, tuple(map(tuple, pos[n:]))))) is not None:
            if trace is not None:
                pos[n:] = found.branch
                trace({"stage": "collapse", "iteration": iters,
                       "value": exact_energy()})
            return found.branch, iters
        eps = max(eps * EPS_DECAY, eps_floor)


def _sweeps_2d(pos, incident, e2: float, budget: int, tol: float) -> int:
    """Gauss-Seidel sweeps until no coordinate moves more than ``tol``, at
    most ``budget``; returns the number run.

    Each sweep moves every branch vertex in turn to the barycenter of its
    neighbors with weights w_e / sqrt(len^2 + e2).  The planar hot path:
    flat float arithmetic, no temporaries.
    """
    for done in range(1, budget + 1):
        move = 0.0
        for b, edges in incident:
            p = pos[b]
            x, y = p
            nx = ny = den = 0.0
            for wi, other in edges:
                qx, qy = pos[other]
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
            p[0] = nx
            p[1] = ny
        if move <= tol:
            return done
    return budget


def _newton_steps(pos, graph, e2: float, budget: int, tol: float) -> int:
    """Damped Newton steps on F_eps = sum_e w_e sqrt(|x_u - x_v|^2 + e2)
    until a step moves no coordinate more than ``tol``, at most ``budget``;
    returns the number run.

    ``graph`` holds the terminal and branch rows of the incidence matrix
    and the edge weights.  With d_e = x_u - x_v, l_e = sqrt(|d_e|^2 + e2)
    and c_e = w_e / l_e, edge e adds the block
    (c_e / l_e^2) (e2 I + |d_e|^2 I - d_e d_e^T) to the Hessian.  The e2
    term is kept apart: on a line |d_e|^2 I - d_e d_e^T is zero, and formed
    as c_e (I - d_e d_e^T / l_e^2) it would cancel to rounding noise.  When
    branch points collapse, their edge's curvature w_e / eps dwarfs the
    radial curvature w_e eps^2 / l_e^3 of the others (in 1-D about 1e6
    against 1e-12), so 1e-9 times the weighted Laplacian A_b C A_b^T, in
    every coordinate, keeps the system solvable.  Each step backtracks on
    F_eps (Armijo) and moves the branch points (Andersen, Christiansen,
    Conn & Overton, SIAM J. Sci. Comput. 22(1), 2000, on Newton methods
    for sums of Euclidean norms).
    """
    a_t, ab, w = graph
    n, m, d = len(a_t), len(ab), len(pos[0])
    fixed = a_t.T @ np.array(pos[:n])
    x = np.array(pos[n:])
    eye = np.eye(d)
    e2_eye = e2 * eye
    ab_t = ab.T
    pairs = np.einsum("ie,je->ije", ab, ab)  # A_b row products per edge

    def edges(x: np.ndarray):
        diff = fixed + ab_t @ x
        sq = np.einsum("ij,ij->i", diff, diff)
        return diff, sq, np.sqrt(sq + e2)

    # each accepted line-search trial hands its edge vectors to the next step
    diff, sq, length = edges(x)
    done = 0
    while done < budget:
        done += 1
        c = w / length
        cab = ab * c
        grad = cab @ diff
        block = (c / (sq + e2))[:, None, None] * (
            e2_eye + (sq[:, None, None] * eye
                      - diff[:, :, None] * diff[:, None, :]))
        hess = (np.einsum("ije,eab->iajb", pairs, block)
                + 1e-9 * (cab @ ab_t)[:, None, :, None] * eye[:, None, :])
        step = -np.linalg.solve(hess.reshape(m * d, m * d),
                                grad.ravel()).reshape(m, d)
        value, slope = w @ length, grad.ravel() @ step.ravel()
        move = float(np.abs(step).max())
        t = 1.0
        while t * move > tol:
            trial = edges(x + t * step)
            if w @ trial[2] <= value + 1e-4 * t * slope:
                break
            t *= 0.5
        x += t * step
        if t * move <= tol:
            break
        diff, sq, length = trial
    pos[n:] = x.tolist()
    return done


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


# the star path's constants: Newton stops when |grad F| is at most
# _STAR_GRAD times the star's total weight, and gives the star up to the
# kernel after _STAR_STEPS steps (the benchmark's stars take at most 15), or
# when an iterate comes within _STAR_NEAR of an atom, where the energy is not
# smooth (relative to the atoms' weighted mean distance from their
# barycenter); a Hessian pivot at most _STAR_SINGULAR times its trace counts
# as singular; the placement stands only when the dual bound certifies it
# to _STAR_GAP (relative to 1 + value)
_STAR_STEPS = 30
_STAR_GRAD = 1e-13
_STAR_NEAR = 1e-12
_STAR_SINGULAR = 1e-12
_STAR_GAP = 1e-12


def _star_newton(atoms: list[tuple[float, Point]]
                 ) -> tuple[tuple[float, ...], int] | None:
    """The minimizer of F(x) = sum_j w_j |x - p_j| over the ``atoms``
    (w_j, p_j), with the number of Newton steps taken, or None.

    Damped Newton on the exact F, in flat Python and any dimension.  With
    r_j = |x - p_j| and u_j = (x - p_j) / r_j the gradient is
    sum_j w_j u_j and the Hessian sum_j (w_j / r_j) (I - u_j u_j^T); each
    step backtracks on F (Armijo, with a slack of F's rounding so that steps
    near the optimum, whose decrease rounds away, are taken).

    The run starts at the weighted barycenter, unless an atom's value
    F(p_t) is no larger: a path from there could be drawn onto that atom,
    where the transverse curvature w_t / r_t blows up and the iterates only
    close in on it.  The run then starts at the best atom and steps off it
    (:func:`_step_off`), one step; from there F stays below every atom's
    value, so no atom draws the iterates in and none is left twice.

    None when Kuhn's test holds at that atom (its optimum, which
    :func:`optimize_topology` settles first unless it is a near-tie), an
    iterate comes within ``_STAR_NEAR`` times the atoms' weighted mean
    distance from their barycenter of an atom, the Hessian or the
    step-off's curvature is singular (in 1-D, on collinear atoms, on a
    tie) or the steps run out: the kernel then places the star.
    """
    d = len(atoms[0][1])
    total = sum(w for w, _ in atoms)
    x = [sum(w * p[i] for w, p in atoms) / total for i in range(d)]
    f = sum(w * math.dist(x, p) for w, p in atoms)
    near = _STAR_NEAR * f / total
    dims = range(d)
    f_atom, t = min((sum(w * math.dist(q, p) for w, p in atoms), i)
                    for i, (_, q) in enumerate(atoms))
    first = 0
    if f_atom <= f:
        found = _step_off(atoms, t, f_atom)
        if found is None:
            return None
        x, f = found
        first = 1
    for steps in range(first, _STAR_STEPS):
        # with diff_j = x - p_j, c_j = w_j / r_j and k_j = c_j / r_j^2:
        # g = sum_j c_j diff_j, h = (sum_j c_j) I - sum_j k_j diff_j diff_j^T
        g = [0.0] * d
        h = [[0.0] * d for _ in dims]
        trace = 0.0
        for w, p in atoms:
            diff = [a - c for a, c in zip(x, p)]
            r = math.hypot(*diff)
            if r <= near:
                return None
            c = w / r
            k = c / (r * r)
            trace += c
            for i in dims:
                di = diff[i]
                g[i] += c * di
                row, kdi = h[i], k * di
                for j in dims:
                    row[j] -= kdi * diff[j]
        for i in dims:
            h[i][i] += trace
        # a singular Hessian at a stationary point means a segment of
        # minimizers (a tie on a line): the kernel picks the point
        step = _solve_spd(h, [-v for v in g])
        if step is None:
            return None
        if math.hypot(*g) <= _STAR_GRAD * total:
            return tuple(x), steps
        slope = sum(a * b for a, b in zip(g, step))
        t = 1.0
        while True:
            trial = [a + t * b for a, b in zip(x, step)]
            f_trial = sum(w * math.dist(trial, p) for w, p in atoms)
            if f_trial <= f + 1e-4 * t * slope + 1e-15 * f:
                break
            t *= 0.5
            if t < 1e-12:
                return None
        x, f = trial, f_trial
    return None


def _step_off(atoms: list[tuple[float, Point]], t: int, f_t: float
              ) -> tuple[list[float], float] | None:
    """A point x with F(x) < F(p_t) = ``f_t`` off atom ``t`` of a star, and
    F(x), or None when Kuhn's test holds at p_t or the move is singular.

    With R = sum_{j != t} w_j (p_t - p_j) / |p_t - p_j| the derivative of F
    along a unit d at p_t is w_t + R.d, so when |R| > w_t (Kuhn's test
    fails) d = -R / |R| descends at the rate |R| - w_t.  Along d the other
    terms curve by kappa = sum_{j != t} (w_j / r_j) (1 - (u_j.d)^2), so the
    1-D model F(p_t) - (|R| - w_t) s + kappa s^2 / 2 puts the first trial at
    s = (|R| - w_t) / kappa, halved until Armijo holds against F(p_t).
    kappa vanishes when every atom lies on the line through p_t along d
    (collinear atoms, 1-D): None, as for a singular Hessian.
    """
    w_t, p = atoms[t]
    # (w_j, r_j, u_j) of the other atoms, u_j the unit vector from p_j to p_t
    others = [(w, r, [(a - b) / r for a, b in zip(p, q)])
              for j, (w, q) in enumerate(atoms) if j != t
              for r in [math.dist(p, q)]]
    big_r = [sum(w * u[i] for w, _, u in others) for i in range(len(p))]
    size = math.hypot(*big_r)
    if size <= w_t:
        return None
    d = [-c / size for c in big_r]
    kappa = sum(w / r * (1.0 - sum(a * b for a, b in zip(u, d)) ** 2)
                for w, r, u in others)
    if kappa <= _STAR_SINGULAR * sum(w / r for w, r, _ in others):
        return None
    s, slope = (size - w_t) / kappa, w_t - size
    for _ in range(60):
        x = [a + s * b for a, b in zip(p, d)]
        f = sum(w * math.dist(x, q) for w, q in atoms)
        if f <= f_t + 1e-4 * s * slope:
            return x, f
        s *= 0.5
    return None


def _solve_spd(a: list[list[float]], rhs: list[float]) -> list[float] | None:
    """The solution of a x = rhs for a symmetric positive semidefinite
    ``a``, by Gaussian elimination without pivoting (stable on such
    matrices), or None when a pivot is at most ``_STAR_SINGULAR`` times the
    trace of ``a``.  Overwrites ``a`` and ``rhs``."""
    d = len(rhs)
    tiny = _STAR_SINGULAR * sum(a[i][i] for i in range(d))
    for k in range(d):
        pivot = a[k][k]
        if pivot <= tiny:
            return None
        for i in range(k + 1, d):
            m = a[i][k] / pivot
            for j in range(k + 1, d):
                a[i][j] -= m * a[k][j]
            rhs[i] -= m * rhs[k]
    x = [0.0] * d
    for k in reversed(range(d)):
        rest = sum(a[k][j] * x[j] for j in range(k + 1, d))
        x[k] = (rhs[k] - rest) / a[k][k]
    return x


def _place_stars(ft: FlowedTopology, terminals: tuple[Point, ...],
                 alpha: float, w: list[float]
                 ) -> tuple[Placement, int] | None:
    """The certified optimal placement of a topology whose branch vertices
    are all stars, with the total number of Newton steps, or None.

    Each star's terms share no variable with the rest of the energy, so
    :func:`_star_newton` places each one alone.  The placement stands only
    when :func:`dual_bound` at it lies within ``_STAR_GAP`` (relative) of
    its energy.  None when a branch vertex has a branch neighbor, a star's
    Newton run gives up, or the certificate fails.  ``w`` holds the edge
    weights (:func:`_weights`).
    """
    n = ft.topology.n_terminals
    if any(min(e) >= n for e in ft.topology.edges):  # a branch-branch edge
        return None
    branch, steps = [], 0
    for v0 in range(n, n + ft.topology.n_branch):
        found = _star_newton([(wi, terminals[o])
                              for wi, o in _incident(ft, w, v0)])
        if found is None:
            return None
        branch.append(found[0])
        steps += found[1]
    pl = Placement(terminals, tuple(branch))
    return (pl, steps) if _certified(ft, pl, alpha, w) else None


def _certified(ft: FlowedTopology, pl: Placement, alpha: float,
               w: list[float], eps: float = 0.0) -> bool:
    """Whether :func:`dual_bound` at ``pl``, smoothed by ``eps``, certifies
    the energy there to ``_STAR_GAP`` (relative), wherever ``pl`` came from."""
    value = energy(ft, pl, alpha, w)
    return value - dual_bound(ft, pl, alpha, eps, w) <= _STAR_GAP * (1.0 + value)


def _optimized(ft: FlowedTopology, pl: Placement, alpha: float,
               w: list[float], iters: int) -> OptimizedTopology:
    """``ft`` at ``pl``, with its value and stationarity residual."""
    res = stationarity_residual(ft, pl, alpha, w)
    return OptimizedTopology(ft, pl, energy(ft, pl, alpha, w), res, iters,
                             res <= TOL_GRAD, _identity(ft))


def _done(trace: Trace | None, res: OptimizedTopology) -> OptimizedTopology:
    """Send ``res``'s final trace record, if tracing; returns ``res``."""
    if trace is not None:
        trace({"stage": "done", "iteration": res.iterations,
               "value": res.value, "residual": res.residual})
    return res


def minimize(ft: FlowedTopology, b: Boundary, alpha: float,
             trace: Trace | None = None,
             memo: dict | None = None) -> OptimizedTopology:
    """Minimize the location energy for a flowed topology over ``b``.

    Deterministic.  When every branch vertex is a star, damped Newton on the
    exact energy places each one (:func:`_place_stars`) and the dual bound
    certifies the result; its iterations count Newton steps.  Otherwise, or
    when that gives up, the smoothing kernel (:func:`_run_kernel`) runs:
    barycentric initialization, a geometric eps schedule whose stages run
    planar Weiszfeld sweeps or, in other dimensions, Newton steps on the
    smoothed energy, nearest-vertex snapping when it strictly improves the
    exact energy.  After each stage but the last, the topology that
    :func:`detect_collapse` contracts the placement to, when it is new to
    the run, is optimized by :func:`optimize_topology` with ``memo`` (a
    fresh dict when None) and lifted (:func:`_lift`); when the lift is
    certified on ``ft`` the schedule stops there, and the rest of it would
    only have closed in on that collapse.  ``trace`` receives the kernel's
    per-stage records, the nested optimizations' records and one final
    record from either path.  The edge weights (:func:`_weights`) are
    computed once and passed to every step.  The result is for ``ft``
    itself, at a placement that may hold coincident vertices:
    :func:`optimize_topology` contracts them.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    terminals = _terminals_for(ft, b)
    w = _weights(ft, alpha)
    if ft.topology.n_branch == 0:
        return _optimized(ft, Placement(terminals, ()), alpha, w, 0)

    found = _place_stars(ft, terminals, alpha, w)
    if found is None:
        memo = {} if memo is None else memo
        tried = set()

        def settle(pl: Placement) -> Placement | None:
            contracted, cluster = detect_collapse(ft, pl)
            key = contracted.topology.edges
            if contracted is ft or key in tried:
                return None
            tried.add(key)
            return _lift(ft, b, alpha, w, contracted, cluster, memo, trace)
        pos, iters = _run_kernel(ft, terminals, w, trace, settle)
        found = Placement(terminals, tuple(tuple(x) for x in pos)), iters
    pl, iters = found
    return _done(trace, _optimized(ft, pl, alpha, w, iters))


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
               eps: float = 0.0, w: list[float] | None = None) -> float:
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
    zero-length edge needs ``eps`` > 0.  ``w`` as in :func:`energy`.  This
    is the one-topology case of the batched evaluation behind
    :func:`lower_bounds`.
    """
    n = ft.topology.n_terminals
    a = _incidence(ft.topology)[None]
    x = np.asarray(pl.terminals + pl.branch, dtype=float)
    if w is None:
        w = _weights(ft, alpha)
    return float(_dual_values(a[:, n:], np.array([w]),
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


# ---------------------------------------------------------------------------
# collapse handling and realization
# ---------------------------------------------------------------------------

def detect_collapse(ft: FlowedTopology, pl: Placement
                    ) -> tuple[FlowedTopology, tuple[int, ...]]:
    """The topology ``ft`` contracts to at ``pl``, with the cluster map of
    :func:`~gsteiner.topology.contract`; ``ft`` and the identity map when
    nothing merges.

    Vertices within ``TOL_COLLAPSE`` of each other merge, closest pairs
    first, adjacent or not.  When the merged edges would close a cycle,
    :func:`~gsteiner.topology.contract` returns ``ft`` (that configuration
    is left to geometric canonicalization).
    """
    n = ft.topology.n_terminals
    close = sorted(
        (d, u, v) for v in range(n, n + ft.topology.n_branch) for u in range(v)
        if (d := dist(pl.position(u), pl.position(v))) <= TOL_COLLAPSE)
    # the first pair merges, if any: each holds a branch vertex
    return contract(ft, [(u, v) for _, u, v in close]) if close else (
        ft, _identity(ft))


def realize_chain(ft: FlowedTopology, pl: Placement) -> PolyhedralChain:
    """Geometric chain for a flowed topology at given positions (raw form)."""
    segs = []
    for (u, v), f in zip(ft.topology.edges, ft.edge_flows):
        pu, pv = pl.position(u), pl.position(v)
        if pu == pv:
            continue
        segs.append(Segment(pu, pv, f))
    return PolyhedralChain(tuple(segs), canonical=False)


# a star settles only when Kuhn's criterion holds by this share of the
# star's total weight, far above the rounding of its unit vectors: a tie or
# near-tie runs the kernel
_STAR_MARGIN = 1e-9


def _settled_stars(ft: FlowedTopology, terminals: tuple[Point, ...],
                   w: list[float]) -> list[tuple[int, int]]:
    """(atom, star) for every star branch vertex whose minimizer is an atom,
    for the edge weights ``w``.

    Kuhn's criterion of the module docstring: atom t is the star's unique
    minimizer when the ball of :func:`_subgradient` at p_t, with only t's
    edge collapsed, holds 0 in its interior, here by ``_STAR_MARGIN``.  A
    vertex with a branch neighbor is never tested.
    """
    n = ft.topology.n_terminals
    pairs = []
    for v0 in range(n, n + ft.topology.n_branch):
        incident = _incident(ft, w, v0)
        if any(o >= n for _, o in incident):
            continue
        atoms = [(wi, terminals[o]) for wi, o in incident]
        margin = _STAR_MARGIN * sum(wi for wi, _ in incident)
        for _, t in incident:
            g, ball = _subgradient(terminals[t], atoms, 0.0)
            if g < ball - margin:
                pairs.append((t, v0))
                break
    return pairs


# the two-branch certificate smooths zero-length edges by this share of the
# largest terminal distance: the dual gap grows with it, and at 1e-12
# optimal collapsed placements certify only to 1.5e-12-4.4e-12 (relative),
# above _STAR_GAP, while at 1e-14 they certify to 2.2e-14
_SETTLE_EPS = 1e-14


def _settles(ft: FlowedTopology, pl: Placement, alpha: float,
             w: list[float]) -> bool:
    """Whether ``pl``, a placement of ``ft`` with collapsed (zero-length)
    edges, is certified optimal.

    Kuhn's test comes first, which costs less than the bound: at every
    branch vertex on a collapsed edge, with the others fixed, the
    subdifferential (collapsed edges as balls, :func:`_subgradient`) holds
    0; necessary, not sufficient.  Then :func:`_certified` must hold with
    zero-length edges smoothed by ``_SETTLE_EPS``: the bound is the
    multiplier test of the collapsed edges, and it certifies the value of
    ``ft`` itself, wherever ``pl`` came from.
    """
    where = pl.terminals + pl.branch
    for v in range(ft.topology.n_terminals, len(where)):
        g, ball = _subgradient(where[v], [(wi, where[o]) for wi, o in
                                          _incident(ft, w, v)], 0.0)
        if g > ball > 0.0:
            return False
    return _certified(ft, pl, alpha, w, _SETTLE_EPS * _scale(pl.terminals))


def _lift(ft: FlowedTopology, b: Boundary, alpha: float, w: list[float],
          contracted: FlowedTopology, cluster: tuple[int, ...], memo: dict,
          trace: Trace | None) -> Placement | None:
    """The optimum of ``contracted``, a contraction of ``ft`` with the
    cluster map of :func:`~gsteiner.topology.contract`, as a placement of
    ``ft`` when :func:`_settles` certifies it there, else None.

    ``contracted`` is optimized like any topology, by
    :func:`optimize_topology` with ``memo`` and ``trace``, and vertex v of
    ``ft`` goes to the position of its image under ``cluster`` and then the
    result's ``lift``.  The certificate is taken on ``ft``: one on the
    contraction would not bound ``ft``'s minimum.
    """
    res = optimize_topology(contracted, b, alpha, trace, memo)
    lifted = Placement(res.placement.terminals, tuple(
        res.placement.position(res.lift[c])
        for c in cluster[ft.topology.n_terminals:]))
    return lifted if _settles(ft, lifted, alpha, w) else None


def _settle_two_branch(ft: FlowedTopology, b: Boundary, alpha: float,
                       w: list[float], memo: dict,
                       trace: Trace | None) -> OptimizedTopology | None:
    """The certified optimum of a topology with two adjacent branch
    vertices b1, b2 when it collapses, at a placement lifted from the
    topology it collapses to, or None.

    Two collapsed shapes are tried:

    * both branch vertices on atoms, each on one of its atom neighbors, a
      placement of ``ft`` as it stands;
    * the edge b1-b2 contracted.  The merged star is optimized like any
      topology and lifted to ``ft`` by :func:`_lift`, with ``memo`` and
      ``trace``.

    A candidate stands only when :func:`_settles` certifies it on ``ft``,
    whatever placed the star.
    """
    t = ft.topology
    n = t.n_terminals
    inner = [e for e in t.edges if min(e) >= n]
    if t.n_branch != 2 or len(inner) != 1:
        return None
    (b1, b2), = inner
    terminals = _terminals_for(ft, b)
    for _, t1 in _incident(ft, w, b1):
        for _, t2 in _incident(ft, w, b2):
            if max(t1, t2) < n and _settles(ft, pl := Placement(
                    terminals, (terminals[t1], terminals[t2])), alpha, w):
                return _optimized(ft, pl, alpha, w, 0)
    pl = _lift(ft, b, alpha, w, *contract(ft, [(b1, b2)]), memo, trace)
    return None if pl is None else _optimized(ft, pl, alpha, w, 0)


def optimize_topology(ft: FlowedTopology, b: Boundary, alpha: float,
                      trace: Trace | None = None,
                      memo: dict | None = None) -> OptimizedTopology:
    """Minimize, then contract the collapsed vertices and minimize again,
    until :func:`detect_collapse` returns its input.

    Before each minimization, every star branch vertex (all of its
    neighbors atoms) that :func:`_settled_stars` proves to sit on an atom
    is contracted onto it without minimizing: the star's Newton run would
    stop short of the atom, and the kernel would only snap it there.  The
    module docstring says why the test is exact for stars alone.

    A topology with two adjacent branch vertices then gets the two exact
    tests of :func:`_settle_two_branch`: both on atoms, or merged into a
    star.  A certified candidate stands in for the minimization (with no
    iterations, and one "done" trace record after the merged star's), and
    the loop goes on as after one: :func:`detect_collapse` contracts it.
    So does a minimization whose kernel run ended at a certified collapse.
    The settle and the early exit optimize their contractions by calling
    this function with the same ``memo`` and ``trace``.

    This ends: every contraction removes a branch vertex, since a cluster
    never holds two terminals.  The result's ``lift`` composes the cluster
    maps of every contraction: vertex v of ``ft`` lifts to
    ``placement.position(lift[v])``.  A minimization starts afresh from the
    barycentric start, and a settle or an early exit depends on its
    contraction's optimum alone, so every result is a function of its
    flowed topology alone, and ``memo`` may keep it: a dict shared by calls
    with the same boundary and alpha (several topologies can contract onto
    one), keyed on edges only; on one boundary the edges fix the flows,
    since a forest carries a boundary by one conservative flow at most.
    The reported iterations include reused ones.
    """
    if memo is None:
        memo = {}
    terminals = _terminals_for(ft, b)
    lift = _identity(ft)
    iters = 0
    while True:
        w = _weights(ft, alpha)
        settled = _settled_stars(ft, terminals, w)
        contracted, cluster = contract(ft, settled) if settled else (ft, None)
        if contracted is ft:
            key = ft.topology.edges
            if key not in memo:
                found = _settle_two_branch(ft, b, alpha, w, memo, trace)
                memo[key] = (minimize(ft, b, alpha, trace, memo)
                             if found is None else _done(trace, found))
            res = memo[key]
            iters += res.iterations
            contracted, cluster = detect_collapse(ft, res.placement)
            if contracted is ft:
                return replace(res, flowed=ft, iterations=iters, lift=lift)
        ft, lift = contracted, tuple(cluster[v] for v in lift)
