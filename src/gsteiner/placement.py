"""Convex minimization of the location energy over branch positions.

For a fixed flowed topology the cost of a realization depends only on the
branch-vertex positions, through

    F(x_1, ..., x_m) = sum over edges of |flow|^alpha * |x_j - x_i|,

a convex (generally non-smooth) function.

A *star* is a branch vertex whose neighbors are all atoms.  Its terms
sum_j w_j |x - p_j| share no variable with the rest of the energy, so a
topology without a branch-branch edge, all of whose branch vertices are
stars, is decided star by star before any minimization, by the star pass
:func:`_place_stars`.  First the weighted Fermat-Weber vertex criterion
(Kuhn, Math. Programming 4, 1973) decides exactly whether a star's optimum
is atom t: |sum_{j != t} w_j (p_t - p_j) / |p_t - p_j|| < w_t.  When that
holds for some stars by a margin of ``_STAR_MARGIN`` times the star's total
weight, :func:`optimize_topology` contracts them onto their atoms, where
Newton would stop short of them and the kernel would only have snapped
them, and optimizes the contraction.  Otherwise :func:`_star_newton`
places each star alone: damped Newton on its exact energy from the
weighted barycenter, with the Hessian sum_j (w_j / r_j) (I - u_j u_j^T)
and an Armijo backtracking on F (Calamai & Conn, SIAM J. Sci. Stat.
Comput. 1(4), 1980, for this view of sums of norms).  When an atom's value
F(p_t) is no larger than the barycenter's, a path from there could be
drawn onto that atom and close in on it without end, so Newton starts at
the best atom instead and steps off it along -R/|R|, R the pull of the
other terms, which descends because Kuhn's test fails there; F then stays
below every atom's value.  The placement stands only when
:func:`dual_bound` at it certifies the value to ``_STAR_GAP`` (relative).
A tie in Kuhn's test, an iterate near an atom (where F is not smooth), a
singular Hessian or step-off (1-D, collinear atoms, a tie), a spent step
budget or a failed certificate hands the whole topology to the smoothing
kernel below.  The test is exact for stars only, so a topology with a
branch-branch edge runs the kernel as a whole, its stars included: a
branch neighbor's optimal position is unknown before the minimization,
and a test vertex by vertex at a placement is necessary but not
sufficient; on a 4-branch topology of a 6-atom instance collapsed
vertices pass it one at a time (subgradient norm 8.3e-10) while the value
sits 1.8e-5 (relative) above the minimum.

Every other topology runs the kernel.  It minimizes the smoothed energy
F_eps = sum of w_e sqrt(len^2 + eps^2) (Smith, Algorithmica 7, 1992) in
three stages: two smoothing stages at eps ``EPS_INIT`` and ``EPS_INIT *
EPS_DECAY``, then the floor at ``EPS_MIN``.  It starts at the barycentric
start, unless the caller hands it branch positions: the solver starts each
topology it optimizes where :func:`bound_rows` took its bound, a smoothed
placement already near the optimum, often next to the collapse the run
ends at.  At the end of every stage each branch vertex is snapped onto its
nearest vertex whenever that strictly lowers the exact energy, which
accelerates convergence onto collapsed configurations (the non-smooth
minimizers these instances actually visit).

The kernel ends at the first collapse it can certify, and keeps no
collapse test and no record of its own.  Its settle points are the end of
every stage, the last included, and a given start, before any stage: at
each, the placement is snapped, and the topology that
:func:`detect_collapse` contracts it to, when it is not the kernel's own,
is optimized by :func:`optimize_topology` (with the caller's ``memo`` and
``trace``) and its optimum lifted back, every vertex at its image's
position.  A contraction met again in the run is a memo hit.  When the
dual bound of the kernel's own topology certifies the lift
(:func:`_settles`, below), the run stops there: its remaining stages would
only close in on that collapse.  Otherwise the run goes on, from a refused
start as it was given, not from its snap.  This is the active-set view of
sums of norms (Calamai & Conn above): a collapsed optimum is settled by
contracting it and checking the collapsed edges' multipliers.  On the
seed-0 ``solve-n6`` pass all 3 kernel runs end at their start, and on the
seed-0 ``solve-3d`` pass 10 of 16 do; the warm start and its settle cut
that pass's Newton steps from 174 to 79.

One kernel, :func:`_run_kernel`, runs this in every dimension: the eps
stages, their iteration budgets, the snap and the trace records.  The floor
runs damped Newton steps on F_eps, :func:`_newton_steps`, in every
dimension; only the smoothing stages' solver is chosen by the dimension of
the terminals.  Planar instances smooth by Weiszfeld's fixed point as
Gauss-Seidel sweeps, :func:`_sweeps_2d`: each branch vertex moves to the
weighted barycenter of its neighbors with weights w_e / sqrt(len^2 +
eps^2).  Most planar calls (the four-point lab's) have one or two branch
points and end at a collapse after the first stage, where a sweep in flat
Python costs less than the numpy calls of a Newton step.

Every result carries ``lower``, a :func:`dual_bound` on the minimum of the
location energy of the topology given, and is ``converged`` when its value
lies within ``_STAR_GAP`` (relative) of it.  Newton stars and early exits
stand only when so certified; settled stars carry their contraction's
bound (Kuhn's test is exact); a kernel run that ends on its floor carries
the bound at its placement, zero-length edges smoothed by
``_SETTLE_EPS``, and may stay uncertified.  A contraction that merges
parallel edges can realize a value below the bound.

A minimizer often collapses: branch points land on each other or on an
atom.  :func:`optimize_topology` resolves that: it places or minimizes,
contracts the settled stars or what :func:`detect_collapse` finds
coincident (both through :func:`~gsteiner.topology.contract`), and
optimizes the contracted topology the same way, until nothing collapses.  A
forest without branch vertices it takes at its terminals: nothing is
placed, and nothing can collapse.  Each contraction removes a branch
vertex, so this ends, and the cluster maps compose into one map from the
input's vertices to the result's.  A kernel run that ended early returns
coincident vertices, which contract to the topology it optimized, then a
memo hit.  A result from the barycentric start depends on the flowed
topology alone, so a caller that optimizes many topologies of one boundary
passes one ``memo`` dict to all of them: it keeps every such result, and a
topology that several others contract onto is optimized once.  A result
from a given start is not kept, and every contraction on its way starts at
the barycentric start.  What depends on the flowed topology alone is read
from ``ft``'s own memo (:class:`~gsteiner.topology.FlowedTopology`), made
once: the edge weights per alpha (:func:`_weights`), the (weight,
neighbour) lists of the branch vertices per alpha (:func:`_incident`), for
the star pass, the planar sweeps and the early exit's test, and the
incidence matrix (:func:`_incidence`), for the kernel and
:func:`dual_bound`.  The four-point lab keeps its candidate topologies, so
it builds them once per process.

The kernel's constants: the smoothing parameter is ``EPS_INIT``, then
``EPS_INIT * EPS_DECAY``, then ``EPS_MIN`` (all relative to the largest
terminal distance).  Each smoothing stage runs at most 200 iterations and
the floor at most 400, so a run has at most 800.
Vertices not farther apart than ``TOL_COLLAPSE`` (instance units) count as
coincident; :func:`detect_collapse` alone applies that test, for the
kernel's exit as for :func:`optimize_topology`.

A lower bound on the minimum comes from weak duality (Xue & Ye, SIAM J.
Optim. 7(4), 1997): :func:`dual_bound` turns the edge directions of any
placement into a feasible point of the dual problem, so the bound is valid
wherever the placement comes from.  :func:`bound_rows` evaluates it for
many topologies at once, in numpy and in any dimension, straight from the
array rows of the topology table (``topology.forest_rows``, full trees on
all the atoms, so of one shape, whose zero-flow edges weigh 0):
``_BOUND_STEPS`` smoothed Weiszfeld steps of Smith's form (one stacked
weighted-Laplacian solve per step moves all branch points of a chunk of
rows, stacked by :func:`_stack`), eps falling geometrically from
``EPS_INIT`` to ``_BOUND_EPS_LAST``, then the dual projection as one more
stacked solve.  It is the one bounding pass, and :func:`dual_bound`
is its one-topology evaluation.  The pass returns the branch positions
its bounds were taken at with the bounds, and the solver starts its
kernel runs there.  The solver prunes topologies with these bounds, and
screens the pass with its own margin: every topology takes the first
``_SCREEN_STEPS`` steps, and only those whose bound there does not
already exceed the margin of an upper estimate of the second-best value
take all ``_BOUND_STEPS``.  Both kinds of bound are dual bounds.  Taken at
the bounding pass's smoothed placements they seldom certify an optimum: on
some collapsing topologies the bound stays up to about 2e-2 (relative)
below the value even at the smallest eps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .currents import Point, PolyhedralChain, Segment, Boundary, dist
from .topology import FlowedTopology, contract


TOL_COLLAPSE = 1e-7
EPS_INIT = 2e-2
EPS_DECAY = 0.2
EPS_MIN = 2e-7

# receives one JSON-serializable record per kernel stage (iteration count,
# eps, current energy) plus a final "done" one with the iteration count, the
# value and its lower bound (the star path sends the final one alone); a
# kernel run that ends early sends a record with "stage": "collapse"
# (iteration count, the lift's energy) before the final one, and the
# optimization it nested sends its records before that; a run that ends at
# its start sends no stage record, and its "collapse" record has iteration
# 0; bound_rows sends one record with "stage": "bound" per topology instead
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
    """Result of minimizing one topology: as given, of :func:`minimize` or
    the star pass, and of :func:`optimize_topology` after collapse
    resolution.  ``lift`` maps each vertex given to its vertex of
    ``flowed``.  ``lower`` is a dual lower bound on the minimum of the
    location energy of the topology given (module docstring)."""
    flowed: FlowedTopology
    placement: Placement
    value: float
    lower: float
    iterations: int
    lift: tuple[int, ...]

    @property
    def converged(self) -> bool:
        """Whether ``lower`` certifies ``value`` to ``_STAR_GAP``
        (relative)."""
        return self.value - self.lower <= _STAR_GAP * (1.0 + self.value)


def _identity(ft: FlowedTopology) -> tuple[int, ...]:
    return tuple(range(ft.n_terminals + ft.n_branch))


def _weights(ft: FlowedTopology, alpha: float) -> tuple[float, ...]:
    """The edge weights |flow|^alpha, made once per alpha and kept in
    ``ft``'s memo (:class:`~gsteiner.topology.FlowedTopology`)."""
    found = ft._memo.get(alpha)
    if found is None:
        # the int true division float() makes of a Fraction, without the call
        found = ft._memo[alpha] = tuple(
            abs(f.numerator / f.denominator) ** alpha for f in ft.edge_flows)
    return found


def energy(ft: FlowedTopology, pl: Placement, alpha: float) -> float:
    """Exact location energy; zero-length edges contribute zero."""
    return sum(
        wi * dist(pl.position(u), pl.position(v))
        for wi, (u, v) in zip(_weights(ft, alpha), ft.edges))


def _subgradient(here: Point, incident: list[tuple[float, Point]]
                 ) -> tuple[float, float]:
    """The subdifferential at ``here`` of sum_e w_e |x - there_e|, over the
    ``incident`` (w_e, there_e), as a ball: (|g|, radius).

    An edge of positive length adds its gradient w_e (here - there) / len
    to g; a zero-length one is collapsed and adds w_e to the radius.
    """
    g = [0.0] * len(here)
    ball = 0.0
    for wi, there in incident:
        length = dist(here, there)
        if not length:
            ball += wi
        else:
            for i in range(len(g)):
                g[i] += wi * (here[i] - there[i]) / length
    return math.hypot(*g), ball


def _incident(ft: FlowedTopology, alpha: float, v0: int
              ) -> tuple[tuple[float, int], ...]:
    """(w_e, other end) of every edge of branch vertex ``v0``, in edge
    order.  The lists of all branch vertices are made once per alpha and
    kept in ``ft``'s memo, keyed by ``("incident", alpha)``."""
    key = ("incident", alpha)
    found = ft._memo.get(key)
    if found is None:
        w = _weights(ft, alpha)
        found = ft._memo[key] = tuple(
            tuple((wi, v if u == b else u)
                  for wi, (u, v) in zip(w, ft.edges) if b in (u, v))
            for b in range(ft.n_terminals, ft.n_terminals + ft.n_branch))
    return found[v0 - ft.n_terminals]


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def _incidence(ft: FlowedTopology) -> np.ndarray:
    """Vertex/edge incidence matrix: +1 at an edge's low end, -1 at its high
    end.  Made once, read-only, and kept in ``ft``'s memo, keyed by
    ``"incidence"``."""
    found = ft._memo.get("incidence")
    if found is None:
        found = np.zeros((ft.n_terminals + ft.n_branch, len(ft.edges)))
        for i, (u, v) in enumerate(ft.edges):
            found[u, i] = 1.0
            found[v, i] = -1.0
        found.flags.writeable = False
        ft._memo["incidence"] = found
    return found


def _run_kernel(ft: FlowedTopology, terminals: tuple[Point, ...],
                alpha: float, trace: Trace | None,
                settle: Callable[[Placement], OptimizedTopology | None],
                start: Sequence[Sequence[float]] | None = None
                ) -> tuple[Sequence[Sequence[float]], int,
                           OptimizedTopology | None]:
    """The kernel's three stages from ``start``, the branch positions in
    vertex order, or from the barycentric start, for the edge weights
    |flow|^alpha (:func:`_weights`).

    The two smoothing stages, at eps ``EPS_INIT`` and ``EPS_INIT *
    EPS_DECAY``, minimize F_eps with the stage solver of the terminals'
    dimension: planar Gauss-Seidel sweeps (:func:`_sweeps_2d`) or Newton
    steps (:func:`_newton_steps`).  The floor, at ``EPS_MIN``, runs Newton
    steps in every dimension.  Everything else is shared: the stage budgets
    and move tolerances, the snap and the trace.  The barycentric start puts
    the branch vertices where sum_e |x_u - x_v|^2 is least
    (:func:`_branch_positions` with unit weights); only the solver gives a
    ``start``, the placement its bound was taken at.  A given start is the
    first settle point, and the end of every stage is one: there
    ``settle`` receives the snapped placement and decides, by
    :func:`detect_collapse`, whether it collapsed; a result it returns, a
    certified one of ``ft``, ends the run, with a "collapse" trace record
    of its value (at the start, after 0 iterations, and with no "eps"
    record, since nothing was smoothed).  When ``settle`` refuses the
    start, the stages run from the start as given.  A cold run begins with
    stage 1, because settling the barycentric start is refused often enough
    to cost more than it saves: it can optimize a contraction that nothing
    else asks for.  Returns the branch positions, the number of iterations
    (sweeps or Newton steps) and ``settle``'s result or None.
    """
    n = ft.n_terminals
    w = _weights(ft, alpha)
    scale = _scale(terminals)
    a = _incidence(ft)
    warm = start is not None
    start = (_branch_positions(a[None, n:], np.ones((1, len(ft.edges))),
                               a[None, :n].transpose(0, 2, 1)
                               @ np.asarray(terminals, dtype=float))[0]
             if start is None else np.asarray(start, dtype=float))
    # every vertex, terminals first; the stages write only branch entries
    pos = [list(p) for p in terminals] + start.tolist()
    nv = len(pos)
    newton = partial(_newton_steps, pos, (a[:n], a[n:], np.array(w)))
    # planar: each branch vertex with its incident edges (weight, other vertex)
    smooth = (partial(_sweeps_2d, pos,
                      [(b, _incident(ft, alpha, b)) for b in range(n, nv)])
              if len(terminals[0]) == 2 else newton)

    def exact_energy() -> float:
        return sum(wi * math.dist(pos[u], pos[v])
                   for wi, (u, v) in zip(w, ft.edges))

    def snap_and_settle(eps: float | None) -> OptimizedTopology | None:
        # snap to the nearest vertex when that strictly improves exact F
        current = exact_energy()
        for b in range(n, nv):
            here = pos[b]
            nearest = min((v for v in range(nv) if v != b),
                          key=lambda v: math.dist(here, pos[v]))
            pos[b] = list(pos[nearest])
            trial = exact_energy()
            if trial < current - 1e-15 * (1.0 + abs(current)):
                current = trial
            else:
                pos[b] = here
        if trace is not None and eps is not None:
            trace({"stage": "eps", "iteration": iters, "eps": eps,
                   "value": current})
        found = settle(Placement(terminals, tuple(map(tuple, pos[n:]))))
        if found is not None and trace is not None:
            trace({"stage": "collapse", "iteration": iters,
                   "value": found.value})
        return found

    iters = 0
    if warm:
        # the start is the first settle point; refused, the stages run from
        # the start as given, not from its snap
        found = snap_and_settle(None)
        if found is not None:
            return found.placement.branch, iters, found
        pos[n:] = start.tolist()
    move_tol = 1e-11 * scale
    # (stage solver, eps, budget, move tolerance relative to eps)
    for run, eps, budget, rel_tol in (
            (smooth, EPS_INIT * scale, 200, 2e-2),
            (smooth, EPS_INIT * scale * EPS_DECAY, 200, 2e-2),
            (newton, EPS_MIN * scale, 400, 0.0)):
        iters += run(eps * eps, budget, max(rel_tol * eps, move_tol))
        found = snap_and_settle(eps)
        if found is not None:
            return found.placement.branch, iters, found
    return pos[n:], iters, None


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
    if len(terminals) != ft.n_terminals:
        raise ValueError("boundary does not match topology terminal count")
    return terminals


# the star path's constants: Newton stops when |grad F| is at most
# _STAR_GRAD times the star's total weight, and gives the star up to the
# kernel after _STAR_STEPS steps (the benchmark's stars take at most 15), or
# when an iterate comes within _STAR_NEAR of an atom, where the energy is not
# smooth (relative to the atoms' weighted mean distance from their
# barycenter); a Hessian pivot at most _STAR_SINGULAR times its trace counts
# as singular; the placement stands only when the dual bound certifies it
# to _STAR_GAP (relative to 1 + value).  A star settles on an atom only
# when Kuhn's criterion holds by _STAR_MARGIN of the star's total weight,
# far above the rounding of its unit vectors: a tie or near-tie is left to
# Newton or the kernel
_STAR_STEPS = 30
_STAR_GRAD = 1e-13
_STAR_NEAR = 1e-12
_STAR_SINGULAR = 1e-12
_STAR_GAP = 1e-12
_STAR_MARGIN = 1e-9


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

    None when Kuhn's test holds at that atom (its optimum, which the star
    pass, :func:`_place_stars`, settles first unless it is a near-tie), an
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
                 alpha: float
                 ) -> list[tuple[int, int]] | OptimizedTopology | None:
    """The star pass: every branch vertex of ``ft``, which has one at
    least, decided as a star, or None when ``ft`` has a branch-branch edge.

    First each star gets Kuhn's test of the module docstring: atom t is its
    unique minimizer when the ball of :func:`_subgradient` at p_t, with only
    t's edge collapsed, holds 0 in its interior, here by ``_STAR_MARGIN``.
    When any star passes, the (atom, star) pairs, for
    :func:`optimize_topology` to contract.  Otherwise :func:`_star_newton`
    places each star alone, and the result, whose iterations count Newton
    steps, stands only when :func:`dual_bound` at it certifies it
    (``converged``).  None when a star's Newton run gives up or the
    certificate fails: the kernel then runs.
    """
    n = ft.n_terminals
    # an edge's first end is its lower one, so the greatest edge starts at
    # a branch vertex exactly when some edge joins two
    if max(ft.edges)[0] >= n:
        return None
    stars, settled = [], []
    for v0 in range(n, n + ft.n_branch):
        incident = _incident(ft, alpha, v0)
        atoms = [(wi, terminals[o]) for wi, o in incident]
        margin = _STAR_MARGIN * sum(wi for wi, _ in incident)
        for _, t in incident:
            g, ball = _subgradient(terminals[t], atoms)
            if g < ball - margin:
                settled.append((t, v0))
                break
        stars.append(atoms)
    if settled:
        return settled
    branch, steps = [], 0
    for atoms in stars:
        found = _star_newton(atoms)
        if found is None:
            return None
        branch.append(found[0])
        steps += found[1]
    res = _optimized(ft, Placement(terminals, tuple(branch)), alpha, steps)
    return res if res.converged else None


def _optimized(ft: FlowedTopology, pl: Placement, alpha: float,
               iters: int, eps: float = 0.0) -> OptimizedTopology:
    """``ft`` at ``pl``, with its value and :func:`dual_bound` there,
    smoothed by ``eps``: the value itself without branch vertices."""
    value = energy(ft, pl, alpha)
    lower = dual_bound(ft, pl, alpha, eps) if ft.n_branch else value
    return OptimizedTopology(ft, pl, value, lower, iters, _identity(ft))


def _done(trace: Trace | None, res: OptimizedTopology) -> OptimizedTopology:
    """Send ``res``'s final trace record, if tracing; returns ``res``."""
    if trace is not None:
        trace({"stage": "done", "iteration": res.iterations,
               "value": res.value, "lower": res.lower})
    return res


def minimize(ft: FlowedTopology, b: Boundary, alpha: float,
             trace: Trace | None = None, memo: dict | None = None,
             start: Sequence[Sequence[float]] | None = None
             ) -> OptimizedTopology:
    """Minimize the location energy for a flowed topology over ``b`` by the
    smoothing kernel.

    Deterministic.  A topology without branch vertices is returned at its
    terminals.  Otherwise the kernel (:func:`_run_kernel`) runs: from
    ``start`` (branch positions in vertex order) when given, else from the
    barycentric initialization, two smoothing stages of planar Weiszfeld
    sweeps or, in other dimensions, Newton steps on the smoothed energy, a
    floor of Newton steps, nearest-vertex snapping when it strictly
    improves the exact energy.  At a given start, before any stage, and
    after each stage, the topology that :func:`detect_collapse` contracts
    the snapped placement to, when it is not ``ft``, is optimized by
    :func:`optimize_topology` with ``memo`` (a fresh dict when None) and no
    start, a memo hit when the run met it before, and lifted: vertex v of
    ``ft`` at the position of its image under the cluster map and then the
    result's ``lift``.  When :func:`_settles` certifies the lift on ``ft``
    (one on the contraction would not bound ``ft``'s minimum) the run stops
    there, and the rest of it would only have closed in on that collapse;
    at the start that takes 0 iterations.  ``trace`` receives the kernel's
    per-stage records (none for a run that ends at its start), the nested
    optimizations' records and one final record.  Every step reads the edge weights, the
    incident lists and the incidence matrix from ``ft``'s memo, made once
    (:func:`_weights`, :func:`_incident`, :func:`_incidence`).  The result is
    for ``ft`` itself, at a placement that may hold coincident vertices:
    :func:`optimize_topology` contracts them.  Its ``lower`` is an early
    exit's certificate, else the dual bound at the final placement
    (smoothed by ``_SETTLE_EPS``).
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    terminals = _terminals_for(ft, b)
    if ft.n_branch == 0:
        return _optimized(ft, Placement(terminals, ()), alpha, 0)
    memo = {} if memo is None else memo
    n = ft.n_terminals

    def settle(pl: Placement) -> OptimizedTopology | None:
        contracted, cluster = detect_collapse(ft, pl)
        if contracted is ft:
            return None
        res = optimize_topology(contracted, b, alpha, trace, memo)
        return _settles(ft, Placement(terminals, tuple(
            res.placement.position(res.lift[c]) for c in cluster[n:])),
            alpha)
    pos, iters, found = _run_kernel(ft, terminals, alpha, trace, settle,
                                    start)
    if found is None:
        found = _optimized(ft, Placement(terminals, tuple(map(tuple, pos))),
                           alpha, 0, _SETTLE_EPS * _scale(terminals))
    return _done(trace, replace(found, iterations=iters))


# ---------------------------------------------------------------------------
# lower bounds by weak duality, batched
# ---------------------------------------------------------------------------

# the bounding pass: _BOUND_STEPS majorize-minimize steps from the
# barycentric start, eps falling geometrically from EPS_INIT to
# _BOUND_EPS_LAST (both relative to the largest terminal distance); the
# bound is taken at the last eps.  A screened pass stops every topology after
# the schedule's first _SCREEN_STEPS steps, and only those its cut keeps take
# the rest
_BOUND_STEPS = 20
_SCREEN_STEPS = 4
_BOUND_EPS_LAST = 1e-3


def _weighted_laplacian(ab: np.ndarray, c: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """A_b C and the weighted Laplacian A_b C A_b^T of each topology.

    ``ab`` (T, m, E) holds the branch rows of the incidence matrices and
    ``c`` (T, E) nonnegative edge coefficients.  The Laplacian is
    nonsingular, since every branch vertex reaches a terminal over positive
    weights: ``topology._representatives`` keeps no row with a lone branch
    vertex, one whose three edges all weigh 0.
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


def _smoothed_steps(ab: np.ndarray, weights: np.ndarray, fixed: np.ndarray,
                    x: np.ndarray, schedule: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Branch positions (T, m, d) after one smoothed Weiszfeld step per eps
    of ``schedule`` from ``x``, and their edge vectors x_u - x_v (T, E, d).

    Each step sets c_e = w_e / sqrt(l_e^2 + eps^2) at the current positions
    and moves every branch position to the minimizer of
    sum_e c_e |x_u - x_v|^2 (:func:`_branch_positions`).
    """
    ab_t = ab.transpose(0, 2, 1)
    for eps in schedule:
        diff = fixed + ab_t @ x
        x = _branch_positions(
            ab, weights / np.sqrt(np.einsum("tij,tij->ti", diff, diff)
                                  + eps * eps), fixed)
    return x, fixed + ab_t @ x


def _dual_values(ab: np.ndarray, weights: np.ndarray, diff: np.ndarray,
                 eps: float) -> np.ndarray:
    """:func:`dual_bound` for T topologies at once, from their edge vectors
    x_u - x_v (T, E, d), weights (T, E) and incidence branch rows (T, m, E)."""
    length = np.sqrt(np.einsum("tij,tij->ti", diff, diff) + eps * eps)
    if not length.all():
        raise ValueError("a zero-length edge needs eps > 0")
    c = weights / length
    y = c[..., None] * diff
    if ab.shape[1]:
        cab, lap = _weighted_laplacian(ab, c)
        y -= cab.transpose(0, 2, 1) @ np.linalg.solve(lap, ab @ y)
        norm = np.sqrt(np.einsum("tij,tij->ti", y, y))
        y *= np.divide(weights, norm, out=np.ones_like(weights),
                       where=norm > weights).min(axis=1)[:, None, None]
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
    zero-length edge needs ``eps`` > 0.  The weights w_e = |flow_e|^alpha
    come from ``ft``'s memo (:func:`_weights`).  This is the one-topology
    case of the batched evaluation behind :func:`bound_rows`.
    """
    n = ft.n_terminals
    a = _incidence(ft)[None]
    x = np.asarray(pl.terminals + pl.branch, dtype=float)
    return float(_dual_values(a[:, n:], np.array([_weights(ft, alpha)]),
                              a.transpose(0, 2, 1) @ x, eps)[0])


def _stack(ends: np.ndarray, p: np.ndarray, m: int
           ) -> tuple[np.ndarray, np.ndarray]:
    """Rows of topologies of one shape over the terminals ``p`` (n, d) as
    one stack: the branch rows of their incidence matrices (T, m, E) and the
    terminals' part of every x_u - x_v (T, E, d), from their edges ``ends``
    (T, E, 2) between the terminals 0..n-1 and the branch vertices
    n..n+m-1."""
    n, (size, e, _) = len(p), ends.shape
    # branch vertices sit at the origin: only terminals are fixed
    at = np.concatenate([p, np.zeros((m, p.shape[1]))])
    fixed = at[ends[..., 0]] - at[ends[..., 1]]
    # +1 at an edge's low end, -1 at its high end, branch rows only
    t, j, side = np.nonzero(ends >= n)
    ab = np.zeros((size, m, e))
    ab[t, ends[t, j, side] - n, j] = 1.0 - 2.0 * side
    return ab, fixed


# the bounding pass stacks at most this many rows at once
_BOUND_CHUNK = 4096


def bound_rows(ends: np.ndarray, sides: np.ndarray, side_weights: np.ndarray,
               b: Boundary, alpha: float, margin: Callable[[float], float],
               trace: Trace | None = None) -> tuple[np.ndarray, np.ndarray]:
    """:func:`dual_bound` of every row of topologies of one shape over
    ``b``'s n atoms, computed together, with the branch positions each was
    taken at.

    Row r has the edges ``ends[r]`` (E, 2), sorted, between the atoms
    0..n-1 and its m branch vertices n..n+m-1; m is read from the largest
    label, and is 0 only for a 2-atom boundary.  Its edge weights are
    ``side_weights[sides[r]]`` (the topology table's |flow|^alpha per atom
    mask, :class:`~gsteiner.topology.ForestRows`).  An edge of weight 0 (the
    table's zero-flow edges) takes no part; each branch vertex needs a path
    of positive weights to a terminal.

    The rows run in stacks (:func:`_stack`): ``_BOUND_STEPS`` smoothed
    Weiszfeld steps at once (Smith, Algorithmica 7, 1992), where with
    c_e = w_e / sqrt(l_e^2 + eps^2) at the current positions all branch
    positions move to the minimizer of sum_e c_e |x_u - x_v|^2, one
    stacked weighted-Laplacian solve.  The bound is taken at the last eps.
    Rows without branch vertices (m = 0) take no step, and each gets its
    exact energy.  Any placement gives a valid bound, so the number of
    steps a row takes affects only how tight its bound is.

    The stack is built and stepped ``_BOUND_CHUNK`` rows at a time, and a
    row's bound does not depend on the chunk it lands in; only the branch
    positions of every row are kept between the chunks.  On the 9-atom
    instance (ROADMAP item 5, 116881 rows) a chunk of 4096 rows takes about
    17 MB, and the solve peaks at about 100 MB RSS, against about 500 MB
    with every row in one stack, which is also slower; chunks of 256 to
    8192 rows solve it in the same time within the runs' noise.
    The benchmark's calls have at most a few hundred rows, so each runs as
    one chunk of its own size.

    The pass is screened with ``margin`` (the solver's
    v -> v + value_tol (1 + |v|)).  Every row first takes the schedule's
    first ``_SCREEN_STEPS`` steps, and gets its bound there, still at the
    last eps, and its energy sum_e w_e |x_u - x_v| at that placement, which
    is at least its minimum.  Let ``runner`` be the smallest energy of the
    rows whose screen bound exceeds margin(smallest energy).  None of them
    can realize a minimizer, so, overlapping edges aside, ``runner`` is at
    least the solver's second-best value, and a row whose screen bound
    exceeds margin(runner) already lies above the solver's final cut: it
    keeps that bound.  The cut is taken over every row before any row
    goes on.  The others, restacked, take the remaining steps from where
    they are, so their bounds are those of all ``_BOUND_STEPS`` steps in
    one go, bit for bit; a margin that never cuts (v -> inf) gives every
    row all of them when m > 0.  Every bound returned is a dual bound
    either way, so the screen changes only which bounds are tightened.  A
    chunk thus makes at most ``_BOUND_STEPS`` + 1 stacked solves for the
    steps and two for the dual projections.
    (Taking ``runner`` over all energies above margin(smallest energy)
    instead cuts lower, at a row whose unconverged energy lies just above a
    co-minimal one's: on two random 5- and 6-atom instances the solver then
    optimized 2 and 4 more topologies.)

    Why 4 steps: on the seed-0 solves of the benchmark's
    ``uniqueness-square``, ``solve-n6`` and ``solve-3d`` workloads, timed
    in-process (median of 6 interleaved runs on 2 cores), a screen of 4
    steps changed the solve time by -17%, -14% and -1%, one of 6 steps by
    -13%, -14% and -2%.  Taking the screen bound at the 4th step's own eps
    instead of the last one read -19%, -16% and -1%, no more than the runs'
    noise, so both kinds of bound are taken at the same eps.

    Returns the bounds (T,) and the branch positions (T, m, d), each row's
    in vertex order after the last step it took, so :func:`dual_bound`
    there, at the schedule's last eps, is its bound.  The solver starts the
    kernel of every row it optimizes at them.

    ``trace`` receives one record with ``"stage": "bound"`` per row, in
    row order: its bound and the number of steps it took (0 when m = 0,
    else ``_SCREEN_STEPS`` or ``_BOUND_STEPS``).  Raises ``ValueError`` when
    a bound is not finite.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    terminals = tuple(q for q, _ in b.atoms)
    p = np.asarray(terminals, dtype=float)
    schedule = EPS_INIT * _scale(terminals) * (_BOUND_EPS_LAST / EPS_INIT) ** (
        np.arange(_BOUND_STEPS) / (_BOUND_STEPS - 1))
    size, n = len(ends), len(p)
    # 0 only for a 2-atom boundary, whose rows take no step, so that no
    # solve is of an empty system
    m = int(ends.max(initial=n - 1)) + 1 - n

    def chunks(rows: np.ndarray):
        for lo in range(0, len(rows), _BOUND_CHUNK):
            chunk = rows[lo:lo + _BOUND_CHUNK]
            yield (chunk, side_weights[sides[chunk]],
                   *_stack(ends[chunk], p, m))

    x = np.empty((size, m, p.shape[1]))
    energies, bounds = np.empty(size), np.empty(size)
    for rows, w, ab, fixed in chunks(np.arange(size)):
        diff = fixed
        if m:
            x[rows], diff = _smoothed_steps(
                ab, w, fixed, _branch_positions(ab, np.ones_like(w), fixed),
                schedule[:_SCREEN_STEPS])
        energies[rows] = np.einsum(
            "ti,ti->t", w, np.sqrt(np.einsum("tij,tij->ti", diff, diff)))
        bounds[rows] = (_dual_values(ab, w, diff, schedule[-1]) if m
                        else energies[rows])
    steps = np.full(size, _SCREEN_STEPS if m else 0)
    if m:
        worse = bounds > margin(energies.min())
        cut = margin(energies.min(initial=math.inf, where=worse))
        keep = np.flatnonzero(bounds <= cut)
        for rows, w, ab, fixed in chunks(keep):
            x[rows], diff = _smoothed_steps(ab, w, fixed, x[rows],
                                            schedule[_SCREEN_STEPS:])
            bounds[rows] = _dual_values(ab, w, diff, schedule[-1])
        steps[keep] = _BOUND_STEPS
    if not np.isfinite(bounds).all():
        raise ValueError("a lower bound is not finite")
    if trace is not None:
        for bound, iteration in zip(bounds.tolist(), steps.tolist()):
            trace({"stage": "bound", "iteration": iteration, "bound": bound})
    return bounds, x


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
    n = ft.n_terminals
    close = sorted(
        (d, u, v) for v in range(n, n + ft.n_branch) for u in range(v)
        if (d := dist(pl.position(u), pl.position(v))) <= TOL_COLLAPSE)
    # the first pair merges, if any: each holds a branch vertex
    return contract(ft, [(u, v) for _, u, v in close]) if close else (
        ft, _identity(ft))


def realize_chain(ft: FlowedTopology, pl: Placement) -> PolyhedralChain:
    """Geometric chain for a flowed topology at given positions (raw form)."""
    segs = []
    for (u, v), f in zip(ft.edges, ft.edge_flows):
        pu, pv = pl.position(u), pl.position(v)
        if pu == pv:
            continue
        segs.append(Segment(pu, pv, f))
    return PolyhedralChain(tuple(segs), canonical=False)


# the early exit's certificate smooths zero-length edges by this share of the
# largest terminal distance: the dual gap grows with it, and at 1e-12
# optimal collapsed placements certify only to 1.5e-12-4.4e-12 (relative),
# above _STAR_GAP, while at 1e-14 they certify to 2.2e-14
_SETTLE_EPS = 1e-14


def _settles(ft: FlowedTopology, pl: Placement, alpha: float
             ) -> OptimizedTopology | None:
    """``ft`` at ``pl``, a placement with collapsed (zero-length) edges,
    when that is certified optimal, else None: the test of the kernel's
    early exit on each lift.

    Kuhn's test comes first, which costs less than the bound: at every
    branch vertex on a collapsed edge, with the others fixed, the
    subdifferential (collapsed edges as balls, :func:`_subgradient`) holds
    0; necessary, not sufficient.  Then :func:`dual_bound`, zero-length
    edges smoothed by ``_SETTLE_EPS``, must certify the value: the bound is
    the multiplier test of the collapsed edges, wherever ``pl`` came from.
    """
    where = pl.terminals + pl.branch
    for v in range(ft.n_terminals, len(where)):
        g, ball = _subgradient(where[v], [(wi, where[o]) for wi, o in
                                          _incident(ft, alpha, v)])
        if g > ball > 0.0:
            return None
    res = _optimized(ft, pl, alpha, 0, _SETTLE_EPS * _scale(pl.terminals))
    return res if res.converged else None


def optimize_topology(ft: FlowedTopology, b: Boundary, alpha: float,
                      trace: Trace | None = None, memo: dict | None = None,
                      start: Sequence[Sequence[float]] | None = None
                      ) -> OptimizedTopology:
    """Place or minimize, contract the vertices :func:`detect_collapse`
    finds coincident, and optimize the contraction the same way, until
    nothing collapses.

    The star pass (:func:`_place_stars`) decides a topology without a
    branch-branch edge first: the stars that Kuhn's test proves to sit on
    an atom are contracted onto it without minimizing, and otherwise Newton
    places every star, certified by the dual bound.  Only a topology the
    pass refuses is minimized by the kernel (:func:`minimize`), from
    ``start`` when given; the star pass and every contraction on the way
    ignore it.  A kernel run that ended at a certified collapse returns
    coincident vertices, and their contraction, which the early exit
    optimized by calling this function with the same ``memo`` and
    ``trace``, is a memo hit.

    This ends: every contraction removes a branch vertex, since a cluster
    never holds two terminals.  The result's ``lift`` composes the cluster
    maps of every contraction: vertex v of ``ft`` lifts to
    ``placement.position(lift[v])``; its iterations add those of every
    placement and minimization on the way, reused ones included; its
    ``lower`` bounds ``ft``'s minimum (module docstring).  A minimization
    without ``start`` starts afresh from the barycentric start, and an
    early exit depends on its contraction's optimum alone, so every result
    of a call without ``start`` is a function of its flowed topology alone,
    and ``memo`` keeps the finished result of every such call: a dict
    shared by calls with the same boundary and alpha (several topologies
    can contract onto one), keyed on edges only; on one boundary the edges
    fix the flows, since a forest carries a boundary by one conservative
    flow at most.  A repeat call returns the stored result.  A result from
    a ``start`` depends on the start as well, so it is not stored; the
    contractions on its way are.

    A forest without branch vertices stands at its terminals: it skips the
    star pass, :func:`minimize` and :func:`detect_collapse`.

    That memo holds results, which depend on the geometry.  What depends on
    the flowed topology alone, its contractions, edge weights
    (:func:`_weights`), incident lists (:func:`_incident`) and incidence
    matrix (:func:`_incidence`), ``ft`` keeps in its own memo
    (:func:`~gsteiner.topology.contract`).
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if memo is None:
        memo = {}
    key = ft.edges
    if key in memo:
        return memo[key]
    terminals = _terminals_for(ft, b)
    iters = 0
    if not ft.n_branch:
        # it stands at its terminals, and nothing can collapse
        res = _optimized(ft, Placement(terminals, ()), alpha, 0)
        contracted = ft
    elif isinstance(found := _place_stars(ft, terminals, alpha), list):
        # a star merged into its atom closes no cycle: a new topology.
        # Kuhn's test is exact, so the contraction's lower bound is ft's
        contracted, cluster = contract(ft, found)
        res = None
    else:
        res = (minimize(ft, b, alpha, trace, memo, start) if found is None
               else _done(trace, found))
        iters = res.iterations
        contracted, cluster = detect_collapse(ft, res.placement)
    if contracted is not ft:
        sub = optimize_topology(contracted, b, alpha, trace, memo)
        res = replace(sub, lower=sub.lower if res is None else res.lower,
                      iterations=iters + sub.iterations,
                      lift=tuple(sub.lift[c] for c in cluster))
    if start is None:
        memo[key] = res
    return res
