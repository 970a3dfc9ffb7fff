"""Global branched-transport solver for atomic boundaries.

Exhaustively enumerates the full topologies over balanced partitions of
the atoms (every other forest is a contraction of one of them, so no
minimum is lost), assigns the unique conservative flows, drops duplicates
by signature, and then runs a branch-and-bound over the survivors:

1. every topology T gets a lower bound LB(T) <= E(T), the minimum of its
   location energy, by weak duality.  :func:`placement.lower_bounds`
   bounds all topologies of the solve in one batched pass.  A dual point
   built from *any* placement gives a valid bound, so the pass's fixed step
   count and smoothing decide only how tight the bounds are, never whether
   the pruning below is exact;
2. topologies are visited in (LB, signature) order.  Each visited one is
   minimized, its realized chain canonicalized, and its value v(T), the
   alpha-mass of that chain, recorded.  The solver keeps ``second``, the
   smallest recorded value above the current threshold
   best + value_tol (1 + |best|);
3. the first topology with LB(T) > second + value_tol (1 + |second|) is
   retired unoptimized, and with it every later one (their bounds are no
   smaller).  ``stats["pruned"]`` counts them; ``stats["optimized"]``
   counts full optimizations.

Why retiring keeps the minimizer set and the gap exact.  ``second`` only
decreases as topologies finish: the best value can only drop, and with it
the threshold, so the set of recorded values above the threshold only
grows.  Hence a retired T has E(T) >= LB(T) > second >= the final second.
When the realization of T has no overlapping edges, v(T) = E(T), so T would
have been neither a minimizer (second lies above the threshold) nor the
best strictly worse value: a topology whose optimum realizes a minimizer
has LB <= v(T) <= threshold < second and is never retired.  Overlapping
edges merge at canonicalization, and the concave cost makes the merged
chain cheaper, so v(T) can lie below E(T), and even below LB(T).  When
such a chain has no loop (no minimizer has one), it is also a realization
of a contraction of another full topology T', so LB(T') <= E(T') <= v(T):
T' is visited before T and is not retired while v(T) matters.  On the
dented square (alpha 0.6, radius 0.1) two topologies of energy 2.047445
canonicalize onto the 1.988884 minimizer, which a 2-branch topology of
bound 1.988882 realizes directly.  One of them has no branch point, and
its bound equals ``second`` exactly (the value of another 0-branch
topology), which is why the test is strict and carries the ``value_tol``
margin; the margin also absorbs the rounding of the bound.  The
differential tests compare the pruned solve with the unpruned one on
random and degenerate instances.

The gap is the distance from the best value to the best strictly worse
full-topology optimum; contractions of the best network are not
competitors.
Two co-minimal chains count as distinct minimizers when their difference,
canonicalized with a coarse overlap tolerance, still carries mass above
``distinct_tol``: distinct minimizers must differ in support, so the
symmetric-difference mass is the right discriminator.

The enumeration is the point, not scalability: a guard refuses more than
``max_terminals`` atoms (default 6) unless raised explicitly.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .currents import (Boundary, PolyhedralChain, Point, alpha_mass, boundary,
                       branch_points, canonicalize, dist, lerp,
                       support_difference_mass, vdot, vsub)
from .placement import (Placement, Trace, _sharing_minimizations, lower_bounds,
                        optimize_topology, realize_chain)
from .topology import (FlowedTopology, InfeasibleTopologyError, _all_forests,
                       assign_flows, enumerate_topologies)


class InternalConsistencyError(AssertionError):
    """A structural invariant failed inside the solver (reviewer-facing)."""


@dataclass(frozen=True)
class SolverConfig:
    """``trace`` receives the placement kernel's diagnostic records (see
    :func:`placement.minimize` and :func:`placement.lower_bounds`)."""
    alpha: float
    value_tol: float = 1e-7
    distinct_tol: float = 1e-5
    max_terminals: int = 6
    trace: Trace | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if self.value_tol <= 0 or self.distinct_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class MinimizerRecord:
    chain: PolyhedralChain
    value: float
    residual: float
    placement: Placement
    flowed: FlowedTopology


@dataclass(frozen=True)
class SolveReport:
    boundary: Boundary
    alpha: float
    best_value: float
    minimizers: tuple[MinimizerRecord, ...]
    gap: float
    distinct_tol: float
    stats: dict[str, int]


def solve(b: Boundary, cfg: SolverConfig) -> SolveReport:
    """All near-optimal transport paths for boundary ``b``.

    Raises ``ValueError`` on an unbalanced boundary or when the terminal
    guard is exceeded.
    """
    n = len(b.atoms)
    if n < 2:
        raise ValueError("boundary must contain at least 2 atoms")
    if b.total() != 0:
        raise ValueError("boundary has nonzero total mass; no transport path exists")
    if n > cfg.max_terminals:
        raise ValueError(
            f"{n} atoms exceeds the max_terminals guard ({cfg.max_terminals}); "
            "raise it explicitly to run anyway")

    def margin(v: float) -> float:
        return v + cfg.value_tol * (1.0 + abs(v))

    stats = {"enumerated": 0, "infeasible": 0, "duplicates": 0,
             "optimized": 0, "pruned": 0}
    seen: set = set()
    keys: list[str] = []
    fts: list[FlowedTopology] = []
    for topo in enumerate_topologies(b):
        stats["enumerated"] += 1
        try:
            ft = assign_flows(topo, b)
        except InfeasibleTopologyError:
            stats["infeasible"] += 1
            continue
        sig = ft.signature()
        if sig in seen:
            stats["duplicates"] += 1
            continue
        seen.add(sig)
        keys.append(repr(sig))
        fts.append(ft)
    queue = sorted(zip(lower_bounds(fts, b, cfg.alpha, cfg.trace), keys, fts),
                   key=lambda q: (q[0], q[1]))

    candidates: list[tuple[float, str, MinimizerRecord]] = []
    second = math.inf
    with _sharing_minimizations():
        for i, (bound, key, ft) in enumerate(queue):
            if bound > margin(second):
                # the queue is in bound order and ``second`` changes only when
                # a topology is optimized, so every later topology goes too
                stats["pruned"] = len(queue) - i
                break
            opt = optimize_topology(ft, b, cfg.alpha, cfg.trace)
            stats["optimized"] += 1
            chain = canonicalize(realize_chain(opt.flowed, opt.placement))
            value = alpha_mass(chain, cfg.alpha)
            if boundary(chain) != b:
                raise InternalConsistencyError(
                    "realized chain boundary differs from the input boundary")
            record = MinimizerRecord(chain, value, opt.residual, opt.placement,
                                     opt.flowed)
            candidates.append((value, key, record))
            threshold = margin(min(v for v, _, _ in candidates))
            second = min((v for v, _, _ in candidates if v > threshold),
                         default=math.inf)

    candidates.sort(key=lambda c: (c[0], c[1]))
    best = candidates[0][0]
    threshold = margin(best)

    kept: list[MinimizerRecord] = []
    for value, _, record in candidates:
        if value > threshold:
            break
        if any(support_difference_mass(record.chain, k.chain, cfg.distinct_tol)
               <= cfg.distinct_tol for k in kept):
            continue
        kept.append(record)

    above = [v for v, _, _ in candidates if v > threshold]
    gap = (min(above) - best) if above else math.inf
    return SolveReport(b, cfg.alpha, best, tuple(kept), gap,
                       cfg.distinct_tol, stats)


def is_in_A_C(b: Boundary, c: float, cfg: SolverConfig) -> bool:
    """Whether mass(b) <= C and the optimal cost is <= C."""
    if float(b.mass()) > c:
        return False
    report = solve(b, cfg)
    return report.best_value <= c + 1e-12 * (1.0 + abs(c))


# ---------------------------------------------------------------------------
# distinguishing (magic) points
# ---------------------------------------------------------------------------

def magic_points(report: SolveReport, target_index: int = 0) -> tuple[Point, ...]:
    """Interior points of the target minimizer that no other minimizer hits.

    For each other minimizer, returns the midpoint of the longest maximal
    sub-segment of supp(target) \\ supp(other), nudged away from branch
    points, boundary atoms and transversal crossings of all minimizers, with
    the report's ``distinct_tol`` as the overlap tolerance.  Raises
    :class:`InternalConsistencyError` when two reported minimizers share
    their support (they would then be the same current).
    """
    if not report.minimizers:
        raise ValueError("report has no minimizers")
    tol = report.distinct_tol
    target = report.minimizers[target_index].chain
    others = [m.chain for i, m in enumerate(report.minimizers)
              if i != target_index]
    if not others:
        return ()

    exceptional: list[Point] = [p for p, _ in report.boundary.atoms]
    for rec in report.minimizers:
        exceptional.extend(branch_points(rec.chain, report.boundary))

    points: list[Point] = []
    for other in others:
        best_piece = None
        for seg in target.segments:
            for lo, hi in _uncovered_intervals(seg, other, tol):
                for plo, phi in _split_at_exceptional(seg, lo, hi, exceptional, tol):
                    length = (phi - plo) * seg.length
                    piece = (length, seg, plo, phi)
                    if best_piece is None or length > best_piece[0]:
                        best_piece = piece
        if best_piece is None or best_piece[0] <= tol:
            raise InternalConsistencyError(
                "distinct minimizers with coinciding supports")
        _, seg, plo, phi = best_piece
        points.append(lerp(seg.start, seg.end, 0.5 * (plo + phi)))

    out: list[Point] = []
    for p in points:
        if p not in out:
            out.append(p)
    return tuple(out)


def _uncovered_intervals(seg, other: PolyhedralChain, tol: float
                         ) -> list[tuple[float, float]]:
    """Parameter intervals of ``seg`` not covered by collinear parts of ``other``."""
    d = vsub(seg.end, seg.start)
    l2 = vdot(d, d)
    length = math.sqrt(l2)
    covered: list[tuple[float, float]] = []
    for o in other.segments:
        if _point_line_dist(o.start, seg) > tol or _point_line_dist(o.end, seg) > tol:
            continue
        ta = vdot(vsub(o.start, seg.start), d) / l2
        tb = vdot(vsub(o.end, seg.start), d) / l2
        lo, hi = min(ta, tb), max(ta, tb)
        pad = tol / length
        lo, hi = max(0.0, lo - pad), min(1.0, hi + pad)
        if hi > lo:
            covered.append((lo, hi))
    covered.sort()
    out = []
    cursor = 0.0
    for lo, hi in covered:
        if lo > cursor:
            out.append((cursor, lo))
        cursor = max(cursor, hi)
    if cursor < 1.0:
        out.append((cursor, 1.0))
    return [(lo, hi) for lo, hi in out if hi > lo]


def _point_line_dist(p: Point, seg) -> float:
    d = vsub(seg.end, seg.start)
    v = vsub(p, seg.start)
    t = vdot(v, d) / vdot(d, d)
    q = lerp(seg.start, seg.end, t)
    return dist(p, q)


def _split_at_exceptional(seg, lo: float, hi: float, exceptional: list[Point],
                          tol: float) -> list[tuple[float, float]]:
    """Split (lo, hi) at parameters of exceptional points on the segment."""
    d = vsub(seg.end, seg.start)
    l2 = vdot(d, d)
    length = math.sqrt(l2)
    cuts = [lo, hi]
    pad = 2.0 * tol / length
    for p in exceptional:
        if _point_line_dist(p, seg) > tol:
            continue
        t = vdot(vsub(p, seg.start), d) / l2
        if lo + pad < t < hi - pad:
            cuts.extend([t - pad, t + pad])
    cuts.sort()
    return [(a, b) for a, b in zip(cuts, cuts[1:]) if b > a and
            not any(a < vdot(vsub(p, seg.start), d) / l2 < b
                    for p in exceptional if _point_line_dist(p, seg) <= tol)]


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------

def quantize_chain(chain: PolyhedralChain, eta: Fraction) -> PolyhedralChain:
    """Floor every multiplicity to the eta-lattice (orientation-positive).

    Each segment is oriented so its multiplicity is positive, then the
    multiplicity is replaced by eta * floor(mult / eta); segments flooring
    to zero are dropped.  Exact rational arithmetic throughout.
    """
    eta = Fraction(eta)
    if eta <= 0:
        raise ValueError("eta must be positive")
    segs = []
    for s in chain.segments:
        if s.mult < 0:
            s = s.reversed()
        floored = eta * (s.mult.numerator * eta.denominator
                         // (s.mult.denominator * eta.numerator))
        if floored != 0:
            segs.append(type(s)(s.start, s.end, floored))
    return PolyhedralChain(tuple(segs), canonical=False)


def quantize_boundary(b: Boundary, eta: Fraction, cfg: SolverConfig) -> Boundary:
    """Boundary of the eta-floored first optimal chain for ``b``."""
    report = solve(b, cfg)
    return boundary(quantize_chain(report.minimizers[0].chain, Fraction(eta)))


# ---------------------------------------------------------------------------
# independent grid oracle
# ---------------------------------------------------------------------------

# finest step of the oracle's pattern search
_GRID_STEP = 1e-3


def brute_force_value(b: Boundary, alpha: float) -> float:
    """Grid-search oracle for the optimal cost, independent of the solver.

    For every flowed forest of the exhaustive generator (not the solver's
    full-topology candidate set) the location energy is minimized over grid
    positions inside the bounding box of the atoms: an exhaustive coarse
    grid followed by a halving pattern search down to ``_GRID_STEP`` (the
    energy is convex, so grid descent reaches the global basin).  Collapsed
    optima are covered exactly by the degenerate topologies themselves.
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
    for topo in _all_forests(b):
        try:
            ft = assign_flows(topo, b)
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
    t = ft.topology
    n, m = t.n_terminals, t.n_branch
    dim = len(terminals[0])
    weights = [abs(float(f)) ** alpha for f in ft.edge_flows]
    if m == 0:
        return sum(w * dist(terminals[u], terminals[v])
                   for w, (u, v) in zip(weights, t.edges))

    nv = m * dim

    def value(x: tuple[float, ...]) -> float:
        def pos(v: int):
            if v < n:
                return terminals[v]
            i = (v - n) * dim
            return x[i:i + dim]
        total = 0.0
        for w, (u, v) in zip(weights, t.edges):
            pu, pv = pos(u), pos(v)
            total += w * math.sqrt(sum((a - c) ** 2 for a, c in zip(pu, pv)))
        return total

    # exhaustive coarse grid (9 points per coordinate)
    axes = []
    for _ in range(m):
        for i in range(dim):
            axes.append(np.linspace(los[i], his[i], 9))
    best_x = None
    best_v = math.inf
    for x in itertools.product(*axes):
        v = value(x)
        if v < best_v:
            best_v, best_x = v, x

    # halving pattern search with the full diagonal stencil
    h = max(max(hi - lo for lo, hi in zip(los, his)), _GRID_STEP) / 8.0
    x = list(best_x)
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
