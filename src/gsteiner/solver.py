"""Global branched-transport solver for atomic boundaries.

Exhaustively enumerates the full topologies over balanced partitions of
the atoms, each with its unique conservative flows (every other forest is a
contraction of one of them, so no minimum is lost), as the rows of
:func:`topology.forest_rows`, and then runs a branch-and-bound over them:

1. every topology T gets a lower bound LB(T) <= E(T), the minimum of its
   location energy, by weak duality, on its row's full tree, whose
   zero-flow edges weigh nothing.  :func:`placement.bound_rows` bounds
   all rows of the solve in one batched pass, screened with the solver's
   margin: a topology whose bound after a few steps already lies above the
   margin of an upper estimate of ``second`` (below) keeps that looser
   bound, and only the others take every step.  A dual point built from
   *any* placement gives a valid bound, so the bounds' two tightnesses,
   like the pass's step counts and smoothing, decide only how tight the
   bounds are and which topologies get optimized, never whether the
   pruning below is exact;
2. topologies are visited in (LB, signature) order; the key breaks
   ties, here and between equal values, towards fewer branch vertices.
   The rows are sorted by bound, stably; the forests of the rows tied at
   the bound of a visited row are made :class:`FlowedTopology` objects
   (:meth:`topology.ForestRows.topology`), keyed by their signatures
   (:meth:`FlowedTopology.signature`) and visited in key order.  Each
   visited forest is minimized, its kernel starting at the branch
   positions the bounding pass took its row's bound at (``start`` of
   :func:`placement.optimize_topology`), its realized chain canonicalized,
   and its value v(T), the alpha-mass of that chain, recorded.  The start
   changes only where the kernel begins: the argument below reads nothing
   but bounds and recorded values.  The solver keeps ``second``, the
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

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .currents import (Boundary, PolyhedralChain, Point, alpha_mass, boundary,
                       branch_points, canonicalize, lerp, project,
                       support_difference_mass)
from .placement import Trace, bound_rows, optimize_topology, realize_chain
from .topology import FlowedTopology, forest_rows


class InternalConsistencyError(AssertionError):
    """A structural invariant failed inside the solver (reviewer-facing)."""


@dataclass(frozen=True)
class SolverConfig:
    """``trace`` receives the placement kernel's diagnostic records (see
    :func:`placement.minimize` and :func:`placement.bound_rows`)."""
    alpha: float
    value_tol: float = 1e-7
    distinct_tol: float = 1e-5
    max_terminals: int = 6
    trace: Trace | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        # a NaN compares false both ways, so the bounds are written to fail
        # on it
        if not (0 < self.value_tol < math.inf
                and 0 < self.distinct_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")


@dataclass(frozen=True)
class MinimizerRecord:
    """One minimizer: its canonical chain, its alpha-mass ``value`` and
    ``lower``, the dual bound of the topology it was optimized from, which
    overlapping edges merged by canonicalization can put ``value`` below."""
    chain: PolyhedralChain
    value: float
    lower: float
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

    rows = forest_rows(tuple(m for _, m in b.atoms))
    bounds, x = bound_rows(rows.ends, rows.sides,
                           rows.side_weights(cfg.alpha), b, cfg.alpha,
                           trace=cfg.trace, margin=margin)
    order = np.argsort(bounds, kind="stable")
    bounds = bounds[order]

    candidates: list[tuple[float, tuple, MinimizerRecord]] = []
    best = second = math.inf
    memo: dict = {}
    ties: list[tuple[tuple, int, FlowedTopology]] = []
    visited = 0
    # ``second`` changes only when a topology is optimized and the rows are
    # in bound order, so the first row above the cut retires every later one
    while visited < len(order) and not bounds[visited] > margin(second):
        if not ties:
            # the forests of the rows tied at this bound, keyed, last first
            end = np.searchsorted(bounds, bounds[visited], side="right")
            tied = ((r, rows.topology(r)) for r in order[visited:end].tolist())
            ties = sorted(((ft.signature(), r, ft) for r, ft in tied),
                          reverse=True)
        key, r, ft = ties.pop()
        visited += 1
        # the kernel starts where the row's bound was taken
        opt = optimize_topology(ft, b, cfg.alpha, cfg.trace, memo,
                                start=x[r, rows.live(r)])
        chain = canonicalize(realize_chain(opt.flowed, opt.placement))
        value = alpha_mass(chain, cfg.alpha)
        if boundary(chain) != b:
            raise InternalConsistencyError(
                "realized chain boundary differs from the input boundary")
        record = MinimizerRecord(chain, value, opt.lower, opt.flowed)
        candidates.append((value, key, record))
        best = min(best, value)
        threshold = margin(best)
        second = min((v for v, _, _ in candidates if v > threshold),
                     default=math.inf)

    candidates.sort(key=lambda c: (c[0], c[1]))
    kept: list[MinimizerRecord] = []
    for value, _, record in candidates:
        if value > threshold:
            break
        if any(support_difference_mass(record.chain, k.chain, cfg.distinct_tol)
               <= cfg.distinct_tol for k in kept):
            continue
        kept.append(record)

    # the table holds only flowing topologies with distinct signatures;
    # the two zero counters keep the report's stats keys stable
    stats = {"enumerated": len(rows), "infeasible": 0, "duplicates": 0,
             "optimized": visited, "pruned": len(order) - visited}
    return SolveReport(b, cfg.alpha, best, tuple(kept), second - best,
                       cfg.distinct_tol, stats)


# ---------------------------------------------------------------------------
# distinguishing (magic) points
# ---------------------------------------------------------------------------

def magic_points(report: SolveReport, target_index: int = 0) -> tuple[Point, ...]:
    """Interior points of the target minimizer that no other minimizer hits.

    For each other minimizer, returns the midpoint of the longest maximal
    sub-segment of supp(target) \\ supp(other), after cutting out a
    ``2 distinct_tol`` margin around each boundary atom and each branch
    point of every minimizer that lies on the target's support, with the
    report's ``distinct_tol`` as the overlap tolerance.  Crossings of two
    minimizers that are branch points of neither are not cut out.  Raises
    :class:`InternalConsistencyError` when two reported minimizers share
    their support (they would then be the same current), and
    ``ValueError`` when ``target_index`` is not an index in
    ``range(len(report.minimizers))``: a negative one would compare the
    target with itself.
    """
    if not report.minimizers:
        raise ValueError("report has no minimizers")
    if not 0 <= target_index < len(report.minimizers):
        raise ValueError(f"target_index {target_index} is out of range for "
                         f"{len(report.minimizers)} minimizers")
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
    pad = tol / seg.length
    covered: list[tuple[float, float]] = []
    for o in other.segments:
        (ta, da), (tb, db) = (project(p, seg.start, seg.end)
                              for p in (o.start, o.end))
        if da > tol or db > tol:
            continue
        lo, hi = max(0.0, min(ta, tb) - pad), min(1.0, max(ta, tb) + pad)
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


def _split_at_exceptional(seg, lo: float, hi: float, exceptional: list[Point],
                          tol: float) -> list[tuple[float, float]]:
    """Split (lo, hi) at parameters of exceptional points on the segment."""
    on = [t for t, off in (project(p, seg.start, seg.end) for p in exceptional)
          if off <= tol]
    pad = 2.0 * tol / seg.length
    cuts = [lo, hi]
    for t in on:
        if lo + pad < t < hi - pad:
            cuts.extend([t - pad, t + pad])
    cuts.sort()
    return [(a, b) for a, b in zip(cuts, cuts[1:])
            if b > a and not any(a < t < b for t in on)]


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
