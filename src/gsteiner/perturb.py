"""Perturbation experiments: dented boundaries and the four-point local lab.

Given an optimal chain T and interior points p_1..p_h of its support, the
dented competitor is

    T' = T - (1/k) * sum_i  T restricted to B_r(p_i),

whose boundary b' = dT' acquires a pair of small atoms (mass theta/k) at
each ball.  Three bounds are checked on every construction: the mass of b'
grows by at most h/k relative to b, the flat distance between b' and b is
at most h*r*mass(b)/k, and the cost of T' is strictly below the cost of T.

The four-point lab solves the local problem with boundary
theta*(delta_D - delta_A) + (theta/k)*(delta_B - delta_C) by exhausting all
27 candidate supports (19 without branch vertices, 5 with one, 3 with two),
forcing flows by conservation and optimizing branch positions.  For k above
the quantization threshold k0(alpha) and near-collinear geometry the winner
is always one of the two canonical networks W (dented direct path) and Z
(direct path plus a small return segment).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .currents import (Boundary, PolyhedralChain, Point, Segment, alpha_mass,
                       boundary, branch_points, canonicalize, dist,
                       make_boundary, project, restrict_ball, scale_chain,
                       support_difference_mass)
from .flat import flat_distance
from .placement import optimize_topology, realize_chain
from .solver import SolveReport, SolverConfig, magic_points, solve
from .topology import FlowedTopology, _forests


# ---------------------------------------------------------------------------
# dented boundaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationSpec:
    """A chain to dent, the dent centers, the depth 1/k and the ball radius."""
    chain: PolyhedralChain
    points: tuple[Point, ...]
    k: int
    radius: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if not 0.0 < self.radius < math.inf:
            raise ValueError("radius must be positive and finite")
        if not self.chain.canonical:
            raise ValueError("chain must be canonical")
        validate_perturbation_points(self.chain, self.points, self.radius)


def validate_perturbation_points(chain: PolyhedralChain,
                                 points: Sequence[Point],
                                 radius: float) -> None:
    """Admissibility of dent centers: each lies in the relative interior of a
    single segment, and the closed balls are pairwise disjoint and miss the
    boundary support and the branch points."""
    b = boundary(chain)
    branch = branch_points(chain, b)
    for i, p in enumerate(points):
        host = 0
        for s in chain.segments:
            t = _param_on_segment(p, s)
            if t is None:
                continue
            lo = radius / s.length
            if lo < t < 1.0 - lo:
                host += 1
            else:
                raise ValueError(
                    f"inadmissible point {p}: ball exits its host segment")
        if host == 0:
            raise ValueError(f"inadmissible point {p}: not on the chain support")
        if host > 1:
            raise ValueError(
                f"inadmissible point {p}: inside {host} segments, not one")
        for q, _ in b.atoms:
            if dist(p, q) <= radius:
                raise ValueError(f"inadmissible point {p}: ball meets supp(b)")
        for q in branch:
            if dist(p, q) <= radius:
                raise ValueError(f"inadmissible point {p}: ball meets a branch point")
        for j in range(i):
            if dist(p, points[j]) <= 2.0 * radius:
                raise ValueError("inadmissible points: balls overlap")


# how far off its segment a point may lie: in the segment parameter, and
# in distance relative to 1 + the segment's length
_ON_SEGMENT_TOL = 1e-9


def _param_on_segment(p: Point, s: Segment) -> float | None:
    t, off = project(p, s.start, s.end)
    if t < -_ON_SEGMENT_TOL or t > 1.0 + _ON_SEGMENT_TOL:
        return None
    if off > _ON_SEGMENT_TOL * (1.0 + s.length):
        return None
    return t


def perturb(spec: PerturbationSpec) -> tuple[PolyhedralChain, Boundary]:
    """Dented chain and its boundary, with exact rational multiplicities."""
    total = spec.chain
    for p in spec.points:
        piece = restrict_ball(spec.chain, p, spec.radius)
        total = total + scale_chain(piece, Fraction(-1, spec.k))
    t_pert = canonicalize(total)
    return t_pert, boundary(t_pert)


@dataclass(frozen=True)
class PerturbationReport:
    mass_bound_ok: bool
    mass_margin: Fraction
    flat_bound_ok: bool
    flat_margin: float
    energy_decreased: bool
    energy_margin: float

    def all_ok(self) -> bool:
        return self.mass_bound_ok and self.flat_bound_ok and self.energy_decreased


def verify_perturbation_bounds(spec: PerturbationSpec,
                               t_pert: PolyhedralChain,
                               b_pert: Boundary,
                               alpha: float) -> PerturbationReport:
    """The three dent bounds, returned with their margins.

    mass(b') <= mass(b) * (1 + h/k)             (exact rationals)
    flat(b', b) <= h * r * mass(b) / k
    cost(T') < cost(T), strictly when the dent removes mass
    """
    b = boundary(spec.chain)
    h = len(spec.points)
    mass_bound = b.mass() * (1 + Fraction(h, spec.k))
    mass_margin = mass_bound - b_pert.mass()

    flat_bound = h * spec.radius * float(b.mass()) / spec.k
    flat_value = flat_distance(b_pert, b)
    flat_margin = flat_bound - flat_value

    e_before = alpha_mass(spec.chain, alpha)
    e_after = alpha_mass(t_pert, alpha)
    energy_margin = e_before - e_after
    # every point lies on the chain (PerturbationSpec checks it)
    dented = bool(spec.points)

    return PerturbationReport(
        mass_bound_ok=mass_margin >= 0,
        mass_margin=mass_margin,
        flat_bound_ok=flat_margin >= -1e-12 * (1.0 + flat_bound),
        flat_margin=flat_margin,
        energy_decreased=(energy_margin > 0) if dented else (energy_margin >= 0),
        energy_margin=energy_margin,
    )


# ---------------------------------------------------------------------------
# the four-point local problem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalFourPointInstance:
    """Configuration theta*(delta_D - delta_A + (1/k)(delta_B - delta_C))."""
    a: Point
    b: Point
    c: Point
    d: Point
    theta: Fraction
    k: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if Fraction(self.theta) <= 0:
            raise ValueError("theta must be positive")
        object.__setattr__(self, "theta", Fraction(self.theta))
        if len({self.a, self.b, self.c, self.d}) != 4:
            raise ValueError("the four points must be distinct")

    @property
    def delta(self) -> Fraction:
        return self.theta / self.k

    def boundary(self) -> Boundary:
        return make_boundary([
            (self.a, -self.theta),
            (self.d, self.theta),
            (self.b, self.delta),
            (self.c, -self.delta),
        ])


def build_wz(inst: LocalFourPointInstance) -> tuple[PolyhedralChain, PolyhedralChain]:
    """The two canonical competitors.

    W carries theta on A->B and C->D with theta*(k-1)/k on the middle B->C;
    Z carries theta straight A->D plus theta/k on the return C->B.  Both are
    returned raw (they may self-overlap in collinear positions).
    """
    th = inst.theta
    w = PolyhedralChain((
        Segment(inst.a, inst.b, th),
        Segment(inst.c, inst.d, th),
        Segment(inst.b, inst.c, th * (inst.k - 1) / inst.k),
    ))
    z = PolyhedralChain((
        Segment(inst.a, inst.d, th),
        Segment(inst.c, inst.b, th / inst.k),
    ))
    return w, z


# support patterns of the zero-branch cases, as sorted role-pair tuples
_CASE1 = {
    ("AB", "AC", "AD"): "1a", ("AB", "AC", "BD"): "1b",
    ("AB", "AC", "CD"): "1c", ("AB", "AD", "BC"): "1d",
    ("AB", "AD", "CD"): "1e", ("AB", "BC", "BD"): "1f",
    ("AB", "BC", "CD"): "1g", ("AB", "BD", "CD"): "1h",
    ("AB", "CD"): "1i", ("AC", "AD", "BC"): "1j",
    ("AC", "AD", "BD"): "1k", ("AC", "BC", "BD"): "1l",
    ("AC", "BC", "CD"): "1m", ("AC", "BD"): "1n",
    ("AC", "BD", "CD"): "1o", ("AD", "BC"): "1p",
    ("AD", "BC", "BD"): "1q", ("AD", "BC", "CD"): "1r",
    ("AD", "BD", "CD"): "1s",
}
_CASE2 = {
    frozenset("ABC"): "2a", frozenset("ABD"): "2b",
    frozenset("ACD"): "2c", frozenset("BCD"): "2d",
    frozenset("ABCD"): "2e",
}
_CASE3 = {
    frozenset({frozenset("AB"), frozenset("CD")}): "3a",
    frozenset({frozenset("AC"), frozenset("BD")}): "3b",
    frozenset({frozenset("AD"), frozenset("BC")}): "3c",
}
_CASES = frozenset((*_CASE1.values(), *_CASE2.values(), *_CASE3.values()))


@dataclass(frozen=True)
class LocalClassification:
    label: str                      # 'W', 'Z', 'CASE_<case>' or 'OTHER'
    winner_case: str                # which support pattern won
    chain: PolyhedralChain
    value: float
    values: dict[str, float]        # best value per feasible case
    infeasible: tuple[str, ...]     # cases admitting no all-active current


def _case_label(ft: FlowedTopology, roles: tuple[str, ...]) -> str:
    n = ft.n_terminals
    if ft.n_branch == 0:
        pairs = tuple(sorted(
            "".join(sorted((roles[u], roles[v]))) for u, v in ft.edges))
        return _CASE1[pairs]
    if ft.n_branch == 1:
        nbrs = frozenset(roles[u if v >= n else v]
                         for u, v in ft.edges if u >= n or v >= n)
        return _CASE2[nbrs]
    groups = []
    for bv in range(n, n + 2):
        groups.append(frozenset(
            roles[u if v == bv else v]
            for u, v in ft.edges
            if (u == bv or v == bv) and min(u, v) < n))
    return _CASE3[frozenset(groups)]


@lru_cache(maxsize=64)
def _local4_candidates(masses: tuple[Fraction, ...], roles: tuple[str, ...]
                       ) -> tuple[tuple[str, FlowedTopology], ...]:
    """Every forest whose forced flows carry the boundary with every
    segment active, as (case, flowed topology).

    These are :func:`_forests`, the contractions of the full topologies
    that merge no two atoms: a forest with an unbalanced component or a
    zero forced flow is not a current with that support.  Forests and flows
    depend on the atom masses alone, in atom order, and the case on the
    roles, so the list is built once per (masses, roles), and every call
    with those masses reads the contractions and edge weights that earlier
    calls left in its topologies' memos (:func:`~gsteiner.topology.contract`).
    """
    return tuple((_case_label(ft, roles), ft) for ft in _forests(masses))


# overlap tolerance of the W/Z support match, relative to 1 + theta
_MATCH_TOL = 1e-5


def local4_solve(inst: LocalFourPointInstance, alpha: float) -> LocalClassification:
    """Evaluate every admissible local support and classify the winner.

    Flows are forced by the boundary; cases whose support cannot carry it
    with every segment active (zero forced multiplicity or unbalanced
    component) are marked infeasible.  Branch positions of the one- and
    two-branch cases are optimized.  The winner's label is W or Z when its
    canonical support matches the corresponding canonical competitor.
    """
    b = inst.boundary()
    where = {inst.a: "A", inst.b: "B", inst.c: "C", inst.d: "D"}
    roles = tuple(where[p] for p, _ in b.atoms)

    values: dict[str, float] = {}
    evaluated: list[tuple[float, str, PolyhedralChain]] = []
    memo: dict = {}
    # several candidates contract onto one result, and ``memo`` fixes the
    # placement of a result's edges (which fix its flows on this boundary),
    # so its chain is evaluated once
    results: dict = {}
    for case, ft in _local4_candidates(tuple(m for _, m in b.atoms), roles):
        opt = optimize_topology(ft, b, alpha, memo=memo)
        key = opt.flowed.edges
        if key not in results:
            chain = canonicalize(realize_chain(opt.flowed, opt.placement))
            results[key] = (alpha_mass(chain, alpha), chain)
        value, chain = results[key]
        if case not in values or value < values[case]:
            values[case] = value
        evaluated.append((value, case, chain))

    infeasible = _CASES - values.keys()
    evaluated.sort(key=lambda e: (e[0], e[1]))
    best_value, winner_case, winner_chain = evaluated[0]

    w, z = build_wz(inst)
    scale_tol = _MATCH_TOL * (1.0 + float(inst.theta))
    if support_difference_mass(winner_chain, canonicalize(z), _MATCH_TOL) <= scale_tol:
        label = "Z"
    elif support_difference_mass(winner_chain, canonicalize(w), _MATCH_TOL) <= scale_tol:
        label = "W"
    else:
        label = f"CASE_{winner_case}"
    return LocalClassification(label, winner_case, winner_chain, best_value,
                               values, tuple(sorted(infeasible)))


# ---------------------------------------------------------------------------
# quantization threshold k0 and near-collinearity radius rho
# ---------------------------------------------------------------------------

def _scalar_margins(alpha: float, k: int) -> tuple[float, float]:
    """The margins of the two scalar exclusion inequalities,
    (1 - 1/k)^alpha + k^-alpha / 2 - 1   and   ... + k^-alpha / 4 - 1."""
    base = math.expm1(alpha * math.log1p(-1.0 / k))  # (1-1/k)^alpha - 1
    ka = math.exp(-alpha * math.log(k))
    return base + ka / 2.0, base + ka / 4.0


def estimate_k0(alpha: float) -> int:
    """Smallest k >= 2 satisfying the scalar exclusion inequalities.

    The predicate is false below a single crossing point and true above it,
    so the search doubles k until the predicate holds and then bisects.
    Raises ``ValueError`` when alpha is outside (0, 1), or so close to 1
    that k0 exceeds 2^62 (from about alpha 0.97 on).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")

    def holds(k: int) -> bool:
        return all(margin > 0.0 for margin in _scalar_margins(alpha, k))

    if holds(2):
        return 2
    lo, hi = 2, 4
    while not holds(hi):
        lo, hi = hi, hi * 2
        if hi > 2 ** 62:
            raise ValueError(f"k0 exceeds 2^62 at alpha {alpha}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _rho_samples(rho: float) -> list[tuple[float, float, float, float]]:
    """Deterministic off-axis displacement patterns (yA, yB, yC, yD)."""
    return [
        (0.0, rho, -rho, 0.0), (0.0, -rho, rho, 0.0),
        (0.0, rho, rho, 0.0), (0.0, -rho, -rho, 0.0),
        (rho, rho, -rho, -rho), (-rho, rho / 2, -rho / 3, rho),
        (0.0, rho, -rho / 2, -rho), (rho / 2, -rho, rho, -rho / 2),
    ]


def four_point_instance(k: int, displacements: tuple[float, float, float, float],
                        theta: Fraction = Fraction(1)) -> LocalFourPointInstance:
    """Canonical near-collinear geometry: A=(-4,yA), B=(-1,yB), C=(1,yC), D=(4,yD)."""
    ya, yb, yc, yd = displacements
    return LocalFourPointInstance(
        a=(-4.0, ya), b=(-1.0, yb), c=(1.0, yc), d=(4.0, yd),
        theta=theta, k=k)


# the largest displacement estimate_rho tries, and its bisection steps
_RHO_MAX = 0.5
_RHO_STEPS = 10


def estimate_rho(alpha: float, k: int) -> float:
    """Largest sampled off-axis displacement, at most ``_RHO_MAX``, for which
    every canonical four-point instance still classifies as W or Z, found by
    ``_RHO_STEPS`` bisection steps.

    Each step tries first the sample that failed last: near the threshold
    one sample tends to fail step after step, and trying it first spares
    solving the others.  The order cannot change rho, since a step passes
    exactly when every sample classifies as W or Z.
    """
    first = 0   # index of the sample that failed last

    def ok(rho: float) -> bool:
        nonlocal first
        samples = list(enumerate(_rho_samples(rho)))
        samples.insert(0, samples.pop(first))
        for i, disp in samples:
            cls = local4_solve(four_point_instance(k, disp), alpha)
            if cls.label not in ("W", "Z"):
                first = i
                return False
        return True

    lo, hi = 0.0, _RHO_MAX
    if ok(_RHO_MAX):
        return _RHO_MAX
    for _ in range(_RHO_STEPS):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# end-to-end uniqueness experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadiusOutcome:
    radius: float
    n_minimizers: int
    unique: bool
    matches_dented_target: bool
    gap: float
    error: str | None = None


@dataclass(frozen=True)
class UniquenessExperiment:
    base: SolveReport
    points: tuple[Point, ...]
    k: int
    k0: int
    below_k0: bool
    outcomes: tuple[RadiusOutcome, ...]

    def final_unique(self) -> bool:
        done = [o for o in self.outcomes if o.error is None]
        return bool(done) and done[-1].unique and done[-1].matches_dented_target


def end_to_end_uniqueness(b: Boundary, alpha: float, k: int,
                          radii: Sequence[float],
                          cfg: SolverConfig | None = None) -> UniquenessExperiment:
    """Dent the first minimizer at its distinguishing points and re-solve.

    For each radius in the (decreasing) schedule, reports whether the
    perturbed problem's minimizer set is the singleton containing the dented
    target and the uniqueness gap.  Running with k below the quantization
    threshold is allowed but flagged.  Raises ``ValueError`` when ``cfg``
    solves at another alpha than ``alpha``, at which k0 is estimated.
    """
    cfg = cfg or SolverConfig(alpha=alpha)
    if cfg.alpha != alpha:
        raise ValueError(f"cfg.alpha {cfg.alpha} differs from alpha {alpha}")
    base = solve(b, cfg)
    target = base.minimizers[0].chain
    points = magic_points(base, 0)
    k0 = estimate_k0(alpha)

    outcomes: list[RadiusOutcome] = []
    for r in radii:
        try:
            spec = PerturbationSpec(target, points, k, float(r))
            t_pert, b_pert = perturb(spec)
            pert_report = solve(b_pert, cfg)
            same = support_difference_mass(
                pert_report.minimizers[0].chain, t_pert,
                cfg.distinct_tol) <= cfg.distinct_tol
            outcomes.append(RadiusOutcome(
                radius=float(r),
                n_minimizers=len(pert_report.minimizers),
                unique=len(pert_report.minimizers) == 1,
                matches_dented_target=same,
                gap=pert_report.gap,
            ))
        except ValueError as exc:
            outcomes.append(RadiusOutcome(float(r), 0, False, False,
                                          math.nan, error=str(exc)))
    return UniquenessExperiment(base, points, k, k0, k < k0, tuple(outcomes))
