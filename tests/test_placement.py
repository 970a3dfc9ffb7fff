"""Location-energy optimizer: analytic optima, residuals, collapses."""
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gsteiner.currents import make_boundary
from gsteiner.placement import (Placement, detect_collapse, dual_bound, energy,
                                lower_bounds, minimize, optimize_topology,
                                realize_chain, stationarity_residual)
from gsteiner.topology import (InfeasibleTopologyError, assign_flows,
                               enumerate_topologies)


def y_topology(b):
    """The single-branch star for a 3-atom boundary."""
    for t in enumerate_topologies(b):
        if t.n_branch == 1:
            return assign_flows(t, b)
    raise AssertionError("no star topology found")


def v_oracle(alpha, h=0.3, n=2_000_001):
    """1-D grid search for the symmetric V instance (branch on the axis)."""
    t = np.linspace(0.0, 1.0, n)
    f = 2.0 ** alpha * t + 2.0 * np.sqrt((1.0 - t) ** 2 + h * h)
    i = int(np.argmin(f))
    return float(f[i]), float(t[i])


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def test_energy_zero_length_edge_contributes_zero():
    b = make_boundary([((0.0, 0.0), F(-2)), ((1.0, 1.0), F(1)),
                       ((1.0, -1.0), F(1))])
    ft = y_topology(b)
    pl = Placement(tuple(p for p, _ in b.atoms), ((0.0, 0.0),))
    expected = math.sqrt(2.0) * 2.0  # the two unit-flow arms only
    assert energy(ft, pl, 0.5) == pytest.approx(expected)


def test_energy_single_edge_formula():
    b = make_boundary([((0.0, 0.0), F(-4)), ((2.0, 0.0), F(4))])
    for t in enumerate_topologies(b):
        ft = assign_flows(t, b)
    pl = Placement(tuple(p for p, _ in b.atoms), ())
    assert energy(ft, pl, 0.5) == pytest.approx(4.0)


def test_energy_matches_solution_value(v_boundary):
    ft = y_topology(v_boundary)
    res = minimize(ft, v_boundary, 0.75)
    oracle_value, _ = v_oracle(0.75)
    assert res.value == pytest.approx(oracle_value, abs=1e-6)
    assert energy(ft, res.placement, 0.75) == pytest.approx(res.value)


# ---------------------------------------------------------------------------
# minimize
# ---------------------------------------------------------------------------

def test_minimize_v_instance_alpha075(v_boundary):
    ft = y_topology(v_boundary)
    res = minimize(ft, v_boundary, 0.75)
    oracle_value, oracle_t = v_oracle(0.75)
    assert res.value == pytest.approx(oracle_value, abs=1e-6)
    assert res.placement.branch[0][0] == pytest.approx(oracle_t, abs=1e-4)
    assert res.placement.branch[0][1] == pytest.approx(0.0, abs=1e-7)
    assert res.residual <= 1e-8
    # stationarity equation from the spec: (1-t)^2 = 2^{-1/2} ((1-t)^2 + h^2)
    t = res.placement.branch[0][0]
    assert (1 - t) ** 2 == pytest.approx(2 ** -0.5 * ((1 - t) ** 2 + 0.09),
                                         abs=1e-6)


def test_minimize_v_instance_alpha05_interior(v_boundary):
    # the 1-D oracle puts the branch at t = 0.7 strictly inside (0, 1)
    ft = y_topology(v_boundary)
    res = minimize(ft, v_boundary, 0.5)
    oracle_value, oracle_t = v_oracle(0.5)
    assert oracle_t == pytest.approx(0.7, abs=1e-5)
    assert res.value == pytest.approx(oracle_value, abs=1e-6)
    assert res.placement.branch[0][0] == pytest.approx(0.7, abs=1e-4)


def test_minimize_steep_v_collapses():
    # arms spread beyond the equilibrium angle: the branch lands on the source
    b = make_boundary([((0.0, 0.0), F(-2)), ((1.0, 1.1), F(1)),
                       ((1.0, -1.1), F(1))])
    ft = y_topology(b)
    opt = optimize_topology(ft, b, 0.5)
    assert opt.flowed.topology.n_branch == 0
    assert opt.flowed.degenerate
    assert opt.value == pytest.approx(2.0 * math.sqrt(1 + 1.21), abs=1e-9)


def test_minimize_two_terminal_trivial():
    b = make_boundary([((0.0, 0.0), F(-3)), ((1.0, 2.0), F(3))])
    for t in enumerate_topologies(b):
        ft = assign_flows(t, b)
    res = minimize(ft, b, 0.5)
    assert res.placement.branch == ()
    assert res.value == pytest.approx(3 ** 0.5 * math.sqrt(5))
    assert res.iterations == 0 and res.converged


# ---------------------------------------------------------------------------
# stationarity residual
# ---------------------------------------------------------------------------

def test_residual_positive_away_from_optimum(v_boundary):
    ft = y_topology(v_boundary)
    pl = Placement(tuple(p for p, _ in v_boundary.atoms), ((0.2, 0.15),))
    assert stationarity_residual(ft, pl, 0.75) > 0.1


def test_residual_at_analytic_angle():
    # symmetric equal-flow Y: outflow edges at arccos(2^{2a-1} - 1) to each
    # other; place the branch at the closed-form point and check first-order
    # optimality of the exact energy
    h = 0.3
    b = make_boundary([((0.0, 0.0), F(-2)), ((1.0, h), F(1)), ((1.0, -h), F(1))])
    ft = y_topology(b)
    for alpha in (0.6, 0.75, 0.9):
        cos_phi = 2.0 ** (alpha - 1.0)
        tan_phi = math.sqrt(1.0 - cos_phi ** 2) / cos_phi
        t_star = 1.0 - h / tan_phi
        assert 0.0 < t_star < 1.0
        pl = Placement(tuple(p for p, _ in b.atoms), ((t_star, 0.0),))
        assert stationarity_residual(ft, pl, alpha) <= 1e-6


def test_residual_matches_finite_difference_gradient(v_boundary):
    # away from every vertex the energy is smooth at a one-branch placement,
    # and the residual is the norm of its gradient
    ft = y_topology(v_boundary)
    terminals = tuple(p for p, _ in v_boundary.atoms)
    rng = random.Random(2)
    h = 1e-6
    for _ in range(10):
        x = (rng.uniform(0.1, 0.9), rng.uniform(-0.5, 0.5))
        grad = []
        for i in range(2):
            lo, hi = list(x), list(x)
            lo[i] -= h
            hi[i] += h
            f_lo = energy(ft, Placement(terminals, (tuple(lo),)), 0.6)
            f_hi = energy(ft, Placement(terminals, (tuple(hi),)), 0.6)
            grad.append((f_hi - f_lo) / (2 * h))
        res = stationarity_residual(ft, Placement(terminals, (x,)), 0.6)
        assert res == pytest.approx(math.hypot(*grad), abs=1e-5)


def test_collapsed_residual_uses_ball_reduction():
    b = make_boundary([((0.0, 0.0), F(-2)), ((1.0, 1.1), F(1)),
                       ((1.0, -1.1), F(1))])
    ft = y_topology(b)
    pl = Placement(tuple(p for p, _ in b.atoms), ((0.0, 0.0),))
    # arms pull with |u+ + u-| = 2 / sqrt(2.21) < 2^0.5 = stem ball radius
    assert stationarity_residual(ft, pl, 0.5) == 0.0


# ---------------------------------------------------------------------------
# collapse detection
# ---------------------------------------------------------------------------

def test_detect_collapse_noop_when_separated(v_boundary):
    ft = y_topology(v_boundary)
    res = minimize(ft, v_boundary, 0.75)
    new_ft, new_pl = detect_collapse(ft, res.placement)
    assert new_ft is ft and new_pl is res.placement


def test_detect_collapse_merges_cross():
    b = make_boundary([((-1.0, 0.0), F(-1)), ((0.0, -1.0), F(-1)),
                       ((1.0, 0.0), F(1)), ((0.0, 1.0), F(1))])
    merged = 0
    for t in enumerate_topologies(b):
        if t.n_branch != 2:
            continue
        try:
            ft = assign_flows(t, b)
        except InfeasibleTopologyError:
            continue
        if ft.topology.n_branch != 2:
            continue  # pairing already degenerated at flow assignment
        opt = optimize_topology(ft, b, 0.5)
        assert opt.flowed.topology.n_branch == 1
        assert opt.flowed.topology.degree(4) == 4
        assert opt.placement.branch[0] == pytest.approx((0.0, 0.0), abs=1e-6)
        merged += 1
    assert merged >= 1


# ---------------------------------------------------------------------------
# convexity / invariance properties
# ---------------------------------------------------------------------------

def test_convexity_probe(v_boundary):
    ft = y_topology(v_boundary)
    terminals = tuple(p for p, _ in v_boundary.atoms)
    rng = random.Random(11)
    for _ in range(100):
        x = (rng.uniform(-1, 2), rng.uniform(-1, 1))
        y = (rng.uniform(-1, 2), rng.uniform(-1, 1))
        mid = tuple(0.5 * (a + b) for a, b in zip(x, y))
        fx = energy(ft, Placement(terminals, (x,)), 0.7)
        fy = energy(ft, Placement(terminals, (y,)), 0.7)
        fm = energy(ft, Placement(terminals, (mid,)), 0.7)
        assert fm <= 0.5 * (fx + fy) + 1e-12 * max(fx, fy)


def test_rigid_motion_invariance(v_boundary):
    ft = y_topology(v_boundary)
    base = minimize(ft, v_boundary, 0.75).value
    ang = 0.73
    c, s = math.cos(ang), math.sin(ang)

    def move(p):
        return (c * p[0] - s * p[1] + 5.0, s * p[0] + c * p[1] - 2.0)

    moved = make_boundary([(move(p), m) for p, m in v_boundary.atoms])
    ft2 = y_topology(moved)
    assert minimize(ft2, moved, 0.75).value == pytest.approx(base, abs=1e-9)


def test_dilation_scales_value(v_boundary):
    ft = y_topology(v_boundary)
    base = minimize(ft, v_boundary, 0.6).value
    lam = 3.5
    scaled = make_boundary([(tuple(lam * x for x in p), m)
                            for p, m in v_boundary.atoms])
    ft2 = y_topology(scaled)
    assert minimize(ft2, scaled, 0.6).value == pytest.approx(lam * base,
                                                             rel=1e-9)


def test_mass_scaling_preserves_argmin(v_boundary):
    ft = y_topology(v_boundary)
    pl1 = minimize(ft, v_boundary, 0.75).placement
    scaled = v_boundary.scaled(F(3, 2))
    ft2 = y_topology(scaled)
    pl2 = minimize(ft2, scaled, 0.75).placement
    assert pl1.branch[0] == pytest.approx(pl2.branch[0], abs=1e-7)


def test_energy_equals_alpha_mass_when_disjoint(v_boundary):
    from gsteiner.currents import alpha_mass, canonicalize
    ft = y_topology(v_boundary)
    res = minimize(ft, v_boundary, 0.75)
    chain = canonicalize(realize_chain(ft, res.placement))
    assert alpha_mass(chain, 0.75) == pytest.approx(res.value, abs=1e-12)


# ---------------------------------------------------------------------------
# lower bound by weak duality
# ---------------------------------------------------------------------------

BOUND_MASSES = {
    3: [(-2, 1, 1), (-3, 1, 2)],
    4: [(-1, -1, 1, 1), (-3, F(1, 2), 2, F(1, 2))],
    5: [(-2, 1, 1, -1, 1), (-3, F(-1, 2), 2, 1, F(1, 2))],
    6: [(-1, -1, -1, 1, 1, 1), (-3, F(-1, 2), 2, 1, F(3, 2), -1)],
}


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10 ** 6), n=st.sampled_from([3, 4, 5, 6]),
       dim=st.sampled_from([2, 3]),
       alpha=st.sampled_from([0.3, 0.6, 0.9, 1.0]),
       pick=st.integers(0, 10 ** 6), eps=st.floats(1e-9, 1.0))
def test_bound_below_minimum(seed, n, dim, alpha, pick, eps):
    rng = random.Random(seed)
    masses = rng.choice(BOUND_MASSES[n])
    b = make_boundary(
        (tuple(rng.uniform(0.0, 2.0) for _ in range(dim)), F(m))
        for m in masses)
    topologies = list(enumerate_topologies(b))
    ft = assign_flows(topologies[pick % len(topologies)], b)
    value = minimize(ft, b, alpha).value
    bound, = lower_bounds([ft], b, alpha)
    assert bound <= value + 1e-12 * (1.0 + value)
    # the bound holds at any placement and smoothing, not just near optima
    terminals = tuple(p for p, _ in b.atoms)
    branch = tuple(tuple(rng.uniform(-1.0, 3.0) for _ in range(dim))
                   for _ in range(ft.topology.n_branch))
    anywhere = dual_bound(ft, Placement(terminals, branch), alpha, eps)
    assert anywhere <= value + 1e-12 * (1.0 + value)
    if ft.topology.n_branch == 0:
        assert bound == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75])
def test_bound_tight_at_analytic_y(alpha):
    # symmetric Y: source 2 at the origin, sinks 1 at (1, +-h); the angle law
    # puts the branch point on the axis where each sink edge makes the angle
    # phi with it, cos(phi) = 2^alpha / 2
    h = 0.3
    b = make_boundary([((0.0, 0.0), F(-2)), ((1.0, h), F(1)),
                       ((1.0, -h), F(1))])
    ft = y_topology(b)
    phi = math.acos(2.0 ** (alpha - 1.0))
    pl = Placement(tuple(p for p, _ in b.atoms),
                   ((1.0 - h / math.tan(phi), 0.0),))
    value = energy(ft, pl, alpha)
    assert stationarity_residual(ft, pl, alpha) < 1e-12
    assert abs(dual_bound(ft, pl, alpha) - value) <= 1e-9 * value
    assert value == pytest.approx(v_oracle(alpha)[0], abs=1e-9)


def test_bound_pass_traces_one_record(v_boundary):
    records = []
    bound, = lower_bounds([y_topology(v_boundary)], v_boundary, 0.75,
                          trace=records.append)
    assert [r["stage"] for r in records] == ["bound"]
    assert records[0]["bound"] == bound and 0 < records[0]["iteration"] <= 50


def _flowed_topologies(b):
    out = []
    for t in enumerate_topologies(b):
        try:
            out.append(assign_flows(t, b))
        except InfeasibleTopologyError:
            pass
    return out


def _random_atoms(seed, masses, dim):
    rng = random.Random(seed)
    pts = []
    while len(pts) < len(masses):
        p = tuple(round(rng.uniform(0.0, 2.0), 3) for _ in range(dim))
        if all(math.dist(p, q) > 0.25 for q in pts):
            pts.append(p)
    return make_boundary(zip(pts, (F(m) for m in masses)))


def _dented_square(radius, alpha=0.6):
    from gsteiner.perturb import PerturbationSpec, estimate_k0, perturb
    from gsteiner.solver import SolverConfig, magic_points, solve
    square = make_boundary([((0.0, 0.0), F(-1)), ((1.0, 1.0), F(-1)),
                            ((1.0, 0.0), F(1)), ((0.0, 1.0), F(1))])
    base = solve(square, SolverConfig(alpha=alpha))
    spec = PerturbationSpec(base.minimizers[0].chain, magic_points(base, 0),
                            estimate_k0(alpha) + 1, radius)
    return perturb(spec)[1]


# the kinds of instance the solver bounds most: random 6-atom planar ones with
# repeated and with distinct masses, random 5-atom ones in 3-D, dented squares
BATCH_CASES = {
    "6 repeated": lambda: (_random_atoms(1, (-1, -1, -1, 1, 1, 1), 2), 0.85),
    "6 distinct": lambda: (_random_atoms(
        2, ("-3", "-1/2", "2", "1", "3/2", "-1"), 2), 0.5),
    "5 in 3-D": lambda: (_random_atoms(3, (-2, 1, 1, -1, 1), 3), 0.65),
    "5 distinct in 3-D": lambda: (_random_atoms(
        4, ("-3", "-1/2", "2", "1", "1/2"), 3), 0.8),
    "dented square": lambda: (_dented_square(0.05), 0.6),
}


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batched_bounds_equal_single_bounds(case):
    b, alpha = BATCH_CASES[case]()
    fts = _flowed_topologies(b)
    assert len({ft.topology.n_branch for ft in fts}) > 1
    together = lower_bounds(fts, b, alpha)
    alone = [lower_bounds([ft], b, alpha)[0] for ft in fts]
    assert together == pytest.approx(alone, rel=1e-12, abs=0.0)


def test_mixed_batch_bounds_below_minimum():
    # 6 atoms: full topologies with 4, 2 and 0 branch vertices in one batch,
    # listed out of branch-count order
    b = _random_atoms(5, (-1, -1, -1, 1, 1, 1), 2)
    fts = sorted(_flowed_topologies(b),
                 key=lambda ft: (ft.topology.n_branch % 4, ft.topology.edges))
    assert {ft.topology.n_branch for ft in fts} == {0, 2, 4}
    records = []
    bounds = lower_bounds(fts, b, 0.6, trace=records.append)
    assert [r["bound"] for r in records] == bounds
    for ft, bound, record in zip(fts, bounds, records):
        value = minimize(ft, b, 0.6).value
        assert bound <= value + 1e-12 * (1.0 + value)
        if ft.topology.n_branch == 0:
            assert bound == pytest.approx(value, rel=1e-12)
            assert record["iteration"] == 0
        else:
            assert record["iteration"] > 0


def test_non_finite_bound_raises():
    b = make_boundary([((0.0, 0.0), F(-2)), ((1.0, math.nan), F(1)),
                       ((1.0, -0.3), F(1))])
    with pytest.raises(ValueError, match="not finite"):
        lower_bounds([y_topology(b)], b, 0.5)
