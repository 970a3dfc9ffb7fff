"""Location-energy optimizer: analytic optima, lower bounds, collapses."""
import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gsteiner import placement
from gsteiner import solver as solver_module
from gsteiner.currents import (canonicalize, make_boundary,
                               support_difference_mass)
from gsteiner.perturb import (PerturbationSpec, _local4_candidates,
                              estimate_k0, four_point_instance, local4_solve,
                              perturb)
from gsteiner.placement import (TOL_COLLAPSE, OptimizedTopology, Placement,
                                detect_collapse, dual_bound, energy, minimize,
                                optimize_topology, realize_chain)
from gsteiner.solver import SolverConfig, magic_points, solve
from gsteiner.sweep import SweepSpec, build_cells
from gsteiner.topology import (assign_flows, contract, enumerate_topologies,
                               forest_rows)
from dented_square import dented_square
from random_set import random_set
from topology_bounds import lower_bounds, unscreened


def y_topology(b):
    """The single-branch star for a 3-atom boundary."""
    for ft in enumerate_topologies(b):
        if ft.n_branch == 1:
            return ft
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
    (ft,) = enumerate_topologies(b)
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
    assert 0.0 <= res.value - res.lower <= 1e-10 * res.value
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
    assert opt.flowed.n_branch == 0
    assert len(opt.flowed.edges) == 2  # the source's edge went
    assert opt.value == pytest.approx(2.0 * math.sqrt(1 + 1.21), abs=1e-9)


def test_minimize_two_terminal_trivial():
    b = make_boundary([((0.0, 0.0), F(-3)), ((1.0, 2.0), F(3))])
    (ft,) = enumerate_topologies(b)
    res = minimize(ft, b, 0.5)
    assert res.placement.branch == ()
    assert res.value == pytest.approx(3 ** 0.5 * math.sqrt(5))
    assert res.iterations == 0 and res.converged


# ---------------------------------------------------------------------------
# the subgradient of a star, and the dual gap
# ---------------------------------------------------------------------------

def star_subgradient(ft, pl, alpha):
    """The subdifferential of the energy at the one branch vertex of
    ``ft``, as the ball (|g|, radius) of ``placement._subgradient``."""
    v = ft.n_terminals
    return placement._subgradient(pl.position(v), [
        (wi, pl.position(o)) for wi, o in placement._incident(ft, alpha, v)])


def test_dual_gap_positive_away_from_optimum(v_boundary):
    ft = y_topology(v_boundary)
    pl = Placement(tuple(p for p, _ in v_boundary.atoms), ((0.2, 0.15),))
    assert energy(ft, pl, 0.75) - dual_bound(ft, pl, 0.75) > 0.1


def test_gradient_vanishes_at_analytic_angle():
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
        g, ball = star_subgradient(ft, pl, alpha)
        assert g <= 1e-6 and ball == 0.0


def test_subgradient_matches_finite_difference_gradient(v_boundary):
    # away from every vertex the energy is smooth at a one-branch placement,
    # and the subdifferential is its gradient
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
        g, ball = star_subgradient(ft, Placement(terminals, (x,)), 0.6)
        assert ball == 0.0
        assert g == pytest.approx(math.hypot(*grad), abs=1e-5)


def test_collapsed_subgradient_ball_holds_zero():
    b = make_boundary([((0.0, 0.0), F(-2)), ((1.0, 1.1), F(1)),
                       ((1.0, -1.1), F(1))])
    ft = y_topology(b)
    pl = Placement(tuple(p for p, _ in b.atoms), ((0.0, 0.0),))
    # arms pull with |u+ + u-| = 2 / sqrt(2.21) < 2^0.5 = stem ball radius
    g, ball = star_subgradient(ft, pl, 0.5)
    assert g == pytest.approx(2.0 / math.sqrt(2.21))
    assert ball == 2.0 ** 0.5


# ---------------------------------------------------------------------------
# collapse detection
# ---------------------------------------------------------------------------

def test_detect_collapse_noop_when_separated(v_boundary):
    ft = y_topology(v_boundary)
    res = minimize(ft, v_boundary, 0.75)
    assert detect_collapse(ft, res.placement)[0] is ft


def test_detect_collapse_leaves_a_cycle_to_canonicalization():
    # the path 0-5-6-7 closes into a triangle when branch vertex 7 sits on
    # terminal 0
    b = make_boundary([((0.0, 0.0), F(-3)), ((1.0, 2.0), F(1)),
                       ((2.0, 3.0), F(1)), ((3.0, 2.0), F(-1)),
                       ((4.0, 0.0), F(2))])
    ft = assign_flows(3, ((0, 5), (1, 5), (2, 6), (3, 7), (4, 7), (5, 6),
                          (6, 7)), b)
    assert all(ft.edge_flows)
    pl = Placement(tuple(p for p, _ in b.atoms),
                   ((1.0, 1.0), (2.5, 1.5), (0.0, 0.0)))
    assert detect_collapse(ft, pl)[0] is ft


def test_detect_collapse_keeps_two_close_atoms_apart():
    # the branch point is 7.5e-8 from both atoms, which are 1.5e-7 apart:
    # it joins the lower one, and the other stays a vertex of its own
    b = make_boundary([((0.0, 0.0), F(1)), ((1.5e-7, 0.0), F(1)),
                       ((1.0, 1.0), F(-2))])
    ft = y_topology(b)
    pl = Placement(tuple(p for p, _ in b.atoms), ((7.5e-8, 0.0),))
    assert all(math.dist(p, pl.branch[0]) <= TOL_COLLAPSE
               for p in pl.terminals[:2])
    out, _ = detect_collapse(ft, pl)
    assert out.n_branch == 0
    assert out.edges == ((0, 1), (0, 2))
    assert out.edge_flows == (F(1), F(-2))


def test_detect_collapse_merges_cross():
    b = make_boundary([((-1.0, 0.0), F(-1)), ((0.0, -1.0), F(-1)),
                       ((1.0, 0.0), F(1)), ((0.0, 1.0), F(1))])
    merged = 0
    for ft in enumerate_topologies(b):
        if ft.n_branch != 2:
            continue
        opt = optimize_topology(ft, b, 0.5)
        assert opt.flowed.n_branch == 1
        assert sum(4 in e for e in opt.flowed.edges) == 4  # degree
        assert opt.placement.branch[0] == pytest.approx((0.0, 0.0), abs=1e-6)
        merged += 1
    assert merged >= 1


def test_cluster_map_lifts_contracted_placements(bench_instances):
    # every edge at a branch vertex of the 6-atom instances' topologies,
    # contracted alone and with the next such edge disjoint from it: merged
    # vertices share their image, and the lift keeps the energy (no
    # parallel edges combine when adjacent vertices merge)
    rng = random.Random(5)
    checked = 0
    for b, alpha in bench_instances("solve-n6", 0):
        terminals = tuple(p for p, _ in b.atoms)
        for ft in enumerate_topologies(b):
            edges = [e for e in ft.edges if max(e) >= 6]
            for e in edges:
                pairs = [e] + [f for f in edges
                               if f > e and not set(e) & set(f)][:1]
                contracted, cluster = contract(ft, pairs)
                assert cluster[:6] == tuple(range(6))
                assert all(cluster[u] == cluster[v] for u, v in pairs)
                pl = Placement(terminals, tuple(
                    (rng.uniform(0, 2), rng.uniform(0, 2))
                    for _ in range(contracted.n_branch)))
                lifted = Placement(terminals, tuple(
                    pl.position(c) for c in cluster[6:]))
                assert energy(ft, lifted, alpha) == pytest.approx(
                    energy(contracted, pl, alpha), rel=1e-12)
                checked += 1
    assert checked > 100


def test_cluster_map_lifts_a_spliced_vertex_onto_a_neighbor():
    # branch vertex 5 merges onto terminal 0, not its neighbor: the edges
    # 0-4 and 4-5 then combine, 4 keeps two neighbors and is spliced out
    b = make_boundary([((0.0, 0.0), F(1)), ((0.0, 1.0), F(1)),
                       ((3.0, 0.0), F(-1)), ((3.0, 1.0), F(-1))])
    ft = assign_flows(2, ((0, 4), (1, 4), (2, 5), (3, 5), (4, 5)), b)
    contracted, cluster = contract(ft, [(0, 5)])
    assert contracted.n_branch == 0
    assert cluster[5] == 0 and cluster[4] in (0, 1)


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

def solver_margin(v):
    """The margin ``solve`` screens the bounding pass with, at its default
    ``value_tol``."""
    return v + SolverConfig.value_tol * (1.0 + abs(v))


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
    ft = topologies[pick % len(topologies)]
    value = minimize(ft, b, alpha).value
    bound, = lower_bounds([ft], b, alpha)
    assert bound <= value + 1e-12 * (1.0 + value)
    # screened among all topologies of the instance, with the solver's margin
    screened = lower_bounds(topologies, b, alpha,
                            margin=solver_margin)[pick % len(topologies)]
    assert screened <= value + 1e-12 * (1.0 + value)
    # the bound holds at any placement and smoothing, not just near optima
    terminals = tuple(p for p, _ in b.atoms)
    branch = tuple(tuple(rng.uniform(-1.0, 3.0) for _ in range(dim))
                   for _ in range(ft.n_branch))
    anywhere = dual_bound(ft, Placement(terminals, branch), alpha, eps)
    assert anywhere <= value + 1e-12 * (1.0 + value)
    if ft.n_branch == 0:
        assert bound == pytest.approx(value, rel=1e-12)
        assert screened == bound


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
    g, ball = star_subgradient(ft, pl, alpha)
    assert g < 1e-12 and ball == 0.0
    assert abs(dual_bound(ft, pl, alpha) - value) <= 1e-9 * value
    assert value == pytest.approx(v_oracle(alpha)[0], abs=1e-9)


def test_bound_pass_traces_one_record(v_boundary):
    records = []
    bound, = lower_bounds([y_topology(v_boundary)], v_boundary, 0.75,
                          trace=records.append)
    assert [r["stage"] for r in records] == ["bound"]
    assert records[0]["bound"] == bound and 0 < records[0]["iteration"] <= 50


def lifted_placement(ft, res):
    """Every vertex of ``ft`` at its image's position under ``res.lift``."""
    pl = res.placement
    return Placement(pl.terminals, tuple(
        pl.position(c) for c in res.lift[ft.n_terminals:]))


def test_every_result_bounds_its_topology_below():
    # the lower bound of every optimize_topology result, certified or not,
    # is at most the energy of the topology given at the lifted result, on
    # random 3- to 6-atom instances; across the examples some results are
    # left uncertified
    uncertified = []

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10 ** 6), n=st.sampled_from([3, 4, 5, 6]),
           dim=st.sampled_from([2, 3]), alpha=st.floats(0.05, 1.0))
    def check(seed, n, dim, alpha):
        rng = random.Random(seed)
        b = make_boundary(
            (tuple(rng.uniform(0.0, 2.0) for _ in range(dim)), F(m))
            for m in rng.choice(BOUND_MASSES[n]))
        memo = {}
        for ft in enumerate_topologies(b):
            res = optimize_topology(ft, b, alpha, memo=memo)
            e = energy(ft, lifted_placement(ft, res), alpha)
            assert res.lower <= e + 1e-12 * (1.0 + e)
            uncertified.append(not res.converged)
    check()
    assert any(uncertified)


def test_every_minimizer_of_the_solve_workloads_is_certified(
        bench_instances, bench_dent):
    # seeds 0-2 of solve-n6, solve-3d and uniqueness-square (the base
    # square and its dent)
    cases = [case for seed in range(3)
             for name in ("solve-n6", "solve-3d")
             for case in bench_instances(name, seed)]
    for seed in range(3):
        base, b, alpha = bench_dent(seed)
        cases += [(base.boundary, alpha), (b, alpha)]
    for b, alpha in cases:
        for m in solve(b, SolverConfig(alpha=alpha)).minimizers:
            assert m.value - m.lower <= 1e-12 * (1.0 + m.value)


def test_four_branch_result_of_the_six_atom_instance_is_uncertified(
        bench_instances):
    # solve-n6 seed 0, instance i0: the kernel runs this topology to its
    # Newton floor and contracts it onto a 2-branch topology at 3.552184, a
    # smoothed L-BFGS-B reference's value, below the 3.552249 of the star
    # that the planar sweep floor stopped short on.  The result carries the
    # bound at the kernel's placement, 3.552180, which does not certify it
    b, alpha = bench_instances("solve-n6", 0)[0]
    (ft,) = [ft for ft in enumerate_topologies(b) if ft.edges == (
        (0, 6), (1, 7), (2, 6), (3, 9), (4, 8), (5, 9), (6, 7), (7, 8),
        (8, 9))]
    res = optimize_topology(ft, b, alpha)
    assert res.flowed.edges == ((0, 6), (1, 7), (2, 6), (3, 7),
                                         (4, 7), (5, 7), (6, 7))
    assert res.value == pytest.approx(3.552184, abs=1e-6)
    assert res.value < 3.552249
    assert res.lower == pytest.approx(3.552180, abs=1e-6)
    assert res.lower == minimize(ft, b, alpha).lower
    assert not res.converged


def test_dent_kernel_run_at_the_floor_is_uncertified(bench_dent):
    # the seed-0 uniqueness-square dent: this 4-branch topology's kernel
    # run reaches its Newton floor at 3.033432, a reference's value, below
    # the 3.034726 where the planar sweep floor stopped, and is not
    # certified.  Its contraction merges two parallel edges of flows -2 and
    # 10/11 into one of -12/11, whose optimum 3.031480 lies below the
    # topology's minimum: the result carries the kernel's bound, 3.033432,
    # which that merged value lies under, so it reads converged
    _, b, alpha = bench_dent(0)
    (ft,) = [ft for ft in enumerate_topologies(b) if ft.edges == (
        (0, 9), (1, 6), (2, 8), (3, 7), (4, 8), (5, 9), (6, 7), (6, 9),
        (7, 8))]
    kernel = minimize(ft, b, alpha)
    assert kernel.value == pytest.approx(3.033432, abs=1e-6)
    assert kernel.value < 3.034726
    assert kernel.lower == pytest.approx(3.033432, abs=1e-6)
    assert not kernel.converged
    res = optimize_topology(ft, b, alpha)
    assert res.value == pytest.approx(3.031480, abs=1e-6)
    assert res.lower == kernel.lower > res.value
    assert res.converged


def _random_atoms(seed, masses, dim):
    rng = random.Random(seed)
    pts = []
    while len(pts) < len(masses):
        p = tuple(round(rng.uniform(0.0, 2.0), 3) for _ in range(dim))
        if all(math.dist(p, q) > 0.25 for q in pts):
            pts.append(p)
    return make_boundary(zip(pts, (F(m) for m in masses)))


# the kinds of instance the solver bounds most: random 6-atom planar ones with
# repeated and with distinct masses, random 5-atom ones in 3-D, dented
# squares, and the benchmark's seed-0 sets (given ``bench_instances``): a
# solve-3d one with 1 and 3 branch vertices, and the solve-n6 forest instance
# with 0, 2 and 4
BATCH_CASES = {
    "6 repeated": lambda _: (
        _random_atoms(1, (-1, -1, -1, 1, 1, 1), 2), 0.85),
    "6 distinct": lambda _: (_random_atoms(
        2, ("-3", "-1/2", "2", "1", "3/2", "-1"), 2), 0.5),
    "5 in 3-D": lambda _: (_random_atoms(3, (-2, 1, 1, -1, 1), 3), 0.65),
    "5 distinct in 3-D": lambda _: (_random_atoms(
        4, ("-3", "-1/2", "2", "1", "1/2"), 3), 0.8),
    "dented square": lambda _: (dented_square(0.05), 0.6),
    "solve-3d i0": lambda instances: instances("solve-3d", 0)[0],
    "solve-n6 i0": lambda instances: instances("solve-n6", 0)[0],
}


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batched_bounds_equal_single_bounds(case, bench_instances):
    b, alpha = BATCH_CASES[case](bench_instances)
    fts = list(enumerate_topologies(b))
    assert len({ft.n_branch for ft in fts}) > 1
    together = lower_bounds(fts, b, alpha)
    alone = [lower_bounds([ft], b, alpha)[0] for ft in fts]
    assert together == pytest.approx(alone, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("screened", [False, True])
@pytest.mark.parametrize("case, classes", [("solve-3d i0", {1, 3}),
                                           ("solve-n6 i0", {0, 2, 4})])
def test_bound_pass_solves_one_stack(case, classes, screened,
                                     bench_instances, monkeypatch):
    # every topology takes the same stacked solves, whatever its numbers of
    # branch vertices and edges: the start, the steps and two projections
    b, alpha = BATCH_CASES[case](bench_instances)
    fts = list(enumerate_topologies(b))
    assert {ft.n_branch for ft in fts} == classes
    stacks = []
    solve = np.linalg.solve

    def counted(a, rhs):
        stacks.append(len(a))
        return solve(a, rhs)
    monkeypatch.setattr(np.linalg, "solve", counted)
    lower_bounds(fts, b, alpha,
                 margin=solver_margin if screened else unscreened)
    assert stacks[0] == len(fts)
    assert len(stacks) <= placement._BOUND_STEPS + 3


def test_mixed_batch_bounds_below_minimum():
    # 6 atoms: full topologies with 4, 2 and 0 branch vertices in one batch,
    # listed out of branch-count order, bounded with a margin that never
    # cuts: every topology with branch vertices takes the whole schedule
    b = _random_atoms(5, (-1, -1, -1, 1, 1, 1), 2)
    fts = sorted(enumerate_topologies(b),
                 key=lambda ft: (ft.n_branch % 4, ft.edges))
    assert {ft.n_branch for ft in fts} == {0, 2, 4}
    records = []
    bounds = lower_bounds(fts, b, 0.6, trace=records.append)
    assert [r["bound"] for r in records] == bounds
    for ft, bound, record in zip(fts, bounds, records):
        value = minimize(ft, b, 0.6).value
        assert bound <= value + 1e-12 * (1.0 + value)
        if ft.n_branch == 0:
            assert bound == pytest.approx(value, rel=1e-12)
            assert record["iteration"] == 0
        else:
            assert record["iteration"] == placement._BOUND_STEPS


def test_screen_keeps_the_contenders_bounds_bit_for_bit(bench_instances,
                                                        bench_dent):
    # the seed-0 topology sets of the solve workloads and of the dented
    # square: a topology the screen keeps takes the rest of the schedule
    # from where the screen stopped it, so its bound is the unscreened one
    _, *dent = bench_dent(0)
    cases = (bench_instances("solve-n6", 0) + bench_instances("solve-3d", 0)
             + [tuple(dent)])
    retired = 0
    for b, alpha in cases:
        fts = list(enumerate_topologies(b))
        records = []
        screened = lower_bounds(fts, b, alpha, records.append, solver_margin)
        full = lower_bounds(fts, b, alpha)
        assert [r["bound"] for r in records] == screened
        for ft, got, want, record in zip(fts, screened, full, records):
            if not ft.n_branch:
                assert record["iteration"] == 0 and got == want
            elif record["iteration"] == placement._BOUND_STEPS:
                assert got == want
            else:
                assert record["iteration"] == placement._SCREEN_STEPS
                retired += 1
    assert retired > 0


def test_non_finite_bound_raises():
    # Boundary refuses a NaN coordinate, so the atoms are swapped in behind
    # its check: the bounding pass must still refuse what it cannot bound
    b = make_boundary([((0.0, 0.0), F(-2)), ((1.0, 0.3), F(1)),
                       ((1.0, -0.3), F(1))])
    ft = y_topology(b)
    object.__setattr__(b, "atoms", tuple(
        ((1.0, math.nan) if p == (1.0, 0.3) else p, m) for p, m in b.atoms))
    with pytest.raises(ValueError, match="not finite"):
        lower_bounds([ft], b, 0.5)


@pytest.fixture(scope="module")
def six_atom_optima(bench_instances):
    """``optimize_topology`` on every topology of the ``solve-n6`` seed-0
    instances, with one memo per instance: (b, alpha, [(ft, result)], memo)."""
    out = []
    for b, alpha in bench_instances("solve-n6", 0):
        memo = {}
        out.append((b, alpha, [(ft, optimize_topology(ft, b, alpha, memo=memo))
                               for ft in enumerate_topologies(b)], memo))
    return out


def test_optimized_topology_is_a_fixed_point_of_detect_collapse(
        six_atom_optima):
    contracted = 0
    for _, _, optima, _ in six_atom_optima:
        for ft, opt in optima:
            assert detect_collapse(opt.flowed, opt.placement)[0] is opt.flowed
            contracted += opt.flowed is not ft
    assert contracted > 0


def assert_memo_keeps_finished_results(b, alpha, optima, memo):
    """``optima``, the (topology, result) pairs of ``optimize_topology``
    calls that shared ``memo``: each result equals the topology's
    fresh-memo result, and a repeat call with ``memo`` returns it, the
    stored object, without the star pass, minimizing or contracting.
    Returns how many results contracted."""
    for ft, res in optima:
        fresh = optimize_topology(ft, b, alpha)
        assert (res.flowed, res.placement, res.value, res.lift,
                res.iterations) == (fresh.flowed, fresh.placement,
                                    fresh.value, fresh.lift, fresh.iterations)
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_place_stars", "minimize", "detect_collapse"):
            real = getattr(placement, name)
            patch.setattr(placement, name, lambda *args, name=name, real=real:
                          calls.append(name) or real(*args))
        for ft, res in optima:
            assert optimize_topology(ft, b, alpha, memo=memo) is res
    assert calls == []
    return sum(res.flowed is not ft for ft, res in optima)


def test_memo_keeps_finished_results(six_atom_optima, bench_instances):
    # the local4 candidates of the seed-0 lab cells, and every topology of
    # the solve-n6 and solve-3d instances at seed 0
    contracted = 0
    for alpha, k, disp, theta in lab_cells():
        b = four_point_instance(k, disp, theta).boundary()
        memo = {}
        contracted += assert_memo_keeps_finished_results(b, alpha, [
            (ft, optimize_topology(ft, b, alpha, memo=memo))
            for _, ft in _local4_candidates(tuple(m for _, m in b.atoms),
                                            ("A", "B", "C", "D"))], memo)
    for b, alpha in bench_instances("solve-3d", 0):
        memo = {}
        contracted += assert_memo_keeps_finished_results(b, alpha, [
            (ft, optimize_topology(ft, b, alpha, memo=memo))
            for ft in enumerate_topologies(b)], memo)
    for b, alpha, optima, memo in six_atom_optima:
        contracted += assert_memo_keeps_finished_results(b, alpha, optima,
                                                         memo)
    assert contracted > 0


# ---------------------------------------------------------------------------
# stars: settled by Kuhn's criterion, or placed by Newton, against the kernel
# ---------------------------------------------------------------------------

def kernel_minimize(ft, b, alpha):
    """``minimize`` without the early exit, the star pass's reference."""
    if not ft.n_branch:
        return minimize(ft, b, alpha)
    terminals = tuple(p for p, _ in b.atoms)
    pos, iters, _ = placement._run_kernel(ft, terminals, alpha, None,
                                          lambda pl: None)
    pl = Placement(terminals, tuple(tuple(x) for x in pos))
    eps = placement._SETTLE_EPS * placement._scale(terminals)
    return OptimizedTopology(ft, pl, energy(ft, pl, alpha),
                             dual_bound(ft, pl, alpha, eps), iters,
                             tuple(range(len(terminals) + len(pos))))


def kernel_only_optimize(ft, b, alpha, memo=None):
    """``optimize_topology`` without the star pass and the kernel's early
    exit, the reference: minimize by the kernel's full
    schedule and contract until ``detect_collapse`` returns its input.
    ``memo``, a dict shared by calls on one boundary and alpha, keeps the
    minimizations."""
    memo = {} if memo is None else memo
    while True:
        key = (ft.edges, ft.edge_flows)
        if key not in memo:
            memo[key] = kernel_minimize(ft, b, alpha)
        res = memo[key]
        contracted, _ = detect_collapse(ft, res.placement)
        if contracted is ft:
            return replace(res, flowed=ft)
        ft = contracted


def newton_placed(records):
    """The number of topologies in a trace that the star pass placed by
    Newton: the kernel sends "eps" records before its "done" record, with a
    "collapse" record right before it when the run ends early; the star
    pass only the "done" record."""
    return sum(r["stage"] == "done"
               and (i == 0 or records[i - 1]["stage"] not in ("eps", "collapse"))
               for i, r in enumerate(records))


def exited(records):
    """Whether the minimization whose own trace is ``records`` ended its
    kernel run early: a "collapse" record right before its "done" record
    (the records of the optimization it nested come before)."""
    return len(records) > 1 and records[-2]["stage"] == "collapse"


def minimizations(run):
    """``run(trace)`` with every ``minimize`` call on the way recorded,
    nested ones included: returns its result, its trace and the
    (topology, result, the call's own trace) of each call."""
    calls, records = [], []
    real = placement.minimize

    def recording(ft, b, alpha, trace=None, memo=None, start=None):
        own = []

        def tee(record):
            own.append(record)
            if trace is not None:
                trace(record)
        res = real(ft, b, alpha, tee, memo, start)
        calls.append((ft, res, own))
        return res
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(placement, "minimize", recording)
        return run(records.append), records, calls


def assert_certified_lift(ft, pl, alpha):
    """An early exit's placement ``pl`` of ``ft``: collapsed, and its value
    certified on ``ft`` itself by the dual bound with zero-length edges
    smoothed by ``_SETTLE_EPS``."""
    assert detect_collapse(ft, pl)[0] is not ft
    v = energy(ft, pl, alpha)
    eps = placement._SETTLE_EPS * placement._scale(pl.terminals)
    assert v - dual_bound(ft, pl, alpha, eps) <= 1e-12 * (1.0 + v)


def star_pass(ft, b, alpha):
    """The star pass (``_place_stars``) on ``ft``: the settled (atom, star)
    pairs, the Newton placement's result or None."""
    return placement._place_stars(ft, tuple(p for p, _ in b.atoms), alpha)


def assert_star_pass_sound(ft, b, alpha):
    """The star pass on ``ft`` against the kernel's full schedule.  A star
    it settles, moved onto its atom in the kernel's placement, is not above
    the kernel; a Newton placement is not above it, certified by the dual
    bound, and ``optimize_topology`` sends its "done" record first.  A
    topology it refuses, ``minimize`` places: the full schedule's result bit
    for bit, or a certified lift not above it when the run ended early.
    Returns "settled", "newton" or "kernel"."""
    found = star_pass(ft, b, alpha)
    want = kernel_minimize(ft, b, alpha)
    if found is None:
        records = []
        got = minimize(ft, b, alpha, trace=records.append)
        if exited(records):
            assert got.value <= want.value + 1e-12 * (1.0 + got.value)
            assert_certified_lift(ft, got.placement, alpha)
        else:
            assert got == want
        return "kernel"
    if isinstance(found, list):
        terminals, n = want.placement.terminals, ft.n_terminals
        for t, star_vertex in found:
            branch = list(want.placement.branch)
            branch[star_vertex - n] = terminals[t]
            at_atom = energy(ft, Placement(terminals, tuple(branch)), alpha)
            assert at_atom <= want.value + 1e-12 * (1.0 + want.value)
        return "settled"
    v = found.value
    assert v <= want.value + 1e-12 * (1.0 + v)
    assert v >= dual_bound(ft, found.placement, alpha) - 1e-12 * (1.0 + v)
    records = []
    optimize_topology(ft, b, alpha, trace=records.append)
    assert records[0] == {"stage": "done", "iteration": found.iterations,
                          "value": v, "lower": found.lower}
    return "newton"


def assert_exits_certified(calls, alpha):
    """Every minimization of ``calls`` (from :func:`minimizations`) whose
    kernel run ended early returned a certified lift.  Returns their
    number."""
    exits = [(ft, res) for ft, res, own in calls if exited(own)]
    for ft, res in exits:
        assert_certified_lift(ft, res.placement, alpha)
    return len(exits)


def assert_not_above(got, want):
    """``got`` has the flowed topology of the reference ``want``, at a value
    not above it beyond rounding."""
    assert got.flowed == want.flowed
    assert got.value <= want.value + 1e-12 * (1.0 + got.value)


def assert_matches_kernel_only(ft, b, alpha):
    """``optimize_topology`` against :func:`kernel_only_optimize`: the same
    flowed topology and not above it.  Every kernel run that ended early
    returned a certified lift, and when none did and the star pass placed
    no topology by Newton, the result is the reference's bit for bit.
    Returns the number of topologies the star pass placed by Newton."""
    got, records, calls = minimizations(
        lambda trace: optimize_topology(ft, b, alpha, trace))
    want = kernel_only_optimize(ft, b, alpha)
    assert_not_above(got, want)
    placed = newton_placed(records)
    if not assert_exits_certified(calls, alpha) and not placed:
        assert got.placement == want.placement
        assert got.value == want.value
    return placed


def assert_stars_match_kernel(fts, b, alpha, monkeypatch):
    """:func:`assert_matches_kernel_only` on every topology of ``fts``, and
    :func:`assert_star_pass_sound` on every topology with a branch vertex
    that the star pass sees on the way.  Returns how many of those it
    settled stars of, placed by Newton and left to the kernel."""
    seen = {}
    real = placement._place_stars

    def recording(ft, *args):
        seen.setdefault(ft.edges, ft)
        return real(ft, *args)

    with monkeypatch.context() as patch:
        patch.setattr(placement, "_place_stars", recording)
        for ft in fts:
            assert_matches_kernel_only(ft, b, alpha)
    outcomes = [assert_star_pass_sound(ft, b, alpha)
                for ft in seen.values() if ft.n_branch]
    return tuple(map(outcomes.count, ("settled", "newton", "kernel")))


def test_settled_stars_match_kernel_on_local4_candidates(monkeypatch):
    cells = build_cells(SweepSpec(alphas=(0.5, 0.6, 0.75), n_instances=4,
                                  rho=0.05, seed=3))
    fired = newton = fallback = 0
    for alpha, k, _, _, _, disp, theta in cells:
        b = four_point_instance(k, disp, theta).boundary()
        fts = [ft for _, ft in _local4_candidates(
            tuple(m for _, m in b.atoms), ("A", "B", "C", "D"))
            if ft.n_branch]
        settled, placed, fell_back = assert_stars_match_kernel(
            fts, b, alpha, monkeypatch)
        fired += settled
        newton += placed
        fallback += fell_back
    # one star still falls back; the two-branch cases run the kernel, held
    # to the kernel-only value by assert_matches_kernel_only
    assert fired > 0 and newton > 0 and fallback > 0


def test_two_star_forest_of_the_distinct_mass_six_atom_instance(
        bench_instances, monkeypatch):
    b, alpha = bench_instances("solve-n6", 0)[1]
    stars = [ft for ft in enumerate_topologies(b)
             if ft.n_branch == 2
             and all(min(e) < 6 for e in ft.edges)]
    assert len(stars) == 1
    # one block's star settles on an atom, then Newton places the other's
    found = star_pass(stars[0], b, alpha)
    assert isinstance(found, list) and len(found) == 1
    assert assert_matches_kernel_only(stars[0], b, alpha) == 1
    assert assert_stars_match_kernel(stars, b, alpha, monkeypatch) == (1, 1, 0)


def test_every_star_of_the_six_atom_instances_matches_kernel(
        six_atom_optima):
    # every star topology that an optimize_topology call ends at, as given
    # or after a contraction
    newton = 0
    for b, alpha, _, memo in six_atom_optima:
        n = len(b.atoms)
        stars = {res.flowed.edges: res.flowed
                 for res in memo.values()
                 if res.flowed.n_branch
                 and all(min(e) < n for e in res.flowed.edges)
                 }.values()
        newton += sum(assert_star_pass_sound(ft, b, alpha) == "newton"
                      for ft in stars)
    assert newton > 0


def test_settled_stars_match_kernel_on_3d_instances(bench_instances,
                                                   monkeypatch):
    fired = newton = 0
    for b, alpha in bench_instances("solve-3d", 0):
        settled, placed, _ = assert_stars_match_kernel(
            list(enumerate_topologies(b)), b, alpha, monkeypatch)
        fired += settled
        newton += placed
    assert fired > 0 and newton > 0


STAR_MASSES = [(-2, 1, 1), (-3, 1, 2), (-1, -1, 2), (-3, F(1, 2), 2, F(1, 2)),
               (-5, 1, 1, 3), (-4, -1, 2, 1, 2), (-2, -1, F(1, 2), 1, 1, F(1, 2))]


def star(atoms):
    """The one-branch star over the (point, mass) ``atoms``, and its boundary."""
    b = make_boundary((p, F(m)) for p, m in atoms)
    n = len(b.atoms)
    return assign_flows(1, tuple((i, n) for i in range(n)), b), b


def random_star(seed, masses, dim):
    rng = random.Random(seed)
    return star((tuple(rng.uniform(0.0, 2.0) for _ in range(dim)), m)
                for m in masses)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), masses=st.sampled_from(STAR_MASSES),
       dim=st.sampled_from([2, 3]), alpha=st.floats(0.05, 1.0))
def test_settled_star_atom_is_not_above_the_kernel(seed, masses, dim, alpha):
    ft, b = random_star(seed, masses, dim)
    n = len(masses)
    found = star_pass(ft, b, alpha)
    for t, star_vertex in found if isinstance(found, list) else ():
        assert star_vertex == n
        terminals = tuple(p for p, _ in b.atoms)
        at_atom = energy(ft, Placement(terminals, (terminals[t],)), alpha)
        v = kernel_minimize(ft, b, alpha).value
        assert at_atom <= v + 1e-12 * (1.0 + v)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), masses=st.sampled_from(STAR_MASSES),
       dim=st.sampled_from([2, 3]),
       alpha=st.floats(0.05, 1.0, exclude_min=True))
def test_newton_star_is_certified_and_not_above_the_kernel(seed, masses, dim,
                                                          alpha):
    ft, b = random_star(seed, masses, dim)
    assert_star_pass_sound(ft, b, alpha)


def _near_atom_star():
    # the symmetric V with its source 5e-11 before the optimum on the axis
    # (test_bound_tight_at_analytic_y has the angle law), turned into a
    # generic pose: the direction to the source is then known to about
    # 1e-16 / 5e-11, so the gradient cannot reach the stopping threshold
    h, alpha = 0.3, 0.6
    x = 1.0 - h / math.tan(math.acos(2.0 ** (alpha - 1.0)))
    c, s = math.cos(0.7), math.sin(0.7)
    pose = [(x - 5e-11, 0.0), (1.0, h), (1.0, -h)]
    return star(((c * p[0] - s * p[1] + 0.3, s * p[0] + c * p[1] - 0.2), m)
                for p, m in zip(pose, (-2, 1, 1))), alpha


FALLBACK_STARS = {
    # the Hessian is zero on a line
    "1-D": lambda: (star((((0.0,), -2), ((1.0,), 1), ((3.0,), 1))), 0.6),
    "collinear 2-D": lambda: (star((((0.1, 0.2), -2), ((1.1, 1.2), 1),
                                    ((3.1, 3.2), 1))), 0.6),
    # the tie of test_tied_star_falls_through_to_the_kernel: every point
    # between the last two atoms minimizes
    "tied line": lambda: (star((((0.0, 0.0), -1), ((1.0, 0.0), -1),
                                ((2.0, 0.0), 2))), 1.0),
    "optimum 5e-11 from an atom": _near_atom_star,
}


@pytest.mark.parametrize("case", sorted(FALLBACK_STARS))
def test_star_falls_back_to_the_kernel(case):
    # Newton gives each star up; the star pass settles the collinear ones on
    # their middle atom by Kuhn's test first, and hands the others to the
    # kernel
    (ft, b), alpha = FALLBACK_STARS[case]()
    assert placement._star_newton([
        (wi, b.atoms[o][0])
        for wi, o in placement._incident(ft, alpha, ft.n_terminals)
    ]) is None
    assert assert_star_pass_sound(ft, b, alpha) == (
        "settled" if case in ("1-D", "collinear 2-D") else "kernel")


def test_certificate_refuses_a_star_off_its_optimum(monkeypatch, v_boundary):
    # a Newton run that stopped early, at the weighted barycenter: the dual
    # bound refuses the point and the kernel places the star
    ft = y_topology(v_boundary)
    monkeypatch.setattr(placement, "_star_newton", lambda atoms: (tuple(
        sum(w * p[i] for w, p in atoms) / sum(w for w, _ in atoms)
        for i in range(2)), 0))
    assert assert_star_pass_sound(ft, v_boundary, 0.75) == "kernel"


def test_tied_star_falls_through_to_the_kernel(monkeypatch):
    # atoms of masses -1, -1, 2 at 0, 1 and 2 on a line: at alpha = 1 the
    # criterion holds with equality at the last two, and every point
    # between them minimizes.  On tilted and scaled lines the unit vectors
    # round, and the star pass must neither settle the tie either way nor
    # place it by Newton
    rng = random.Random(7)
    calls = []
    real = placement.minimize
    monkeypatch.setattr(placement, "minimize",
                        lambda ft, *a: calls.append(ft) or real(ft, *a))
    for _ in range(200):
        angle, size = rng.uniform(0.0, 2 * math.pi), rng.uniform(0.1, 10.0)
        u = (size * math.cos(angle), size * math.sin(angle))
        o = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        b = make_boundary(((o[0] + s * u[0], o[1] + s * u[1]), F(m))
                          for s, m in ((0, -1), (1, -1), (2, 2)))
        ft = y_topology(b)
        assert star_pass(ft, b, 1.0) is None
    calls.clear()
    records = []
    optimize_topology(ft, b, 1.0, trace=records.append)
    assert calls[0] is ft
    assert records[0]["stage"] == "eps" and not newton_placed(records)


# the star of the seed-7 cell a0.5-78 of the benchmark's local4-sweep: from
# the barycenter Newton's iterates converge onto atom B, at 8.8204666, where
# Kuhn's test fails by 3.8e-4, above the optimum 8.8204553
TRAPPED_STAR = (((-4.0, 0.0570743), -1), ((-1.0, 0.0823184), F(1, 6)),
                ((1.0, -0.1109553), F(-1, 6)), ((4.0, 0.1068552), 1))


def test_newton_steps_off_the_atom_that_traps_its_path():
    ft, b = star(TRAPPED_STAR)
    assert assert_star_pass_sound(ft, b, 0.5) == "newton"
    assert optimize_topology(ft, b, 0.5).value < 8.8204666 - 1e-8


def test_collinear_star_at_a_tied_atom_returns_without_raising():
    # the tied lines of test_tied_star_falls_through_to_the_kernel: the best
    # atom fails Kuhn's test on some of them by rounding, where the step-off
    # has no curvature along the line
    rng = random.Random(7)
    for _ in range(200):
        angle, size = rng.uniform(0.0, 2 * math.pi), rng.uniform(0.1, 10.0)
        u = (size * math.cos(angle), size * math.sin(angle))
        o = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        assert placement._star_newton(
            [(w, (o[0] + s * u[0], o[1] + s * u[1]))
             for s, w in ((0, 1.0), (1, 1.0), (2, 2.0))]) is None


def test_spent_newton_budget_falls_back_to_the_kernel(monkeypatch,
                                                      v_boundary):
    # one Newton step does not reach the V's branch point: the star pass
    # refuses the star and the kernel places it
    monkeypatch.setattr(placement, "_STAR_STEPS", 1)
    ft = y_topology(v_boundary)
    assert assert_star_pass_sound(ft, v_boundary, 0.5) == "kernel"
    got, records, calls = minimizations(
        lambda trace: optimize_topology(ft, v_boundary, 0.5, trace))
    assert calls[-1][0] is ft and not newton_placed(records)
    assert_not_above(got, kernel_only_optimize(ft, v_boundary, 0.5))


def test_star_beside_a_branch_branch_edge_runs_the_kernel():
    # a wide V (sinks at 63 degrees off the axis) whose star alone settles
    # on its source, and an H whose two branch vertices are joined: the star
    # pass refuses the whole forest, and the kernel places the star with
    # the H's branch vertices
    b = make_boundary([((0.0, 0.0), F(-2)), ((1.0, 2.0), F(1)),
                       ((1.0, -2.0), F(1)), ((5.0, 0.0), F(-1)),
                       ((5.0, 1.0), F(-1)), ((7.0, 0.0), F(1)),
                       ((7.0, 1.0), F(1))])
    alpha = 0.5
    ft = assign_flows(3, ((0, 7), (1, 7), (2, 7), (3, 8), (4, 8), (5, 9),
                          (6, 9), (8, 9)), b)
    v, v_boundary = star(b.atoms[:3])
    assert star_pass(v, v_boundary, alpha) == [(0, 3)]
    assert star_pass(ft, b, alpha) is None
    got, records, calls = minimizations(
        lambda trace: optimize_topology(ft, b, alpha, trace))
    assert calls[-1][0] is ft and records[0]["stage"] == "eps"
    assert_exits_certified(calls, alpha)
    assert_not_above(got, kernel_only_optimize(ft, b, alpha))


# ---------------------------------------------------------------------------
# two-branch topologies: settled by the kernel's early exit, against the
# full schedule
# ---------------------------------------------------------------------------

def two_branch(fts):
    """The topologies of ``fts`` with two branch vertices joined by an edge."""
    return [ft for ft in fts if ft.n_branch == 2
            and sum(min(e) >= ft.n_terminals
                    for e in ft.edges) == 1]


FOUR_MASSES = [(-1, -1, 1, 1), (-3, 1, 1, 1), (-2, F(1, 2), 1, F(1, 2)),
               (-1, F(1, 6), F(-1, 6), 1), (-2, 1, -1, 2)]


def test_two_branch_topology_is_not_above_the_kernel():
    # random 4-atom instances, and four-point cells whose two-branch
    # topologies are the lab's cases 3a, 3b and 3c; across the examples
    # some kernel runs end at a certified collapse
    exits = []

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10 ** 6), masses=st.sampled_from(FOUR_MASSES),
           source=st.sampled_from(["2-D", "3-D", "lab"]),
           alpha=st.floats(0.05, 1.0, exclude_min=True))
    def check(seed, masses, source, alpha):
        rng = random.Random(seed)
        if source == "lab":
            k, theta = rng.choice([(6, 1), (11, 1), (83, F(3, 2))])
            b = four_point_instance(k, tuple(rng.uniform(-0.15, 0.15)
                                             for _ in range(4)),
                                    theta).boundary()
            fts = [ft for _, ft in _local4_candidates(
                tuple(m for _, m in b.atoms), ("A", "B", "C", "D"))]
        else:
            dim = 2 if source == "2-D" else 3
            b = make_boundary((tuple(rng.uniform(0.0, 2.0)
                                     for _ in range(dim)), F(m))
                              for m in masses)
            fts = enumerate_topologies(b)
        for ft in two_branch(fts):
            got, _, calls = minimizations(
                lambda trace: optimize_topology(ft, b, alpha, trace))
            want = kernel_only_optimize(ft, b, alpha)
            assert got.value <= want.value + 1e-12 * (1.0 + got.value)
            exits.append(assert_exits_certified(calls, alpha))
    check()
    assert sum(exits) > 0


def lab_cells():
    """Seed-0 cells at the smallest benchmark rho, and the cell whose star
    trapped Newton (TRAPPED_STAR), as (alpha, k, displacements, theta)."""
    cells = [(alpha, k, disp, theta) for alpha, k, _, _, _, disp, theta in
             build_cells(SweepSpec(alphas=(0.5, 0.6, 0.75), n_instances=8,
                                   rho=0.0117, seed=0))]
    cells.append((0.5, 6, (0.05707428195588432, 0.0823184323261594,
                           -0.11095528102423688, 0.10685516499282702), 1))
    return cells


def test_lab_cells_two_branch_runs_end_at_a_certified_collapse():
    # every star is placed by Kuhn's test or Newton, and the kernel runs
    # only on two-branch cases; each of those runs ends after its first
    # stage at a certified collapse
    cells = lab_cells()
    runs = 0
    for alpha, k, disp, theta in cells:
        (cls, _, calls), attempts = kernel_attempts(lambda: minimizations(
            lambda trace: local4_solve(four_point_instance(k, disp, theta),
                                       alpha)))
        assert cls.label in ("W", "Z")
        assert attempts and all(attempts)
        kernel = [(ft, own) for ft, _, own in calls
                  if own and own[0]["stage"] == "eps"]
        for ft, own in kernel:
            assert two_branch([ft])
            assert [r["stage"] for r in own] == ["eps", "collapse", "done"]
        assert assert_exits_certified(calls, alpha) == len(kernel)
        runs += len(kernel)
    assert runs >= 2 * len(cells)


def test_dented_square_collinear_tie_ends_at_a_certified_collapse(
        square_boundary):
    # the square dented at radius 0.05, as in the uniqueness-square
    # benchmark: atoms 0-3 lie on the line x = 0.  Merging the branch
    # vertices of this topology gives a star over those four atoms with a
    # tie along the line, which Newton gives up to the kernel.  The kernel
    # run on the topology ends after its first stage: the early exit
    # optimizes the star like any topology, by a kernel run of 3 stages,
    # lifts it and certifies it.  The trace shows that nested run between
    # the first stage and the "collapse" record
    cfg = SolverConfig(alpha=0.6)
    base = solve(square_boundary, cfg)
    _, b = perturb(PerturbationSpec(base.minimizers[0].chain,
                                    magic_points(base, 0),
                                    estimate_k0(0.6) + 1, 0.05))
    assert all(p[0] == 0.0 for p, _ in b.atoms[:4])
    (ft,) = [ft for ft in two_branch(enumerate_topologies(b))
             if ft.edges == ((0, 6), (1, 7), (2, 6), (3, 7), (4, 5),
                                      (6, 7))]
    (got, records, calls), attempts = kernel_attempts(lambda: minimizations(
        lambda trace: optimize_topology(ft, b, cfg.alpha, trace)))
    assert attempts == [True]
    assert [(f.n_branch, exited(own)) for f, _, own in calls] == [
        (1, False), (2, True)]
    assert [r["stage"] for r in records] == (
        ["eps"] * 4 + ["done", "collapse", "done"])
    assert assert_exits_certified(calls, cfg.alpha) == 1
    assert_not_above(got, kernel_only_optimize(ft, b, cfg.alpha))


# ---------------------------------------------------------------------------
# the kernel's early exit at a certified collapse, against the full schedule
# ---------------------------------------------------------------------------

def kernel_attempts(run):
    """``run()`` with the kernel's early-exit attempts recorded: returns its
    result and, per attempt, whether the lift was certified.  A kernel run
    attempts a contraction the first time it sees it, and never again."""
    attempts = []
    real = placement._run_kernel

    def kernel(ft, terminals, alpha, trace, settle, start=None):
        seen = set()

        def watched(pl):
            contracted = detect_collapse(ft, pl)[0]
            found = settle(pl)
            if contracted is not ft and contracted not in seen:
                seen.add(contracted)
                attempts.append(found is not None)
            return found
        return real(ft, terminals, alpha, trace, watched, start)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(placement, "_run_kernel", kernel)
        return run(), attempts


def lifted_to_3d(b):
    """The planar boundary ``b`` at z = 0."""
    return make_boundary((p + (0.0,), m) for p, m in b.atoms)


@pytest.mark.parametrize("family", ["solve-n6", "solve-n6 at z = 0",
                                    "solve-3d"])
def test_early_exits_match_the_full_schedule(family, bench_instances):
    # every topology with 3 or more branch vertices of the solve workloads:
    # solve-n6 at seeds 0-2, planar and lifted to z = 0, and solve-3d at
    # seeds 0-9.  Some kernel runs end early, and some lifts are refused
    if family == "solve-3d":
        cases = [case for seed in range(10)
                 for case in bench_instances("solve-3d", seed)]
    else:
        cases = [(lifted_to_3d(b) if family.endswith("z = 0") else b, alpha)
                 for seed in range(3)
                 for b, alpha in bench_instances("solve-n6", seed)]
    certified = refused = 0
    for b, alpha in cases:
        memo, reference = {}, {}
        for ft in enumerate_topologies(b):
            if ft.n_branch < 3:
                continue
            (got, _, calls), attempts = kernel_attempts(
                lambda: minimizations(
                    lambda trace: optimize_topology(ft, b, alpha, trace, memo)))
            if assert_exits_certified(calls, alpha):
                assert_not_above(got, kernel_only_optimize(ft, b, alpha,
                                                           reference))
            certified += sum(attempts)
            refused += len(attempts) - sum(attempts)
    assert certified > 0 and refused > 0


def settle_calls(run):
    """``run()`` with every ``settle`` call of every kernel run recorded:
    returns its result and, per run, one (contracted, exited) pair per call
    in order: whether ``detect_collapse`` contracts the placement the
    kernel handed over, and whether ``settle`` ended the run there."""
    runs = []
    real = placement._run_kernel

    def kernel(ft, terminals, alpha, trace, settle, start=None):
        calls = []
        runs.append(calls)

        def watched(pl):
            found = settle(pl)
            calls.append((detect_collapse(ft, pl)[0] is not ft,
                          found is not None))
            return found
        return real(ft, terminals, alpha, trace, watched, start)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(placement, "_run_kernel", kernel)
        return run(), runs


def seed_zero_cases(case, bench_instances, bench_dent):
    """The seed-0 (boundary, alpha) pairs of ``case``: a solve workload's
    instances, or the dented square ("dent")."""
    if case == "dent":
        return [tuple(bench_dent(0)[1:])]
    return bench_instances(case, 0)


@pytest.mark.parametrize("case", ["solve-n6", "solve-3d", "dent"])
def test_full_schedule_settles_once_per_stage(case, bench_instances,
                                              bench_dent):
    # a settle that never ends the run receives the snapped placement after
    # each of the three stages, once, the last one where the run ends
    runs = 0
    for b, alpha in seed_zero_cases(case, bench_instances, bench_dent):
        terminals = tuple(p for p, _ in b.atoms)
        for ft in enumerate_topologies(b):
            if not ft.n_branch:
                continue
            seen, records = [], []
            pos, _, found = placement._run_kernel(
                ft, terminals, alpha, records.append, seen.append)
            assert found is None
            assert [r["stage"] for r in records] == ["eps"] * 3
            assert len(seen) == 3
            assert all(pl.terminals == terminals for pl in seen)
            assert seen[-1].branch == tuple(map(tuple, pos))
            runs += 1
    assert runs > 0


@pytest.mark.parametrize("case", ["solve-n6", "solve-3d", "dent"])
def test_runs_exit_only_where_detect_collapse_contracts(case, bench_instances,
                                                        bench_dent):
    # the seed-0 solves with the real settle: a run ends at the first stage
    # whose lift settle certifies, only where detect_collapse contracts the
    # snapped placement, and otherwise settles once per stage
    exits = 0
    for b, alpha in seed_zero_cases(case, bench_instances, bench_dent):
        _, runs = settle_calls(lambda: solve(b, SolverConfig(alpha=alpha)))
        for calls in runs:
            *before, (contracted, exited) = calls
            assert not any(e for _, e in before)
            assert exited or len(calls) == 3
            assert contracted or not exited
            exits += exited
    assert exits > 0


def test_a_contraction_met_again_is_optimized_once():
    # row 13 of the random set's third instance (6 atoms in 3-D, alpha 0.7):
    # its kernel run contracts to one topology after each of its three
    # stages and certifies none of the lifts.  Each settle asks for the
    # contraction's optimum, and so does the contraction of the result, but
    # it is optimized once, by the first settle, and then found in the
    # memo; the run ends as one that skips the repeats ends, with the same
    # records
    b, alpha = random_set()[2]
    ft = forest_rows(tuple(m for _, m in b.atoms)).topology(13)
    real_kernel, real_place = placement._run_kernel, placement._place_stars
    real_optimize = placement.optimize_topology

    def run(skip_repeats):
        met, asked, placed, records = [], Counter(), Counter(), []

        def kernel(g, terminals, alpha, trace, settle, start=None):
            def watched(pl):
                if g is ft:
                    met.append(detect_collapse(g, pl)[0])
                    if skip_repeats and met.count(met[-1]) > 1:
                        return None
                return settle(pl)
            return real_kernel(g, terminals, alpha, trace, watched, start)

        def optimize(g, *args):
            asked[g.edges] += 1
            return real_optimize(g, *args)

        def place(g, terminals, alpha):
            placed[g.edges] += 1
            return real_place(g, terminals, alpha)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(placement, "_run_kernel", kernel)
            patch.setattr(placement, "optimize_topology", optimize)
            patch.setattr(placement, "_place_stars", place)
            res = optimize_topology(ft, b, alpha, records.append, {})
        return res, met, asked, placed, records

    res, met, asked, placed, records = run(skip_repeats=False)
    assert len(met) == 3 and met[0] is not ft
    assert all(c is met[0] for c in met)
    assert asked[met[0].edges] == 4 and placed[met[0].edges] == 1
    stages = [r["stage"] for r in records]
    assert stages.count("done") == 2 and "collapse" not in stages
    skipped = run(skip_repeats=True)
    assert skipped[0] == res and skipped[-1] == records


SIX_MASSES = [(-1, -1, 1, 1, -1, 1), (-3, F(-1, 2), 2, 1, F(3, 2), -1),
              (-2, 1, 1, -1, F(1, 2), F(1, 2)), (-4, 1, 1, 1, 1),
              (-2, -1, 1, 1, 1), (-3, F(1, 2), 2, F(-1, 2), 1)]


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10 ** 6), masses=st.sampled_from(SIX_MASSES),
       dim=st.sampled_from([2, 3]), alpha=st.floats(0.05, 1.0),
       picks=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=3))
def test_early_exit_is_not_above_the_full_schedule(seed, masses, dim, alpha,
                                                   picks):
    # random 5- and 6-atom instances: a few of their topologies with 3 or
    # more branch vertices
    rng = random.Random(seed)
    b = make_boundary((tuple(rng.uniform(0.0, 2.0) for _ in range(dim)),
                       F(m)) for m in masses)
    fts = [ft for ft in enumerate_topologies(b) if ft.n_branch >= 3]
    for i in picks:
        assert_matches_kernel_only(fts[i % len(fts)], b, alpha)


def assert_lifts(ft, res, alpha):
    """``res.lift`` realizes ``res`` on ``ft``: the terminals stay, and every
    vertex at its image's position gives the result's chain, at an energy
    not below its value (parallel edges that combined may cost more apart).
    Returns whether any branch vertex moved to another label."""
    n = ft.n_terminals
    assert len(res.lift) == n + ft.n_branch
    assert res.lift[:n] == tuple(range(n))
    pl = res.placement
    lifted = lifted_placement(ft, res)
    tol = SolverConfig(alpha=alpha).distinct_tol
    assert support_difference_mass(
        canonicalize(realize_chain(ft, lifted)),
        canonicalize(realize_chain(res.flowed, pl)), tol) <= tol
    assert energy(ft, lifted, alpha) >= res.value - 1e-12 * (1.0 + res.value)
    return res.lift != tuple(range(len(res.lift)))


def test_lift_realizes_the_result_on_the_given_topology(six_atom_optima):
    cells = build_cells(SweepSpec(alphas=(0.5, 0.6, 0.75), n_instances=4,
                                  rho=0.05, seed=3))
    assert len(cells) == 12
    contracted = 0
    for alpha, k, _, _, _, disp, theta in cells:
        b = four_point_instance(k, disp, theta).boundary()
        memo = {}
        for _, ft in _local4_candidates(tuple(m for _, m in b.atoms),
                                        ("A", "B", "C", "D")):
            contracted += assert_lifts(
                ft, optimize_topology(ft, b, alpha, memo=memo), alpha)
    for _, alpha, optima, _ in six_atom_optima:
        for ft, res in optima:
            contracted += assert_lifts(ft, res, alpha)
    assert contracted > 0


# the stage solver of d != 2 before the Newton steps, kept as their reference
def _sweeps_nd(pos, incident, e2, budget, tol):
    """Gauss-Seidel Weiszfeld sweeps in any dimension: each branch vertex in
    turn moves to the barycenter of its neighbors with weights
    w_e / sqrt(len^2 + e2), until no coordinate moves more than ``tol``, at
    most ``budget`` sweeps; returns the number run."""
    for done in range(1, budget + 1):
        move = 0.0
        for b, edges in incident:
            x = pos[b]
            num = [0.0] * len(x)
            den = 0.0
            for wi, other in edges:
                q = pos[other]
                coef = wi / math.sqrt(sum((a - c) ** 2 for a, c in zip(x, q)) + e2)
                den += coef
                for i, c in enumerate(q):
                    num[i] += coef * c
            newx = [c / den for c in num]
            move = max(move, max(abs(a - c) for a, c in zip(newx, x)))
            pos[b] = newx
        if move <= tol:
            return done
    return budget


def _reference_stage(pos, graph, e2, budget, tol):
    """:func:`_sweeps_nd` behind the signature of ``_newton_steps``."""
    a_t, ab, w = graph
    a = np.vstack((a_t, ab))
    incident = [(b, [(float(w[e]), next(int(v) for v in np.flatnonzero(a[:, e])
                                        if v != b))
                     for e in np.flatnonzero(a[b])])
                for b in range(len(a_t), len(a))]
    return _sweeps_nd(pos, incident, e2, budget, tol)


# the smoothing schedule before the three-stage kernel, kept as its reference
def _continuation_kernel(ft, terminals, alpha, trace, settle=None,
                         start=None):
    """:func:`placement._run_kernel` as a continuation: eps from
    ``EPS_INIT`` shrinking by ``EPS_DECAY`` per stage down to ``EPS_MIN``,
    nine stages, each by the dimension's stage solver, the planar floor by
    up to 400 sweeps, and a collapse attempt after every stage but the
    last.  It starts at ``start`` when given, as the kernel does."""
    n = ft.n_terminals
    w = placement._weights(ft, alpha)
    scale = placement._scale(terminals)
    a = placement._incidence(ft)
    if start is None:
        start = placement._branch_positions(
            a[None, n:], np.ones((1, len(ft.edges))),
            a[None, :n].transpose(0, 2, 1)
            @ np.asarray(terminals, dtype=float))[0]
    pos = [list(p) for p in terminals] + np.asarray(start, float).tolist()
    nv = len(pos)
    if len(terminals[0]) == 2:
        graph = [(b, placement._incident(ft, alpha, b)) for b in range(n, nv)]
        stage = placement._sweeps_2d
    else:
        graph = (a[:n], a[n:], np.array(w))
        stage = placement._newton_steps

    def exact_energy():
        return sum(wi * math.dist(pos[u], pos[v])
                   for wi, (u, v) in zip(w, ft.edges))

    iters = 0
    eps = placement.EPS_INIT * scale
    eps_floor = placement.EPS_MIN * scale
    move_tol = 1e-11 * scale
    while True:
        final = eps <= eps_floor
        iters += stage(pos, graph, eps * eps, 400 if final else 200,
                       move_tol if final else max(2e-2 * eps, move_tol))
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
            return pos[n:], iters, None
        if collapsed and settle is not None and (found := settle(Placement(
                terminals, tuple(map(tuple, pos[n:]))))) is not None:
            if trace is not None:
                pos[n:] = found.placement.branch
                trace({"stage": "collapse", "iteration": iters,
                       "value": exact_energy()})
            return found.placement.branch, iters, found
        eps = max(eps * placement.EPS_DECAY, eps_floor)


def solve_recorded(b, alpha, every):
    """``solve`` on ``b``, with the result of every ``optimize_topology``
    call on the way, nested ones included, by topology edges; with
    ``every``, then of every topology of ``b``."""
    results = {}
    real = placement.optimize_topology

    def recording(ft, b, alpha, trace=None, memo=None, start=None):
        res = real(ft, b, alpha, trace, memo, start)
        results[ft.edges] = res
        return res
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(placement, "optimize_topology", recording)
        patch.setattr(solver_module, "optimize_topology", recording)
        report = solve(b, SolverConfig(alpha=alpha))
        memo = {}
        for ft in enumerate_topologies(b) if every else ():
            recording(ft, b, alpha, memo=memo)
        return report, results


def test_three_stages_match_the_continuation(bench_instances):
    # solve-n6 at seeds 0-2, solve-3d at seed 0 and random 5- and 6-atom
    # instances in 2-D and 3-D: the same solve as the continuation
    # reference, and no topology the solves optimize above it, nor any
    # topology of the seed-0 instances.  A reference value below its own
    # lower bound comes from a contraction that merged parallel edges
    rng = random.Random(29)
    cases = bench_instances("solve-n6", 0) + bench_instances("solve-3d", 0)
    every = len(cases)
    cases += [case for seed in (1, 2)
              for case in bench_instances("solve-n6", seed)]
    for i in range(20):
        masses = SIX_MASSES[i % len(SIX_MASSES)]
        dim = 2 + i % 2
        cases.append((make_boundary(
            (tuple(rng.uniform(0.0, 2.0) for _ in range(dim)), F(m))
            for m in masses), rng.uniform(0.05, 1.0)))
    for i, (b, alpha) in enumerate(cases):
        new, got = solve_recorded(b, alpha, i < every)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(placement, "_run_kernel", _continuation_kernel)
            ref, want = solve_recorded(b, alpha, i < every)
        assert new.best_value == pytest.approx(ref.best_value, rel=1e-9)
        assert len(new.minimizers) == len(ref.minimizers)
        assert new.gap == pytest.approx(ref.gap, rel=1e-9)
        for key in got.keys() & want.keys():
            v, r = got[key].value, want[key]
            if r.value >= r.lower:
                assert v <= r.value + 1e-12 * (1.0 + v)


def test_floor_stops_short_of_a_collapse_the_continuation_certifies():
    # a 4-branch topology of a random planar 6-atom instance, whose optimum
    # puts every branch vertex on atom 1, at 4.016292880.  The continuation
    # snaps them together at its third eps and certifies that collapse.
    # The three stages reach the Newton floor with them about 1e-6 off the
    # atom, where no single snap lowers the energy, and the result stays
    # 1.3e-7 above, uncertified
    b = make_boundary(zip(
        [(0.06271409917692905, 1.2765022137129711),
         (0.34729872447660703, 1.2965437548245857),
         (0.46811282361062534, 1.8425813532718875),
         (0.8858759526888207, 0.4443166343653573),
         (1.3047737529846775, 0.33444556855991747),
         (1.8802007358491206, 1.8215161121568442)],
        (F(1, 2), F(-1), F(1), F(1), F(1, 2), F(-2))))
    alpha = 0.10029077827283747
    (ft,) = [ft for ft in enumerate_topologies(b) if ft.edges == (
        (0, 7), (1, 9), (2, 6), (3, 8), (4, 8), (5, 9), (6, 7), (6, 9),
        (7, 8))]
    res = optimize_topology(ft, b, alpha)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(placement, "_run_kernel", _continuation_kernel)
        ref = optimize_topology(ft, b, alpha)
    assert ref.flowed.n_branch == 0 and ref.converged
    assert ref.value == pytest.approx(4.016292880, abs=1e-9)
    assert res.value == pytest.approx(4.016293007, abs=1e-9)
    assert not res.converged


def test_newton_never_above_planar_sweep_on_lifted_topologies(bench_instances):
    # lifted to z = 0 a planar topology runs Newton steps in its smoothing
    # stages instead of the planar sweeps; both end on the same Newton
    # floor, so the values agree to rounding
    checked = 0
    for b, alpha in bench_instances("solve-n6", 0):
        lifted = lifted_to_3d(b)
        assert [m for _, m in lifted.atoms] == [m for _, m in b.atoms]
        for ft in enumerate_topologies(b):
            if ft.n_branch == 0:
                continue
            flat, space = minimize(ft, b, alpha), minimize(ft, lifted, alpha)
            assert space.value == pytest.approx(flat.value, rel=1e-11, abs=0.0)
            checked += 1
    assert checked == 112


def test_newton_solve_matches_reference_sweep_solve(bench_instances,
                                                   monkeypatch):
    instances = bench_instances("solve-3d", 0)
    newton = [solve(b, SolverConfig(alpha=alpha)) for b, alpha in instances]
    stages = []
    monkeypatch.setattr(placement, "_newton_steps",
                        lambda *args: stages.append(1) or _reference_stage(*args))
    for (b, alpha), new in zip(instances, newton):
        cfg = SolverConfig(alpha=alpha)
        ref = solve(b, cfg)
        assert abs(new.best_value - ref.best_value) <= cfg.value_tol * (
            1.0 + ref.best_value)
        assert len(new.minimizers) == len(ref.minimizers)
        for got, want in zip(new.minimizers, ref.minimizers):
            assert support_difference_mass(
                got.chain, want.chain, cfg.distinct_tol) <= cfg.distinct_tol
        assert new.gap == pytest.approx(ref.gap, rel=1e-7, abs=1e-7)
    assert stages


V = make_boundary([((0.0, 0.0), F(-2)), ((1.0, 0.3), F(1)),
                   ((1.0, -0.3), F(1))])
SQUARE = make_boundary([((0.0, 0.0), F(-1)), ((1.0, 1.0), F(-1)),
                        ((1.0, 0.0), F(1)), ((0.0, 1.0), F(1))])


@pytest.mark.parametrize("build,message", [
    (lambda: minimize(y_topology(V), V, 0.0), r"alpha must lie in \(0, 1\]"),
    (lambda: minimize(y_topology(V), V, 1.5), r"alpha must lie in \(0, 1\]"),
    (lambda: minimize(y_topology(V), SQUARE, 0.5),
     "boundary does not match topology terminal count"),
    (lambda: optimize_topology(y_topology(V), V, 0.0),
     r"alpha must lie in \(0, 1\]"),
    (lambda: optimize_topology(y_topology(V), V, 1.5),
     r"alpha must lie in \(0, 1\]"),
    (lambda: optimize_topology(y_topology(V), SQUARE, 0.5),
     "boundary does not match topology terminal count"),
    (lambda: lower_bounds([y_topology(V)], V, 0.0),
     r"alpha must lie in \(0, 1\]"),
    (lambda: lower_bounds([y_topology(V)], V, 1.5),
     r"alpha must lie in \(0, 1\]"),
    (lambda: lower_bounds([y_topology(V)], SQUARE, 0.5),
     "boundary does not match topology terminal count"),
    (lambda: dual_bound(y_topology(V), Placement(
        tuple(p for p, _ in V.atoms), ((0.0, 0.0),)), 0.5),
     "a zero-length edge needs eps > 0"),
], ids=["minimize-alpha-0", "minimize-alpha-1.5", "minimize-terminals",
        "optimize-alpha-0", "optimize-alpha-1.5", "optimize-terminals",
        "bounds-alpha-0", "bounds-alpha-1.5", "bounds-terminals",
        "dual-zero-length"])
def test_input_checks(build, message):
    with pytest.raises(ValueError, match=message):
        build()
