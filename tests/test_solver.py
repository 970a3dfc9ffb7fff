"""Global solver: exhaustiveness, minimizer clustering, oracles, quantization."""
import itertools
import math
import random
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from gsteiner.currents import (boundary, branch_points, chain_of, has_loop,
                               make_boundary, support_difference_mass)
from gsteiner.solver import (SolverConfig, brute_force_value, is_in_A_C,
                             magic_points, quantize_boundary,
                             quantize_chain, solve)


def cfg(alpha, **kw):
    return SolverConfig(alpha=alpha, **kw)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_two_atom_segment():
    b = make_boundary([((0.0, 0.0), F(-1)), ((3.0, 4.0), F(1))])
    r = solve(b, cfg(0.5))
    assert r.best_value == pytest.approx(5.0)
    assert len(r.minimizers) == 1
    assert r.gap == math.inf


def test_v_instance_matches_grid_oracle(v_boundary):
    t = np.linspace(0.0, 1.0, 2_000_001)
    f = 2.0 ** 0.75 * t + 2.0 * np.sqrt((1.0 - t) ** 2 + 0.09)
    oracle = float(f.min())
    r = solve(v_boundary, cfg(0.75))
    assert len(r.minimizers) == 1
    assert r.best_value == pytest.approx(oracle, abs=1e-6)
    chain = r.minimizers[0].chain
    assert len(branch_points(chain, v_boundary)) == 1


def test_square_two_distinct_minimizers(square_boundary):
    r = solve(square_boundary, cfg(0.95))
    assert len(r.minimizers) == 2
    for m in r.minimizers:
        assert m.value == pytest.approx(2.0, abs=1e-7)
    d = support_difference_mass(r.minimizers[0].chain, r.minimizers[1].chain,
                                r.distinct_tol)
    assert d > r.distinct_tol
    assert r.gap > 0.5


def test_solver_guards(square_boundary):
    unbalanced = make_boundary([((0.0, 0.0), F(-1)), ((1.0, 0.0), F(2))])
    with pytest.raises(ValueError):
        solve(unbalanced, cfg(0.5))
    seven = make_boundary(
        [((float(i), 0.0), F(1)) for i in range(1, 7)] + [((0.0, 0.0), F(-6))])
    with pytest.raises(ValueError):
        solve(seven, cfg(0.5))
    assert len(seven.atoms) == 7
    # explicit override admits it (not run: enumeration is the point)
    assert cfg(0.5, max_terminals=8).max_terminals == 8


def test_structural_invariants_on_outputs(square_boundary, v_boundary):
    instances = [
        (square_boundary, 0.95), (square_boundary, 0.6),
        (v_boundary, 0.75), (v_boundary, 0.5),
    ]
    for b, alpha in instances:
        r = solve(b, cfg(alpha))
        n = len(b.atoms)
        for m in r.minimizers:
            assert boundary(m.chain).as_dict() == b.as_dict()
            assert not has_loop(m.chain)
            assert len(branch_points(m.chain, b)) <= n - 2
            assert m.residual <= 1e-6


def test_no_duplicate_supports_reported(square_boundary):
    r = solve(square_boundary, cfg(0.95))
    for i in range(len(r.minimizers)):
        for j in range(i + 1, len(r.minimizers)):
            assert support_difference_mass(
                r.minimizers[i].chain, r.minimizers[j].chain,
                r.distinct_tol) > r.distinct_tol


def test_mass_scaling_of_value(v_boundary):
    r1 = solve(v_boundary, cfg(0.75))
    c = F(3, 4)
    r2 = solve(v_boundary.scaled(c), cfg(0.75))
    assert r2.best_value == pytest.approx(
        float(c) ** 0.75 * r1.best_value, rel=1e-9)


def test_cluster_subadditivity_flagged_not_asserted():
    # two far-apart two-atom clusters: best value should equal the sum of the
    # cluster values; empirical, so deviations only warn
    b = make_boundary([((0.0, 0.0), F(-1)), ((1.0, 0.0), F(1)),
                       ((100.0, 0.0), F(-1)), ((101.0, 0.0), F(1))])
    r = solve(b, cfg(0.8))
    expected = 2.0
    if abs(r.best_value - expected) > 1e-7 * (1 + expected):
        warnings.warn(f"cluster subadditivity violated: {r.best_value} vs {expected}")
    assert r.best_value <= expected + 1e-9


# ---------------------------------------------------------------------------
# solve in 3-D
# ---------------------------------------------------------------------------

TETRAHEDRON = ((1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0),
               (-1.0, -1.0, 1.0))


@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9])
def test_regular_tetrahedron_symmetric_under_vertex_permutations(alpha):
    # every permutation of the vertices is an isometry of the regular
    # tetrahedron, and each of the 6 placements of the masses (-1, -1, +1, +1)
    # is the image of the first under one, so all give one value
    reports = [solve(make_boundary(
                   (p, F(-1) if i in sources else F(1))
                   for i, p in enumerate(TETRAHEDRON)), cfg(alpha))
               for sources in itertools.combinations(range(4), 2)]
    first = reports[0]
    # a matching along two opposite edges is a competitor
    assert first.best_value <= 2.0 * math.dist(*TETRAHEDRON[:2]) * (1 + 1e-12)
    for r in reports[1:]:
        assert math.isclose(r.best_value, first.best_value, rel_tol=1e-9)
        assert len(r.minimizers) == len(first.minimizers)


def _force_at(chain, p, alpha):
    """Sum of |m|^alpha times the unit vector along each segment leaving p."""
    total = np.zeros(len(p))
    for s in chain.segments:
        for here, there in ((s.start, s.end), (s.end, s.start)):
            if here == p:
                d = np.subtract(there, here)
                total += float(abs(s.mult)) ** alpha * d / np.linalg.norm(d)
    return total


def test_angle_law_in_3d():
    rng = random.Random(20261018)
    checked = 0
    for masses in [(-2, 1, 1, -1, 1), ("-3", "-1/2", "2", "1", "1/2"),
                   (-3, 1, 1, 1), (-4, 1, 1, 1, 1)]:
        for alpha in (0.3, 0.5, 0.65, 0.8):
            pts = []
            while len(pts) < len(masses):
                p = tuple(round(rng.uniform(0.0, 2.0), 3) for _ in range(3))
                if all(math.dist(p, q) > 0.25 for q in pts):
                    pts.append(p)
            b = make_boundary(zip(pts, (F(m) for m in masses)))
            for rec in solve(b, cfg(alpha)).minimizers:
                for p in branch_points(rec.chain, b):
                    force = _force_at(rec.chain, p, alpha)
                    assert np.linalg.norm(force) <= 1e-6, (b.atoms, alpha, p)
                    checked += 1
    assert checked >= 20


@pytest.mark.parametrize("masses,alpha", [
    ((-1, -1, 1, 1), 0.6),
    (("-3", "1/2", "2", "1/2"), 0.75),
])
def test_planar_instance_in_tilted_plane_in_3d(masses, alpha):
    rng = random.Random(7)
    planar = [(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)) for _ in masses]
    u = np.array([1.0, 2.0, 2.0]) / 3.0
    v = np.array([2.0, 1.0, -2.0]) / 3.0
    origin = np.array([0.5, -1.0, 2.0])
    tilted = [tuple(float(c) for c in origin + x * u + y * v) for x, y in planar]
    flat = solve(make_boundary(zip(planar, (F(m) for m in masses))), cfg(alpha))
    space = solve(make_boundary(zip(tilted, (F(m) for m in masses))), cfg(alpha))
    assert math.isclose(space.best_value, flat.best_value, rel_tol=1e-9)
    assert len(space.minimizers) == len(flat.minimizers)


# ---------------------------------------------------------------------------
# A_C membership
# ---------------------------------------------------------------------------

def test_is_in_A_C_examples(square_boundary):
    pair = make_boundary([((0.0, 0.0), F(-1)), ((1.0, 0.0), F(1))])
    assert is_in_A_C(pair, 2.0, cfg(0.7))
    assert not is_in_A_C(pair, 0.5, cfg(0.7))  # mass 2 > 0.5
    assert is_in_A_C(square_boundary, 4.0, cfg(0.95))


# ---------------------------------------------------------------------------
# magic points
# ---------------------------------------------------------------------------

def test_magic_points_square(square_boundary):
    r = solve(square_boundary, cfg(0.95))
    horizontal = next(
        i for i, m in enumerate(r.minimizers)
        if any(abs(s.start[1] - s.end[1]) < 1e-9 for s in m.chain.segments))
    pts = magic_points(r, horizontal)
    assert len(pts) == 1
    assert pts[0] in (pytest.approx((0.5, 0.0)), pytest.approx((0.5, 1.0)))
    other = r.minimizers[1 - horizontal].chain
    assert all(
        min(_dist_to_chain(p, other) for p in pts) > 0.4 for p in pts)


def test_magic_points_unique_minimizer_empty(v_boundary):
    r = solve(v_boundary, cfg(0.75))
    assert magic_points(r, 0) == ()


def _dist_to_chain(p, chain):
    best = math.inf
    for s in chain.segments:
        d = (s.end[0] - s.start[0], s.end[1] - s.start[1])
        l2 = d[0] ** 2 + d[1] ** 2
        t = ((p[0] - s.start[0]) * d[0] + (p[1] - s.start[1]) * d[1]) / l2
        t = max(0.0, min(1.0, t))
        q = (s.start[0] + t * d[0], s.start[1] + t * d[1])
        best = min(best, math.hypot(p[0] - q[0], p[1] - q[1]))
    return best


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------

def test_quantize_chain_floor_arithmetic():
    c = chain_of([((0.0, 0.0), (1.0, 0.0), F(37, 100)),
                  ((0.0, 1.0), (1.0, 1.0), F(102, 100))])
    q = quantize_chain(c, F(1, 10))
    assert [s.mult for s in q.segments] == [F(3, 10), F(1)]


def test_quantize_chain_eta_integral_unchanged():
    c = chain_of([((0.0, 0.0), (1.0, 0.0), F(3, 10))])
    q = quantize_chain(c, F(1, 10))
    assert boundary(q).as_dict() == boundary(c).as_dict()
    assert [s.mult for s in q.segments] == [F(3, 10)]


def test_quantize_chain_floors_to_zero():
    c = chain_of([((0.0, 0.0), (1.0, 0.0), F(1, 20))])
    q = quantize_chain(c, F(1, 10))
    assert q.segments == ()
    assert boundary(q).atoms == ()


def test_quantize_negative_multiplicity_orientation():
    # orientation-positive convention: -0.37 flips to +0.37 then floors to 0.3
    c = chain_of([((0.0, 0.0), (1.0, 0.0), F(-37, 100))])
    q = quantize_chain(c, F(1, 10))
    (s,) = q.segments
    assert s.mult == F(3, 10) and s.start == (1.0, 0.0)


def test_quantize_properties_random_chains():
    rng = random.Random(17)
    eta = F(1, 7)
    for _ in range(40):
        segs = []
        for _ in range(rng.randint(1, 6)):
            a = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            b = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            m = F(rng.randint(-50, 50), rng.randint(1, 9))
            if a != b and m != 0:
                segs.append((a, b, m))
        if not segs:
            continue
        c = chain_of(segs)
        q = quantize_chain(c, eta)
        floored = {(s.start, s.end): s.mult for s in q.segments}
        for s in c.segments:
            pos = s if s.mult > 0 else s.reversed()
            got = floored.get((pos.start, pos.end), F(0))
            assert F(0) <= pos.mult - got < eta
            assert (got / eta).denominator == 1


def test_quantize_boundary_via_solve(v_boundary):
    out = quantize_boundary(v_boundary, F(1, 2), cfg(0.75))
    assert all((m / F(1, 2)).denominator == 1 for _, m in out.atoms)


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def test_brute_force_two_atoms_exact():
    b = make_boundary([((0.0, 0.0), F(-1)), ((3.0, 4.0), F(1))])
    assert brute_force_value(b, 0.5) == pytest.approx(5.0)


def test_brute_force_v_instance(v_boundary):
    bf = brute_force_value(v_boundary, 0.75)
    r = solve(v_boundary, cfg(0.75))
    assert bf == pytest.approx(r.best_value, abs=1e-2)


def test_brute_force_fermat_star():
    # equilateral triangle, alpha = 1/2: stem weight sqrt(2) balances two unit
    # arms at 45 degrees, so the branch sits at height 1/sqrt(3) on the axis
    s = 1.0 / math.sqrt(3.0)
    b = make_boundary([((0.0, 1.0), F(-2)), ((-s, 0.0), F(1)), ((s, 0.0), F(1))])
    y = s
    analytic = math.sqrt(2.0) * (1.0 - y) + 2.0 * math.sqrt(s * s + y * y)
    bf = brute_force_value(b, 0.5)
    assert bf == pytest.approx(analytic, abs=5e-3)
    r = solve(b, cfg(0.5))
    assert r.best_value == pytest.approx(analytic, abs=1e-8)


def test_brute_force_guard():
    b = make_boundary(
        [((float(i), 0.0), F(1)) for i in range(1, 5)] + [((0.0, 0.0), F(-4))])
    with pytest.raises(ValueError):
        brute_force_value(b, 0.5)
