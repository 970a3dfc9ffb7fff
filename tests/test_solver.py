"""Global solver: exhaustiveness, minimizer clustering, oracles, quantization."""
import itertools
import json
import math
import random
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gsteiner import fileio, solver
from gsteiner.currents import (boundary, branch_points, canonicalize,
                               chain_of, has_loop, make_boundary,
                               support_difference_mass)
from gsteiner.flat import flat_norm
from gsteiner.solver import (MinimizerRecord, SolverConfig, SolveReport,
                             _uncovered_intervals, magic_points,
                             quantize_chain, solve)
from gsteiner.topology import forest_rows
from grid_oracle import brute_force_value
from random_set import random_set


def cfg(alpha, **kw):
    return SolverConfig(alpha=alpha, **kw)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_two_atom_segment():
    # the one row has no branch vertex: the bounding pass takes no step and
    # bounds it by its exact energy
    b = make_boundary([((0.0, 0.0), F(-1)), ((3.0, 4.0), F(1))])
    records = []
    r = solve(b, cfg(0.5, trace=records.append))
    assert r.best_value == pytest.approx(5.0)
    assert len(r.minimizers) == 1
    assert r.gap == math.inf
    bounds = [record for record in records if record["stage"] == "bound"]
    assert bounds == [{"stage": "bound", "iteration": 0,
                       "bound": r.best_value}]


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


def pentagon_boundary():
    """The regular pentagon, masses (2, -1, -1, 2, -2): two co-minimal
    networks, whose forests' component masks (5, 26) and (11, 20) order the
    other way round as decimal strings."""
    return make_boundary([
        ((math.cos(2.0 * math.pi * i / 5), math.sin(2.0 * math.pi * i / 5)),
         F(m)) for i, m in enumerate((2, -1, -1, 2, -2))])


@pytest.mark.parametrize("instance", ["square", "pentagon"])
def test_rows_tied_at_a_bound_are_visited_in_key_order(instance,
                                                       square_boundary,
                                                       monkeypatch):
    # the two lowest rows are the square's two matchings at alpha 0.6 and
    # the pentagon's two one-branch forests at alpha 0.3, and their bounds
    # tie exactly; the square's table holds them against their keys'
    # order, in which solve visits them
    b, alpha = {"square": (square_boundary, 0.6),
                "pentagon": (pentagon_boundary(), 0.3)}[instance]
    rows = forest_rows(tuple(m for _, m in b.atoms))
    table = [rows.topology(r).signature() for r in range(len(rows))]
    visited, real = [], solver.optimize_topology

    def optimize(ft, *args, **kwargs):
        visited.append(ft.signature())
        return real(ft, *args, **kwargs)

    monkeypatch.setattr(solver, "optimize_topology", optimize)
    records = []
    report = solve(b, cfg(alpha, trace=records.append))
    bounds = [r["bound"] for r in records if r["stage"] == "bound"]
    tied = sorted(range(len(rows)), key=bounds.__getitem__)[:2]
    assert bounds[tied[0]] == bounds[tied[1]] < min(
        bounds[r] for r in range(len(rows)) if r not in tied)
    assert sorted(table[r] for r in tied) == visited[:2]
    if instance == "square":
        assert [table[r] for r in tied] == visited[1::-1]
    else:
        # equal values list their minimizers in key order too
        first, second = report.minimizers
        assert first.value == second.value
        assert first.flowed.signature() < second.flowed.signature()


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
            assert m.value - m.lower <= 1e-12 * (1.0 + m.value)


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
# an independent oracle and the stability invariant, on random instances
# ---------------------------------------------------------------------------

def random_atoms(rng, n, dim):
    """n atoms in [0, 2]^dim with nonzero integer masses summing to zero."""
    masses = [rng.choice((-1, 1)) * rng.randint(1, 3) for _ in range(n - 1)]
    if not sum(masses):
        masses[0] += 1 if masses[0] > 0 else -1
    return [(tuple(rng.uniform(0.0, 2.0) for _ in range(dim)), F(m))
            for m in masses + [-sum(masses)]]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), n=st.sampled_from([3, 4, 5, 6]),
       dim=st.sampled_from([2, 3]))
# past the default guard: three 7-atom instances (531-633 topologies) and
# one 8-atom instance (4391 topologies, about 0.3 s)
@example(seed=0, n=7, dim=2)
@example(seed=1, n=7, dim=3)
@example(seed=3, n=7, dim=3)
@example(seed=4, n=8, dim=2)
def test_alpha_one_value_is_the_flat_norm(seed, n, dim):
    # at alpha = 1 the cost is the mass, and the least mass of a 1-current
    # with boundary b is the transport distance W1(b+, b-).  The flat norm
    # equals it once every atom distance is at most 1 (moving a unit then
    # costs less than dropping a pair), so b is scaled by s to that size
    atoms = random_atoms(random.Random(seed), n, dim)
    s = 1.0 / max(math.dist(p, q) for p, _ in atoms for q, _ in atoms)
    w1 = flat_norm(make_boundary((tuple(s * c for c in p), m)
                                 for p, m in atoms))[0] / s
    value = solve(make_boundary(atoms), cfg(1.0, max_terminals=8)).best_value
    assert abs(value - w1) <= 1e-12 * w1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), n=st.sampled_from([3, 4, 5, 6]),
       dim=st.sampled_from([2, 3]),
       alpha=st.sampled_from([0.3, 0.5, 0.7, 0.95]))
def test_value_moves_no_more_than_the_atoms(seed, n, dim, alpha):
    # moving atom i from p_i to q_i, mass kept, changes the best value by at
    # most sum_i |m_i|^alpha |q_i - p_i|: a network of either boundary plus
    # the segments p_i q_i carrying m_i has the other's boundary, and by
    # subadditivity costs no more than the two summed
    rng = random.Random(seed)
    atoms = random_atoms(rng, n, dim)
    moved, budget = [], 0.0
    for p, m in atoms:
        u = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        r = rng.uniform(0.0, 0.5) / math.hypot(*u)
        q = tuple(a + r * c for a, c in zip(p, u))
        moved.append((q, m))
        budget += abs(float(m)) ** alpha * math.dist(p, q)
    value, value_moved = (solve(make_boundary(x), cfg(alpha)).best_value
                          for x in (atoms, moved))
    assert abs(value_moved - value) <= budget + 1e-9 * (1.0 + value)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), n=st.sampled_from([4, 5, 6]),
       dim=st.sampled_from([2, 3]),
       alpha=st.sampled_from([0.3, 0.5, 0.7, 0.85, 0.95]))
def test_value_lies_between_the_transport_bounds(seed, n, dim, alpha):
    # b scaled to diameter at most 1
    atoms = random_atoms(random.Random(seed), n, dim)
    s = 1.0 / max(math.dist(p, q) for p, _ in atoms for q, _ in atoms)
    assert_between_transport_bounds(atoms, alpha, s)


def assert_between_transport_bounds(atoms, alpha, s=1.0):
    """Every edge carries at most the positive mass M+, so f^alpha >=
    M+^(alpha - 1) f, and a network's mass sum f |e| is at least W1: the
    value is at least M+^(alpha - 1) W1.  The arcs of an optimal transport
    plan, each carrying its flow, form a network with boundary b, so the
    value is at most their cost.  Both come from the flat norm's witness on
    the ``atoms`` scaled by ``s``, which must drop no mass there: moving a
    unit costs less than dropping both ends when no two atoms lie 2 apart."""
    w1, witness = flat_norm(make_boundary((tuple(s * c for c in p), m)
                                          for p, m in atoms))
    assert not witness.dropped_mass
    m_plus = float(sum(m for _, m in atoms if m > 0))
    lower = m_plus ** (alpha - 1.0) * w1 / s
    upper = sum(float(f) ** alpha * math.dist(p, q)
                for p, q, f in witness.transport_arcs) / s
    value = solve(make_boundary(atoms), cfg(alpha)).best_value
    assert lower <= value * (1.0 + 1e-12)
    assert value <= upper * (1.0 + 1e-12)


@st.composite
def unit_box_atoms(draw):
    """4 to 6 atoms in the unit square or cube with nonzero integer masses
    summing to zero."""
    n = draw(st.integers(4, 6))
    dim = draw(st.sampled_from([2, 3]))
    masses = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=n - 1,
                           max_size=n - 1).filter(sum))
    coordinate = st.floats(0.0, 1.0, allow_nan=False)
    points = draw(st.lists(st.tuples(*[coordinate] * dim), min_size=n,
                           max_size=n, unique=True))
    return list(zip(points, map(F, masses + [-sum(masses)])))


@settings(max_examples=20, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(atoms=unit_box_atoms(), alpha=st.sampled_from([0.3, 0.5, 0.7, 0.9]))
def test_unit_box_value_lies_between_the_transport_bounds(atoms, alpha):
    # no two atoms of the unit box lie 2 apart, so the witness drops nothing
    # and its value is W1 as drawn
    assert_between_transport_bounds(atoms, alpha)


# Gilbert: a flowed topology has at most one minimum network, so co-minimal
# minimizers come from pairwise distinct topologies
_HEXAGON = make_boundary(
    ((math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)), F((-1) ** k))
    for k in range(6))
_SYMMETRIC_TETRAHEDRON = make_boundary(
    [((1.0, 0.0, -math.sqrt(0.5)), F(1)), ((-1.0, 0.0, -math.sqrt(0.5)), F(1)),
     ((0.0, 1.0, math.sqrt(0.5)), F(-1)), ((0.0, -1.0, math.sqrt(0.5)), F(-1))])


@pytest.mark.parametrize("b,alpha", [
    ("square", 0.3), ("square", 0.6), ("square", 0.95),
    (_HEXAGON, 0.6), (_HEXAGON, 0.9), (_SYMMETRIC_TETRAHEDRON, 0.6),
], ids=["square-0.3", "square-0.6", "square-0.95", "hexagon-0.6",
        "hexagon-0.9", "tetrahedron-0.6"])
def test_co_minimal_minimizers_have_distinct_topologies(b, alpha,
                                                        square_boundary):
    b = square_boundary if b == "square" else b
    minimizers = solve(b, cfg(alpha)).minimizers
    assert len(minimizers) >= 2  # symmetric instances: not vacuous
    keys = [m.flowed.signature() for m in minimizers]
    assert len(set(keys)) == len(keys)


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


@pytest.mark.parametrize("xs,masses", [
    ((0.0, 1.0, 3.0, 4.5), (-1, 1, -1, 1)),
    ((0.0, 0.7, 2.0, 3.1, 5.0), ("-3", "1/2", "2", "-1/2", "1")),
])
def test_line_instance_in_1d_and_3d(xs, masses):
    # on a line every edge is collinear: along it the Newton steps of d != 2
    # see Hessian blocks made of the eps^2 term alone, and collapsing branch
    # points make the Hessian singular but for the Laplacian guard
    u = np.array([1.0, 2.0, 2.0]) / 3.0
    origin = np.array([0.5, -1.0, 2.0])
    embeddings = {
        "1-D": lambda x: (x,),
        "3-D axis": lambda x: (x, 0.0, 0.0),
        "3-D tilted": lambda x: tuple(float(c) for c in origin + x * u),
    }
    flat = solve(make_boundary(((x, 0.0), F(m)) for x, m in zip(xs, masses)),
                 cfg(0.6))
    for name, embed in embeddings.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = solve(make_boundary((embed(x), F(m))
                                    for x, m in zip(xs, masses)), cfg(0.6))
        assert math.isclose(r.best_value, flat.best_value, rel_tol=1e-9), name
        assert len(r.minimizers) == len(flat.minimizers), name
        assert r.gap == pytest.approx(flat.gap, rel=1e-7), name


@pytest.mark.parametrize("case", ["square", "solve-n6", "solve-3d",
                                  "random set 6"])
def test_tracing_leaves_the_report_body_unchanged(case, square_boundary,
                                                  bench_instances):
    # all four end kernel runs early at a certified collapse.  The square's
    # and the distinct-mass 6-atom instance's runs all end at their start,
    # before any stage, so they send no "eps" record; the 3-D instance runs
    # the Newton steps' stages, and the random set's planar 5-atom instance
    # 6 the planar sweeps'
    b, alpha = ((square_boundary, 0.6) if case == "square"
                else random_set()[6] if case == "random set 6"
                else bench_instances(case, 0)[case == "solve-n6"])
    records = []
    plain = fileio.report_to_obj(solve(b, cfg(alpha)))
    traced = fileio.report_to_obj(solve(b, cfg(alpha, trace=records.append)))
    assert json.dumps(traced, sort_keys=True) == json.dumps(plain, sort_keys=True)
    smoothed = {"eps"} if case in ("solve-3d", "random set 6") else set()
    assert {r["stage"] for r in records} == {"bound", "collapse",
                                             "done"} | smoothed


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


@pytest.mark.parametrize("index", [-1, 2])
def test_magic_points_index_out_of_range(square_boundary, index):
    # -1 once compared the target with itself, 2 raised a bare IndexError
    r = solve(square_boundary, cfg(0.6))
    assert len(r.minimizers) == 2
    with pytest.raises(ValueError, match="out of range"):
        magic_points(r, index)


def test_magic_points_unique_minimizer_empty(v_boundary):
    r = solve(v_boundary, cfg(0.75))
    assert magic_points(r, 0) == ()


def test_magic_points_off_a_shared_collinear_piece():
    # both networks run (0,0)-(2,0), the target's longest segment; the
    # target goes on along the axis to (5,0), and the other leaves it but
    # branches on it at (3.5,0), the midpoint of the piece (2,0)-(5,0)
    b = make_boundary([((0.0, 0.0), F(-2)), ((5.0, 0.0), F(1)),
                       ((2.0, 0.5), F(1))])
    target = chain_of([((0.0, 0.0), (2.0, 0.0), F(2)),
                       ((2.0, 0.0), (5.0, 0.0), F(1)),
                       ((2.0, 0.0), (2.0, 0.5), F(1))])
    other = chain_of([((0.0, 0.0), (2.0, 0.0), F(2)),
                      ((2.0, 0.0), (2.75, -0.5), F(2)),
                      ((2.75, -0.5), (3.5, 0.0), F(2)),
                      ((3.5, 0.0), (4.25, -0.5), F(1)),
                      ((4.25, -0.5), (5.0, 0.0), F(1)),
                      ((3.5, 0.0), (2.0, 0.5), F(1))])
    records = tuple(MinimizerRecord(canonicalize(c), 0.0, 0.0, None)
                    for c in (target, other))
    report = SolveReport(b, 0.5, 0.0, records, math.inf, 1e-5, {})
    (p,) = magic_points(report, 0)
    # on the target's axis beyond the shared piece and the branch point
    assert p[1] == 0.0 and 3.5 < p[0] < 5.0
    assert p == pytest.approx((4.25, 0.0), abs=1e-4)
    assert _dist_to_chain(p, records[1].chain) > 0.3
    exceptional = [q for q, _ in b.atoms] + [
        q for r in records for q in branch_points(r.chain, b)]
    # the nearest is the other's corner (4.25, -0.5)
    assert min(math.dist(p, q) for q in exceptional) > 0.45


def test_uncovered_intervals_around_a_covered_middle():
    # the other chain covers the middle third of the segment: the gaps
    # before and after it stay, each shortened by the tolerance
    (s,) = canonicalize(chain_of([((0.0, 0.0), (3.0, 0.0), F(1))])).segments
    other = canonicalize(chain_of([((1.0, 0.0), (2.0, 0.0), F(1))]))
    (lo1, hi1), (lo2, hi2) = _uncovered_intervals(s, other, 1e-6)
    assert lo1 == 0.0 and hi2 == 1.0
    assert hi1 == pytest.approx(1.0 / 3.0 - 1e-6 / 3.0, abs=1e-15)
    assert lo2 == pytest.approx(2.0 / 3.0 + 1e-6 / 3.0, abs=1e-15)


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


SQUARE = make_boundary([((0.0, 0.0), F(-1)), ((1.0, 1.0), F(-1)),
                        ((1.0, 0.0), F(1)), ((0.0, 1.0), F(1))])


@pytest.mark.parametrize("build,message", [
    (lambda: SolverConfig(alpha=0.0), r"alpha must lie in \(0, 1\]"),
    (lambda: SolverConfig(alpha=1.5), r"alpha must lie in \(0, 1\]"),
    (lambda: SolverConfig(alpha=0.5, value_tol=0.0),
     "tolerances must be positive"),
    (lambda: SolverConfig(alpha=0.5, distinct_tol=-1e-5),
     "tolerances must be positive"),
    # non-finite tolerances: on the square at alpha 0.6 a NaN or infinite
    # value_tol reported 3 minimizers with gap inf, an infinite
    # distinct_tol 1 minimizer (the square has 2, with gap 0.8284)
    (lambda: SolverConfig(alpha=0.6, value_tol=math.nan),
     "tolerances must be positive and finite"),
    (lambda: SolverConfig(alpha=0.6, value_tol=math.inf),
     "tolerances must be positive and finite"),
    (lambda: SolverConfig(alpha=0.6, distinct_tol=math.nan),
     "tolerances must be positive and finite"),
    (lambda: SolverConfig(alpha=0.6, distinct_tol=math.inf),
     "tolerances must be positive and finite"),
    (lambda: SolverConfig(alpha=0.6, distinct_tol=-math.inf),
     "tolerances must be positive and finite"),
    (lambda: solve(make_boundary([((0.0, 0.0), F(1))]),
                   SolverConfig(alpha=0.5)), "at least 2 atoms"),
    (lambda: magic_points(SolveReport(SQUARE, 0.5, 2.0, (), math.inf, 1e-5,
                                      {})), "report has no minimizers"),
    (lambda: quantize_chain(chain_of([((0.0, 0.0), (1.0, 0.0), F(1))]), 0),
     "eta must be positive"),
    (lambda: quantize_chain(chain_of([((0.0, 0.0), (1.0, 0.0), F(1))]),
                            F(-1, 2)), "eta must be positive"),
], ids=["alpha-0", "alpha-1.5", "value-tol", "distinct-tol", "value-tol-nan",
        "value-tol-inf", "distinct-tol-nan", "distinct-tol-inf",
        "distinct-tol-minus-inf", "one-atom",
        "no-minimizers", "eta-0", "eta-negative"])
def test_input_checks(build, message):
    with pytest.raises(ValueError, match=message):
        build()
