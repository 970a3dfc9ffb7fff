"""Chain algebra: boundary, masses, canonical form, restriction, support graph."""
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import canonical_oracle
from gsteiner import currents
from gsteiner.currents import (GEOM_TOL, alpha_mass, boundary, branch_points,
                               canonicalize, chain_of, has_loop, lerp,
                               make_boundary, mass, restrict_ball,
                               restrict_outside, scale_chain)
from gsteiner.perturb import _local4_candidates, build_wz, four_point_instance
from gsteiner.placement import optimize_topology, realize_chain
from gsteiner.sweep import SweepSpec, build_cells


def seg(a, b, m):
    return (tuple(map(float, a)), tuple(map(float, b)), F(m))


def random_chain(rng, n_segments=5, dim=2, denom=6):
    segs = []
    for _ in range(n_segments):
        a = tuple(rng.uniform(-2, 2) for _ in range(dim))
        b = tuple(rng.uniform(-2, 2) for _ in range(dim))
        m = F(rng.randint(-denom, denom), rng.randint(1, denom))
        if a != b and m != 0:
            segs.append((a, b, m))
    return chain_of(segs)


# ---------------------------------------------------------------------------
# boundary
# ---------------------------------------------------------------------------

def test_segment_multiplicity_becomes_a_fraction():
    s = currents.Segment((0.0, 0.0), (1.0, 0.0), 2)
    assert type(s.mult) is F and s.mult == 2


def test_boundary_scaled():
    b = make_boundary([((0.0, 0.0), F(-1)), ((1.0, 0.0), F(1))])
    assert b.scaled(0) == make_boundary([]) and not b.scaled(0).atoms
    assert b.scaled(F(-3, 2)) == make_boundary(
        [((0.0, 0.0), F(3, 2)), ((1.0, 0.0), F(-3, 2))])


def test_boundary_single_segment():
    b = boundary(chain_of([seg((0, 0), (3, 4), 1)]))
    assert b.as_dict() == {(3.0, 4.0): F(1), (0.0, 0.0): F(-1)}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_boundary_rejects_non_finite_coordinates(bad):
    with pytest.raises(ValueError, match="non-finite atom coordinate"):
        make_boundary([((0.0, 0.0), F(-1)), ((1.0, bad), F(1))])


def test_boundary_interior_endpoint_cancels():
    b = boundary(chain_of([seg((0, 0), (1, 0), 1), seg((1, 0), (2, 0), 1)]))
    assert b.as_dict() == {(2.0, 0.0): F(1), (0.0, 0.0): F(-1)}


def test_boundary_cycle_is_empty():
    tri = chain_of([seg((0, 0), (1, 0), 1), seg((1, 0), (0.5, 1), 1),
                    seg((0.5, 1), (0, 0), 1)])
    assert boundary(tri).atoms == ()


def test_boundary_preserved_by_canonicalize():
    rng = random.Random(7)
    for _ in range(30):
        c = random_chain(rng)
        assert boundary(canonicalize(c)).as_dict() == boundary(c).as_dict()


def test_boundary_linear_under_concatenation():
    rng = random.Random(8)
    for _ in range(20):
        x, y = random_chain(rng), random_chain(rng)
        lhs = boundary(canonicalize(x + y)).as_dict()
        rhs = (boundary(x) + boundary(y)).as_dict()
        assert lhs == rhs


# ---------------------------------------------------------------------------
# masses
# ---------------------------------------------------------------------------

def test_alpha_mass_unit_multiplicity():
    c = canonicalize(chain_of([seg((0, 0), (3, 4), 1)]))
    for alpha in (0.3, 0.5, 1.0):
        assert alpha_mass(c, alpha) == pytest.approx(5.0)


def test_alpha_mass_formula():
    c = canonicalize(chain_of([seg((0, 0), (2, 0), 4)]))
    assert alpha_mass(c, 0.5) == pytest.approx(4.0)
    assert mass(c) == pytest.approx(8.0)


def test_alpha_mass_cancellation():
    c = canonicalize(chain_of([seg((0, 0), (1, 1), 1), seg((0, 0), (1, 1), -1)]))
    assert c.segments == ()
    assert alpha_mass(c, 0.5) == 0.0


def test_alpha_mass_rejects_raw_chain():
    with pytest.raises(ValueError):
        alpha_mass(chain_of([seg((0, 0), (1, 0), 1)]), 0.5)


def test_alpha_mass_one_equals_mass():
    rng = random.Random(9)
    for _ in range(20):
        c = canonicalize(random_chain(rng))
        assert alpha_mass(c, 1.0) == pytest.approx(mass(c))


def test_alpha_mass_scaling():
    rng = random.Random(10)
    for _ in range(15):
        c = canonicalize(random_chain(rng))
        lam = F(rng.randint(1, 5), rng.randint(1, 5)) * rng.choice([-1, 1])
        for alpha in (0.4, 0.8):
            assert alpha_mass(canonicalize(scale_chain(c, lam)), alpha) == \
                pytest.approx(abs(float(lam)) ** alpha * alpha_mass(c, alpha))


def test_subadditivity_under_canonicalization():
    rng = random.Random(11)
    for _ in range(25):
        # stack several collinear overlapping segments
        segs = []
        for _ in range(4):
            lo, hi = sorted((rng.uniform(0, 3), rng.uniform(0, 3)))
            if hi - lo < 1e-3:
                continue
            m = F(rng.randint(-4, 4), rng.randint(1, 3))
            if m:
                segs.append(((lo, 0.0), (hi, 0.0), m))
        if not segs:
            continue
        c = chain_of(segs)
        for alpha in (0.3, 0.7, 1.0):
            raw = sum(abs(float(m)) ** alpha * (b[0] - a[0]) for a, b, m in segs)
            assert alpha_mass(canonicalize(c), alpha) <= raw + 1e-12 * (1 + raw)


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def test_canonicalize_overlap_subtraction():
    c = canonicalize(chain_of([seg((0, 0), (2, 0), 1), seg((1, 0), (2, 0), -1)]))
    assert [(s.start, s.end, s.mult) for s in c.segments] == \
        [((0.0, 0.0), (1.0, 0.0), F(1))]


def test_canonicalize_merges_collinear_equal_runs():
    c = canonicalize(chain_of([seg((0, 0), (1, 0), 2), seg((1, 0), (2, 0), 2)]))
    assert [(s.start, s.end, s.mult) for s in c.segments] == \
        [((0.0, 0.0), (2.0, 0.0), F(2))]


def test_canonicalize_idempotent():
    rng = random.Random(12)
    for _ in range(25):
        c = canonicalize(random_chain(rng))
        assert canonicalize(c) == c


@pytest.mark.parametrize("dim", [2, 3])
def test_lone_segment_fast_path_equals_sweep(dim):
    # the reference sweeps every line, one-member lines too
    rng = random.Random(40 + dim)
    for _ in range(40):
        c = random_chain(rng, n_segments=rng.randint(1, 6), dim=dim)
        # collinear pieces of the first segment make lines of several
        for a, b, m in [(s.start, s.end, s.mult) for s in c.segments[:1]]:
            mid = tuple(0.5 * (x + y) for x, y in zip(a, b))
            c = c + chain_of([(mid, a, m), (b, mid, F(rng.randint(-2, 2) or 1))])
        # lone segments in both orientations along the axes
        c = c + chain_of([((5.0,) * dim, (6.0,) + (5.0,) * (dim - 1), 1),
                          ((7.0,) * dim, (7.0,) * (dim - 1) + (6.0,), -2)])
        assert canonicalize(c) == canonical_oracle.canonicalize(c)


def test_lone_segment_fast_path_cases(monkeypatch):
    forward = currents.Segment((0.0, 0.0), (1.0, 2.0), F(3))
    backward = forward.reversed()
    for s in (forward, backward):
        (direction, members, t), = currents._planar_lines([s], GEOM_TOL)
        assert members == [s] and t == currents.vdot(
            currents.vsub(s.end, s.start), direction)
        assert canonicalize(chain_of([(s.start, s.end, s.mult)])).segments \
            == tuple(currents._sweep_line(direction, members)) == (forward,)
        # projection 0 on the line's direction: both drop the segment
        normal = (-direction[1], direction[0])
        t = currents.vdot(currents.vsub(s.end, s.start), normal)
        assert t == 0.0
        with monkeypatch.context() as m:
            m.setattr(currents, "_planar_lines",
                      lambda segs, tol: [(normal, list(segs), t)])
            assert canonicalize(chain_of([(s.start, s.end, s.mult)])
                                ).segments == ()
        assert currents._sweep_line(normal, [s]) == []


def test_canonicalize_opposite_orientations_subtract():
    c = canonicalize(chain_of([seg((0, 0), (2, 0), 3), seg((2, 0), (0, 0), 1)]))
    assert len(c.segments) == 1
    s = c.segments[0]
    assert abs(s.mult) == F(2) and s.length == pytest.approx(2.0)


def collinear_chain(rng, dim):
    """Segments between random points of a few random lines, with some
    repeated and some reversed, so that line groups overlap and cancel."""
    segs = []
    for _ in range(rng.randint(1, 3)):
        a, b = (tuple(rng.uniform(-2, 2) for _ in range(dim)) for _ in "ab")
        pts = [lerp(a, b, rng.choice((0.0, 1.0, rng.uniform(-1, 2))))
               for _ in range(rng.randint(2, 5))]
        for _ in range(rng.randint(1, 5)):
            p, q = rng.sample(pts, 2)
            if p != q:
                segs.append((p, q, F(rng.randint(-3, 3) or 1, rng.randint(1, 3))))
    for p, q, m in list(segs):
        copy = rng.choice(((p, q, m), (q, p, m), (q, p, -m), None))
        if copy:
            segs.append(copy)
    return chain_of(segs)


def lab_chains():
    """The four-point lab's chains: every candidate's realized optimum on
    seeded instances at alpha 0.5, 0.6 and 0.75, and its differences from
    the instance's W and Z, which the label's support match canonicalizes."""
    cells = build_cells(SweepSpec(alphas=(0.5, 0.6, 0.75), n_instances=3,
                                  rho=0.1, seed=5))
    chains = []
    for alpha, k, _, _, _, disp, theta in cells:
        inst = four_point_instance(k, disp, theta)
        b = inst.boundary()
        memo = {}
        for _, ft in _local4_candidates(tuple(m for _, m in b.atoms),
                                        ("A", "B", "C", "D")):
            opt = optimize_topology(ft, b, alpha, memo=memo)
            chain = realize_chain(opt.flowed, opt.placement)
            chains += [chain, *(chain - wz for wz in build_wz(inst))]
    return chains


@pytest.mark.parametrize("dim", [2, 3])
def test_canonicalize_matches_generic_reference(dim):
    rng = random.Random(60 + dim)
    chains = [collinear_chain(rng, dim)
              + random_chain(rng, rng.randint(0, 3), dim) for _ in range(150)]
    if dim == 2:
        chains += lab_chains()
    for c in chains:
        for tol in (GEOM_TOL, 1e-5):
            assert canonicalize(c, tol) == canonical_oracle.canonicalize(c, tol)


# ---------------------------------------------------------------------------
# lengths and projection
# ---------------------------------------------------------------------------

def test_lengths_keep_their_bits_on_every_python():
    # every Python the suite runs on checks these bits: math.dist rounds
    # both alike on 3.10 to 3.13, where the square root of a sum of squares
    # rounds the first to ...f9p+0 on 3.10 and 3.11 and the second
    # differently on every version
    assert currents.dist((1.961, 0.795, 0.146),
                         (1.259, 1.557, 0.54)).hex() == "0x1.1bc40c16e35fap+0"
    assert currents.dist((1.049120329831768, -1.9915757865955572),
                         (-0.2184512237807943, 0.8861601293631303)
                         ).hex() == "0x1.92802129e5c45p+1"


def test_lengths_neither_underflow_nor_overflow():
    # squares of 1e-170 underflow to 0 and squares of 1e200 overflow
    s = ((0.0, 0.0), (1e-170, 0.0), F(1))
    assert canonicalize(chain_of([s])).segments == chain_of([s]).segments
    for p, q in (((1e200, 1e200), (-1e200, 0.0)),
                 ((1e200, 0.0, -1e200), (0.0, 1e200, 1e200))):
        assert math.isfinite(currents.dist(p, q))
        assert math.isfinite(currents.vnorm(p))
    big = math.ldexp(1.0, 660)  # about 4.8e198
    assert currents.vnorm((3.0 * big, 4.0 * big)) == 5.0 * big


def test_ball_keeps_a_segment_whose_square_underflows():
    # |d|^2 of a 1e-170 segment underflows to 0; the ball of radius 1e-171
    # at its start holds its first tenth, and project finds its middle
    chain = canonicalize(chain_of([((0.0, 0.0), (1e-170, 0.0), F(1))]))
    got, = restrict_ball(chain, (0.0, 0.0), 1e-171).segments
    assert (got.start, got.end) == ((0.0, 0.0), (1e-171, 0.0))
    assert currents.project((5e-171, 1e-171), (0.0, 0.0),
                            (1e-170, 0.0)) == (0.5, 1e-171)


@pytest.mark.parametrize("dim", [2, 3])
def test_project_gives_the_foot_and_its_distance(dim):
    rng = random.Random(70 + dim)
    for _ in range(200):
        p, a, b = (tuple(rng.uniform(-2, 2) for _ in range(dim)) for _ in "pab")
        t, off = currents.project(p, a, b)
        foot = lerp(a, b, t)
        assert off == currents.dist(p, foot)
        d, v = currents.vsub(b, a), currents.vsub(p, foot)
        assert abs(currents.vdot(v, d)) <= 1e-12 * (1.0 + off) * currents.vnorm(d)
    assert currents.project((1.0, 2.0), (0.0, 0.0), (4.0, 0.0)) == (0.25, 2.0)


# signed zeros, subnormals and magnitudes up to 1e+-150, whose squares and
# their sums stay finite
COORDINATE = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e150, -1e-150)),
    st.floats(-4.0, 4.0),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-9.9, 9.9),
              st.integers(-150, 149)),
)
POINT = st.tuples(COORDINATE, COORDINATE)


def hexed(*xs):
    return [float.hex(x) for x in xs]


class _RecordedHypot:
    """A stand-in for ``currents.math`` that records each ``hypot``
    argument."""

    def __init__(self):
        self.args = []

    def hypot(self, *xs):
        self.args.extend(xs)
        return math.hypot(*xs)


def recorded(lines, segs, tol):
    """``lines(segs, tol)``, hexed, with every ``hypot`` argument it took."""
    hypot = _RecordedHypot()
    saved, currents.math = currents.math, hypot
    try:
        found = lines(segs, tol)
    finally:
        currents.math = saved
    index = {id(s): i for i, s in enumerate(segs)}
    return ([(hexed(*u), [index[id(s)] for s in members], hexed(t))
             for u, members, t in found], hexed(*hypot.args))


@settings(max_examples=400, deadline=None)
@given(st.lists(POINT, min_size=2, max_size=3),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1,
                max_size=5),
       st.sampled_from((GEOM_TOL, 1e-5, 0.5)))
def test_planar_off_line_matches_the_generic_sums(points, pairs, tol):
    # the planar grouping takes every norm, dot product and collinearity
    # test of the generic one, in its order and to the bit; the midpoint of
    # the first two points puts a third point near their line
    points.append(tuple(0.5 * (a + b) for a, b in zip(*points[:2])))
    segs = [currents.Segment(points[i % len(points)], points[j % len(points)],
                             F(1))
            for i, j in pairs
            if points[i % len(points)] != points[j % len(points)]]
    assume(segs)
    assert recorded(currents._planar_lines, segs, tol) == recorded(
        currents._lines, segs, tol)


@settings(max_examples=400, deadline=None)
@given(st.integers(2, 3).flatmap(
    lambda dim: st.tuples(*[st.tuples(*[COORDINATE] * dim)] * 2)))
def test_vector_helpers_match_the_generator_forms(pq):
    # the sum starts at int 0: a signed zero comes out as +0.0, where
    # a hand-written a * b + c * d would give -0.0
    p, q = pq
    assert hexed(*currents.vsub(p, q)) == hexed(*canonical_oracle.vsub(p, q))
    assert hexed(currents.vdot(p, q)) == hexed(canonical_oracle.vdot(p, q))
    assert hexed(currents.vdot((-0.0, 1.0), (1.0, -0.0))) == hexed(0.0)


# ---------------------------------------------------------------------------
# restriction
# ---------------------------------------------------------------------------

def test_restrict_ball_clips():
    c = canonicalize(chain_of([seg((-1, 0), (1, 0), 1)]))
    r = restrict_ball(c, (0.0, 0.0), 0.5)
    assert [(s.start, s.end) for s in r.segments] == \
        [((-0.5, 0.0), (0.5, 0.0))]
    assert r.segments[0].mult == F(1)


def test_restrict_ball_disjoint_and_inside():
    c = canonicalize(chain_of([seg((-1, 0), (1, 0), 1)]))
    assert restrict_ball(c, (10.0, 0.0), 0.5).segments == ()
    assert restrict_ball(c, (0.0, 0.0), 5.0).segments == c.segments


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
def test_restriction_refuses_a_radius_not_positive_and_finite(radius):
    # a NaN radius once put the unit segment inside a ball around (5, 5)
    c = canonicalize(chain_of([seg((0, 0), (1, 0), 1)]))
    for restrict in (restrict_ball, restrict_outside):
        with pytest.raises(ValueError, match="radius must be positive"):
            restrict(c, (5.0, 5.0), radius)


def test_restriction_partition():
    rng = random.Random(13)
    for _ in range(25):
        c = canonicalize(random_chain(rng))
        center = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        radius = rng.uniform(0.2, 1.5)
        inside = restrict_ball(c, center, radius)
        outside = restrict_outside(c, center, radius)
        glued = canonicalize(inside + outside)
        assert boundary(glued).as_dict() == boundary(c).as_dict()
        assert mass(glued) == pytest.approx(mass(c), abs=1e-9)
        assert mass(inside) + mass(outside) == pytest.approx(mass(c), abs=1e-9)


# ---------------------------------------------------------------------------
# support graph
# ---------------------------------------------------------------------------

def test_has_loop_triangle():
    tri = canonicalize(chain_of([seg((0, 0), (1, 0), 1), seg((1, 0), (0.5, 1), 1),
                                 seg((0.5, 1), (0, 0), 1)]))
    assert has_loop(tri)


def test_has_loop_path():
    c = canonicalize(chain_of([seg((0, 0), (1, 0), 1), seg((1, 0), (2, 1), 2)]))
    assert not has_loop(c)


def test_has_loop_through_crossing():
    # two crossing diagonals plus one side closing a circuit through the
    # crossing point; verified against an independent graph-cycle oracle
    c = canonicalize(chain_of([
        seg((0, 0), (2, 2), 1), seg((0, 2), (2, 0), 1), seg((0, 0), (0, 2), 1),
    ]))
    assert has_loop(c)
    assert _cycle_oracle(c)
    no_close = canonicalize(chain_of([
        seg((0, 0), (2, 2), 1), seg((0, 2), (2, 0), 1),
    ]))
    assert not has_loop(no_close)
    assert not _cycle_oracle(no_close)


def test_has_loop_skew_segments_in_3d():
    # the least-squares meet of two skew lines lies inside both segments,
    # 1 apart: no crossing, so the third segment closes no circuit
    skew = [seg((0, 0, 0), (2, 0, 0), 1), seg((1, -1, 1), (1, 1, 1), 1)]
    assert not has_loop(canonicalize(chain_of(skew)))
    assert not has_loop(canonicalize(chain_of(
        skew + [seg((0, 0, 0), (1, -1, 1), 1)])))


def test_has_loop_through_a_t_junction():
    # each stem ends inside the bar, which sorts first: its end is the cut
    # of the bar, at the stem's start (above) or end (below)
    bar = seg((0.1, 0.2), (2.3, 0.7), 1)
    foot = (0.1 + 0.3 * 2.2, 0.2 + 0.3 * 0.5)
    above = seg(foot, (foot[0], 1.5), 1)
    below = seg((foot[0], -1.0), foot, 1)
    for stem in (above, below):
        chain = canonicalize(chain_of([bar, stem]))
        assert chain.segments[0].start == bar[0]
        assert not has_loop(chain)
    # a triangle closed through the T: the bar's first piece, the stem and
    # a side back to the bar's start
    tri = canonicalize(chain_of([bar, above, seg(above[1], bar[0], 1)]))
    assert has_loop(tri)
    assert _cycle_oracle(tri)


def _cycle_oracle(chain):
    """Independent check with networkx on the subdivided arrangement."""
    import itertools
    import networkx as nx

    def inter(s1, s2):
        # planar segment intersection via cross products
        (x1, y1), (x2, y2) = s1.start, s1.end
        (x3, y3), (x4, y4) = s2.start, s2.end
        d = (x2 - x1) * (y4 - y3) - (y2 - y1) * (x4 - x3)
        if abs(d) < 1e-12:
            return None
        t = ((x3 - x1) * (y4 - y3) - (y3 - y1) * (x4 - x3)) / d
        u = ((x3 - x1) * (y2 - y1) - (y3 - y1) * (x2 - x1)) / d
        if -1e-12 <= t <= 1 + 1e-12 and -1e-12 <= u <= 1 + 1e-12:
            return (x1 + t * (x2 - x1), y1 + t * (y2 - y1)), t
        return None

    cuts = {i: {0.0: s.start, 1.0: s.end} for i, s in enumerate(chain.segments)}
    for i, j in itertools.combinations(range(len(chain.segments)), 2):
        hit = inter(chain.segments[i], chain.segments[j])
        if hit:
            p, t = hit
            hit_j = inter(chain.segments[j], chain.segments[i])
            cuts[i][t] = p
            cuts[j][hit_j[1]] = p
    g = nx.Graph()
    for i, table in cuts.items():
        pts = [tuple(round(c, 9) for c in table[t]) for t in sorted(table)]
        for a, b in zip(pts, pts[1:]):
            if a != b:
                g.add_edge(a, b)
    try:
        nx.find_cycle(g)
        return True
    except nx.NetworkXNoCycle:
        return False


def test_branch_points_y_network():
    y = canonicalize(chain_of([seg((0, 0), (1, 0), 2), seg((1, 0), (2, 1), 1),
                               seg((1, 0), (2, -1), 1)]))
    assert branch_points(y, boundary(y)) == ((1.0, 0.0),)


def test_branch_points_single_segment():
    c = canonicalize(chain_of([seg((0, 0), (1, 0), 1)]))
    assert branch_points(c, boundary(c)) == ()


def test_branch_points_at_boundary_atom_excluded():
    # V branching exactly at the source atom: the vertex is in supp(b)
    v = canonicalize(chain_of([seg((0, 0), (1, 1), 1), seg((0, 0), (1, -1), 1)]))
    assert branch_points(v, boundary(v)) == ()


def test_branch_points_boundary_mismatch():
    c = canonicalize(chain_of([seg((0, 0), (1, 0), 1)]))
    wrong = make_boundary([((0.0, 0.0), F(-2)), ((1.0, 0.0), F(2))])
    with pytest.raises(ValueError):
        branch_points(c, wrong)


# ---------------------------------------------------------------------------
# dimension generality
# ---------------------------------------------------------------------------

def test_mixed_dimension_atoms_rejected():
    with pytest.raises(ValueError, match="mixed dimensions"):
        make_boundary([((0.0, 0.0), F(-1)), ((1.0, 0.0, 5.0), F(1))])
    b2 = make_boundary([((0.0, 0.0), F(-1))])
    b3 = make_boundary([((1.0, 0.0, 5.0), F(1))])
    with pytest.raises(ValueError, match="mixed dimensions"):
        b3 - b2


def test_three_dimensional_chain():
    c = canonicalize(chain_of([
        ((0.0, 0.0, 0.0), (1.0, 2.0, 2.0), F(2)),
        ((1.0, 2.0, 2.0), (2.0, 4.0, 4.0), F(2)),
    ]))
    assert len(c.segments) == 1
    assert alpha_mass(c, 0.5) == pytest.approx(math.sqrt(2) * 6.0)
    assert boundary(c).as_dict() == {(0.0, 0.0, 0.0): F(-2), (2.0, 4.0, 4.0): F(2)}


UNIT = canonicalize(chain_of([seg((0, 0), (1, 0), 1)]))


@pytest.mark.parametrize("build,message", [
    (lambda: currents.Segment((0.0, 0.0), (1.0, 0.0, 0.0), F(1)),
     "mismatched dimension"),
    (lambda: currents.Segment((1.0, 0.0), (1.0, 0.0), F(1)),
     r"degenerate segment \(start == end\)"),
    (lambda: currents.Segment((0.0, 0.0), (1.0, 0.0), F(0)),
     "zero multiplicity"),
    (lambda: chain_of([seg((0, 0), (1, 0), 1), seg((0, 0, 0), (0, 1, 0), 1)]),
     "mixed dimensions in chain"),
    (lambda: currents.Boundary((((0.0, 0.0), F(1)), ((0.0, 0.0), F(-1)))),
     "duplicate atom points"),
    (lambda: currents.Boundary((((0.0, 0.0), F(0)),)), "zero-mass atom"),
    (lambda: alpha_mass(UNIT, 0.0), r"alpha must lie in \(0, 1\]"),
    (lambda: alpha_mass(UNIT, 1.5), r"alpha must lie in \(0, 1\]"),
], ids=["segment-dims", "segment-degenerate", "segment-zero", "chain-dims",
        "boundary-duplicate", "boundary-zero", "alpha-0", "alpha-1.5"])
def test_input_checks(build, message):
    with pytest.raises(ValueError, match=message):
        build()
