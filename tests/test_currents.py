"""Chain algebra: boundary, masses, canonical form, restriction, support graph."""
import math
import random
from fractions import Fraction as F

import pytest

from gsteiner import currents
from gsteiner.currents import (alpha_mass, boundary, branch_points,
                               canonicalize, chain_of, has_loop,
                               make_boundary, mass, restrict_ball,
                               restrict_outside, scale_chain)


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


def swept_canonical(chain, monkeypatch):
    """``canonicalize`` with every line group swept, lone segments too."""
    with monkeypatch.context() as m:
        m.setattr(currents, "_lone_segment", currents._sweep_line_group)
        return canonicalize(chain)


@pytest.mark.parametrize("dim", [2, 3])
def test_lone_segment_fast_path_equals_sweep(dim, monkeypatch):
    rng = random.Random(40 + dim)
    for _ in range(40):
        c = random_chain(rng, n_segments=rng.randint(1, 6), dim=dim)
        # collinear pieces of the first segment make groups of several
        for a, b, m in [(s.start, s.end, s.mult) for s in c.segments[:1]]:
            mid = tuple(0.5 * (x + y) for x, y in zip(a, b))
            c = c + chain_of([(mid, a, m), (b, mid, F(rng.randint(-2, 2) or 1))])
        # lone segments in both orientations along the axes
        c = c + chain_of([((5.0,) * dim, (6.0,) + (5.0,) * (dim - 1), 1),
                          ((7.0,) * dim, (7.0,) * (dim - 1) + (6.0,), -2)])
        assert canonicalize(c) == swept_canonical(c, monkeypatch)


def test_lone_segment_fast_path_cases():
    forward = currents.Segment((0.0, 0.0), (1.0, 2.0), F(3))
    backward = forward.reversed()
    for s in (forward, backward):
        g = currents._LineGroup(s)
        assert currents._lone_segment(g) == currents._sweep_line_group(g) \
            == [forward]
        # projection 0 on the group direction: both drop the segment
        g.direction = (-g.direction[1], g.direction[0])
        assert currents._lone_segment(g) == currents._sweep_line_group(g) == []


def test_canonicalize_opposite_orientations_subtract():
    c = canonicalize(chain_of([seg((0, 0), (2, 0), 3), seg((2, 0), (0, 0), 1)]))
    assert len(c.segments) == 1
    s = c.segments[0]
    assert abs(s.mult) == F(2) and s.length == pytest.approx(2.0)


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
