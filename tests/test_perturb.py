"""Dent construction bounds, four-point case analysis, thresholds k0 and rho."""
import math
import random
from fractions import Fraction as F

import pytest

from gsteiner.currents import (Segment, alpha_mass, boundary, canonicalize,
                               chain_of, restrict_ball,
                               support_difference_mass)
from gsteiner.flat import flat_distance
from gsteiner.perturb import (LocalFourPointInstance, PerturbationSpec,
                              _param_on_segment, build_wz,
                              end_to_end_uniqueness, estimate_k0,
                              estimate_rho, four_point_instance, local4_solve,
                              perturb, verify_perturbation_bounds)
from gsteiner.solver import SolverConfig


def unit_segment_chain():
    return canonicalize(chain_of([((0.0, 0.0), (1.0, 0.0), F(1))]))


# ---------------------------------------------------------------------------
# dents
# ---------------------------------------------------------------------------

def test_perturb_unit_segment_exact():
    spec = PerturbationSpec(unit_segment_chain(), ((0.5, 0.0),), k=4, radius=0.1)
    t_pert, b_pert = perturb(spec)
    mults = {(round(s.start[0], 9), round(s.end[0], 9)): s.mult
             for s in t_pert.segments}
    assert mults[(0.4, 0.6)] == F(3, 4)
    assert mults[(0.0, 0.4)] == F(1) and mults[(0.6, 1.0)] == F(1)
    atoms = {(round(p[0], 9), p[1]): m for p, m in b_pert.atoms}
    assert atoms[(0.4, 0.0)] == F(1, 4) and atoms[(0.6, 0.0)] == F(-1, 4)
    assert atoms[(0.0, 0.0)] == F(-1) and atoms[(1.0, 0.0)] == F(1)


def test_point_found_on_a_segment_whose_square_underflows():
    # |d|^2 of a 1e-170 segment underflows to 0, where the projection
    # divided by it
    s = Segment((0.0, 0.0), (1e-170, 0.0), F(1))
    assert _param_on_segment((5e-171, 0.0), s) == 0.5


def test_perturb_boundary_identity():
    chain = unit_segment_chain()
    for k, r in ((4, 0.1), (7, 0.2), (2, 0.05)):
        spec = PerturbationSpec(chain, ((0.5, 0.0),), k=k, radius=r)
        _, b_pert = perturb(spec)
        dent = boundary(restrict_ball(chain, (0.5, 0.0), r)).scaled(F(-1, k))
        assert b_pert.as_dict() == (boundary(chain) + dent).as_dict()


def test_perturb_flat_distance_vanishes_with_k():
    chain = unit_segment_chain()
    b = boundary(chain)
    prev = math.inf
    for k in (2, 4, 8, 16, 64):
        spec = PerturbationSpec(chain, ((0.5, 0.0),), k=k, radius=0.1)
        _, b_pert = perturb(spec)
        d = flat_distance(b_pert, b)
        assert d <= prev + 1e-15
        prev = d
    assert prev <= 0.1 * float(b.mass()) / 64 + 1e-12


def test_perturb_inadmissible_points():
    chain = unit_segment_chain()
    with pytest.raises(ValueError):  # ball reaches the boundary support
        PerturbationSpec(chain, ((0.05, 0.0),), k=2, radius=0.1)
    with pytest.raises(ValueError):  # off the support entirely
        PerturbationSpec(chain, ((0.5, 0.5),), k=2, radius=0.1)
    with pytest.raises(ValueError):  # overlapping balls
        PerturbationSpec(chain, ((0.4, 0.0), (0.55, 0.0)), k=2, radius=0.1)
    y = canonicalize(chain_of([((0.0, 0.0), (1.0, 0.0), F(2)),
                               ((1.0, 0.0), (2.0, 1.0), F(1)),
                               ((1.0, 0.0), (2.0, -1.0), F(1))]))
    with pytest.raises(ValueError):  # ball around a branch point
        PerturbationSpec(y, ((1.02, 0.02),), k=2, radius=0.1)


def test_perturb_refuses_a_point_at_a_crossing():
    # two segments crossing at (1, 1) without a vertex there: the point lies
    # inside both, and a dent there would add four atoms, not two
    x = canonicalize(chain_of([((0.0, 0.0), (2.0, 2.0), F(1)),
                               ((0.0, 2.0), (2.0, 0.0), F(1))]))
    with pytest.raises(ValueError, match=r"\(1\.0, 1\.0\): inside 2 segments"):
        PerturbationSpec(x, ((1.0, 1.0),), 10, 0.1)
    # a point inside one of them still dents it
    _, b = perturb(PerturbationSpec(x, ((0.5, 0.5),), 10, 0.1))
    assert len(b.atoms) == 6


@pytest.mark.parametrize("radius", [0.0, math.nan, math.inf])
def test_perturbation_spec_refuses_a_radius_not_positive_and_finite(radius):
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        PerturbationSpec(unit_segment_chain(), ((0.5, 0.0),), k=2,
                         radius=radius)


def test_bounds_on_unit_segment():
    spec = PerturbationSpec(unit_segment_chain(), ((0.5, 0.0),), k=4, radius=0.1)
    t_pert, b_pert = perturb(spec)
    rep = verify_perturbation_bounds(spec, t_pert, b_pert, alpha=0.6)
    assert rep.all_ok()
    # mass bound is tight here: multiplicity equals mass(b)/2 exactly
    assert rep.mass_margin == 0
    assert rep.energy_margin > 0


def test_bounds_on_square_matching(square_boundary):
    # dent the horizontal matching at both segment midpoints: h = 2, k = 4
    chain = canonicalize(chain_of([
        ((0.0, 0.0), (1.0, 0.0), F(1)), ((1.0, 1.0), (0.0, 1.0), F(1))]))
    assert boundary(chain).as_dict() == square_boundary.as_dict()
    spec = PerturbationSpec(chain, ((0.5, 0.0), (0.5, 1.0)), k=4, radius=0.05)
    t_pert, b_pert = perturb(spec)
    assert b_pert.mass() == F(5)  # 4 + 2 * (2 * 1/4) * 1/2 ... = 4 + 1
    assert b_pert.mass() <= square_boundary.mass() * (1 + F(2, 4))
    rep = verify_perturbation_bounds(spec, t_pert, b_pert, alpha=0.95)
    assert rep.all_ok()
    assert rep.flat_margin >= 0


def test_bounds_k_equals_one_removes_piece():
    spec = PerturbationSpec(unit_segment_chain(), ((0.5, 0.0),), k=1, radius=0.1)
    t_pert, b_pert = perturb(spec)
    assert all(not (0.45 < 0.5 * (s.start[0] + s.end[0]) < 0.55)
               for s in t_pert.segments)
    rep = verify_perturbation_bounds(spec, t_pert, b_pert, alpha=0.5)
    assert rep.all_ok()


def test_bounds_without_points_hold_with_equal_energy():
    spec = PerturbationSpec(unit_segment_chain(), (), k=4, radius=0.1)
    t_pert, b_pert = perturb(spec)
    rep = verify_perturbation_bounds(spec, t_pert, b_pert, alpha=0.6)
    assert rep.energy_margin == 0 and rep.energy_decreased
    assert rep.all_ok()


# ---------------------------------------------------------------------------
# W and Z
# ---------------------------------------------------------------------------

def test_build_wz_boundaries_random():
    rng = random.Random(5)
    for _ in range(15):
        inst = LocalFourPointInstance(
            a=(rng.uniform(-5, -3), rng.uniform(-1, 1)),
            b=(rng.uniform(-2, -0.5), rng.uniform(-1, 1)),
            c=(rng.uniform(0.5, 2), rng.uniform(-1, 1)),
            d=(rng.uniform(3, 5), rng.uniform(-1, 1)),
            theta=F(rng.randint(1, 3)), k=rng.randint(2, 9))
        w, z = build_wz(inst)
        assert boundary(w).as_dict() == inst.boundary().as_dict()
        assert boundary(z).as_dict() == inst.boundary().as_dict()


def test_collinear_w_equals_z_after_canonicalization():
    inst = LocalFourPointInstance((-4.0, 0.0), (-1.0, 0.0), (1.0, 0.0),
                                  (4.0, 0.0), F(1), 10)
    w, z = build_wz(inst)
    assert canonicalize(w) == canonicalize(z)
    assert alpha_mass(canonicalize(z), 0.5) == pytest.approx(
        6.0 + 2.0 * (1.0 - 1.0 / 10) ** 0.5)


# ---------------------------------------------------------------------------
# four-point classification
# ---------------------------------------------------------------------------

def test_local4_collinear_winner_is_z():
    inst = LocalFourPointInstance((-4.0, 0.0), (-1.0, 0.0), (1.0, 0.0),
                                  (4.0, 0.0), F(1), 10)
    cls = local4_solve(inst, 0.5)
    assert cls.label == "Z"
    assert cls.value == pytest.approx(3.0 + 3.0 + 2.0 * (F(9, 10)) ** 0.5)


def test_local4_infeasible_cases_match_structure():
    inst = four_point_instance(6, (0.0, 0.05, -0.04, 0.01))
    cls = local4_solve(inst, 0.5)
    assert cls.infeasible == ("1d", "1i", "1j", "1n", "1q", "1r", "3c")


def test_local4_near_collinear_dichotomy():
    k = estimate_k0(0.5) + 1
    rng = random.Random(9)
    for _ in range(10):
        disp = tuple(rng.uniform(-0.05, 0.05) for _ in range(4))
        cls = local4_solve(four_point_instance(k, disp), 0.5)
        assert cls.label in ("W", "Z")


def test_local4_escapes_dichotomy_below_k0():
    # far off-axis at k = 2: a branched competitor wins
    inst = LocalFourPointInstance((-4.0, 0.0), (-1.0, 2.5), (1.0, -2.5),
                                  (4.0, 0.0), F(1), 2)
    cls = local4_solve(inst, 0.5)
    assert cls.label not in ("W", "Z")


def test_local4_exclusion_margins_positive():
    k = estimate_k0(0.5) + 1
    rng = random.Random(10)
    for _ in range(6):
        disp = tuple(rng.uniform(-0.03, 0.03) for _ in range(4))
        cls = local4_solve(four_point_instance(k, disp), 0.5)
        v = cls.values
        assert v["1c"] > v["1g"]  # vs W
        assert v["1h"] > v["1g"]  # vs W
        assert v["1e"] > v["1p"]  # vs Z
        assert v["1a"] > v["1p"]  # vs Z


def test_local4_one_branch_angle_obstruction():
    # near-collinear: every one-branch case is beaten by the W/Z winner
    k = estimate_k0(0.5) + 1
    cls = local4_solve(four_point_instance(k, (0.0, 0.01, -0.01, 0.0)), 0.5)
    best_wz = min(cls.values["1g"], cls.values["1p"])
    for case in ("2a", "2b", "2c", "2d"):
        if case in cls.values:
            assert cls.values[case] > best_wz - 1e-12
    assert cls.value == pytest.approx(best_wz)


def test_local4_winner_matches_wz_chain():
    k = estimate_k0(0.5) + 1
    inst = four_point_instance(k, (0.0, 0.02, -0.02, 0.0))
    cls = local4_solve(inst, 0.5)
    w, z = build_wz(inst)
    target = canonicalize(w) if cls.label == "W" else canonicalize(z)
    assert support_difference_mass(cls.chain, target, 1e-5) <= 1e-4


def test_local4_three_collinear_subcases():
    k = estimate_k0(0.5) + 1
    # A, B, C on the axis, D slightly off; then A, C, D on the axis
    for disp in ((0.0, 0.0, 0.0, 0.02), (0.0, 0.03, 0.0, 0.0)):
        cls = local4_solve(four_point_instance(k, disp), 0.5)
        assert cls.label in ("W", "Z")


# ---------------------------------------------------------------------------
# k0 and rho
# ---------------------------------------------------------------------------

def test_k0_alpha_half_scalar_arithmetic():
    assert (0.5) ** 0.5 + 2 ** -0.5 / 4 < 1  # k = 2 fails
    assert estimate_k0(0.5) == 5


def test_k0_matches_linear_scan():
    for alpha in (0.2, 0.35, 0.5, 0.65):
        k0 = estimate_k0(alpha)
        for k in range(2, k0):
            base = (1 - 1 / k) ** alpha
            assert not (base + k ** -alpha / 2 > 1 and base + k ** -alpha / 4 > 1)
        base = (1 - 1 / k0) ** alpha
        assert base + k0 ** -alpha / 2 > 1 and base + k0 ** -alpha / 4 > 1


def test_k0_monotone_in_alpha():
    # the threshold grows as alpha approaches 1 and drops to 2 as alpha -> 0
    grid = [0.05, 0.2, 0.4, 0.6, 0.8, 0.9]
    values = [estimate_k0(a) for a in grid]
    assert values == sorted(values)
    assert values[0] == 2
    assert estimate_k0(0.95) > 10 ** 6


def test_rho_positive_and_contains_dichotomy():
    rho = estimate_rho(0.5, estimate_k0(0.5) + 1)
    assert rho > 0.01


# ---------------------------------------------------------------------------
# end-to-end uniqueness
# ---------------------------------------------------------------------------

def test_end_to_end_unique_instance_stays_unique(v_boundary):
    exp = end_to_end_uniqueness(v_boundary, 0.75, k=6, radii=[0.1])
    assert exp.points == ()  # nothing to distinguish
    assert exp.outcomes[0].unique and exp.outcomes[0].matches_dented_target


def test_end_to_end_below_k0_flagged(v_boundary):
    exp = end_to_end_uniqueness(v_boundary, 0.75, k=1, radii=[0.1])
    assert exp.below_k0


def test_end_to_end_square_single_radius(square_boundary):
    k = estimate_k0(0.6) + 1
    exp = end_to_end_uniqueness(square_boundary, 0.6, k, radii=[0.05])
    assert not exp.below_k0
    out = exp.outcomes[0]
    assert out.unique and out.matches_dented_target and out.gap > 0
    assert exp.final_unique()


def test_end_to_end_records_an_inadmissible_radius(square_boundary):
    # a ball of radius 2 leaves the unit square's segments: the dent is
    # inadmissible, recorded as an error, and the verdict is the last
    # radius that ran
    k = estimate_k0(0.6) + 1
    exp = end_to_end_uniqueness(square_boundary, 0.6, k, radii=[0.05, 2.0])
    ok, bad = exp.outcomes
    assert ok.error is None and ok.unique and ok.matches_dented_target
    assert bad.radius == 2.0 and "inadmissible" in bad.error
    assert not bad.unique and bad.n_minimizers == 0 and math.isnan(bad.gap)
    assert exp.final_unique()
    assert not end_to_end_uniqueness(square_boundary, 0.6, k,
                                     radii=[2.0]).final_unique()


def test_end_to_end_refuses_a_config_at_another_alpha(square_boundary):
    # solving at 0.9 while k0 is estimated at 0.6 (10, against 365617 at
    # 0.9) would measure below_k0 against the wrong alpha
    with pytest.raises(ValueError, match="differs from alpha"):
        end_to_end_uniqueness(square_boundary, 0.6, 11, radii=[0.05],
                              cfg=SolverConfig(alpha=0.9))


def y_chain_beside_a_segment():
    """A segment on the x-axis, and a Y whose branch point lies 0.05 above
    the segment's midpoint."""
    return canonicalize(chain_of([
        ((0.0, 0.0), (4.0, 0.0), F(1)), ((2.0, 2.0), (2.0, 0.05), F(2)),
        ((2.0, 0.05), (1.0, 1.0), F(1)), ((2.0, 0.05), (3.0, 1.0), F(1))]))


def two_segments():
    """A segment on the x-axis, and one that starts 0.05 above its midpoint."""
    return canonicalize(chain_of([((0.0, 0.0), (4.0, 0.0), F(1)),
                                  ((2.0, 0.05), (2.0, 1.0), F(1))]))


@pytest.mark.parametrize("build,message", [
    (lambda: PerturbationSpec(unit_segment_chain(), ((0.5, 0.0),), 0, 0.1),
     "k must be a positive integer"),
    (lambda: PerturbationSpec(chain_of([((0.0, 0.0), (1.0, 0.0), F(1))]),
                              ((0.5, 0.0),), 2, 0.1), "chain must be canonical"),
    (lambda: PerturbationSpec(two_segments(), ((2.0, 0.0),), 2, 0.1),
     "ball meets supp"),
    (lambda: PerturbationSpec(y_chain_beside_a_segment(), ((2.0, 0.0),), 2,
                              0.1), "ball meets a branch point"),
    (lambda: LocalFourPointInstance((-4.0, 0.0), (-1.0, 0.0), (1.0, 0.0),
                                    (4.0, 0.0), F(1), 1), "k must be at least 2"),
    (lambda: LocalFourPointInstance((-4.0, 0.0), (-1.0, 0.0), (-1.0, 0.0),
                                    (4.0, 0.0), F(1), 6),
     "the four points must be distinct"),
    (lambda: estimate_k0(0.0), r"alpha must lie in \(0, 1\)"),
    (lambda: estimate_k0(1.0), r"alpha must lie in \(0, 1\)"),
], ids=["spec-k", "spec-not-canonical", "ball-meets-atom",
        "ball-meets-branch-point", "four-point-k", "four-point-repeated",
        "k0-alpha-0", "k0-alpha-1"])
def test_input_checks(build, message):
    with pytest.raises(ValueError, match=message):
        build()
