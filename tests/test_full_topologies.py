"""The solver against unpruned exhaustive references.

``reference_solve`` optimizes every topology of a generator with the same
placement and clustering as ``solve``, but prunes nothing.  Over the
exhaustive forests of ``forest_oracle.all_forests`` it checks that full
topologies over balanced partitions lose no optimum and no minimizer; over
the solver's own candidate set it checks that branch-and-bound pruning
changes neither the best value, nor the minimizer supports, nor the gap.
Rigid motions and relabelings of the atoms must leave the solve unchanged.
"""
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gsteiner.currents import (alpha_mass, canonicalize, make_boundary,
                               support_difference_mass)
from gsteiner.perturb import PerturbationSpec, estimate_k0, perturb
from gsteiner import solver
from gsteiner.placement import (_SCREEN_STEPS, bound_rows,
                                optimize_topology, realize_chain)
from gsteiner.solver import SolverConfig, magic_points, solve
from forest_oracle import all_forests
from gsteiner.topology import (InfeasibleTopologyError, assign_flows,
                               enumerate_topologies)
from topology_bounds import unscreened

# repeated and distinct masses for every size
MASSES = {
    3: [(F(-2), F(1), F(1)), (F(-3), F(1), F(2))],
    4: [(F(-1), F(-1), F(1), F(1)), (F(-3), F(1, 2), F(2), F(1, 2))],
    5: [(F(-2), F(1), F(1), F(-1), F(1)),
        (F(-3), F(-1, 2), F(2), F(1), F(1, 2))],
}


def reference_solve(b, cfg, topologies):
    """Best value, minimizer chains and gap over every topology, unpruned."""
    seen = set()
    candidates = []
    for m, edges in topologies(b):
        try:
            ft = assign_flows(m, edges, b)
        except InfeasibleTopologyError:
            continue
        sig = ft.signature()
        if sig in seen:
            continue
        seen.add(sig)
        opt = optimize_topology(ft, b, cfg.alpha)
        chain = canonicalize(realize_chain(opt.flowed, opt.placement))
        candidates.append((alpha_mass(chain, cfg.alpha), repr(sig), chain))
    candidates.sort(key=lambda c: (c[0], c[1]))
    best = candidates[0][0]
    threshold = best + cfg.value_tol * (1.0 + abs(best))
    kept = []
    for value, _, chain in candidates:
        if value > threshold:
            break
        if all(support_difference_mass(chain, k, cfg.distinct_tol)
               > cfg.distinct_tol for k in kept):
            kept.append(chain)
    above = [v for v, _, _ in candidates if v > threshold]
    return best, kept, (min(above) - best) if above else math.inf


def _random_instance(rng, n, dim, masses=None):
    masses = masses or rng.choice(MASSES[n])
    pts = []
    while len(pts) < n:
        p = tuple(round(rng.uniform(0.0, 2.0), 3) for _ in range(dim))
        if all(math.dist(p, q) > 0.25 for q in pts):
            pts.append(p)
    return make_boundary(zip(pts, masses)), rng.choice([0.5, 0.6, 0.75, 0.9])


def _random_cases():
    rng = random.Random(20261017)
    for dim in (2, 3):
        for n in (3, 4, 5):
            for masses in MASSES[n]:
                yield (f"n={n} dim={dim}",) + _random_instance(rng, n, dim, masses)


def _assert_same_minimizers(report, best, chains, cfg, where):
    assert abs(report.best_value - best) <= cfg.value_tol * (1.0 + best), where
    assert len(report.minimizers) == len(chains), where
    for rec in report.minimizers:
        assert any(support_difference_mass(rec.chain, c, cfg.distinct_tol)
                   <= cfg.distinct_tol for c in chains), where


def test_full_topology_solve_matches_exhaustive_solve():
    for where, b, alpha in _random_cases():
        cfg = SolverConfig(alpha=alpha)
        best, chains, _ = reference_solve(b, cfg, all_forests)
        _assert_same_minimizers(solve(b, cfg), best, chains, cfg,
                                f"{where} alpha={alpha} atoms={b.atoms}")


def _square():
    return make_boundary([((0.0, 0.0), F(-1)), ((1.0, 1.0), F(-1)),
                          ((1.0, 0.0), F(1)), ((0.0, 1.0), F(1))])


def _dented_square(radius, alpha=0.6):
    base = solve(_square(), SolverConfig(alpha=alpha))
    spec = PerturbationSpec(base.minimizers[0].chain, magic_points(base, 0),
                            estimate_k0(alpha) + 1, radius)
    return perturb(spec)[1]


def _degenerate_cases():
    for alpha in (0.3, 0.6, 0.9):
        yield f"square alpha={alpha}", _square(), alpha
    yield "4 collinear", make_boundary(
        ((float(i), 0.0), F((-1) ** (i + 1))) for i in range(4)), 0.6
    yield "2x3 grid", make_boundary(
        ((float(i % 3), float(i // 3)), F((-1) ** (i + 1))) for i in range(6)), 0.6
    for radius in (0.1, 0.05, 0.02):
        yield f"dented square r={radius}", _dented_square(radius), 0.6


@pytest.mark.parametrize("cases", [_random_cases, _degenerate_cases])
def test_pruned_solve_matches_unpruned_solve(cases):
    pruned = 0
    for where, b, alpha in cases():
        cfg = SolverConfig(alpha=alpha)
        report = solve(b, cfg)
        best, chains, gap = reference_solve(
            b, cfg, lambda b: ((ft.n_branch, ft.edges)
                               for ft in enumerate_topologies(b)))
        where = f"{where} alpha={alpha} atoms={b.atoms}"
        _assert_same_minimizers(report, best, chains, cfg, where)
        assert report.gap == gap or abs(report.gap - gap) <= \
            cfg.value_tol * (1.0 + best), where
        stats = report.stats
        assert stats["enumerated"] == (stats["infeasible"] + stats["duplicates"]
                                       + stats["optimized"] + stats["pruned"])
        pruned += stats["pruned"]
    assert pruned > 0  # the comparison must exercise pruning


def _unscreened_solve(b, cfg):
    """``solve`` with every topology's bound taken over the whole schedule:
    the margin it passes to the bounding pass is replaced by one that
    never cuts."""
    def full_bounds(*args, trace=None, margin=None):
        return bound_rows(*args, unscreened, trace)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "bound_rows", full_bounds)
        return solve(b, cfg)


def _co_minimal_cases():
    # random instances on which co-minimal topologies still differ in
    # energy after the screen's 4 steps: a cut at the margin of the
    # smallest energy above the least one, instead of at the smallest energy
    # of the topologies ruled out as minimizers, lies below the second-best
    # value here, and the solver then optimizes 10 and 6 topologies instead
    # of 6 and 4
    yield "6 atoms", make_boundary(
        ((x, y), F(m)) for x, y, m in [
            (0.082, 1.125, -2), (0.84, 1.165, 5), (1.199, 1.1, -1),
            (1.254, 0.612, -2), (1.515, 0.076, -4), (1.676, 0.235, 4)]), 0.95
    yield "5 atoms", make_boundary(
        ((x, y), F(m)) for x, y, m in [
            (0.068, 0.676, 1), (0.396, 1.594, 1), (0.515, 1.335, -4),
            (0.841, 1.365, -1), (1.85, 0.454, 3)]), 0.3


@pytest.mark.parametrize("cases", ["random", "degenerate", "co-minimal",
                                   "solve-n6"])
def test_screened_bounds_change_no_report(cases, bench_instances):
    # minimizers, best value and gap cannot change, since both kinds of
    # bound are dual bounds; on these instances the screened solve also
    # optimizes the same topologies, so stats agree too
    if cases == "solve-n6":
        instances = [("solve-n6", b, alpha) for seed in range(3)
                     for b, alpha in bench_instances("solve-n6", seed)]
    else:
        instances = list({"random": _random_cases,
                          "degenerate": _degenerate_cases,
                          "co-minimal": _co_minimal_cases}[cases]())
    screened = 0
    for where, b, alpha in instances:
        records = []
        report = solve(b, SolverConfig(alpha=alpha, trace=records.append))
        assert report == _unscreened_solve(b, SolverConfig(alpha=alpha)), \
            f"{where} alpha={alpha} atoms={b.atoms}"
        screened += sum(r["stage"] == "bound"
                        and r["iteration"] == _SCREEN_STEPS for r in records)
    assert screened > 0  # the comparison must exercise the screen


def test_co_minimal_tie_breaks_to_fewest_branch_vertices():
    # on this dent, topologies with 0 and with 2 branch vertices realize the
    # one minimizer at equal value; the signature keeps the branch count
    # second, so repr order ties to a 0-branch topology, whose record
    # has no branch vertex
    report = solve(_dented_square(0.1), SolverConfig(alpha=0.6))
    (record,) = report.minimizers
    assert record.flowed.n_branch == 0


# ---------------------------------------------------------------------------
# invariance under rigid motion and relabeling
# ---------------------------------------------------------------------------

def _orthogonal(dim, angles, reflect):
    if dim == 2:
        c, s = math.cos(angles[0]), math.sin(angles[0])
        q = np.array([[c, -s], [s, c]])
    else:
        q = np.eye(3)
        for (i, j), a in zip(((0, 1), (1, 2), (0, 2)), angles):
            r = np.eye(3)
            r[i, i] = r[j, j] = math.cos(a)
            r[i, j], r[j, i] = -math.sin(a), math.sin(a)
            q = r @ q
    if reflect:
        q = q @ np.diag([-1.0] + [1.0] * (dim - 1))
    return q


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10 ** 6), n=st.sampled_from([3, 4, 5]),
       dim=st.sampled_from([2, 3]),
       angles=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=3, max_size=3),
       reflect=st.booleans(),
       shift=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3))
def test_solve_invariant_under_rigid_motion_and_relabeling(
        seed, n, dim, angles, reflect, shift):
    # a Boundary keeps its atoms sorted by position, so moving them also
    # relabels the terminals the enumeration sees
    b, alpha = _random_instance(random.Random(seed), n, dim)
    q = _orthogonal(dim, angles, reflect)
    moved = make_boundary(
        (tuple(float(x) for x in q @ np.array(p) + np.array(shift[:dim])), m)
        for p, m in b.atoms)
    cfg = SolverConfig(alpha=alpha)
    r1, r2 = solve(b, cfg), solve(moved, cfg)
    assert math.isclose(r1.best_value, r2.best_value, rel_tol=1e-9)
    assert len(r1.minimizers) == len(r2.minimizers)
