"""Full-topology solve vs the exhaustive forest solve it replaced.

The reference below optimizes every forest of ``_all_forests`` with the
same placement and clustering as ``solve``; the solver proper enumerates
only full topologies over balanced partitions.  Both must find the same
optimum and the same set of minimizers.  Rigid motions and relabelings of
the atoms must leave the solve unchanged.
"""
import math
import random
from fractions import Fraction as F

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gsteiner.currents import (alpha_mass, canonicalize, make_boundary,
                               support_difference_mass)
from gsteiner.placement import optimize_topology, realize_chain
from gsteiner.solver import SolverConfig, solve
from gsteiner.topology import (InfeasibleTopologyError, _all_forests,
                               assign_flows)

# repeated and distinct masses for every size
MASSES = {
    3: [(F(-2), F(1), F(1)), (F(-3), F(1), F(2))],
    4: [(F(-1), F(-1), F(1), F(1)), (F(-3), F(1, 2), F(2), F(1, 2))],
    5: [(F(-2), F(1), F(1), F(-1), F(1)),
        (F(-3), F(-1, 2), F(2), F(1), F(1, 2))],
}


def exhaustive_solve(b, cfg):
    """Best value and minimizer chains over every forest topology of ``b``."""
    seen = set()
    candidates = []
    for topo in _all_forests(b):
        try:
            ft = assign_flows(topo, b)
        except InfeasibleTopologyError:
            continue
        sig = ft.signature()
        if sig in seen:
            continue
        seen.add(sig)
        opt = optimize_topology(ft, b, cfg.alpha, cfg.optimize)
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
    return best, kept


def _random_instance(rng, n, dim, masses=None):
    masses = masses or rng.choice(MASSES[n])
    pts = []
    while len(pts) < n:
        p = tuple(round(rng.uniform(0.0, 2.0), 3) for _ in range(dim))
        if all(math.dist(p, q) > 0.25 for q in pts):
            pts.append(p)
    return make_boundary(zip(pts, masses)), rng.choice([0.5, 0.6, 0.75, 0.9])


def test_full_topology_solve_matches_exhaustive_solve():
    rng = random.Random(20261017)
    cases = [(n, dim, masses) for dim in (2, 3) for n in (3, 4, 5)
             for masses in MASSES[n]]
    for n, dim, masses in cases:
        b, alpha = _random_instance(rng, n, dim, masses)
        cfg = SolverConfig(alpha=alpha)
        report = solve(b, cfg)
        best, chains = exhaustive_solve(b, cfg)
        where = f"n={n} dim={dim} alpha={alpha} atoms={b.atoms}"
        assert abs(report.best_value - best) <= cfg.value_tol * (1.0 + best), where
        assert len(report.minimizers) == len(chains), where
        for rec in report.minimizers:
            assert any(support_difference_mass(rec.chain, c, cfg.distinct_tol)
                       <= cfg.distinct_tol for c in chains), where


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
