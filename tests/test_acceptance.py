"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Tolerances and budgets are pinned here; nothing is deferred to calibration.
"""
import math
import random
import time
from fractions import Fraction as F

from gsteiner.currents import (boundary, branch_points, chain_of, dist,
                               has_loop, make_boundary,
                               support_difference_mass, vsub)
from gsteiner.flat import flat_norm
from gsteiner.perturb import (PerturbationSpec, end_to_end_uniqueness,
                              estimate_k0, perturb, verify_perturbation_bounds)
from gsteiner.solver import SolverConfig, quantize_chain, solve
from grid_oracle import brute_force_value
from gsteiner.sweep import SweepSpec, run_sweep


def _finish(criterion: int, label: str, failures: list, started: float,
            budget: float) -> None:
    elapsed = time.monotonic() - started
    if elapsed > budget:
        failures.append(f"runtime {elapsed:.1f}s exceeds budget {budget:.0f}s")
    verdict = "PASS" if not failures else "FAIL"
    print(f"[acceptance] criterion {criterion} {verdict} "
          f"({elapsed:.1f}s / {budget:.0f}s) {label}")
    assert not failures, "; ".join(str(f) for f in failures)


def _random_instances(count: int, seed: int = 20260811):
    """Balanced boundaries with 2 to 4 well-separated atoms."""
    rng = random.Random(seed)
    alphas = [0.5, 0.6, 0.75, 0.85, 0.95]
    sizes = [2, 3, 4, 4, 3]
    out = []
    while len(out) < count:
        n = sizes[len(out) % len(sizes)]
        pts = []
        while len(pts) < n:
            p = (round(rng.uniform(0.0, 2.0), 3), round(rng.uniform(0.0, 2.0), 3))
            if all(dist(p, q) > 0.25 for q in pts):
                pts.append(p)
        masses = [F(rng.randint(1, 3), rng.choice([1, 2]))
                  for _ in range(n - 1)]
        masses = [m if rng.random() < 0.6 else -m for m in masses]
        closing = -sum(masses)
        if closing == 0:
            continue
        masses.append(closing)
        out.append((make_boundary(zip(pts, masses)),
                    alphas[len(out) % len(alphas)]))
    return out


def test_criterion_1_oracle_equivalence():
    started = time.monotonic()
    failures = []
    for i, (b, alpha) in enumerate(_random_instances(25)):
        got = solve(b, SolverConfig(alpha=alpha)).best_value
        want = brute_force_value(b, alpha)
        if abs(got - want) > 1e-2:
            failures.append(f"instance {i}: solver {got} vs oracle {want}")
    _finish(1, "solver matches grid oracle on 25 random instances",
            failures, started, 60.0)


def test_criterion_2_branching_angle_law():
    started = time.monotonic()
    failures = []
    b = make_boundary([((0.0, 0.0), F(-2)), ((1.0, 0.3), F(1)),
                       ((1.0, -0.3), F(1))])
    for alpha in (0.6, 0.75, 0.9):
        report = solve(b, SolverConfig(alpha=alpha))
        chain = report.minimizers[0].chain
        branch = branch_points(chain, b)
        if len(branch) != 1:
            failures.append(f"alpha={alpha}: expected one branch point")
            continue
        (bp,) = branch
        arms = [s for s in chain.segments
                if bp in (s.start, s.end) and abs(s.mult) == 1]
        if len(arms) != 2:
            failures.append(f"alpha={alpha}: expected two unit-flow arms")
            continue
        vecs = [vsub(s.end if s.start == bp else s.start, bp) for s in arms]
        cosang = (sum(a * c for a, c in zip(*vecs))
                  / math.prod(math.hypot(*v) for v in vecs))
        angle = math.acos(max(-1.0, min(1.0, cosang)))
        expected = math.acos(2.0 ** (2 * alpha - 1) - 1.0)
        if abs(angle - expected) > 1e-3:
            failures.append(
                f"alpha={alpha}: angle {angle:.6f} vs {expected:.6f}")
    _finish(2, "outflow angle equals arccos(2^(2a-1) - 1)", failures,
            started, 5.0)


def test_criterion_3_non_uniqueness_detection(square_boundary):
    started = time.monotonic()
    failures = []
    report = solve(square_boundary, SolverConfig(alpha=0.95))
    if len(report.minimizers) < 2:
        failures.append(f"found {len(report.minimizers)} minimizers, need >= 2")
    for m in report.minimizers:
        if abs(m.value - 2.0) > 1e-7:
            failures.append(f"minimizer value {m.value} not within 1e-7 of 2")
    for i in range(len(report.minimizers)):
        for j in range(i + 1, len(report.minimizers)):
            d = support_difference_mass(report.minimizers[i].chain,
                                        report.minimizers[j].chain, 1e-5)
            if d <= 1e-5:
                failures.append(f"minimizers {i},{j} share their support")
    _finish(3, "square instance yields two distinct minimizers of cost 2",
            failures, started, 5.0)


def _corpus():
    square = make_boundary([((0.0, 0.0), F(-1)), ((1.0, 1.0), F(-1)),
                            ((1.0, 0.0), F(1)), ((0.0, 1.0), F(1))])
    v = make_boundary([((0.0, 0.0), F(-2)), ((1.0, 0.3), F(1)),
                       ((1.0, -0.3), F(1))])
    steep = make_boundary([((0.0, 0.0), F(-2)), ((1.0, 1.1), F(1)),
                           ((1.0, -1.1), F(1))])
    s = 1.0 / math.sqrt(3.0)
    star = make_boundary([((0.0, 1.0), F(-2)), ((-s, 0.0), F(1)),
                          ((s, 0.0), F(1))])
    fixed = [(square, 0.95), (square, 0.6), (v, 0.75), (v, 0.5),
             (steep, 0.5), (star, 0.5)]
    return fixed + _random_instances(10, seed=77)


def test_criterion_4_structural_invariants():
    started = time.monotonic()
    failures = []
    for idx, (b, alpha) in enumerate(_corpus()):
        report = solve(b, SolverConfig(alpha=alpha))
        n = len(b.atoms)
        for m in report.minimizers:
            if boundary(m.chain).as_dict() != b.as_dict():
                failures.append(f"corpus {idx}: boundary mismatch")
            if has_loop(m.chain):
                failures.append(f"corpus {idx}: support contains a loop")
            if len(branch_points(m.chain, b)) > n - 2:
                failures.append(f"corpus {idx}: too many branch points")
            if m.value - m.lower > 1e-12 * (1.0 + m.value):
                failures.append(f"corpus {idx}: value {m.value} above its "
                                f"lower bound {m.lower}")
    _finish(4, "boundary/acyclicity/branch-count/certificate on corpus",
            failures, started, 60.0)


def test_criterion_5_perturbation_bounds():
    started = time.monotonic()
    failures = []
    specs = []
    for idx, (b, alpha) in enumerate(_corpus()):
        report = solve(b, SolverConfig(alpha=alpha))
        chain = report.minimizers[0].chain
        seg = max(chain.segments, key=lambda s: s.length)
        mid = tuple(0.5 * (a + c) for a, c in zip(seg.start, seg.end))
        for k, div in ((2, 8.0), ((3, 5, 11)[idx % 3], 16.0)):
            try:
                specs.append((PerturbationSpec(chain, (mid,), k,
                                               seg.length / div), alpha))
            except ValueError:
                continue
        if len(specs) >= 20:
            break
    if len(specs) < 20:
        failures.append(f"only built {len(specs)} admissible specs")
    for i, (spec, alpha) in enumerate(specs):
        t_pert, b_pert = perturb(spec)
        rep = verify_perturbation_bounds(spec, t_pert, b_pert, alpha)
        if rep.mass_margin < 0:
            failures.append(f"spec {i}: mass bound violated")
        if rep.flat_margin < -1e-12 * (1.0 + abs(rep.flat_margin)):
            failures.append(f"spec {i}: flat bound violated by {rep.flat_margin}")
        if rep.energy_margin <= 0:
            failures.append(f"spec {i}: cost did not strictly decrease")
    _finish(5, "mass/flat/cost dent bounds on 20 generated specs",
            failures, started, 30.0)


def test_criterion_6_four_point_dichotomy():
    started = time.monotonic()
    failures = []
    spec = SweepSpec(alphas=(0.5, 0.6, 0.75), n_instances=70, seed=4)
    rows = run_sweep(spec)
    if len(rows) < 200:
        failures.append(f"only {len(rows)} cells")
    for row in rows:
        if row["error"]:
            failures.append(f"cell {row['alpha']}/{row['index']}: {row['error']}")
            continue
        if row["label"] not in ("W", "Z"):
            failures.append(
                f"cell {row['alpha']}/{row['index']}: label {row['label']}")
        for key in ("margin_1c_vs_w", "margin_1h_vs_w", "margin_1e_vs_z",
                    "margin_1a_vs_z", "scalar_margin_half",
                    "scalar_margin_quarter"):
            val = row[key]
            if val != "" and val <= 0:
                failures.append(
                    f"cell {row['alpha']}/{row['index']}: {key} = {val}")
    _finish(6, f"winner in {{W, Z}} on {len(rows)} near-collinear instances",
            failures, started, 120.0)


def test_criterion_7_end_to_end_uniqueness(square_boundary):
    started = time.monotonic()
    failures = []
    alpha = 0.6
    k = estimate_k0(alpha) + 1
    exp = end_to_end_uniqueness(square_boundary, alpha, k,
                                radii=[0.1, 0.05, 0.02])
    if exp.below_k0:
        failures.append("k below the quantization threshold")
    if len(exp.base.minimizers) < 2:
        failures.append("base instance lost its non-uniqueness")
    final = exp.outcomes[-1]
    if final.error:
        failures.append(f"smallest radius failed: {final.error}")
    else:
        if not final.unique:
            failures.append(f"{final.n_minimizers} minimizers at radius "
                            f"{final.radius}")
        if not final.matches_dented_target:
            failures.append("minimizer is not the dented target")
        if not final.gap > 0:
            failures.append(f"gap {final.gap} not strictly positive")
    _finish(7, f"perturbed square has the unique minimizer (k={k})",
            failures, started, 120.0)


def test_criterion_8_flat_norm_correctness():
    started = time.monotonic()
    failures = []
    rng = random.Random(88)
    for i in range(50):
        x = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        y = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        if x == y:
            continue
        b = make_boundary([(x, F(-1)), (y, F(1))])
        value, witness = flat_norm(b)
        want = min(dist(x, y), 2.0)
        if abs(value - want) > 1e-9:
            failures.append(f"pair {i}: {value} vs {want}")
        if abs(witness.value() - value) > 1e-9:
            failures.append(f"pair {i}: witness objective mismatch")
    for i in range(50):
        bs = []
        for _ in range(3):
            atoms = [((rng.uniform(-2, 2), rng.uniform(-2, 2)),
                      F(rng.randint(1, 3), rng.randint(1, 2)) * rng.choice([-1, 1]))
                     for _ in range(rng.randint(1, 3))]
            bs.append(make_boundary(atoms))
        from gsteiner.flat import flat_distance
        d01 = flat_distance(bs[0], bs[1])
        d10 = flat_distance(bs[1], bs[0])
        if abs(d01 - d10) > 1e-9:
            failures.append(f"triple {i}: asymmetric ({d01} vs {d10})")
        d12 = flat_distance(bs[1], bs[2])
        d02 = flat_distance(bs[0], bs[2])
        if d02 > d01 + d12 + 1e-9:
            failures.append(f"triple {i}: triangle inequality violated")
    _finish(8, "flat norm closed form, symmetry and triangle inequality",
            failures, started, 5.0)


def test_criterion_9_quantization():
    started = time.monotonic()
    failures = []
    rng = random.Random(99)
    eta = F(1, 6)
    for i in range(40):
        segs = []
        for _ in range(rng.randint(1, 6)):
            a = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            c = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            m = F(rng.randint(-40, 40), rng.randint(1, 11))
            if a != c and m != 0:
                segs.append((a, c, m))
        if not segs:
            continue
        chain = chain_of(segs)
        q = quantize_chain(chain, eta)
        floored = {(s.start, s.end): s.mult for s in q.segments}
        for s in chain.segments:
            pos = s if s.mult > 0 else s.reversed()
            got = floored.get((pos.start, pos.end), F(0))
            err = pos.mult - got
            if not (F(0) <= err < eta):
                failures.append(f"chain {i}: floor error {err}")
            if (got / eta).denominator != 1:
                failures.append(f"chain {i}: multiplicity off the eta lattice")
        for _, m in boundary(q).atoms:
            if (m / eta).denominator != 1:
                failures.append(f"chain {i}: boundary mass off the eta lattice")
    _finish(9, "eta-floor quantization of multiplicities and boundary",
            failures, started, 1.0)
