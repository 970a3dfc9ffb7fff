"""Benchmark workloads: seeded inputs, one timed pass, and the output checks.

A pass is the fixed list of ops that a seed defines, plus the work the ops
depend on (the base solve of the dent experiment, the k0/rho estimation of
the sweep).  ``run.py`` repeats passes, each in a fresh process.  The package
sees only the generated inputs; every call goes through the ``gsteiner``
namespace at call time, so the traced pass catches it.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction as F

import gsteiner as gs
from gsteiner import fileio, sweep
from gsteiner.currents import dist

REL_TOL = 1e-6          # reference best values may move by this much
WZ_MARGINS = (("1c", "1g"), ("1h", "1g"), ("1e", "1p"), ("1a", "1p"))


def digest(obj) -> str:
    body = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def invariants(chain, b) -> list[str]:
    """Exact boundary, no loop, at most n - 2 branch points."""
    if gs.boundary(chain).as_dict() != b.as_dict():
        return ["chain boundary differs from the input boundary"]
    out = []
    if gs.has_loop(chain):
        out.append("support contains a loop")
    if len(gs.branch_points(chain, b)) > len(b.atoms) - 2:
        out.append("more than n - 2 branch points")
    return out


def report_checks(report) -> list[str]:
    out = [] if report.gap > 0 else [f"gap {report.gap} is not positive"]
    for m in report.minimizers:
        out += invariants(m.chain, report.boundary)
    return out


def random_points(rng: random.Random, n: int, dim: int) -> list[tuple]:
    """Well-separated points in [0, 2]^dim, as in the acceptance tests."""
    pts: list[tuple] = []
    while len(pts) < n:
        p = tuple(round(rng.uniform(0.0, 2.0), 3) for _ in range(dim))
        if all(dist(p, q) > 0.25 for q in pts):
            pts.append(p)
    return pts


class Workload:
    """One pass: ``prepare`` then every op; ``check`` runs afterwards, untimed."""
    op_ids: list[str]

    def prepare(self):
        return None

    def ops(self, ctx):
        raise NotImplementedError

    def check(self, op_id: str, ctx, out) -> tuple[list[str], dict, str]:
        """(failures, summary compared with the reference, report digest)."""
        raise NotImplementedError


def random_pose(rng: random.Random, dim: int):
    """A uniform rotation, a reflection and a translation, as a function."""
    if dim == 2:
        a = rng.uniform(0.0, 2.0 * math.pi)
        rot = [[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]]
    else:   # from a uniform random unit quaternion
        q = [rng.gauss(0.0, 1.0) for _ in range(4)]
        norm = math.sqrt(sum(v * v for v in q))
        w, x, y, z = (v / norm for v in q)
        rot = [[1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
               [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
               [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)]]
    flip = rng.random() < 0.5
    shift = [rng.uniform(-5.0, 5.0) for _ in range(dim)]

    def move(p: tuple) -> tuple:
        p = (-p[0],) + p[1:] if flip else p
        return tuple(round(sum(r * c for r, c in zip(row, p)) + t, 9)
                     for row, t in zip(rot, shift))
    return move


class PosedSolves(Workload):
    """``gsteiner.solve`` on fixed random instances in seeded poses.

    Solve time varies up to 2.5-fold with the positions of random instances,
    and only a few solves fit a run: with seeded positions the pass time of
    ``solve-n6`` spread by 22% between seeds.  So the instances are drawn
    once (one per slot of masses and alpha, from the acceptance tests' seed)
    and the seed moves each one rigidly.  The inputs differ from seed to seed
    while the solver's work stays the same up to rounding.  Alpha is fixed
    per slot for the same reason: a distinct-mass 6-atom solve takes 1.6
    times as long at alpha 0.9 as at 0.5.
    """
    BASE_SEED = 20260811

    def __init__(self, seed: int, dim: int, slots, quick: bool):
        base, pose = random.Random(self.BASE_SEED), random.Random(seed)
        self.instances = {}
        for i, (masses, alpha) in enumerate(slots[:1] if quick else slots):
            pts = map(random_pose(pose, dim),
                      random_points(base, len(masses), dim))
            self.instances[f"i{i}"] = (
                gs.make_boundary(zip(pts, (F(m) for m in masses))), alpha)
        self.op_ids = list(self.instances)

    def ops(self, ctx):
        for op_id, (b, alpha) in self.instances.items():
            yield op_id, lambda b=b, alpha=alpha: gs.solve(
                b, gs.SolverConfig(alpha=alpha))

    def check(self, op_id, ctx, report):
        summary = {"best_value": report.best_value,
                   "n_minimizers": len(report.minimizers)}
        return (report_checks(report), summary,
                digest(fileio.report_to_obj(report)))


class UniquenessSquare(Workload):
    """The dent experiment of acceptance criterion 7 on the square.

    The op repeats the per-radius step of ``end_to_end_uniqueness`` with the
    same public calls, plus ``verify_perturbation_bounds`` on the dent: the
    experiment object does not expose the re-solve's report, which the
    reference check and the digest need.  The seed picks a reflection and an
    integer translation of the square (exact in floating point) and one radius
    of the schedule; all three dents cost about the same.
    """
    ALPHA = 0.6
    RADII = (0.1, 0.05, 0.02)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        flip = rng.random() < 0.5
        tx, ty = rng.randint(-3, 3), rng.randint(-3, 3)
        atoms = [((0.0, 0.0), -1), ((1.0, 1.0), -1),
                 ((1.0, 0.0), 1), ((0.0, 1.0), 1)]
        self.square = gs.make_boundary(
            ((((1.0 - x) if flip else x) + tx, y + ty), F(m))
            for (x, y), m in atoms)
        self.radius = rng.choice(self.RADII)
        self.cfg = gs.SolverConfig(alpha=self.ALPHA)
        self.op_ids = [f"r{self.radius}"]

    def prepare(self):
        base = gs.solve(self.square, self.cfg)
        points = gs.magic_points(base, 0)
        k = gs.estimate_k0(self.ALPHA) + 1
        return base, points, k

    def ops(self, ctx):
        base, points, k = ctx

        def dent_and_resolve():
            spec = gs.PerturbationSpec(base.minimizers[0].chain, points, k,
                                       self.radius)
            t_pert, b_pert = gs.perturb(spec)
            bounds = gs.verify_perturbation_bounds(spec, t_pert, b_pert,
                                                   self.ALPHA)
            return t_pert, bounds, gs.solve(b_pert, self.cfg)
        yield self.op_ids[0], dent_and_resolve

    def check(self, op_id, ctx, out):
        base, _, _ = ctx
        t_pert, bounds, report = out
        fails = report_checks(report)
        if len(base.minimizers) < 2:
            fails.append("base square lost its non-uniqueness")
        if len(report.minimizers) != 1:
            fails.append(f"{len(report.minimizers)} minimizers after the dent")
        elif gs.support_difference_mass(
                report.minimizers[0].chain, t_pert,
                self.cfg.distinct_tol) > self.cfg.distinct_tol:
            fails.append("the minimizer is not the dented target")
        if not bounds.all_ok():
            fails.append(f"dent bounds violated: {bounds}")
        summary = {"best_value": report.best_value,
                   "n_minimizers": len(report.minimizers)}
        return fails, summary, digest(fileio.report_to_obj(report))


class Local4Sweep(Workload):
    """The four-point dichotomy on the cells ``sweep.build_cells`` makes."""
    ALPHAS = (0.5, 0.6, 0.75)

    def __init__(self, seed: int, quick: bool):
        self.spec = sweep.SweepSpec(alphas=self.ALPHAS,
                                    n_instances=4 if quick else 100, seed=seed)
        self.op_ids = [f"a{a}-{i}" for a in self.ALPHAS
                       for i in range(self.spec.n_instances)]

    def prepare(self):
        return sweep.build_cells(self.spec)

    def ops(self, cells):
        for alpha, k, _, _, index, disp, theta in cells:
            yield f"a{alpha}-{index}", lambda a=alpha, k=k, d=disp, t=theta: (
                gs.local4_solve(gs.four_point_instance(k, d, t), a), a, k, d, t)

    def check(self, op_id, ctx, out):
        cls, alpha, k, disp, theta = out
        fails = invariants(cls.chain,
                           gs.four_point_instance(k, disp, theta).boundary())
        if cls.label not in ("W", "Z"):
            fails.append(f"label {cls.label}")
        for case, ref in WZ_MARGINS:
            if case in cls.values and ref in cls.values \
                    and cls.values[case] - cls.values[ref] <= 0:
                fails.append(f"margin {case} vs {ref} is not positive")
        base = math.expm1(alpha * math.log1p(-1.0 / k))
        ka = math.exp(-alpha * math.log(k))
        if not (base + ka / 2.0 > 0 and base + ka / 4.0 > 0):
            fails.append("scalar threshold margin is not positive")
        summary = {"best_value": cls.value, "label": cls.label}
        body = {"label": cls.label, "winner_case": cls.winner_case,
                "value": cls.value, "values": cls.values,
                "chain": fileio.chain_to_obj(cls.chain)}
        return fails, summary, digest(body)


REPEATED_6 = (-1, -1, -1, 1, 1, 1)                  # many duplicate topologies
DISTINCT_6 = ("-3", "-1/2", "2", "1", "3/2", "-1")   # few duplicates
N6_SLOTS = ((REPEATED_6, 0.85), (DISTINCT_6, 0.5))
D3_SLOTS = tuple(
    (((-2, 1, 1, -1, 1), ("-3", "-1/2", "2", "1", "1/2"))[i % 2], alpha)
    for i, alpha in enumerate((0.5, 0.65, 0.8, 0.95) * 2))


def build(name: str, seed: int, quick: bool = False) -> Workload:
    if name == "solve-n6":
        return PosedSolves(seed, 2, N6_SLOTS, quick)
    if name == "solve-3d":
        return PosedSolves(seed, 3, D3_SLOTS, quick)
    if name == "uniqueness-square":
        return UniquenessSquare(seed)
    if name == "local4-sweep":
        return Local4Sweep(seed, quick)
    raise ValueError(f"unknown workload {name!r}")


def compare(summary: dict, want: dict) -> list[str]:
    """Differences between an op's summary and its reference entry."""
    out = []
    for key, ref in want.items():
        got = summary.get(key)
        if isinstance(ref, float):
            if not abs(got - ref) <= REL_TOL * (1.0 + abs(ref)):
                out.append(f"{key} {got!r} differs from the reference {ref!r}")
        elif got != ref:
            out.append(f"{key} {got!r} differs from the reference {ref!r}")
    return out
