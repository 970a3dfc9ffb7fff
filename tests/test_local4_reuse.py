"""The four-point lab's reuse of work against a plain per-call reference.

``local4_solve`` takes its flowed candidate topologies from a cache keyed on
the atom masses and roles, and shares minimizations between its
``optimize_topology`` calls; ``estimate_rho`` tries the sample that failed
last first.  None of this may change a reported number, so the results are
compared with ``==`` against the per-call loop they replace.
"""
import random
import sys
from fractions import Fraction as F

import pytest

import gsteiner.placement as placement
from forest_oracle import all_forests, shrank
from gsteiner.currents import alpha_mass, canonicalize, support_difference_mass
from gsteiner.perturb import (_CASES, LocalFourPointInstance,
                              PerturbationSpec, _case_label,
                              _local4_candidates, _rho_samples, build_wz,
                              estimate_k0, estimate_rho, four_point_instance,
                              local4_solve, perturb)
from gsteiner.placement import optimize_topology, realize_chain
from gsteiner.solver import SolverConfig, magic_points, solve
from gsteiner.sweep import SweepSpec, build_cells
from gsteiner.topology import (FlowedTopology, InfeasibleTopologyError,
                               assign_flows, forest_rows)

perturb_module = sys.modules["gsteiner.perturb"]

# cases whose support cannot carry the boundary in general position
INFEASIBLE_CASES = ("1d", "1i", "1j", "1n", "1q", "1r", "3c")

# the bisected rho(k0 + 1) of each alpha, to 2 digits: sweep cells drawn in
# this band reach the edge of the W/Z dichotomy
SWEEP_RHO = {0.5: 0.28, 0.6: 0.16, 0.75: 0.023}


def _forest_case(topo, roles):
    """The lab case of the four-atom ``(n_branch, edges)`` forest ``topo``:
    ``_case_label`` reads the forest alone, so its flows are left zero."""
    m, edges = topo
    return _case_label(FlowedTopology(4, m, edges, (0,) * len(edges)), roles)


def reference_local4_solve(inst, alpha, match_tol=1e-5):
    """The per-call loop: every forest enumerated, flowed and optimized on
    its own, with no candidate cache and no shared minimizations."""
    b = inst.boundary()
    roles = {i: {inst.a: "A", inst.b: "B", inst.c: "C", inst.d: "D"}[p]
             for i, (p, _) in enumerate(b.atoms)}
    values, infeasible, evaluated = {}, [], []
    for topo in all_forests(b):
        case = _forest_case(topo, roles)
        try:
            ft = assign_flows(*topo, b)
        except InfeasibleTopologyError:
            ft = None
        if ft is None or shrank(topo, ft):
            if case not in values and case not in infeasible:
                infeasible.append(case)
            continue
        opt = optimize_topology(ft, b, alpha)
        chain = canonicalize(realize_chain(opt.flowed, opt.placement))
        value = alpha_mass(chain, alpha)
        if case not in values or value < values[case]:
            values[case] = value
        evaluated.append((value, case, chain))
    infeasible = [c for c in infeasible if c not in values]
    evaluated.sort(key=lambda e: (e[0], e[1]))
    value, case, chain = evaluated[0]
    w, z = build_wz(inst)
    tol = match_tol * (1.0 + float(inst.theta))
    if support_difference_mass(chain, canonicalize(z), match_tol) <= tol:
        label = "Z"
    elif support_difference_mass(chain, canonicalize(w), match_tol) <= tol:
        label = "W"
    else:
        label = f"CASE_{case}"
    return label, case, value, values, tuple(sorted(infeasible)), chain


def assert_same_as_reference(inst, alpha):
    got = local4_solve(inst, alpha)
    label, case, value, values, infeasible, chain = \
        reference_local4_solve(inst, alpha)
    assert got.label == label
    assert got.winner_case == case
    assert got.value == value
    assert got.values == values
    assert got.infeasible == infeasible
    assert got.chain == chain
    return got


def mirrored_instance():
    """A, B, C, D at decreasing x: the atoms sort as D, C, B, A."""
    return LocalFourPointInstance(a=(4.0, 0.01), b=(1.0, -0.02),
                                  c=(-1.0, 0.015), d=(-4.0, 0.0),
                                  theta=F(1), k=7)


# ---------------------------------------------------------------------------
# local4_solve against the per-call loop
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", sorted(SWEEP_RHO))
def test_local4_matches_reference_on_sweep_cells(alpha):
    spec = SweepSpec(alphas=(alpha,), n_instances=8, rho=SWEEP_RHO[alpha],
                     seed=5)
    labels = set()
    for _, k, _, _, _, disp, theta in build_cells(spec):
        labels.add(assert_same_as_reference(
            four_point_instance(k, disp, theta), alpha).label)
    assert labels & {"W", "Z"}


@pytest.mark.parametrize("rho", [0.02, 0.15, 0.4])
def test_local4_matches_reference_on_rho_samples(rho):
    alpha = 0.6
    k = estimate_k0(alpha) + 1
    for disp in _rho_samples(rho):
        assert_same_as_reference(four_point_instance(k, disp), alpha)


def test_local4_matches_reference_collinear():
    cls = assert_same_as_reference(four_point_instance(9, (0.0,) * 4), 0.5)
    assert cls.label == "Z"


@pytest.mark.parametrize("theta", [F(3, 2), F(2, 7)])
def test_local4_matches_reference_non_unit_theta(theta):
    for disp in ((0.0, 0.05, -0.05, 0.0), (0.02, -0.01, 0.03, -0.02)):
        assert_same_as_reference(four_point_instance(11, disp, theta), 0.6)


def test_local4_matches_reference_mirrored():
    inst = mirrored_instance()
    order = [{inst.a: "A", inst.b: "B", inst.c: "C", inst.d: "D"}[p]
             for p, _ in inst.boundary().atoms]
    assert order == ["D", "C", "B", "A"]
    plain = four_point_instance(7, (0.0, 0.015, -0.02, 0.01))
    for alpha in (0.5, 0.75):
        assert_same_as_reference(plain, alpha)
        assert_same_as_reference(inst, alpha)


# ---------------------------------------------------------------------------
# the candidate cache and the shared minimizations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k, theta", [(2, F(1)), (3, F(1)), (7, F(3, 2)),
                                      (50, F(2, 7)), (1000, F(5))])
def test_cached_candidates_infeasible_cases(k, theta):
    b = four_point_instance(k, (0.0, 0.1, -0.1, 0.0), theta).boundary()
    cands = _local4_candidates(tuple(m for _, m in b.atoms),
                               ("A", "B", "C", "D"))
    # 11 of the 35 forests cannot carry the boundary: one each of the 7
    # infeasible cases, and one of the three forests of each of 2a-2d
    assert len(cands) == 24 and all(all(ft.edge_flows) for _, ft in cands)
    feasible = {case for case, _ in cands}
    assert _CASES - feasible == set(INFEASIBLE_CASES)
    assert len(_CASES) == 27


@pytest.mark.parametrize("theta", [F(1), F(3, 2)])
@pytest.mark.parametrize("k", [2, 83, 365618])
def test_cached_candidates_match_oracle(k, theta):
    # A right of D, in seeded poses: any atom order
    rng = random.Random(k)
    for _ in range(3):
        a, b, c, d = ((rng.uniform(-5, 5), rng.uniform(-5, 5))
                      for _ in range(4))
        a, d = (a, d) if a[0] > d[0] else (d, a)
        bd = LocalFourPointInstance(a, b, c, d, theta, k).boundary()
        where = {a: "A", b: "B", c: "C", d: "D"}
        roles = tuple(where[p] for p, _ in bd.atoms)
        want = []
        for topo in all_forests(bd):
            try:
                ft = assign_flows(*topo, bd)
            except InfeasibleTopologyError:
                continue
            if not shrank(topo, ft):
                want.append((_forest_case(topo, roles), ft))
        got = _local4_candidates(tuple(m for _, m in bd.atoms), roles)
        assert len(got) == 24
        assert sorted(map(repr, got)) == sorted(map(repr, want))


def assert_same_optimized(shared, fresh):
    assert shared.flowed == fresh.flowed
    assert shared.placement == fresh.placement
    assert shared.value == fresh.value
    assert shared.lower == fresh.lower
    assert shared.iterations == fresh.iterations
    assert shared.converged == fresh.converged


def counting_minimize(monkeypatch):
    calls = []
    real = placement.minimize

    def minimize(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)
    monkeypatch.setattr(placement, "minimize", minimize)
    return calls


def counting_placements(monkeypatch):
    """The topologies that ``optimize_topology`` calls through the module
    place, nested calls included: every call its memo cannot answer."""
    placed = []
    real = placement.optimize_topology

    def optimize_topology(ft, b, alpha, trace=None, memo=None, start=None):
        if memo is None or ft.edges not in memo:
            placed.append(ft)
        return real(ft, b, alpha, trace, memo, start)
    monkeypatch.setattr(placement, "optimize_topology", optimize_topology)
    return placed


@pytest.mark.parametrize("inst", [
    four_point_instance(11, (0.0, 0.03, -0.02, 0.0)),
    four_point_instance(6, (0.0,) * 4, F(3, 2)),
    mirrored_instance()])
def test_shared_minimizations_match_fresh_calls_local4(inst, monkeypatch):
    b = inst.boundary()
    where = {inst.a: "A", inst.b: "B", inst.c: "C", inst.d: "D"}
    cands = [ft for _, ft in _local4_candidates(
        tuple(m for _, m in b.atoms), tuple(where[p] for p, _ in b.atoms))]
    placed = counting_placements(monkeypatch)
    fresh = [placement.optimize_topology(ft, b, 0.6) for ft in cands]
    n_fresh = len(placed)
    memo = {}
    shared = [placement.optimize_topology(ft, b, 0.6, memo=memo)
              for ft in cands]
    for s, f in zip(shared, fresh):
        assert_same_optimized(s, f)
    # some topology contracts onto one placed before, whose result the
    # shared memo hands back
    assert len(placed) - n_fresh < n_fresh


def test_shared_minimizations_match_fresh_calls_dented_square(
        square_boundary, monkeypatch):
    cfg = SolverConfig(alpha=0.6)
    base = solve(square_boundary, cfg)
    spec = PerturbationSpec(base.minimizers[0].chain, magic_points(base, 0),
                            estimate_k0(0.6) + 1, 0.05)
    _, b = perturb(spec)
    seen = []

    def recording(ft, b, alpha, trace=None, memo=None, start=None):
        out = optimize_topology(ft, b, alpha, trace, memo, start)
        seen.append((ft, start, out))
        return out
    monkeypatch.setattr(sys.modules["gsteiner.solver"], "optimize_topology",
                        recording)
    calls = counting_minimize(monkeypatch)
    report = solve(b, cfg)
    assert len(report.minimizers) == 1 and len(seen) >= 2
    n_solve = len(calls)
    # each row's kernel starts where its bound was taken, and so does the
    # fresh call
    for ft, start, shared in seen:
        assert_same_optimized(shared,
                              optimize_topology(ft, b, cfg.alpha, start=start))
    assert n_solve <= len(calls) - n_solve


@pytest.mark.parametrize("case", ["dent", "solve-3d"])
def test_solver_memo_keeps_start_free_results_only(case, bench_instances,
                                                   bench_dent):
    # after the seed-0 solves the solver's memo holds no row, each of which
    # the solver optimized from the placement of its bound, and every entry
    # is what a fresh call without a start returns
    cases = ([tuple(bench_dent(0)[1:])] if case == "dent"
             else bench_instances("solve-3d", 0))
    real = placement.optimize_topology
    entries = 0
    for b, alpha in cases:
        memos, topologies = [], {}

        def recording(ft, b, alpha, trace=None, memo=None, start=None):
            memos.append(memo)
            topologies[ft.edges] = ft
            return real(ft, b, alpha, trace, memo, start)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(placement, "optimize_topology", recording)
            patch.setattr(sys.modules["gsteiner.solver"], "optimize_topology",
                          recording)
            solve(b, SolverConfig(alpha=alpha))
        memo = memos[0]
        assert all(m is memo for m in memos)
        rows = forest_rows(tuple(m for _, m in b.atoms))
        assert not memo.keys() & {rows.topology(r).edges
                                  for r in range(len(rows))}
        for key, res in memo.items():
            assert_same_optimized(res, real(topologies[key], b, alpha))
        entries += len(memo)
    assert entries > 0


# ---------------------------------------------------------------------------
# estimate_rho sample order
# ---------------------------------------------------------------------------

def reference_estimate_rho(alpha, k, iters=10, rho_max=0.5):
    """Bisection that solves the samples in their plain order."""
    def ok(rho):
        return all(perturb_module.local4_solve(four_point_instance(k, d),
                                               alpha).label in ("W", "Z")
                   for d in _rho_samples(rho))

    lo, hi = 0.0, rho_max
    if ok(rho_max):
        return rho_max
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("alpha", [0.5, 0.6, 0.75])
def test_estimate_rho_matches_plain_order(alpha, monkeypatch):
    calls = []
    real = perturb_module.local4_solve

    def counted(inst, alpha):
        calls.append(inst)
        return real(inst, alpha)
    monkeypatch.setattr(perturb_module, "local4_solve", counted)
    k = estimate_k0(alpha) + 1
    want = reference_estimate_rho(alpha, k)
    n_plain = len(calls)
    assert estimate_rho(alpha, k) == want
    assert len(calls) - n_plain <= n_plain
