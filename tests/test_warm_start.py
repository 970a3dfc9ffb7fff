"""The kernel's warm start from the bounding pass against the barycentric
start.

``solve`` hands each row it optimizes the branch positions at which
``placement.bound_rows`` took that row's bound, and the kernel starts
there instead of at the barycentric start that every other caller keeps.
Here each solve runs again with that start dropped: the reports must agree,
no visited row may end higher warm than cold, and the warm runs must take
fewer kernel iterations.

The start is also the kernel's first settle point.  Each warm run runs
again with that settle refused, and so from its start through the three
stages: a run whose start is refused must end bit for bit as that one, and
a run that ends at its start must be certified and not above it.
"""
import pytest

from gsteiner import fileio, placement, solver
from gsteiner.placement import Placement, energy
from gsteiner.solver import SolverConfig, solve
from random_set import random_set


def _solve_recorded(b, alpha, warm):
    """``solve`` on ``b`` with the (value, iterations) of every row it
    optimizes, by edges; without ``warm`` every row starts at the
    barycentric start."""
    values = {}
    real = solver.optimize_topology

    def recording(ft, b, alpha, trace=None, memo=None, start=None):
        res = real(ft, b, alpha, trace, memo, start if warm else None)
        values[ft.edges] = res.value, res.iterations
        return res
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "optimize_topology", recording)
        return solve(b, SolverConfig(alpha=alpha)), values


def assert_warm_matches_cold(cases):
    """Returns the kernel iterations of the warm and the cold solves."""
    iterations = [0, 0]
    for b, alpha in cases:
        warm, got = _solve_recorded(b, alpha, True)
        cold, want = _solve_recorded(b, alpha, False)
        assert len(warm.minimizers) == len(cold.minimizers)
        assert warm.stats == cold.stats
        assert warm.best_value == pytest.approx(cold.best_value, rel=1e-12,
                                                abs=0.0)
        assert warm.gap == pytest.approx(cold.gap, rel=1e-12, abs=0.0)
        assert got.keys() == want.keys()
        for key, (v, steps) in got.items():
            assert v <= want[key][0] + 1e-12 * (1.0 + v), key
            iterations[0] += steps
            iterations[1] += want[key][1]
    return iterations


@pytest.mark.parametrize("workload,seeds", [("solve-3d", range(10)),
                                            ("solve-n6", range(3))])
def test_warm_start_matches_cold_on_the_bench_solves(workload, seeds,
                                                     bench_instances):
    # from the barycentric start these take 2078 and 480 iterations, from
    # the bounds' placements 1127 and 57
    warm, cold = assert_warm_matches_cold(
        [case for seed in seeds for case in bench_instances(workload, seed)])
    assert warm < cold


def test_warm_start_matches_cold_on_the_dented_squares(bench_dent):
    assert_warm_matches_cold([bench_dent(seed)[1:] for seed in range(3)])


def test_warm_start_matches_cold_on_the_random_set():
    warm, cold = assert_warm_matches_cold(random_set())
    assert warm < cold


def _kernel_outcome(ft, terminals, alpha, result):
    """A kernel run's branch positions, iterations, and the value and lower
    bound of what it ended at: its settled result, else its placement."""
    pos, iters, found = result
    branch = tuple(map(tuple, pos))
    if found is not None:
        return branch, iters, found.placement, found.value, found.lower
    return branch, iters, None, energy(ft, Placement(terminals, branch),
                                       alpha), None


def _warm_runs_paired(b, alpha):
    """``solve`` on ``b``, each kernel run that has a start run twice, the
    second time as it is and the first time with its start's settle refused
    by a wrapper; returns the report and, per warm run, (what ``settle``
    returned at its start, its outcome, the refused run's outcome).  The refused run
    must enter its first stage at the start as given, not at its snap."""
    pairs, entered = [], []
    real = placement._run_kernel

    def entering(stage):
        def run(pos, *args):
            entered.append(tuple(map(tuple, pos)))
            return stage(pos, *args)
        return run

    def kernel(ft, terminals, alpha, trace, settle, start=None):
        if start is None:
            return real(ft, terminals, alpha, trace, settle, start)
        calls = []

        def refusing(pl):
            calls.append(pl)
            return None if len(calls) == 1 else settle(pl)
        entered.clear()
        refused = real(ft, terminals, alpha, None, refusing, start)
        assert entered[0][ft.n_terminals:] == tuple(map(tuple, start))
        settled = []

        def watched(pl):
            settled.append(settle(pl))
            return settled[-1]
        got = real(ft, terminals, alpha, trace, watched, start)
        pairs.append((settled[0],
                      _kernel_outcome(ft, terminals, alpha, got),
                      _kernel_outcome(ft, terminals, alpha, refused)))
        return got
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(placement, "_run_kernel", kernel)
        for name in ("_sweeps_2d", "_newton_steps"):
            patch.setattr(placement, name, entering(getattr(placement, name)))
        return solve(b, SolverConfig(alpha=alpha)), pairs


@pytest.mark.parametrize("case", ["solve-n6", "solve-3d", "dent",
                                  "random set"])
def test_a_settled_start_is_certified_and_a_refused_one_changes_nothing(
        case, bench_instances, bench_dent):
    # every warm kernel run of the seed-0 solves and of the random set.  All
    # 3 warm runs of solve-n6 end at their start, 10 of the 13 of solve-3d,
    # the dent's 2 and 209 of the random set's 257
    if case == "random set":
        cases = random_set()
    elif case == "dent":
        cases = [tuple(bench_dent(0)[1:])]
    else:
        cases = bench_instances(case, 0)
    at_start = refused = 0
    for b, alpha in cases:
        report, pairs = _warm_runs_paired(b, alpha)
        # the refused runs' own settles leave the solve as it was
        assert (fileio.report_to_obj(report)
                == fileio.report_to_obj(solve(b, SolverConfig(alpha=alpha))))
        for found, got, want in pairs:
            if found is None:
                assert got == want
                refused += 1
                continue
            branch, iters, pl, value, _ = got
            assert found.converged
            assert iters == 0 and pl.branch == branch
            assert value <= want[3] + 1e-12 * (1.0 + value)
            at_start += 1
    assert at_start > 0
    if case in ("solve-3d", "random set"):
        assert refused > 0
