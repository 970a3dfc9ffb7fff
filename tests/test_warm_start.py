"""The kernel's warm start from the bounding pass against the barycentric
start.

``solve`` hands each row it optimizes the branch positions at which
``placement.bound_rows`` took that row's bound, and the kernel starts
there instead of at the barycentric start that every other caller keeps.
Here each solve runs again with that start dropped: the reports must agree,
no visited row may end higher warm than cold, and the warm runs must take
fewer kernel iterations.
"""
import pytest

from gsteiner import solver
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
    # the bounds' placements 1587 and 439
    warm, cold = assert_warm_matches_cold(
        [case for seed in seeds for case in bench_instances(workload, seed)])
    assert warm < cold


def test_warm_start_matches_cold_on_the_dented_squares(bench_dent):
    assert_warm_matches_cold([bench_dent(seed)[1:] for seed in range(3)])


def test_warm_start_matches_cold_on_the_random_set():
    warm, cold = assert_warm_matches_cold(random_set())
    assert warm < cold
