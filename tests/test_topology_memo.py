"""A flowed topology's memo against fresh copies.

``contract`` keeps each result in the memo of the topology it contracts,
keyed by the merged pairs, and ``placement._weights`` keeps the edge weights
there, keyed by alpha.  The four-point lab hands the same candidate objects
to every call with the same masses, so a wrong key would make a result
depend on which calls came before it.  Each memoized result is compared with
``==`` against the same work on a fresh copy, and whole classifications
against runs whose memos start cold.
"""
import copy
import pickle
from dataclasses import replace
from fractions import Fraction as F

import pytest

import gsteiner.topology as topology
from gsteiner.perturb import (_local4_candidates, _rho_samples, estimate_k0,
                              four_point_instance, local4_solve)
from gsteiner.placement import _weights
from gsteiner.solver import SolverConfig, solve
from gsteiner.sweep import SweepSpec, build_cells
from gsteiner.topology import FlowedTopology, contract, forest_rows


def fresh(ft):
    """``ft`` with an empty memo: the same forest and flows."""
    return FlowedTopology(ft.n_terminals, ft.n_branch, ft.edges,
                          ft.edge_flows)


@pytest.fixture
def contractions(monkeypatch):
    """Every (flowed topology, pairs) that ``contract`` computes while the
    fixture is active, in call order; the lab's candidates start cold."""
    met = []
    uncached = topology._contract

    def recording(ft, pairs):
        met.append((ft, tuple(pairs)))
        return uncached(ft, pairs)

    monkeypatch.setattr(topology, "_contract", recording)
    _local4_candidates.cache_clear()
    yield met
    _local4_candidates.cache_clear()


def test_memoized_contractions_match_fresh_copies(contractions, monkeypatch,
                                                  bench_workloads,
                                                  bench_instances):
    sweep = bench_workloads.build("local4-sweep", 0)
    cells = [c for c in sweep.prepare() if c[0] in (0.5, 0.75)]
    for alpha, k, _, _, _, disp, theta in cells:
        local4_solve(four_point_instance(k, disp, theta), alpha)
    k = estimate_k0(0.6) + 1
    for disp in _rho_samples(0.15):
        local4_solve(four_point_instance(k, disp), 0.6)
    for name in ("solve-n6", "solve-3d"):
        for seed in range(3):
            for b, alpha in bench_instances(name, seed):
                solve(b, SolverConfig(alpha=alpha))

    monkeypatch.undo()
    assert len(contractions) > 200
    assert any(pairs for _, pairs in contractions)
    for ft, pairs in contractions:
        got = contract(ft, pairs)
        assert contract(ft, list(pairs)) is got
        assert got == contract(fresh(ft), pairs)
    # the memo's two kinds of keys, pairs and alpha, on one object each
    for ft in {id(ft): ft for ft, _ in contractions}.values():
        for alpha in (0.5, 0.75, 0.5):
            assert _weights(ft, alpha) == tuple(
                float(abs(f)) ** alpha for f in ft.edge_flows)


def lab_cells():
    """20 seeded cells that share one mass vector (k 7, theta 1) across
    two alphas, so their candidates and memos are shared too."""
    spec = SweepSpec(alphas=(0.5, 0.75), n_instances=10, k=7, rho=0.12,
                     seed=1)
    return [(alpha, four_point_instance(k, disp, theta))
            for alpha, k, _, _, _, disp, theta in build_cells(spec)]


def test_local4_does_not_depend_on_call_order():
    cells = lab_cells()
    assert len({tuple(m for _, m in inst.boundary().atoms)
                for _, inst in cells}) == 1

    def run(order, cold=False):
        out = {}
        for i in order:
            if cold:
                _local4_candidates.cache_clear()
            alpha, inst = cells[i]
            out[i] = local4_solve(inst, alpha)
        return out

    _local4_candidates.cache_clear()
    forward = run(range(len(cells)))
    backward = run(reversed(range(len(cells))))
    cold = run(range(len(cells)), cold=True)
    assert forward == cold
    assert backward == cold
    assert {cls.label for cls in cold.values()} <= {"W", "Z"}


def test_memo_is_not_part_of_the_value():
    rows = forest_rows((F(1), F(-1), F(1), F(-1)))
    ft = next(ft for ft in map(rows.topology, range(len(rows)))
              if ft.n_branch)
    plain = fresh(ft)
    n = ft.n_terminals
    contract(ft, [(0, n)])
    _weights(ft, 0.5)
    assert ft._memo
    assert plain._memo == {}
    assert ft == plain
    assert hash(ft) == hash(plain)
    assert repr(ft) == repr(plain)
    assert ft.signature() == plain.signature()
    for other in (replace(ft), pickle.loads(pickle.dumps(ft)), copy.copy(ft),
                  copy.deepcopy(ft)):
        assert other == ft
        assert other._memo == {} and other._memo is not ft._memo
