"""A flowed topology's memo against fresh copies.

``contract`` keeps each result in the memo of the topology it contracts,
keyed by the merged pairs; ``placement._weights`` keeps the edge weights
there, keyed by alpha, ``placement._incident`` the (weight, neighbour) lists
of the branch vertices, keyed by ``("incident", alpha)``, and
``placement._incidence`` the incidence matrix, keyed by ``"incidence"``.
The four-point lab hands the same candidate objects to every call with the
same masses, so a wrong key would make a result depend on which calls came
before it.  Each memoized result is compared with ``==`` against the same
work on a fresh copy, and whole classifications against runs whose memos
start cold.  Copies and pickles carry the memo.
"""
import copy
import pickle
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

import gsteiner.topology as topology
from gsteiner.perturb import (_local4_candidates, _rho_samples, estimate_k0,
                              four_point_instance, local4_solve)
from gsteiner.placement import _incidence, _incident, _weights
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
    assert replace(ft) == ft and replace(ft)._memo == {}


def test_copies_carry_the_memo_of_a_fresh_topology():
    # a copy, a deep copy and a pickle may carry the memo: every entry is
    # what an equal topology with an empty memo computes for the same key
    rows = forest_rows((F(1), F(-1), F(2), F(-1), F(-1)))
    ft = next(ft for ft in map(rows.topology, range(len(rows)))
              if ft.n_branch == 3)
    n = ft.n_terminals
    for pairs in ([(0, n)], [(n, n + 1)], [(n, n + 1), (1, n + 2)], ()):
        contract(ft, pairs)
    for alpha in (0.3, 0.85):
        _weights(ft, alpha)
        _incident(ft, alpha, n)
    _incidence(ft)
    for other in (copy.copy(ft), copy.deepcopy(ft),
                  pickle.loads(pickle.dumps(ft))):
        assert other == ft
        assert other._memo.keys() == ft._memo.keys() and len(other._memo) == 9
        for key, entry in other._memo.items():
            assert same_entry(entry, fresh_entry(ft, key))


def kind(key):
    """The kind of a memo key, with its alpha if it has one."""
    if isinstance(key, float):
        return "weights", key
    if key == "incidence":
        return key
    return key if key[:1] == ("incident",) else "contraction"


def fresh_entry(ft, key):
    """What an equal topology with an empty memo computes for ``key``."""
    plain, n = fresh(ft), ft.n_terminals
    found = kind(key)
    if found == "incidence":
        return _incidence(plain)
    if found == "contraction":
        return contract(plain, key)
    if found[0] == "weights":
        return _weights(plain, key)
    return tuple(_incident(plain, key[1], v)
                 for v in range(n, n + ft.n_branch))


def same_entry(entry, want):
    if isinstance(want, np.ndarray):
        return type(entry) is np.ndarray and np.array_equal(entry, want)
    return entry == want


def test_memo_keys_keep_their_kinds_apart():
    # flows 1 and 2: other weights and incident lists at another alpha
    rows = forest_rows((F(1), F(-1), F(2), F(-1), F(-1)))
    ft = next(ft for ft in map(rows.topology, range(len(rows)))
              if ft.n_branch == 3)
    n = ft.n_terminals
    for pairs in ((), [(n, n + 1)]):
        contract(ft, pairs)
    for alpha in (0.5, 0.75):
        _weights(ft, alpha)
        _incident(ft, alpha, n)
    _incidence(ft)
    assert set(map(kind, ft._memo)) == {
        "contraction", "incidence", ("weights", 0.5), ("weights", 0.75),
        ("incident", 0.5), ("incident", 0.75)}
    assert len(ft._memo) == 7
    for key, entry in ft._memo.items():
        assert same_entry(entry, fresh_entry(ft, key)), key
    assert ft._memo["incident", 0.5] != ft._memo["incident", 0.75]
    # each branch vertex's list: its edges' weights at that alpha
    for alpha in (0.5, 0.75):
        for v in range(n, n + 3):
            assert [wi for wi, _ in _incident(ft, alpha, v)] == [
                wi for wi, e in zip(_weights(ft, alpha), ft.edges) if v in e]


def test_topology_data_in_the_lab_memos_is_read_only_and_fresh():
    # after the lab at two alphas, the candidates and their contractions
    # hold incidence matrices and incident lists per alpha: read-only, and
    # what fresh copies build
    _local4_candidates.cache_clear()
    cells = lab_cells()
    for alpha, inst in cells:
        local4_solve(inst, alpha)
    b = cells[0][1].boundary()
    todo = [ft for _, ft in _local4_candidates(
        tuple(m for _, m in b.atoms), ("A", "B", "C", "D"))]
    seen, met = set(), set()
    while todo:
        ft = todo.pop()
        if id(ft) in seen:
            continue
        seen.add(id(ft))
        for key, entry in ft._memo.items():
            met.add(kind(key))
            assert same_entry(entry, fresh_entry(ft, key)), key
            if kind(key) == "incidence":
                assert not entry.flags.writeable
                with pytest.raises(ValueError):
                    entry[0, 0] = 2.0
            elif kind(key) == "contraction":
                todo.append(entry[0])
            elif kind(key)[0] == "incident":
                assert all(type(pairs) is tuple for pairs in entry)
    assert met >= {"contraction", "incidence", ("incident", 0.5),
                   ("incident", 0.75)}
    _local4_candidates.cache_clear()


def test_local4_across_alphas_on_one_candidate_set():
    # alpha 0.5, then 0.75, then 0.5 again on the same cached candidates
    # gives what candidates built fresh for each call give
    inst = four_point_instance(7, (0.01, -0.02, 0.015, 0.0), F(3, 2))
    _local4_candidates.cache_clear()
    warm = [local4_solve(inst, alpha) for alpha in (0.5, 0.75, 0.5)]
    cold = []
    for alpha in (0.5, 0.75, 0.5):
        _local4_candidates.cache_clear()
        cold.append(local4_solve(inst, alpha))
    for got, want in zip(warm, cold):
        assert (got.values, got.chain, got.label) == (
            want.values, want.chain, want.label)
        assert got == want
    assert warm[0] == warm[2] and warm[0].values != warm[1].values
    _local4_candidates.cache_clear()
