"""Flat norm: closed forms, witness feasibility, metric axioms, oracle match,
and a differential test against the HiGHS LP the exact solver replaced."""
import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import gsteiner
from gsteiner.currents import Boundary, dist, make_boundary
from gsteiner.flat import flat_distance, flat_norm


def _pair(d):
    return make_boundary([((0.0, 0.0), F(-1)), ((d, 0.0), F(1))])


def test_zero_current():
    value, witness = flat_norm(Boundary(()))
    assert value == 0.0 and witness.transport_arcs == () == witness.dropped_mass


def test_transport_beats_dropping_when_close():
    value, witness = flat_norm(_pair(1.0))
    assert value == pytest.approx(1.0, abs=1e-12)
    assert len(witness.transport_arcs) == 1 and witness.dropped_mass == ()


def test_dropping_beats_transport_when_far():
    value, witness = flat_norm(_pair(5.0))
    assert value == pytest.approx(2.0, abs=1e-12)
    assert witness.transport_arcs == () and len(witness.dropped_mass) == 2


def test_tie_at_distance_two_transports():
    value, witness = flat_norm(_pair(2.0))
    assert value == pytest.approx(2.0, abs=1e-12)
    assert len(witness.transport_arcs) == 1


def test_rerouting_beats_greedy_matching():
    # the closest pair (a, c) is not in the optimum: the second augmenting
    # path b -> c -> a -> d takes back a's flow to c
    line = make_boundary([((-0.5, 0.0), F(1)), ((0.0, 0.0), F(-1)),
                          ((0.1, 0.0), F(1)), ((0.6, 0.0), F(-1))])
    value, witness = flat_norm(line)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert witness.transport_arcs == (((-0.5, 0.0), (0.0, 0.0), F(1)),
                                      ((0.1, 0.0), (0.6, 0.0), F(1)))
    assert witness.dropped_mass == ()


def test_value_bounded_by_mass():
    rng = random.Random(4)
    for _ in range(30):
        b = _random_boundary(rng)
        value, _ = flat_norm(b)
        assert value <= float(b.mass()) + 1e-9


def test_witness_feasible_and_matches_value():
    rng = random.Random(5)
    for _ in range(30):
        _check_witness(_random_boundary(rng))


# five atoms whose masses have denominators 7873-7901: the LP's float flows
# rounded to the common-denominator lattice oversent at an atom
LARGE_DENOMINATORS = make_boundary([
    ((0.1, 0.2), F(-3085, 7879)), ((1.0, 0.3), F(2467, 7883)),
    ((0.4, 1.1), F(-4880, 7877)), ((1.3, 1.2), F(4154, 7901)),
    ((0.7, 0.6), F(94, 7873)),
])
PRIMES_NEAR_7900 = (7873, 7877, 7879, 7883, 7901, 7907, 7919)


def test_large_denominators_conserve_exactly():
    value, _ = _check_witness(LARGE_DENOMINATORS)
    assert 0.0 < value <= float(LARGE_DENOMINATORS.mass())


def test_prime_denominators_near_7900_conserve_exactly():
    rng = random.Random(7900)
    for _ in range(60):
        atoms = [((rng.uniform(0, 1.5), rng.uniform(0, 1.5)),
                  F(rng.choice((-1, 1)) * rng.randint(1, 7872),
                    rng.choice(PRIMES_NEAR_7900)))
                 for _ in range(rng.randint(3, 6))]
        b = make_boundary(atoms)
        value, _ = _check_witness(b)
        assert value <= float(b.mass()) + 1e-12


def test_metric_symmetry_and_self_distance():
    rng = random.Random(6)
    for _ in range(10):
        b1 = _random_boundary(rng)
        b2 = _random_boundary(rng)
        assert flat_distance(b1, b1) == 0.0
        assert flat_distance(b1, b2) == pytest.approx(flat_distance(b2, b1),
                                                      abs=1e-9)


def test_triangle_inequality():
    rng = random.Random(7)
    for _ in range(10):
        b1, b2, b3 = (_random_boundary(rng) for _ in range(3))
        d12 = flat_distance(b1, b2)
        d23 = flat_distance(b2, b3)
        d13 = flat_distance(b1, b3)
        assert d13 <= d12 + d23 + 1e-9


def test_matches_enumeration_oracle():
    rng = random.Random(8)
    for _ in range(12):
        b = _random_boundary(rng, max_atoms=4, denom=2)
        value, _ = flat_norm(b)
        assert value == pytest.approx(_oracle(b), abs=1e-9)


def test_scaling_inequality():
    rng = random.Random(9)
    for _ in range(15):
        b = _random_boundary(rng)
        lam = F(rng.randint(1, 3), rng.randint(1, 4))
        if lam > 1:
            continue
        v1, _ = flat_norm(b.scaled(lam))
        v0, w0 = flat_norm(b)
        assert v1 <= float(lam) * v0 + 1e-9
        if not w0.dropped_mass:
            # pure transport scales exactly linearly
            assert v1 == pytest.approx(float(lam) * v0, abs=1e-9)


def _check_witness(b: Boundary):
    """Exact conservation at every atom, positive flows, value = witness."""
    value, w = flat_norm(b)
    assert value == pytest.approx(w.value(), abs=1e-9)
    sent = {}
    recv = {}
    for p, q, f in w.transport_arcs:
        assert f > 0
        sent[p] = sent.get(p, F(0)) + f
        recv[q] = recv.get(q, F(0)) + f
    dropped = dict(w.dropped_mass)
    assert all(m > 0 for m in dropped.values())
    for p, m in b.atoms:
        if m > 0:
            assert sent.get(p, F(0)) + dropped.get(p, F(0)) == m
        else:
            assert recv.get(p, F(0)) + dropped.get(p, F(0)) == -m
    return value, w


def _random_boundary(rng, max_atoms=5, denom=3):
    n = rng.randint(1, max_atoms)
    atoms = []
    for _ in range(n):
        p = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        m = F(rng.randint(-denom, denom), rng.randint(1, denom))
        if m:
            atoms.append((p, m))
    return make_boundary(atoms)


def _oracle(b: Boundary) -> float:
    """Exhaustive enumeration of integral transport plans on the mass lattice.

    Every optimal plan is a vertex of the transportation polytope, hence
    integral in units of the common mass quantum; enumerate them all.
    """
    pos = [(p, m) for p, m in b.atoms if m > 0]
    neg = [(p, -m) for p, m in b.atoms if m < 0]
    den = 1
    for _, m in b.atoms:
        den = den * m.denominator // math.gcd(den, m.denominator)
    supply = [int(m * den) for _, m in pos]
    demand = [int(m * den) for _, m in neg]

    best = [float(sum(supply) + sum(demand)) / den]  # drop everything

    def rec(i, remaining_supply, remaining_demand, cost):
        if cost >= best[0]:
            return
        if i == len(pos):
            total = cost + float(sum(remaining_supply) + sum(remaining_demand)) / den
            best[0] = min(best[0], total)
            return
        # all ways to ship from source i (including partial drops)
        choices = [range(0, min(remaining_supply[i], d) + 1)
                   for d in remaining_demand]
        for ship in itertools.product(*choices):
            if sum(ship) > remaining_supply[i]:
                continue
            extra = sum(s / den * dist(pos[i][0], neg[j][0])
                        for j, s in enumerate(ship))
            rec(i + 1,
                remaining_supply[:i] + [remaining_supply[i] - sum(ship)] +
                remaining_supply[i + 1:],
                [d - s for d, s in zip(remaining_demand, ship)],
                cost + extra)

    rec(0, supply, demand, 0.0)
    return best[0]


# ---------------------------------------------------------------------------
# differential test against the float LP that the exact solver replaced
# ---------------------------------------------------------------------------

def _lp_reference(b: Boundary) -> tuple[float, float]:
    """(flat norm, dropped mass) by HiGHS: the transportation LP, then among
    plans within 1e-11 of its optimum the one dropping the least mass."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    pos = [(p, float(m)) for p, m in b.atoms if m > 0]
    neg = [(p, -float(m)) for p, m in b.atoms if m < 0]
    if not pos or not neg:
        total = sum(m for _, m in pos + neg)
        return total, total
    np_, nn = len(pos), len(neg)
    nvar = np_ * nn + np_ + nn  # flows, pos drops, neg drops
    cost = np.ones(nvar)
    for i, (p, _) in enumerate(pos):
        for j, (q, _) in enumerate(neg):
            cost[i * nn + j] = dist(p, q)
    a_eq = np.zeros((np_ + nn, nvar))
    for i in range(np_):
        a_eq[i, i * nn:(i + 1) * nn] = 1.0
        a_eq[i, np_ * nn + i] = 1.0
    for j in range(nn):
        a_eq[np_ + j, j:np_ * nn:nn] = 1.0
        a_eq[np_ + j, np_ * nn + np_ + j] = 1.0
    b_eq = [m for _, m in pos + neg]
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.success
    tie = np.zeros(nvar)
    tie[np_ * nn:] = 1.0
    res2 = linprog(tie, A_eq=a_eq, b_eq=b_eq, A_ub=cost.reshape(1, -1),
                   b_ub=[res.fun + 1e-11 * (1.0 + abs(res.fun))],
                   bounds=(0, None), method="highs")
    assert res2.success
    return res.fun, res2.fun


def _tie_boundary(rng):
    """Atoms on the even lattice of [0, 4]^2: many pairs exactly 2 apart."""
    points = rng.sample([(2.0 * x, 2.0 * y) for x in range(3) for y in range(3)],
                        rng.randint(2, 6))
    return make_boundary([(p, F(rng.choice((-1, 1)) * rng.randint(1, 3),
                                rng.randint(1, 3))) for p in points])


def _collinear_boundary(rng):
    """Atoms on one tilted line, spaced so that some pairs sit near 2."""
    ts = rng.sample(range(12), rng.randint(2, 6))
    return make_boundary([((0.5 * t * 0.6, 0.5 * t * 0.8),
                           F(rng.choice((-1, 1)) * rng.randint(1, 4), 4))
                          for t in ts])


def _one_over_k_boundary(rng):
    """The dent's masses: unit atoms against 1/k atoms."""
    k = rng.randint(2, 9)
    return make_boundary([((rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
                           F(rng.choice((-1, 1)), rng.choice((1, k))))
                          for _ in range(rng.randint(2, 6))])


def _one_sided_boundary(rng):
    sign = rng.choice((-1, 1))
    return make_boundary([((rng.uniform(-2, 2), rng.uniform(-2, 2)),
                           F(sign * rng.randint(1, 5), rng.randint(1, 5)))
                          for _ in range(rng.randint(1, 4))])


@pytest.mark.parametrize("family", [
    _tie_boundary, _collinear_boundary, _one_over_k_boundary,
    _one_sided_boundary, _random_boundary])
def test_matches_lp_reference(family):
    rng = random.Random(family.__name__)
    for _ in range(60):
        b = family(rng)
        value, w = _check_witness(b)
        ref_value, ref_dropped = _lp_reference(b)
        assert value == pytest.approx(ref_value, abs=1e-9)
        # the LP's 1e-11 cost budget buys off-lattice slivers of flow (up to
        # ~1e-9 here); one lattice quantum of these families is >= 1/9
        assert sum(float(m) for _, m in w.dropped_mass) <= ref_dropped + 1e-6


def test_large_denominators_match_lp_reference():
    value, _ = flat_norm(LARGE_DENOMINATORS)
    assert value == pytest.approx(_lp_reference(LARGE_DENOMINATORS)[0],
                                  abs=1e-9)


def test_import_leaves_scipy_out():
    code = "import sys, gsteiner; assert 'scipy' not in sys.modules"
    # python -c puts its working directory first on sys.path
    subprocess.run([sys.executable, "-c", code], check=True,
                   cwd=Path(gsteiner.__file__).resolve().parents[1])
