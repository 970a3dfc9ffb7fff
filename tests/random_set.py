"""The random set: seeded 5- and 6-atom instances in 2-D and 3-D with small
signed integer masses, for the probes and tests that quote figures over
it (59 instances, 2593 full topologies).

Sixty draws from ``random.Random(7)``, each in this order: n from (5, 6),
the dimension from (2, 3) and alpha from (0.3, 0.5, 0.7, 0.85, 0.95); for
each of n - 1 atoms a magnitude from 1..4, followed at once by its sign;
the last mass is minus their sum, and when that is 0 it becomes 1 and the
first mass loses 1; then n points with coordinates uniform in [0, 2].  A
draw left with a zero mass is dropped.
"""
import random
from fractions import Fraction

from gsteiner.currents import make_boundary

DRAWS = 60
SEED = 7


def random_set():
    """The instances as (boundary, alpha), in draw order."""
    rng = random.Random(SEED)
    out = []
    for _ in range(DRAWS):
        n = rng.choice([5, 6])
        dim = rng.choice([2, 3])
        alpha = rng.choice([0.3, 0.5, 0.7, 0.85, 0.95])
        masses = []
        for _ in range(n - 1):
            size = rng.randint(1, 4)
            masses.append(Fraction(size * rng.choice([-1, 1])))
        last = -sum(masses)
        if last == 0:
            last = Fraction(1)
            masses[0] -= 1
        masses.append(last)
        points = [tuple(rng.uniform(0, 2) for _ in range(dim))
                  for _ in range(n)]
        if all(masses):
            out.append((make_boundary(zip(points, masses)), alpha))
    return out
