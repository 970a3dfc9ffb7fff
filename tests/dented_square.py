"""The unit square's dents: its first minimizer at alpha, solved, dented at
its magic points by radius with k = k0(alpha) + 1."""
from fractions import Fraction as F

from gsteiner.currents import make_boundary
from gsteiner.perturb import PerturbationSpec, estimate_k0, perturb
from gsteiner.solver import SolverConfig, magic_points, solve


def dented_square(radius, alpha=0.6):
    """The dented boundary of the square at ``radius``."""
    square = make_boundary([((0.0, 0.0), F(-1)), ((1.0, 1.0), F(-1)),
                            ((1.0, 0.0), F(1)), ((0.0, 1.0), F(1))])
    base = solve(square, SolverConfig(alpha=alpha))
    spec = PerturbationSpec(base.minimizers[0].chain, magic_points(base, 0),
                            estimate_k0(alpha) + 1, radius)
    return perturb(spec)[1]
