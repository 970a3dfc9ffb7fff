"""Exact solver and experiment lab for discrete branched transport networks."""

from .currents import (Boundary, PolyhedralChain, Segment, alpha_mass,
                       boundary, branch_points, canonicalize, chain_of,
                       has_loop, make_boundary, mass, restrict_ball,
                       restrict_outside, support_difference_mass)
from .flat import FlatWitness, flat_distance, flat_norm
from .perturb import (LocalClassification, LocalFourPointInstance,
                      PerturbationSpec, build_wz, end_to_end_uniqueness,
                      estimate_k0, estimate_rho, four_point_instance,
                      local4_solve, perturb, verify_perturbation_bounds)
from .solver import (InternalConsistencyError, MinimizerRecord, SolveReport,
                     SolverConfig, magic_points, quantize_chain, solve)

__all__ = [
    "Boundary", "PolyhedralChain", "Segment", "alpha_mass", "boundary",
    "branch_points", "canonicalize", "chain_of", "has_loop", "make_boundary",
    "mass", "restrict_ball", "restrict_outside", "support_difference_mass",
    "FlatWitness", "flat_distance", "flat_norm",
    "SolverConfig", "SolveReport", "MinimizerRecord", "InternalConsistencyError",
    "solve", "magic_points", "quantize_chain",
    "PerturbationSpec", "perturb", "verify_perturbation_bounds",
    "LocalFourPointInstance", "LocalClassification", "build_wz", "local4_solve",
    "estimate_k0", "estimate_rho", "four_point_instance",
    "end_to_end_uniqueness",
]

__version__ = "0.1.0"
