"""Shared fixtures: the instances exercised throughout the suite."""
import importlib.util
from fractions import Fraction as F
from pathlib import Path

import pytest

from gsteiner import make_boundary


@pytest.fixture
def square_boundary():
    """Two sources on one diagonal, two sinks on the other: two matchings tie."""
    return make_boundary([
        ((0.0, 0.0), F(-1)), ((1.0, 1.0), F(-1)),
        ((1.0, 0.0), F(1)), ((0.0, 1.0), F(1)),
    ])


@pytest.fixture
def v_boundary():
    """Source of mass 2 splitting to two nearby sinks; interior branch point."""
    return make_boundary([
        ((0.0, 0.0), F(-2)), ((1.0, 0.3), F(1)), ((1.0, -0.3), F(1)),
    ])


@pytest.fixture(scope="session")
def bench_workloads():
    """The benchmark's workload module, ``bench/workloads.py``."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


@pytest.fixture(scope="session")
def bench_instances(bench_workloads):
    """``instances(workload, seed)``: the (boundary, alpha) pairs of the
    benchmark's solve ``workload`` in the pose of ``seed``
    (``bench/workloads.py``): ``solve-n6`` has both planar 6-atom mass
    vectors, ``solve-3d`` eight 5-atom instances in 3-D."""
    return lambda workload, seed: list(
        bench_workloads.build(workload, seed).instances.values())


@pytest.fixture(scope="session")
def bench_dent(bench_workloads):
    """``dent(seed)``: the dented square of the benchmark's
    ``uniqueness-square`` op at ``seed``, its base solve and the dent's
    (boundary, alpha)."""
    from gsteiner import PerturbationSpec, perturb

    def dent(seed):
        wl = bench_workloads.build("uniqueness-square", seed)
        base, points, k = wl.prepare()
        _, b = perturb(PerturbationSpec(base.minimizers[0].chain, points, k,
                                        wl.radius))
        return base, b, wl.ALPHA
    return dent
