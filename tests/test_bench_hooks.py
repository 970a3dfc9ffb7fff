"""The package names the benchmark reaches into still exist.

``bench/tracing.py`` patches the functions listed in its ``TRACED`` table and
reads keys of ``report.stats``, and ``bench/workloads.py`` calls
``gs.<name>`` on the package; an API change that drops one of them breaks the
benchmark.  Both files are only read here: they are parsed with ``ast``, not
imported.
"""
import ast
import importlib
import re
from pathlib import Path

import pytest

import gsteiner
from gsteiner.solver import SolverConfig, solve

BENCH = Path(__file__).resolve().parent.parent / "bench"


def tracing_tree():
    return ast.parse((BENCH / "tracing.py").read_text())


def traced_table():
    for node in tracing_tree().body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TRACED" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TRACED table")


@pytest.mark.parametrize("layer,module,attr", traced_table())
def test_traced_function_resolves(layer, module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_workload_package_names_exported():
    names = set(re.findall(r"\bgs\.(\w+)", (BENCH / "workloads.py").read_text()))
    assert names
    assert sorted(n for n in names
                  if n not in gsteiner.__all__ or not hasattr(gsteiner, n)) == []


def test_solve_reports_the_stats_keys_the_bench_reads(square_boundary):
    keys = {node.slice.value for node in ast.walk(tracing_tree())
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "stats"
            and getattr(node.value.value, "id", None) == "report"
            and isinstance(node.slice, ast.Constant)}
    assert keys
    stats = solve(square_boundary, SolverConfig(alpha=0.6)).stats
    assert sorted(keys - stats.keys()) == []
