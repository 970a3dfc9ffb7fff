"""Tests of the benchmark itself (slow: about a minute).

    python3 -m pytest -q bench/test_bench.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
from run import tail  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", "--seconds", "1",
                           "--quick", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_local4():
    return [result(bench("--workload", "local4-sweep", "--trace", "1"))
            for _ in range(2)]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_emits_the_end_to_end_metrics(workload):
    res = result(bench("--workload", workload, "--trace", "0"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_emits_the_per_layer_metrics(traced_local4):
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for res in traced_local4:
        assert res["correct"]
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want


@pytest.mark.parametrize("workload", ["local4-sweep", "solve-3d"])
def test_per_layer_counts_repeat_exactly(workload, traced_local4):
    runs = traced_local4 if workload == "local4-sweep" else [
        result(bench("--workload", workload, "--trace", "1")) for _ in range(2)]
    counts = [{k: v["value"] for k, v in res["metrics"].items()
               if v["unit"] == "count"} for res in runs]
    assert counts[0] == counts[1]
    assert counts[0]["placement.calls"] > 0


def test_corrupted_reference_counts_a_failure(tmp_path):
    ref = json.loads((BENCH / "reference.json").read_text())
    ref["workloads"]["local4-sweep"]["a0.5-0"]["best_value"] *= 1.001
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    res = result(bench("--workload", "local4-sweep", "--reference", str(path)))
    assert not res["correct"]
    assert res["failed"] == 1 and res["attempted"] == 12


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "local4-sweep", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    assert tail([float(i) for i in range(1, 6)]) == (
        5.0, "slowest of 5 ops (too few for a percentile)")
    value, label = tail([float(i) for i in range(1, 201)])
    assert (value, label) == (190.0, "p95 of 200 ops")
