"""Benchmark of the gsteiner solver; see bench/README.md.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each pass runs in a fresh single-threaded
worker process (bench/worker.py) on the sources under ``src/``.  With
``--trace 0`` the run repeats whole passes while the next one still fits in
``--seconds`` (at least one) and prints the end-to-end metrics.  With
``--trace 1`` it runs one untraced and one traced pass on the same inputs and
prints the per-layer metrics of the traced pass.  ``--workload all`` runs
every workload in turn.  Human-readable lines come first; the last line of
stdout is one JSON object.  Results go to bench/out/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
WORKLOADS = ("solve-n6", "uniqueness-square", "local4-sweep", "solve-3d")
SETUP_SAMPLES = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def worker(args, *extra: str, deadline: float) -> dict:
    """Run bench/worker.py once and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed),
           *(["--reference", args.reference] if args.reference else []),
           *(["--quick"] if args.quick else []), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    cmd += ["--spawned", repr(time.time())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {RUN_LIMIT_S:.0f} s run limit")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[float, str]:
    """Highest listed percentile with at least ten ops beyond it, else the max."""
    ordered = sorted(values)
    n = len(ordered)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q / 100.0 * n)
        if n - rank >= 10:
            return ordered[rank - 1], f"p{q:g} of {n} ops"
    return ordered[-1], f"slowest of {n} ops (too few for a percentile)"


def ops_outcome(passes: list[dict]) -> tuple[int, int, list[str]]:
    ops = [op for p in passes for op in p["ops"]]
    bad = [f"{op['id']}: {'; '.join(op['failures'])}" for op in ops
           if op["failures"]]
    return len(ops), len(bad), bad


def run_untraced(args, deadline: float) -> tuple[dict, dict]:
    start = time.monotonic()
    passes = []
    while True:
        began = time.monotonic()
        passes.append(worker(args, deadline=deadline))
        took = time.monotonic() - began
        if time.monotonic() - start + took > args.seconds:
            break
    setups = [worker(args, "--setup-only", deadline=deadline)
              for _ in range(SETUP_SAMPLES - len(passes))]
    ran = [op for p in passes for op in p["ops"] if op["s"] is not None]
    if not ran:
        raise BenchError("no op ran: " + ops_outcome(passes)[2][0])
    times = [op["s"] for op in ran]
    tail_s, tail_label = tail(times)
    raw = {"wall_s": statistics.median(p["pass"]["raw_s"] for p in passes),
           "op_s.p50": statistics.median(op["raw_s"] for op in ran),
           "op_s.tail": tail([op["raw_s"] for op in ran])[0]}
    setup_samples = [w["setup_s"] for w in passes + setups]
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(p["pass"]["s"] for p in passes), "s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (tail_s, "s"),
        "peak_rss_mb": (max(p["rss_mb"] for p in passes), "MB"),
    }
    return metrics, {"passes": passes, "tail": tail_label, "raw": raw,
                     "setup_samples": setup_samples}


def run_traced(args, deadline: float) -> tuple[dict, dict]:
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
    plain = worker(args, deadline=deadline)
    traced = worker(args, "--spans", str(spans), deadline=deadline)
    layers = dict(traced.pop("layers"))
    layers["trace.overhead_frac"] = traced["pass"]["s"] / plain["pass"]["s"] - 1.0
    metrics = {k: (v, unit_of(k)) for k, v in layers.items()}
    return metrics, {"passes": [plain, traced], "spans": str(spans)}


def unit_of(name: str) -> str:
    leaf = name.rsplit(".", 1)[-1]
    if leaf == "ms_per_call":
        return "ms"
    if leaf == "s" or leaf.endswith("_s"):
        return "s"
    if leaf.endswith("_frac"):
        return "ratio"
    return "count"


def run_workload(args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.trace:
        metrics, detail = run_traced(args, deadline)
    else:
        metrics, detail = run_untraced(args, deadline)
    passes = detail["passes"]
    attempted, failed, failures = ops_outcome(passes)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} pass(es), {attempted} ops")
    for name, (value, unit) in metrics.items():
        note = f"  (raw {detail['raw'][name]:.6g} s)" if name in detail.get(
            "raw", {}) else ""
        if name == "op_s.tail":
            note += f"  ({detail['tail']})"
        print(f"  {name:28s} {value:.6g} {unit}{note}")
    print(f"  {'failed_frac':28s} {failed / attempted:.6g} ({failed}/{attempted})")
    for line in failures[:10]:
        print(f"  FAILED {line}")
    checked = [op.get("digest_matches") for p in passes for op in p["ops"]
               if "digest_matches" in op]
    if checked:
        print(f"  report digests equal to the reference: {sum(checked)}/"
              f"{len(checked)} (information only)")

    OUT.mkdir(exist_ok=True)
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, failed_frac=failed / attempted,
                  failures=failures, **detail)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    return result


def record_reference(args) -> None:
    """Write reference.json from one pass of every workload at this seed."""
    out = {"seed": args.seed, "workloads": {}}
    args.reference = ""
    deadline = time.monotonic() + 3600
    for name in WORKLOADS:
        args.workload = name
        result = worker(args, deadline=deadline)
        attempted, failed, failures = ops_outcome([result])
        if failed:
            raise BenchError(f"{name}: {failures}")
        out["workloads"][name] = {op["id"]: dict(op["summary"],
                                                 digest=op["digest"])
                                  for op in result["ops"]}
        print(f"{name}: recorded {attempted} ops")
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", default=str(REFERENCE),
                    help="reference outputs, compared when their seed matches")
    ap.add_argument("--quick", action="store_true",
                    help="shortened passes, for the benchmark's own tests")
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite reference.json from the current sources")
    args = ap.parse_args()

    if not (ROOT / "src" / "gsteiner" / "__init__.py").is_file():
        print(f"error: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.record_reference:
            record_reference(args)
            return 0
        if args.workload != "all":
            print(json.dumps(run_workload(args)))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOADS:
            args.workload = name
            result = run_workload(args)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update(
                {f"{name}/{k}": v for k, v in result["metrics"].items()})
        print(json.dumps(combined))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
