"""One benchmark pass in a fresh process: set up, run the ops, check them.

    python3 bench/worker.py --workload W --seed S --spawned T
        [--reference PATH] [--quick] [--setup-only] [--spans PATH]

``--spawned`` is the parent's ``time.time()`` just before it started this
process, so ``setup_s`` covers interpreter start, imports, input generation
and the reference load; ``--setup-only`` stops there.  Times measured after
the worker's first line are corrected for host interference (probe.py).  ``--spans PATH`` traces the
pass and writes its spans there.  The last line of stdout is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

from probe import SpeedProbe


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--reference")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args()
    speed = SpeedProbe()
    speed.start()
    probed_from, started = time.perf_counter(), time.time()

    import workloads
    wl = workloads.build(args.workload, args.seed, args.quick)
    reference = {}
    if args.reference:
        with open(args.reference) as fh:
            ref = json.load(fh)
        if ref["seed"] == args.seed:
            reference = ref["workloads"].get(args.workload, {})
    setup_s = (started - args.spawned
               + speed.window(probed_from, time.perf_counter())["s"])
    if args.setup_only:
        speed.stop()
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = None
    if args.spans:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.enabled = True

    results = {}
    start = time.perf_counter()
    try:
        if tracer:
            tracer.op = "prepare"
        ctx = wl.prepare()
        prepare_error = None
    except Exception:
        prepare_error = traceback.format_exc(limit=3)
    if prepare_error is None:
        for op_id, fn in wl.ops(ctx):
            if tracer:
                tracer.op = op_id
            t0 = time.perf_counter()
            try:
                out, error = fn(), None
            except Exception:
                out, error = None, traceback.format_exc(limit=3)
            results[op_id] = ((t0, time.perf_counter()), out, error)
    end = time.perf_counter()
    speed.stop()
    if tracer:
        tracer.enabled = False

    ops = []
    for op_id in wl.op_ids:
        span, out, error = results.get(op_id, (None, None, prepare_error))
        record = {"id": op_id, "failures": [], "summary": None, "digest": None,
                  **(speed.window(*span) if span else {"s": None})}
        if error is not None:
            record["failures"].append(error)
        else:
            try:
                fails, summary, dig = wl.check(op_id, ctx, out)
            except Exception:
                fails, summary, dig = [traceback.format_exc(limit=3)], None, None
            if summary is not None and op_id in reference:
                want = {k: v for k, v in reference[op_id].items()
                        if k != "digest"}
                fails += workloads.compare(summary, want)
                record["digest_matches"] = reference[op_id].get("digest") == dig
            record.update(failures=fails, summary=summary, digest=dig)
        ops.append(record)

    result = {"setup_s": setup_s, "pass": speed.window(start, end), "ops": ops,
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        result["layers"] = tracer.layer_metrics(end - start)
        tracer.write(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
