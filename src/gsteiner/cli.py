"""Command-line surface.

Subcommands: solve, enumerate-topologies, flat-norm, perturb, local4,
estimate-k0, plot, sweep.  Exit codes: 0 success, 1 validation error
(malformed input, guard violations), 2 internal invariant failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import fileio
from .currents import canonicalize
from .flat import flat_norm
from .perturb import (LocalFourPointInstance, PerturbationSpec, build_wz,
                      estimate_k0, local4_solve, perturb,
                      verify_perturbation_bounds)
from .solver import InternalConsistencyError, magic_points, solve
from .sweep import SweepSpec, append_log, run_sweep
from .svg import check_planar, render_report_svg, render_svg
from .topology import enumerate_topologies


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gsteiner",
                                description="discrete branched transport solver")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="solve one instance exhaustively")
    s.add_argument("--input", required=True, help="instance JSON file")
    s.add_argument("--alpha", type=float, default=None)
    s.add_argument("--report", default=None, help="write report JSON here")
    s.add_argument("--svg", default=None, help="render minimizers to SVG")
    s.add_argument("--max-terminals", type=int, default=None)
    s.add_argument("--value-tol", type=float, default=None)
    s.add_argument("--distinct-tol", type=float, default=None)
    s.add_argument("--verbose", action="store_true",
                   help="stream optimizer diagnostics as JSON lines on stderr: "
                        'one "stage": "bound" record per topology from the '
                        'batched bounding pass, then from each run of the '
                        'smoothing kernel one "eps" record per stage it '
                        'runs, three at most, and a "done" record, with a '
                        '"collapse" record before the "done" of a run that '
                        'ends early, and a "done" record alone from each '
                        "topology of stars that Newton places")

    e = sub.add_parser("enumerate-topologies",
                       help="emit one JSON line per candidate topology")
    e.add_argument("--input", required=True)
    e.add_argument("--max-terminals", type=int, default=8)

    f = sub.add_parser("flat-norm", help="flat distance between two boundaries")
    f.add_argument("first")
    f.add_argument("second", nargs="?", default=None,
                   help="optional; omitted means the flat norm of `first`")
    f.add_argument("--report", default=None)

    pe = sub.add_parser("perturb", help="dent the first minimizer and re-check bounds")
    pe.add_argument("--input", required=True)
    pe.add_argument("--alpha", type=float, default=None)
    pe.add_argument("--k", type=int, required=True)
    pe.add_argument("--radius", type=float, required=True)
    pe.add_argument("--report", default=None)

    l4 = sub.add_parser("local4", help="classify a four-point local instance")
    l4.add_argument("--input", required=True,
                    help='JSON: {"A": [..], "B": [..], "C": [..], "D": [..], '
                         '"theta": "1", "k": 11}')
    l4.add_argument("--alpha", type=float, required=True)
    l4.add_argument("--report", default=None)
    l4.add_argument("--svg", default=None,
                    help="render the two canonical networks and the winner")

    k0 = sub.add_parser("estimate-k0", help="quantization threshold for alpha")
    k0.add_argument("--alpha", type=float, required=True)

    pl = sub.add_parser("plot", help="render a report JSON to SVG")
    pl.add_argument("report")
    pl.add_argument("--svg", required=True)
    pl.add_argument("--index", type=int, default=None)

    sw = sub.add_parser("sweep", help="four-point classification sweep")
    sw.add_argument("spec", help="sweep spec JSON")
    sw.add_argument("--out", required=True, help="CSV log (appended)")
    sw.add_argument("--workers", type=int, default=1)
    sw.add_argument("--seed", type=int, default=None)
    return p


def _cmd_solve(args) -> int:
    inst = fileio.parse_instance(fileio.load_json(args.input))
    alpha = args.alpha if args.alpha is not None else inst.alpha
    if alpha is None:
        raise ValueError("alpha missing: pass --alpha or set it in the instance")
    cfg = fileio.build_solver_config(alpha, inst.config, {
        "value_tol": args.value_tol,
        "distinct_tol": args.distinct_tol,
        "max_terminals": args.max_terminals,
    })
    if args.svg:
        check_planar([p for p, _ in inst.boundary.atoms])
    if args.verbose:
        def trace(rec):
            print(json.dumps(rec, sort_keys=True), file=sys.stderr)
        cfg = replace(cfg, trace=trace)
    report = solve(inst.boundary, cfg)
    fileio.dump_json(fileio.report_to_obj(report), args.report)
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(render_svg([m.chain for m in report.minimizers],
                                report.boundary, alpha))
    return 0


def _cmd_enumerate(args) -> int:
    inst = fileio.parse_instance(fileio.load_json(args.input))
    n = len(inst.boundary.atoms)
    if n > args.max_terminals:
        raise ValueError(f"{n} atoms exceeds --max-terminals {args.max_terminals}")
    for ft in enumerate_topologies(inst.boundary):
        sys.stdout.write(json.dumps({
            "n_terminals": ft.n_terminals,
            "n_branch": ft.n_branch,
            "edges": [list(e) for e in ft.edges],
        }, sort_keys=True) + "\n")
    return 0


def _cmd_flat_norm(args) -> int:
    b1 = fileio.obj_to_boundary(fileio.load_json(args.first))
    if args.second:
        b2 = fileio.obj_to_boundary(fileio.load_json(args.second))
        target = b1 - b2
    else:
        target = b1
    value, witness = flat_norm(target)
    fileio.dump_json({"schema": fileio.SCHEMA_VERSION, "value": value,
                      "witness": fileio.witness_to_obj(witness)}, args.report)
    return 0


def _cmd_perturb(args) -> int:
    inst = fileio.parse_instance(fileio.load_json(args.input))
    alpha = args.alpha if args.alpha is not None else inst.alpha
    if alpha is None:
        raise ValueError("alpha missing: pass --alpha or set it in the instance")
    cfg = fileio.build_solver_config(alpha, inst.config, {})
    report = solve(inst.boundary, cfg)
    points = magic_points(report, 0)
    spec = PerturbationSpec(report.minimizers[0].chain, points, args.k,
                            args.radius)
    t_pert, b_pert = perturb(spec)
    bounds = verify_perturbation_bounds(spec, t_pert, b_pert, alpha)
    obj = {
        "schema": fileio.SCHEMA_VERSION,
        "points": [list(p) for p in points],
        "k": args.k,
        "radius": args.radius,
        "perturbed_chain": fileio.chain_to_obj(t_pert),
        "perturbed_boundary": fileio.boundary_to_obj(b_pert),
        "bounds": {
            "mass_ok": bounds.mass_bound_ok,
            "mass_margin": fileio.format_rational(bounds.mass_margin),
            "flat_ok": bounds.flat_bound_ok,
            "flat_margin": bounds.flat_margin,
            "energy_decreased": bounds.energy_decreased,
            "energy_margin": bounds.energy_margin,
        },
    }
    fileio.dump_json(obj, args.report)
    return 0 if bounds.all_ok() else 2


def _cmd_local4(args) -> int:
    obj = fileio.load_json(args.input)
    a, b, c, d = (fileio._point(obj, key, f"key {key!r}") for key in "ABCD")
    inst = LocalFourPointInstance(
        a=a, b=b, c=c, d=d,
        theta=fileio.parse_rational(obj.get("theta", 1), "key 'theta'"),
        k=fileio._number("key 'k'", fileio._required(obj, "k"),
                         integral=True),
    )
    if args.svg:
        check_planar((a, b, c, d))
    cls = local4_solve(inst, args.alpha)
    out = {
        "schema": fileio.SCHEMA_VERSION,
        "label": cls.label,
        "winner_case": cls.winner_case,
        "value": cls.value,
        "values": dict(sorted(cls.values.items())),
        "infeasible": list(cls.infeasible),
        "chain": fileio.chain_to_obj(cls.chain),
    }
    fileio.dump_json(out, args.report)
    if args.svg:
        w, z = build_wz(inst)
        with open(args.svg, "w") as fh:
            fh.write(render_svg([canonicalize(w), canonicalize(z), cls.chain],
                                inst.boundary(), args.alpha))
    return 0


def _cmd_estimate_k0(args) -> int:
    k0 = estimate_k0(args.alpha)
    sys.stdout.write(json.dumps({"alpha": args.alpha, "k0": k0}) + "\n")
    return 0


def _cmd_plot(args) -> int:
    # render before opening: a report that fails leaves --svg untouched
    svg = render_report_svg(fileio.load_json(args.report), args.index)
    with open(args.svg, "w") as fh:
        fh.write(svg)
    return 0


def _cmd_sweep(args) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, not {args.workers}")
    obj = fileio.load_json(args.spec)
    if args.seed is not None:
        obj["seed"] = args.seed
    spec = SweepSpec.from_obj(obj)
    rows = run_sweep(spec, workers=args.workers)
    append_log(rows, args.out)
    failed = sum(1 for r in rows if r["error"])
    wz = sum(1 for r in rows if r.get("in_wz"))
    sys.stdout.write(json.dumps({
        "cells": len(rows), "in_wz": wz, "failed": failed, "log": args.out,
    }) + "\n")
    return 0


_DISPATCH = {
    "solve": _cmd_solve,
    "enumerate-topologies": _cmd_enumerate,
    "flat-norm": _cmd_flat_norm,
    "perturb": _cmd_perturb,
    "local4": _cmd_local4,
    "estimate-k0": _cmd_estimate_k0,
    "plot": _cmd_plot,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (InternalConsistencyError, AssertionError) as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
