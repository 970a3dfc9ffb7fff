"""In-memory span tracer for the traced benchmark pass.

Spans are recorded from the benchmark's own code: every traced function of
the package is replaced, in every ``gsteiner`` module that holds it, by a
wrapper that opens a span around the call.  Calls the package makes
internally (``solve`` -> ``optimize_topology`` -> ``minimize``) are therefore
caught too.  A span is (name, start, end, parent span, op id, self time);
self time is the duration minus the part covered by child spans.  The layer
of a span is the package module its name starts with.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import Counter
from time import perf_counter

# (layer, module that defines it, attribute); "Class.method" patches a method
TRACED = (
    ("topology", "gsteiner.topology", "enumerate_topologies"),
    ("topology", "gsteiner.topology", "assign_flows"),
    ("topology", "gsteiner.topology", "FlowedTopology.signature"),
    ("placement", "gsteiner.placement", "optimize_topology"),
    ("placement", "gsteiner.placement", "minimize"),
    ("placement", "gsteiner.placement", "detect_collapse"),
    ("placement", "gsteiner.placement", "realize_chain"),
    ("currents", "gsteiner.currents", "canonicalize"),
    ("currents", "gsteiner.currents", "support_difference_mass"),
    ("currents", "gsteiner.currents", "alpha_mass"),
    ("currents", "gsteiner.currents", "boundary"),
    ("currents", "gsteiner.currents", "branch_points"),
    ("currents", "gsteiner.currents", "restrict_ball"),
    ("solver", "gsteiner.solver", "solve"),
    ("solver", "gsteiner.solver", "magic_points"),
    ("perturb", "gsteiner.perturb", "local4_solve"),
    ("perturb", "gsteiner.perturb", "estimate_rho"),
    ("perturb", "gsteiner.perturb", "estimate_k0"),
    ("perturb", "gsteiner.perturb", "perturb"),
    ("perturb", "gsteiner.perturb", "validate_perturbation_points"),
    ("perturb", "gsteiner.perturb", "verify_perturbation_bounds"),
    ("flat", "gsteiner.flat", "flat_distance"),
    ("flat", "gsteiner.flat", "flat_norm"),
)
LAYERS = ("topology", "placement", "currents", "solver", "perturb", "flat")
DENT = ("perturb.perturb", "perturb.validate_perturbation_points",
        "perturb.verify_perturbation_bounds")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[list] = []   # [span index, time covered by children]
        self.op: str | None = None
        self.enabled = False
        self.counts: Counter = Counter()
        self.iterations: list[int] = []

    def call(self, name, fn, args, kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self.stack[-1][0] if self.stack else -1
        frame = [len(self.spans), 0.0]
        self.spans.append(None)
        self.stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            if self.stack:
                self.stack[-1][1] += end - start
            self.spans[frame[0]] = (name, start, end, parent, self.op,
                                    end - start - frame[1])

    # -- installing the wrappers ------------------------------------------

    def install(self) -> None:
        """Rebind every traced function wherever a gsteiner module holds it."""
        topology = sys.modules["gsteiner.topology"]
        for layer, modname, attr in TRACED:
            module = sys.modules[modname]
            name = f"{layer}.{attr.rsplit('.', 1)[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            original = getattr(module, attr)
            if attr == "enumerate_topologies":
                wrapper = self._wrap_generator(name, original)
            elif attr == "assign_flows":
                wrapper = self._wrap_raising(
                    name, original, topology.InfeasibleTopologyError)
            else:
                wrapper = self._wrap(name, original, _RESULT_HOOKS.get(attr))
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "gsteiner":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, name, fn, hook=None):
        tracer = self

        def wrapper(*args, **kwargs):
            out = tracer.call(name, fn, args, kwargs)
            if tracer.enabled:
                tracer.counts[name] += 1
                if hook is not None:
                    hook(tracer, out)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_raising(self, name, fn, error):
        tracer = self

        def wrapper(*args, **kwargs):
            try:
                return tracer.call(name, fn, args, kwargs)
            except error:
                if tracer.enabled:
                    tracer.counts["infeasible"] += 1
                raise
            finally:
                if tracer.enabled:
                    tracer.counts[name] += 1
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, name, fn):
        """Time each ``next()`` of the generator as its own span."""
        tracer = self

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = tracer.call(name, next, (it,), {})
                except StopIteration:
                    return
                if tracer.enabled:
                    tracer.counts["enumerated"] += 1
                yield item
        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ----------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Aggregate the spans of one pass into the per-layer metrics."""
        self_s: Counter = Counter()
        inclusive: Counter = Counter()
        for name, start, end, _, _, own in self.spans:
            self_s[name] += own
            inclusive[name] += end - start
        layer_s = {layer: sum(v for k, v in self_s.items()
                              if k.startswith(layer + "."))
                   for layer in LAYERS}
        c = self.counts
        iters = self.iterations or [0]
        calls = c["placement.optimize_topology"]
        return {
            "topology.enumerated": c["enumerated"],
            "topology.infeasible": c["infeasible"],
            "topology.duplicates": c["duplicates"],
            "topology.optimized": calls,
            "topology.useful_frac": calls / c["enumerated"] if c["enumerated"] else 0.0,
            "topology.enumerate_s": self_s["topology.enumerate_topologies"],
            "topology.assign_flows_s": self_s["topology.assign_flows"],
            "topology.signature_s": self_s["topology.signature"],
            "topology.s": layer_s["topology"],
            "placement.calls": calls,
            "placement.minimize_calls": c["placement.minimize"],
            "placement.iterations": sum(self.iterations),
            "placement.iters_p50": statistics.median(iters),
            "placement.iters_max": max(iters),
            "placement.unconverged": c["unconverged"],
            "placement.s": layer_s["placement"],
            "placement.ms_per_call": 1e3 * layer_s["placement"] / calls if calls else 0.0,
            "currents.canonicalize_calls": c["currents.canonicalize"],
            "currents.canonicalize_s": self_s["currents.canonicalize"],
            "currents.support_diff_calls": c["currents.support_difference_mass"],
            "currents.support_diff_s": self_s["currents.support_difference_mass"],
            "currents.s": layer_s["currents"],
            "solver.solves": c["solver.solve"],
            "solver.self_s": self_s["solver.solve"],
            "solver.magic_points_s": self_s["solver.magic_points"],
            "perturb.local4_calls": c["perturb.local4_solve"],
            "perturb.local4_self_s": self_s["perturb.local4_solve"],
            "perturb.estimate_rho_s": inclusive["perturb.estimate_rho"],
            "perturb.dent_s": sum(self_s[k] for k in DENT),
            "perturb.s": layer_s["perturb"],
            "flat.calls": c["flat.flat_norm"],
            "flat.s": layer_s["flat"],
            "trace.spans": len(self.spans),
            "trace.accounted_frac": sum(layer_s.values()) / wall_s,
        }


def _count_solve(tracer: Tracer, report) -> None:
    tracer.counts["duplicates"] += report.stats["duplicates"]


def _count_minimize(tracer: Tracer, result) -> None:
    if result.placement.branch:     # topologies without branch points do not iterate
        tracer.iterations.append(result.iterations)


def _count_optimize(tracer: Tracer, result) -> None:
    if not result.converged:
        tracer.counts["unconverged"] += 1


_RESULT_HOOKS = {"solve": _count_solve, "minimize": _count_minimize,
                 "optimize_topology": _count_optimize}
