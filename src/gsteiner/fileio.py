"""JSON schemas for instances, chains, boundaries and solve reports.

Rational masses travel as strings "num/den" (or "num" when integral) so
that files round-trip without float drift.  Instance files carry the
boundary plus optional solver overrides (these three keys only; any other
is rejected):

    {"dim": 2, "alpha": 0.6,
     "atoms": [{"p": [0.0, 0.0], "m": "-1"}, ...],
     "config": {"value_tol": 1e-7, "distinct_tol": 1e-5, "max_terminals": 6},
     "seed": 0}

Chains use {"segments": [{"a": [...], "b": [...], "m": "num/den"}]}.
Report bodies are deterministic: identical inputs serialize byte-identically
(keys sorted, no timestamps).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .currents import Boundary, PolyhedralChain, Segment, make_boundary
from .flat import FlatWitness
from .solver import SolveReport, SolverConfig

SCHEMA_VERSION = "1"


def parse_rational(s: Any) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        return Fraction(s)
    raise ValueError(f"rational masses must be strings like '3/4', got {s!r}")


def format_rational(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------------------
# boundaries and chains
# ---------------------------------------------------------------------------

def boundary_to_obj(b: Boundary) -> dict:
    return {
        "dim": b.dim,
        "atoms": [{"p": list(p), "m": format_rational(m)} for p, m in b.atoms],
    }


def obj_to_boundary(obj: dict) -> Boundary:
    atoms = [(tuple(float(x) for x in a["p"]), parse_rational(a["m"]))
             for a in obj["atoms"]]
    b = make_boundary(atoms)
    if "dim" in obj and b.atoms and b.dim != int(obj["dim"]):
        raise ValueError("atom coordinates disagree with the declared dim")
    return b


def chain_to_obj(chain: PolyhedralChain) -> dict:
    return {
        "dim": chain.dim,
        "segments": [{"a": list(s.start), "b": list(s.end),
                      "m": format_rational(s.mult)} for s in chain.segments],
    }


def obj_to_chain(obj: dict) -> PolyhedralChain:
    segs = tuple(
        Segment(tuple(float(x) for x in s["a"]),
                tuple(float(x) for x in s["b"]),
                parse_rational(s["m"]))
        for s in obj["segments"])
    return PolyhedralChain(segs, canonical=False)


def witness_to_obj(w: FlatWitness) -> dict:
    return {
        "transport_arcs": [
            {"from": list(p), "to": list(q), "flow": format_rational(f)}
            for p, q, f in w.transport_arcs],
        "dropped": [{"p": list(p), "m": format_rational(m)}
                    for p, m in w.dropped_mass],
    }


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InstanceFile:
    boundary: Boundary
    alpha: float | None
    config: dict
    seed: int


# the solver settings an instance file or a flag may set, with their types
_CONFIG_KEYS = {"value_tol": float, "distinct_tol": float, "max_terminals": int}


def parse_instance(obj: dict) -> InstanceFile:
    b = obj_to_boundary(obj)
    alpha = float(obj["alpha"]) if "alpha" in obj else None
    if alpha is not None and not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    config = dict(obj.get("config", {}))
    unknown = sorted(set(config) - _CONFIG_KEYS.keys())
    if unknown:
        raise ValueError(f"unknown config key(s) {', '.join(map(repr, unknown))}"
                         f"; the keys are {', '.join(_CONFIG_KEYS)}")
    return InstanceFile(b, alpha, config, int(obj.get("seed", 0)))


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def dump_json(obj: dict, path: str | None) -> str:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


# ---------------------------------------------------------------------------
# solver configuration: flags > file config > defaults
# ---------------------------------------------------------------------------

def build_solver_config(alpha: float, file_config: dict | None = None,
                        overrides: dict | None = None) -> SolverConfig:
    """``SolverConfig`` from an instance file's ``"config"`` and the flags;
    a flag left ``None`` does not override."""
    merged = dict(file_config or {})
    merged.update((k, v) for k, v in (overrides or {}).items() if v is not None)
    return SolverConfig(alpha=alpha,
                        **{k: _config_value(k, v) for k, v in merged.items()})


def _config_value(key: str, value):
    """``value`` as the type of ``key``: a finite number, or a string that
    spells one, and an integral one for ``max_terminals``.  Booleans and
    fractional integers are refused rather than converted."""
    number = None
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    if number is None or not math.isfinite(number):
        raise ValueError(
            f"config key {key!r} must be a finite number, not {value!r}")
    if _CONFIG_KEYS[key] is float:
        return number
    if not number.is_integer():
        raise ValueError(f"config key {key!r} must be an integer, not {value!r}")
    return int(number)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def report_to_obj(report: SolveReport) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "alpha": report.alpha,
        "boundary": boundary_to_obj(report.boundary),
        "best_value": report.best_value,
        "gap": report.gap if report.gap != float("inf") else None,
        "distinct_tol": report.distinct_tol,
        "stats": dict(report.stats),
        "minimizers": [
            {
                "value": m.value,
                "residual": m.residual,
                "n_branch": m.flowed.topology.n_branch,
                "chain": chain_to_obj(m.chain),
            }
            for m in report.minimizers
        ],
    }
