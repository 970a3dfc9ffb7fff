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
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .currents import Boundary, PolyhedralChain, Segment, make_boundary
from .flat import FlatWitness
from .solver import SolveReport, SolverConfig

SCHEMA_VERSION = "1"


def parse_rational(s: Any, name: str = "rational masses") -> Fraction:
    """``s``, an integer or a string like '3/4', as an exact ``Fraction``.

    Booleans, other types, malformed strings, a zero denominator and a
    value whose float is not finite (the solver computes in floats) are
    refused with a ``ValueError`` whose message starts with ``name``.
    """
    if not isinstance(s, (int, str)) or isinstance(s, bool):
        raise ValueError(f"{name} must be strings like '3/4', got {s!r}")
    try:
        value = Fraction(s)
    except ValueError:
        raise ValueError(f"{name} must be strings like '3/4', got {s!r}") from None
    except ZeroDivisionError:
        raise ValueError(f"{name} must have a nonzero denominator, got {s!r}") from None
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite as floats, got {s!r}") from None
    return value


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
    atoms = [(_point(a, "p", "an atom coordinate"),
              parse_rational(_required(a, "m")))
             for a in _entries(obj, "atoms")]
    b = make_boundary(atoms)
    if "dim" in obj:
        dim = _number("key 'dim'", obj["dim"], integral=True)
        if b.atoms and b.dim != dim:
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
        Segment(_point(s, "a", "a segment coordinate"),
                _point(s, "b", "a segment coordinate"),
                parse_rational(_required(s, "m")))
        for s in _entries(obj, "segments"))
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
    alpha = _number("key 'alpha'", obj["alpha"]) if "alpha" in obj else None
    if alpha is not None and not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    config = dict(_checked(obj.get("config", {}), dict, "key 'config'"))
    unknown = sorted(set(config) - _CONFIG_KEYS.keys())
    if unknown:
        raise ValueError(f"unknown config key(s) {', '.join(map(repr, unknown))}"
                         f"; the keys are {', '.join(_CONFIG_KEYS)}")
    return InstanceFile(b, alpha, config,
                        _number("key 'seed'", obj.get("seed", 0), integral=True))


def load_json(path: str) -> dict:
    """The JSON object in the file at ``path``; every input file holds one."""
    with open(path) as fh:
        return _checked(json.load(fh), dict, f"the top level of {path}")


def dump_json(obj: dict, path: str | None = None) -> None:
    """Write ``obj`` as deterministic JSON to ``path``, or to stdout."""
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# solver configuration: flags > file config > defaults
# ---------------------------------------------------------------------------

def build_solver_config(alpha: float, file_config: dict | None = None,
                        overrides: dict | None = None) -> SolverConfig:
    """``SolverConfig`` from an instance file's ``"config"`` and the flags;
    a flag left ``None`` does not override."""
    merged = dict(file_config or {})
    merged.update((k, v) for k, v in (overrides or {}).items() if v is not None)
    return SolverConfig(alpha=alpha, **{
        k: _number(f"config key {k!r}", v, integral=_CONFIG_KEYS[k] is int)
        for k, v in merged.items()})


def _number(name: str, value, integral: bool = False) -> float | int:
    """``value`` as a finite number, or a string that spells one, and as an
    ``int`` when ``integral``.  Booleans and fractional integers are refused
    rather than converted; ``name`` names the value in the message."""
    number = None
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    if number is None or not math.isfinite(number):
        raise ValueError(f"{name} must be a finite number, not {value!r}")
    if not integral:
        return number
    if not number.is_integer():
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return int(number)


# what a JSON value is, for messages
_KINDS = {dict: "an object", list: "a list", str: "a string", bool: "a boolean",
          int: "a number", float: "a number", type(None): "null"}


def _checked(value, kind: type, name: str):
    """``value`` when it is a ``kind`` (``dict`` or ``list``), else a
    ``ValueError`` that names it by ``name``."""
    if not isinstance(value, kind):
        got = _KINDS.get(type(value), type(value).__name__)
        raise ValueError(f"{name} must be {_KINDS[kind]}, not {got}")
    return value


def _required(obj: dict, key: str):
    """``obj[key]``, else a ``ValueError`` that names the missing key."""
    if key not in obj:
        raise ValueError(f"key {key!r} is missing")
    return obj[key]


def _entries(obj: dict, key: str) -> list[dict]:
    """``obj[key]``, a list of objects."""
    return [_checked(e, dict, f"an entry of key {key!r}")
            for e in _checked(_required(obj, key), list, f"key {key!r}")]


def _point(obj: dict, key: str, name: str) -> tuple[float, ...]:
    """``obj[key]`` as a point: a list of numbers, each read by
    :func:`_number` under ``name``."""
    value = _required(obj, key)
    if not isinstance(value, list):
        raise ValueError(f"key {key!r} must be a list of numbers, not {value!r}")
    return tuple(_number(name, x) for x in value)


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
                "lower": m.lower,
                "n_branch": m.flowed.n_branch,
                "chain": chain_to_obj(m.chain),
            }
            for m in report.minimizers
        ],
    }
