"""Classification sweeps over the four-point local problem.

A sweep cell is one near-collinear four-point instance: for each alpha the
quantization level defaults to k0(alpha) + 1 and the admissible off-axis
displacement to the bisected rho(k); instance displacements are then drawn
uniformly within that band from a seeded generator.  Each cell records the
winner label, the per-case exclusion margins against the two canonical
networks, and the two scalar threshold margins.  Cells fail in isolation:
an error produces a row with the error message and the sweep continues.
"""
from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from random import Random

from .fileio import _checked, _known_keys, _number, _required, parse_rational
from .perturb import (_scalar_margins, estimate_k0, estimate_rho,
                      four_point_instance, local4_solve)

CSV_FIELDS = [
    "command", "timestamp", "alpha", "k", "k0", "rho", "index",
    "ya", "yb", "yc", "yd", "label", "winner_case", "value",
    "margin_1c_vs_w", "margin_1h_vs_w", "margin_1e_vs_z", "margin_1a_vs_z",
    "scalar_margin_half", "scalar_margin_quarter", "in_wz", "error",
]


@dataclass(frozen=True)
class SweepSpec:
    alphas: tuple[float, ...]
    n_instances: int = 20
    k: int | None = None          # default: k0(alpha) + 1
    rho: float | None = None      # default: bisected rho(k), scaled by rho_safety
    rho_safety: float = 0.5
    theta: Fraction = field(default_factory=lambda: Fraction(1))
    seed: int = 0

    @staticmethod
    def from_obj(obj: dict) -> "SweepSpec":
        """The spec of a sweep file; every number is converted by
        :func:`fileio._number`, and theta by :func:`fileio.parse_rational`,
        so a fractional count, a boolean or a zero denominator raises
        ``ValueError`` naming its key instead of being truncated.  So does
        a negative count, rho or rho_safety, a k below 2, and a theta that
        is not positive: each would run a sweep that reports nothing, a
        mirrored band, or only failed cells.  A key that is not a field is
        refused too."""
        _known_keys(obj, [f.name for f in fields(SweepSpec)])
        theta = parse_rational(obj.get("theta", 1), "key 'theta'")
        if theta <= 0:
            raise ValueError(
                f"key 'theta' must be positive, not {obj.get('theta', 1)!r}")
        return SweepSpec(
            alphas=tuple(_number("key 'alphas'", a)
                         for a in _checked(_required(obj, "alphas"), list,
                                           "key 'alphas'")),
            n_instances=_at_least("key 'n_instances'",
                                  obj.get("n_instances", 20), 0, integral=True),
            k=(None if obj.get("k") is None
               else _at_least("key 'k'", obj["k"], 2, integral=True)),
            rho=(None if obj.get("rho") is None
                 else _at_least("key 'rho'", obj["rho"], 0)),
            rho_safety=_at_least("key 'rho_safety'", obj.get("rho_safety", 0.5),
                                 0),
            theta=theta,
            seed=_number("key 'seed'", obj.get("seed", 0), integral=True),
        )


def _at_least(name: str, value, low: int, integral: bool = False
              ) -> float | int:
    """:func:`fileio._number` of ``value``, refused below ``low``."""
    number = _number(name, value, integral)
    if number < low:
        raise ValueError(f"{name} must be at least {low}, not {value!r}")
    return number


def _cell(args: tuple) -> dict:
    alpha, k, k0, rho, index, disp, theta = args
    # every field but the log's timestamp, blank unless the cell sets it
    row = {**dict.fromkeys((f for f in CSV_FIELDS if f != "timestamp"), ""),
           "command": "sweep", "alpha": alpha, "k": k, "k0": k0, "rho": rho,
           "index": index, "ya": disp[0], "yb": disp[1], "yc": disp[2],
           "yd": disp[3]}
    try:
        inst = four_point_instance(k, disp, theta)
        cls = local4_solve(inst, alpha)
        half, quarter = _scalar_margins(alpha, k)
        val = cls.values

        def margin(case: str, ref: str) -> float | str:
            if case in val and ref in val:
                return val[case] - val[ref]
            return ""

        row.update({
            "label": cls.label,
            "winner_case": cls.winner_case,
            "value": cls.value,
            "margin_1c_vs_w": margin("1c", "1g"),
            "margin_1h_vs_w": margin("1h", "1g"),
            "margin_1e_vs_z": margin("1e", "1p"),
            "margin_1a_vs_z": margin("1a", "1p"),
            "scalar_margin_half": half,
            "scalar_margin_quarter": quarter,
            "in_wz": cls.label in ("W", "Z"),
        })
    except Exception as exc:  # cell isolation: record and continue
        row.update(in_wz=False, error=str(exc))
    return row


def build_cells(spec: SweepSpec) -> list[tuple]:
    cells = []
    for ai, alpha in enumerate(spec.alphas):
        k0 = estimate_k0(alpha)
        k = spec.k if spec.k is not None else k0 + 1
        rho = spec.rho if spec.rho is not None else \
            spec.rho_safety * estimate_rho(alpha, k)
        rng = Random(spec.seed * 1000003 + ai)
        for i in range(spec.n_instances):
            disp = tuple(rng.uniform(-rho, rho) for _ in range(4))
            cells.append((alpha, k, k0, rho, i, disp, spec.theta))
    return cells


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[dict]:
    """All sweep rows, deterministically ordered by (alpha, index).  Raises
    ``ValueError`` when ``workers`` is below 1."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, not {workers}")
    cells = build_cells(spec)
    workers = min(workers, len(cells))  # the pool forks them all up front
    if workers > 1:
        # imported here: the pool's modules load only for a sweep that forks
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_cell, cells, chunksize=4))
    else:
        rows = [_cell(c) for c in cells]
    rows.sort(key=lambda r: (r["alpha"], r["index"]))
    return rows


def append_log(rows: list[dict], path: str) -> None:
    """Append rows to the CSV experiment log, writing a header when the
    log is missing or empty."""
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    with open(path, "a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        if fh.tell() == 0:  # append mode opens at the end
            writer.writeheader()
        for row in rows:
            writer.writerow({**row, "timestamp": stamp})
