"""Minimal SVG rendering of networks: atoms, segments, branch points.

Positive atoms are teal, negative ones crimson; stroke width scales with
|mult|^alpha.  Output is a standalone SVG string, deterministic for a given
report.
"""
from __future__ import annotations

from .currents import Boundary, PolyhedralChain
from .fileio import (_checked, _entries, _number, _required, obj_to_boundary,
                     obj_to_chain)

_W = 640
_PAD = 40.0


def _bbox(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return min(xs), min(ys), max(xs), max(ys)


def check_planar(points) -> None:
    """Raise ``ValueError`` unless every point is planar: what
    :func:`render_svg` can draw.  The CLI calls it before any work, so that
    a refused picture leaves its file as it was."""
    if any(len(p) != 2 for p in points):
        raise ValueError("SVG rendering supports dimension 2 only")


def render_svg(chains: list[PolyhedralChain], b: Boundary, alpha: float) -> str:
    """Render 2-D chains over their boundary atoms."""
    pts = [p for p, _ in b.atoms]
    for c in chains:
        for s in c.segments:
            pts.extend([s.start, s.end])
    if not pts:
        return f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_W}"/>'
    check_planar(pts)
    x0, y0, x1, y1 = _bbox(pts)
    span = max(x1 - x0, y1 - y0) or 1.0
    scale = (_W - 2 * _PAD) / span

    def sx(p):
        return _PAD + (p[0] - x0) * scale

    def sy(p):
        # SVG y grows downward
        return _W - _PAD - (p[1] - y0) * scale

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_W}" '
             f'viewBox="0 0 {_W} {_W}">',
             f'<rect width="{_W}" height="{_W}" fill="white"/>']

    max_mult = max((abs(float(s.mult)) for c in chains for s in c.segments),
                   default=1.0)
    for c in chains:
        # the atoms and the branch points marked so far in this chain
        marked = {p for p, _ in b.atoms}
        for s in c.segments:
            width = 1.0 + 5.0 * (abs(float(s.mult)) / max_mult) ** alpha
            parts.append(
                f'<line x1="{sx(s.start):.2f}" y1="{sy(s.start):.2f}" '
                f'x2="{sx(s.end):.2f}" y2="{sy(s.end):.2f}" '
                f'stroke="#555" stroke-width="{width:.2f}" stroke-linecap="round"/>')
        for s in c.segments:
            for p in (s.start, s.end):
                if p not in marked:
                    marked.add(p)
                    parts.append(
                        f'<rect x="{sx(p) - 3:.2f}" y="{sy(p) - 3:.2f}" '
                        f'width="6" height="6" fill="#222"/>')

    for p, m in b.atoms:
        color = "#0a7f6f" if m > 0 else "#b01030"
        parts.append(f'<circle cx="{sx(p):.2f}" cy="{sy(p):.2f}" r="5" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{sx(p) + 7:.2f}" y="{sy(p) - 7:.2f}" '
                     f'font-size="11" fill="{color}">{m}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def render_report_svg(report_obj: dict, index: int | None = None) -> str:
    """Render minimizers from a report JSON object (all, or a single index)."""
    b = obj_to_boundary(_checked(_required(report_obj, "boundary"), dict,
                                 "key 'boundary'"))
    minis = _entries(report_obj, "minimizers")
    if index is not None:
        if not -len(minis) <= index < len(minis):
            raise ValueError(f"index {index} is out of range for "
                             f"{len(minis)} minimizers")
        minis = [minis[index]]
    chains = [obj_to_chain(_checked(_required(m, "chain"), dict, "key 'chain'"))
              for m in minis]
    return render_svg(chains, b,
                      _number("key 'alpha'", _required(report_obj, "alpha")))
