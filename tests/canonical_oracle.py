"""Reference for ``currents.canonicalize``: the canonical form in the
dimension-generic vector arithmetic alone.

``currents`` computes planar lengths, norms and the collinearity test in
flat float arithmetic, meant to give the bits of the generic ``sum``
expressions below.  This module keeps those expressions, and the grouping
and sweep built on them, so that tests can compare the two bit for bit.
Every line group is swept, one-member groups too:
``test_lone_segment_fast_path_equals_sweep`` holds ``currents``' shortcut
for those to the sweep.
"""
import math
from fractions import Fraction

from gsteiner.currents import (GEOM_TOL, PolyhedralChain, Segment,
                               _seg_sort_key)


def vsub(p, q):
    return tuple(a - b for a, b in zip(p, q))


def vdot(p, q):
    return sum(a * b for a, b in zip(p, q))


def vnorm(p):
    return math.sqrt(sum(a * a for a in p))


def _canonical_dir(d):
    n = vnorm(d)
    u = tuple(x / n for x in d)
    for x in u:
        if x > 0:
            return u
        if x < 0:
            return tuple(-y for y in u)
    return u


class _LineGroup:
    def __init__(self, seg):
        self.origin = seg.start
        self.direction = _canonical_dir(vsub(seg.end, seg.start))
        self.members = [seg]
        self.scale = max(1.0, vnorm(seg.start), vnorm(seg.end))

    def _off_line(self, p, tol):
        v = vsub(p, self.origin)
        t = vdot(v, self.direction)
        perp = tuple(a - t * b for a, b in zip(v, self.direction))
        lim = tol * (1.0 + vnorm(v) + self.scale)
        return vnorm(perp) > lim

    def accepts(self, seg, tol):
        return not (self._off_line(seg.start, tol)
                    or self._off_line(seg.end, tol))


def canonicalize(chain, tol=GEOM_TOL):
    segs = sorted(chain.segments, key=_seg_sort_key)
    groups = []
    for s in segs:
        for g in groups:
            if g.accepts(s, tol):
                g.members.append(s)
                break
        else:
            groups.append(_LineGroup(s))
    out = []
    for g in groups:
        out.extend(_sweep_line_group(g))
    out.sort(key=_seg_sort_key)
    return PolyhedralChain(tuple(out), canonical=True)


def _sweep_line_group(g):
    d = g.direction
    o = g.origin
    point_at = {}
    intervals = []
    for s in g.members:
        ta = vdot(vsub(s.start, o), d)
        tb = vdot(vsub(s.end, o), d)
        point_at.setdefault(ta, s.start)
        point_at.setdefault(tb, s.end)
        if ta < tb:
            intervals.append((ta, tb, s.mult))
        else:
            intervals.append((tb, ta, -s.mult))

    cuts = sorted(point_at)
    run_start = None
    run_mult = Fraction(0)
    out = []

    def flush(upto):
        nonlocal run_start
        if run_start is not None and run_mult != 0:
            out.append(Segment(point_at[run_start], point_at[upto], run_mult))
        run_start = None

    for t0, t1 in zip(cuts, cuts[1:]):
        mid = 0.5 * (t0 + t1)
        m = sum((mv for lo, hi, mv in intervals if lo <= mid <= hi),
                Fraction(0))
        if m == 0:
            flush(t0)
            continue
        if run_start is None:
            run_start, run_mult = t0, m
        elif m != run_mult:
            flush(t0)
            run_start, run_mult = t0, m
    if cuts:
        flush(cuts[-1])
    return out
