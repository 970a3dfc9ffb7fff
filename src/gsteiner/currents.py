"""Polyhedral 1-currents with exact rational multiplicities.

A chain is a finite list of oriented segments, each carrying a nonzero
rational multiplicity; its boundary is the signed sum of endpoint Diracs
(an atomic 0-current).  Multiplicities are kept exact (``Fraction``) so
that flow algebra, cancellation and quantization never drift; geometry
(coordinates, lengths) is floating point.

The canonical form of a chain resolves collinear overlaps: segments lying
on a common line (detected within ``GEOM_TOL``) are swept in 1-D, their
signed multiplicities summed on each sub-interval, zero pieces dropped and
adjacent pieces of equal multiplicity merged.  Canonicalization reuses the
original endpoint coordinates, so the boundary of the output equals the
boundary of the input as exact rational atoms.

Planar points take a branch of :func:`dist`, :func:`vnorm` and the
collinearity test written in flat float arithmetic, which the four-point
lab calls tens of thousands of times per pass.  Each branch does the
operations of the generic ``sum`` expression in its order: ``sum`` starts
from the int 0, so a leading ``0.0 +``, then the terms left to right, with
``** 2`` where the generic code squares by ``** 2``.  Python 3.12's ``sum``
compensates its float additions, but for two terms the compensated result
is the rounded sum, so every value has the same bits on every supported
Python.  ``math.dist``, ``math.hypot`` and ``math.fsum`` would be faster
still, but they round differently from that formula (on about 17% of
random planar inputs), which would change reported values and the
canonical forms built on them.  Other dimensions keep the generic code.

All objects are immutable and all functions are pure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

Point = tuple[float, ...]

# Geometric tolerance, in instance units: segments are considered collinear /
# points coincident below this scale-relative threshold.
GEOM_TOL = 1e-9


# ---------------------------------------------------------------------------
# small vector helpers (dimension-generic)
# ---------------------------------------------------------------------------

def vsub(p: Point, q: Point) -> Point:
    return tuple(a - b for a, b in zip(p, q))


def vdot(p: Point, q: Point) -> float:
    return sum(a * b for a, b in zip(p, q))


def vnorm(p: Point) -> float:
    if len(p) == 2:
        x, y = p
        return math.sqrt(0.0 + x * x + y * y)
    return math.sqrt(sum(a * a for a in p))


def dist(p: Point, q: Point) -> float:
    if len(p) == 2:
        (a, b), (c, d) = p, q
        return math.sqrt(0.0 + (a - c) ** 2 + (b - d) ** 2)
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))


def lerp(a: Point, b: Point, t: float) -> Point:
    return tuple(x + t * (y - x) for x, y in zip(a, b))


def _canonical_dir(d: Point) -> Point:
    """Unit vector with the first nonzero component positive."""
    n = vnorm(d)
    u = tuple(x / n for x in d)
    for x in u:
        if x > 0:
            return u
        if x < 0:
            return tuple(-y for y in u)
    return u


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Segment:
    """Oriented segment with a nonzero rational multiplicity."""
    start: Point
    end: Point
    mult: Fraction

    def __post_init__(self):
        if len(self.start) != len(self.end):
            raise ValueError("segment endpoints have mismatched dimension")
        if self.start == self.end:
            raise ValueError("degenerate segment (start == end)")
        if not isinstance(self.mult, Fraction):
            object.__setattr__(self, "mult", Fraction(self.mult))
        if self.mult == 0:
            raise ValueError("zero multiplicity segment")

    @property
    def length(self) -> float:
        return dist(self.start, self.end)

    def reversed(self) -> "Segment":
        return Segment(self.end, self.start, -self.mult)


@dataclass(frozen=True)
class PolyhedralChain:
    """1-current given as a list of weighted oriented segments.

    ``canonical=True`` asserts pairwise disjoint segment interiors with
    merged collinear runs; it is set only by :func:`canonicalize` (or by
    constructions that guarantee it).
    """
    segments: tuple[Segment, ...]
    canonical: bool = False

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        dims = {len(s.start) for s in self.segments}
        if len(dims) > 1:
            raise ValueError("mixed dimensions in chain")

    @property
    def dim(self) -> int:
        return len(self.segments[0].start) if self.segments else 2

    def __add__(self, other: "PolyhedralChain") -> "PolyhedralChain":
        return PolyhedralChain(self.segments + other.segments, canonical=False)

    def __neg__(self) -> "PolyhedralChain":
        return PolyhedralChain(
            tuple(Segment(s.start, s.end, -s.mult) for s in self.segments),
            canonical=self.canonical,
        )

    def __sub__(self, other: "PolyhedralChain") -> "PolyhedralChain":
        return self + (-other)


def chain_of(segments: Iterable[tuple[Point, Point, Fraction | int]],
             canonical: bool = False) -> PolyhedralChain:
    return PolyhedralChain(
        tuple(Segment(a, b, Fraction(m)) for a, b, m in segments), canonical)


def scale_chain(chain: PolyhedralChain, c: Fraction | int) -> PolyhedralChain:
    """Every multiplicity times the nonzero ``c``."""
    c = Fraction(c)
    return PolyhedralChain(
        tuple(Segment(s.start, s.end, c * s.mult) for s in chain.segments),
        canonical=chain.canonical)


@dataclass(frozen=True)
class Boundary:
    """Signed finite atomic 0-current: distinct points with rational masses."""
    atoms: tuple[tuple[Point, Fraction], ...]

    def __post_init__(self):
        pts = [p for p, _ in self.atoms]
        if not all(math.isfinite(x) for p in pts for x in p):
            raise ValueError("non-finite atom coordinate")
        if len(set(pts)) != len(pts):
            raise ValueError("duplicate atom points")
        if len({len(p) for p in pts}) > 1:
            raise ValueError("atoms of mixed dimensions")
        if any(m == 0 for _, m in self.atoms):
            raise ValueError("zero-mass atom")
        object.__setattr__(self, "atoms", tuple(sorted(self.atoms, key=lambda a: a[0])))

    @property
    def dim(self) -> int:
        return len(self.atoms[0][0]) if self.atoms else 2

    def mass(self) -> Fraction:
        return sum((abs(m) for _, m in self.atoms), Fraction(0))

    def total(self) -> Fraction:
        return sum((m for _, m in self.atoms), Fraction(0))

    def support(self) -> frozenset[Point]:
        return frozenset(p for p, _ in self.atoms)

    def as_dict(self) -> dict[Point, Fraction]:
        return dict(self.atoms)

    def __neg__(self) -> "Boundary":
        return Boundary(tuple((p, -m) for p, m in self.atoms))

    def __add__(self, other: "Boundary") -> "Boundary":
        acc: dict[Point, Fraction] = dict(self.atoms)
        for p, m in other.atoms:
            acc[p] = acc.get(p, Fraction(0)) + m
        return make_boundary(acc)

    def __sub__(self, other: "Boundary") -> "Boundary":
        return self + (-other)

    def scaled(self, c: Fraction | int) -> "Boundary":
        c = Fraction(c)
        if c == 0:
            return Boundary(())
        return Boundary(tuple((p, c * m) for p, m in self.atoms))


def make_boundary(atoms: dict[Point, Fraction] | Iterable[tuple[Point, Fraction | int]]) -> Boundary:
    """Collect atoms, merging duplicate points and dropping zero masses."""
    acc: dict[Point, Fraction] = {}
    items = atoms.items() if isinstance(atoms, dict) else atoms
    for p, m in items:
        p = tuple(float(x) for x in p)
        acc[p] = acc.get(p, Fraction(0)) + Fraction(m)
    return Boundary(tuple((p, m) for p, m in acc.items() if m != 0))


# ---------------------------------------------------------------------------
# boundary, mass, alpha-mass
# ---------------------------------------------------------------------------

def boundary(chain: PolyhedralChain) -> Boundary:
    """Signed sum of endpoint Diracs, theta * (delta_end - delta_start)."""
    acc: dict[Point, Fraction] = {}
    for s in chain.segments:
        acc[s.end] = acc.get(s.end, Fraction(0)) + s.mult
        acc[s.start] = acc.get(s.start, Fraction(0)) - s.mult
    return Boundary(tuple((p, m) for p, m in acc.items() if m != 0))


def _require_canonical(chain: PolyhedralChain, op: str) -> None:
    if not chain.canonical:
        raise ValueError(f"{op} requires a canonical chain; call canonicalize() first")


def alpha_mass(chain: PolyhedralChain, alpha: float) -> float:
    """Sum of |mult|^alpha * length over segments (requires canonical form)."""
    _require_canonical(chain, "alpha_mass")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    return sum(abs(float(s.mult)) ** alpha * s.length for s in chain.segments)


def mass(chain: PolyhedralChain) -> float:
    """Mass norm: sum of |mult| * length."""
    _require_canonical(chain, "mass")
    return sum(abs(float(s.mult)) * s.length for s in chain.segments)


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def _seg_sort_key(s: Segment):
    return (s.start, s.end, s.mult.numerator, s.mult.denominator)


class _LineGroup:
    """Segments sharing a supporting line, up to tolerance."""

    __slots__ = ("origin", "direction", "members", "scale")

    def __init__(self, seg: Segment):
        self.origin = seg.start
        self.direction = _canonical_dir(vsub(seg.end, seg.start))
        self.members: list[Segment] = [seg]
        self.scale = max(1.0, vnorm(seg.start), vnorm(seg.end))

    def _off_line(self, p: Point, tol: float) -> bool:
        if len(p) == 2:
            (x, y), (ox, oy), (dx, dy) = p, self.origin, self.direction
            vx, vy = x - ox, y - oy
            t = 0.0 + vx * dx + vy * dy
            px, py = vx - t * dx, vy - t * dy
            lim = tol * (1.0 + math.sqrt(0.0 + vx * vx + vy * vy) + self.scale)
            return math.sqrt(0.0 + px * px + py * py) > lim
        v = vsub(p, self.origin)
        t = vdot(v, self.direction)
        perp = tuple(a - t * b for a, b in zip(v, self.direction))
        lim = tol * (1.0 + vnorm(v) + self.scale)
        return vnorm(perp) > lim

    def accepts(self, seg: Segment, tol: float) -> bool:
        return not (self._off_line(seg.start, tol) or self._off_line(seg.end, tol))


def canonicalize(chain: PolyhedralChain, tol: float = GEOM_TOL) -> PolyhedralChain:
    """Disjoint-interior normal form of a chain.

    Groups segments by supporting line (within ``tol``), sweeps each line,
    sums signed multiplicities on sub-intervals and merges equal-multiplicity
    runs.  Endpoint coordinates are reused, so the boundary is preserved as
    exact rational atoms.  Idempotent.
    """
    segs = sorted(chain.segments, key=_seg_sort_key)
    groups: list[_LineGroup] = []
    for s in segs:
        for g in groups:
            if g.accepts(s, tol):
                g.members.append(s)
                break
        else:
            groups.append(_LineGroup(s))

    out: list[Segment] = []
    for g in groups:
        if len(g.members) == 1:
            out.extend(_lone_segment(g))
        else:
            out.extend(_sweep_line_group(g))
    out.sort(key=_seg_sort_key)
    return PolyhedralChain(tuple(out), canonical=True)


def _lone_segment(g: _LineGroup) -> list[Segment]:
    """What :func:`_sweep_line_group` makes of a group with one member.

    The group's origin is that segment's start, so the sweep sees one
    interval from 0 to the projection of the segment on the group
    direction: it keeps the segment when the projection is positive,
    reverses it when negative and drops it when 0.
    """
    s, = g.members
    t = vdot(vsub(s.end, s.start), g.direction)
    return [s] if t > 0 else [s.reversed()] if t < 0 else []


def _sweep_line_group(g: _LineGroup) -> list[Segment]:
    d = g.direction
    o = g.origin
    # param -> concrete point; first writer wins, keeping coordinates exact
    point_at: dict[float, Point] = {}
    intervals: list[tuple[float, float, Fraction]] = []
    for s in g.members:
        ta = vdot(vsub(s.start, o), d)
        tb = vdot(vsub(s.end, o), d)
        point_at.setdefault(ta, s.start)
        point_at.setdefault(tb, s.end)
        if ta < tb:
            intervals.append((ta, tb, s.mult))
        else:
            intervals.append((tb, ta, -s.mult))

    cuts = sorted(point_at.keys())
    run_start: float | None = None
    run_mult = Fraction(0)
    out: list[Segment] = []

    def flush(upto: float) -> None:
        nonlocal run_start
        if run_start is not None and run_mult != 0:
            out.append(Segment(point_at[run_start], point_at[upto], run_mult))
        run_start = None

    for t0, t1 in zip(cuts, cuts[1:]):
        mid = 0.5 * (t0 + t1)
        m = sum((mv for lo, hi, mv in intervals if lo <= mid <= hi), Fraction(0))
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


# ---------------------------------------------------------------------------
# restriction to a ball and its complement
# ---------------------------------------------------------------------------

def _ball_params(s: Segment, center: Point, radius: float) -> tuple[float, float] | None:
    """Parameter interval of s inside the ball, or None if it misses it."""
    d = vsub(s.end, s.start)
    w = vsub(s.start, center)
    a = vdot(d, d)
    b = 2.0 * vdot(d, w)
    c = vdot(w, w) - radius * radius
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        return None
    sq = math.sqrt(disc)
    t0 = (-b - sq) / (2.0 * a)
    t1 = (-b + sq) / (2.0 * a)
    lo, hi = max(0.0, t0), min(1.0, t1)
    if hi <= lo:
        return None
    return lo, hi


def _subsegment(s: Segment, lo: float, hi: float) -> Segment:
    p = s.start if lo == 0.0 else lerp(s.start, s.end, lo)
    q = s.end if hi == 1.0 else lerp(s.start, s.end, hi)
    return Segment(p, q, s.mult)


def restrict_ball(chain: PolyhedralChain, center: Point, radius: float) -> PolyhedralChain:
    """Portion of the chain inside the open ball, multiplicities preserved."""
    _require_canonical(chain, "restrict_ball")
    if not 0.0 < radius < math.inf:
        raise ValueError("radius must be positive and finite")
    out = []
    for s in chain.segments:
        iv = _ball_params(s, center, radius)
        if iv is not None:
            out.append(_subsegment(s, *iv))
    return PolyhedralChain(tuple(out), canonical=True)


def restrict_outside(chain: PolyhedralChain, center: Point, radius: float) -> PolyhedralChain:
    """Complementary restriction: the portion outside the ball."""
    _require_canonical(chain, "restrict_outside")
    if not 0.0 < radius < math.inf:
        raise ValueError("radius must be positive and finite")
    out = []
    for s in chain.segments:
        iv = _ball_params(s, center, radius)
        if iv is None:
            out.append(s)
            continue
        lo, hi = iv
        if lo > 0.0:
            out.append(_subsegment(s, 0.0, lo))
        if hi < 1.0:
            out.append(_subsegment(s, hi, 1.0))
    return PolyhedralChain(tuple(out), canonical=True)


# ---------------------------------------------------------------------------
# support graph: loops and branch points
# ---------------------------------------------------------------------------

def _pair_intersection(s1: Segment, s2: Segment, tol: float) -> tuple[float, float, Point] | None:
    """Transversal intersection (t on s1, s on s2, point), or None.

    Solves the least-squares meet of the two supporting lines; collinear
    overlaps cannot occur between canonical segments so parallel pairs are
    skipped.  The returned point is snapped to an original endpoint when the
    meet lies at one, keeping vertex identity exact across the arrangement.
    """
    d1 = vsub(s1.end, s1.start)
    d2 = vsub(s2.end, s2.start)
    r = vsub(s2.start, s1.start)
    a11 = vdot(d1, d1)
    a12 = -vdot(d1, d2)
    a22 = vdot(d2, d2)
    det = a11 * a22 - a12 * a12
    if det <= tol * a11 * a22:
        return None  # parallel (or nearly)
    b1 = vdot(r, d1)
    b2 = -vdot(r, d2)
    t = (b1 * a22 - a12 * b2) / det
    s = (a11 * b2 - a12 * b1) / det
    et = tol * (1.0 + 1.0 / math.sqrt(a11))
    es = tol * (1.0 + 1.0 / math.sqrt(a22))
    if t < -et or t > 1.0 + et or s < -es or s > 1.0 + es:
        return None
    p1 = lerp(s1.start, s1.end, t)
    p2 = lerp(s2.start, s2.end, s)
    scale = 1.0 + vnorm(p1)
    if dist(p1, p2) > tol * scale:
        return None  # skew lines (d >= 3)
    if t <= et:
        t, p = 0.0, s1.start
    elif t >= 1.0 - et:
        t, p = 1.0, s1.end
    elif s <= es:
        p = s2.start
    elif s >= 1.0 - es:
        p = s2.end
    else:
        p = p1
    s = 0.0 if s <= es else (1.0 if s >= 1.0 - es else s)
    return t, s, p


def _arrangement_pieces(chain: PolyhedralChain, tol: float) -> list[tuple[Point, Point]]:
    """Subdivide segments at pairwise transversal intersections."""
    segs = chain.segments
    cuts: list[dict[float, Point]] = [
        {0.0: s.start, 1.0: s.end} for s in segs]
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            hit = _pair_intersection(segs[i], segs[j], tol)
            if hit is None:
                continue
            t, s, p = hit
            cuts[i].setdefault(t, p)
            cuts[j].setdefault(s, p)
    pieces = []
    for table in cuts:
        pts = [table[t] for t in sorted(table)]
        for a, b in zip(pts, pts[1:]):
            if a != b:
                pieces.append((a, b))
    return pieces


def has_loop(chain: PolyhedralChain, tol: float = GEOM_TOL) -> bool:
    """True iff the support graph, subdivided at crossings, contains a cycle."""
    _require_canonical(chain, "has_loop")
    pieces = _arrangement_pieces(chain, tol)
    parent: dict[Point, Point] = {}

    def find(x: Point) -> Point:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pieces:
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra == rb:
            return True
        parent[ra] = rb
    return False


def branch_points(chain: PolyhedralChain, b: Boundary) -> tuple[Point, ...]:
    """Vertices of the canonical representation outside supp(b).

    Raises ``ValueError`` on boundary mismatch.  Every returned vertex has
    degree >= 2 in the support graph (a degree-1 vertex is a boundary atom).
    """
    _require_canonical(chain, "branch_points")
    if boundary(chain) != b:
        raise ValueError("boundary mismatch: chain boundary differs from b")
    degree: dict[Point, int] = {}
    for s in chain.segments:
        degree[s.start] = degree.get(s.start, 0) + 1
        degree[s.end] = degree.get(s.end, 0) + 1
    supp = b.support()
    pts = sorted(p for p in degree if p not in supp)
    for p in pts:
        if degree[p] < 2:
            raise AssertionError("degree-1 vertex outside boundary support")
    return tuple(pts)


def support_difference_mass(t1: PolyhedralChain, t2: PolyhedralChain,
                            tol: float) -> float:
    """Mass of canonicalize(t1 - t2) with overlap tolerance ``tol``.

    Used as the geometric discriminator between near-optimal chains: two
    realizations of the same current cancel up to ``tol``-sized slivers.
    """
    diff = canonicalize(t1 - t2, tol=tol)
    return mass(diff)

