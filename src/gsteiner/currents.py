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

Every length and norm is one call in every dimension: :func:`dist` is
``math.dist`` and :func:`vnorm` is ``math.hypot``.  Both round the same on
Python 3.10 to 3.13 (checked over 600k 2-D and 3-D inputs at scales 1e-8 to
1e3), and neither underflows nor overflows where the squares would.  The
built-in ``sum`` of three or more floats is not stable across versions:
Python 3.12's compensates its additions, so a value summed over three or
more segments, like :func:`alpha_mass`, may differ in its last bits from
3.10 and 3.11.  :func:`project` is the one projection of a point on a line.
It and :func:`restrict_ball` divide by a squared length, which loses bits
below a length of about 1e-154 and underflows to 0 below about 1e-162;
only there do they measure the segment in units of its length, so that
ordinary segments keep their bits.
Only the grouping of segments by line keeps a planar branch in flat float
arithmetic, :func:`_planar_lines`: the four-point lab canonicalizes about
18 chains of 2 to 6 segments per call, and on its chains
:func:`canonicalize` takes 11-12 us a chain with it against 22-23 us with
the generic :func:`_lines` (Python 3.11 on a shared 2-core VM).  It does
the operations of the generic code in its order, so both branches give the
same bits.

All objects are immutable and all functions are pure.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import mul, sub
from typing import Iterable

Point = tuple[float, ...]

# Geometric tolerance, in instance units: segments are considered collinear /
# points coincident below this scale-relative threshold.
GEOM_TOL = 1e-9


# ---------------------------------------------------------------------------
# small vector helpers (dimension-generic)
# ---------------------------------------------------------------------------

def vsub(p: Point, q: Point) -> Point:
    return tuple(map(sub, p, q))


def vdot(p: Point, q: Point) -> float:
    return sum(map(mul, p, q))


def vnorm(p: Point) -> float:
    return math.hypot(*p)


dist = math.dist


def lerp(a: Point, b: Point, t: float) -> Point:
    return tuple(x + t * (y - x) for x, y in zip(a, b))


def project(p: Point, a: Point, b: Point) -> tuple[float, float]:
    """``(t, distance)``: the foot of ``p`` on the line through ``a != b``
    is ``lerp(a, b, t)``, and ``distance`` is how far ``p`` lies from it."""
    d, w = vsub(b, a), vsub(p, a)
    dd = vdot(d, d)
    if dd < _NORMAL_MIN:
        d, w = _in_units_of(d, d, w)
        dd = vdot(d, d)
    t = vdot(w, d) / dd
    return t, dist(p, lerp(a, b, t))


# squares below the smallest normal float have lost bits or underflowed to 0
_NORMAL_MIN = sys.float_info.min


def _in_units_of(d: Point, *vs: Point) -> list[Point]:
    """``vs`` divided by |d|: a segment shorter than about 1e-154, along
    ``d``, measured where its squares neither underflow nor lose bits."""
    size = vnorm(d)
    return [tuple(x / size for x in v) for v in vs]


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


def canonicalize(chain: PolyhedralChain, tol: float = GEOM_TOL) -> PolyhedralChain:
    """Disjoint-interior normal form of a chain.

    Groups segments by supporting line (within ``tol``), sweeps each line,
    sums signed multiplicities on sub-intervals and merges equal-multiplicity
    runs.  Endpoint coordinates are reused, so the boundary is preserved as
    exact rational atoms.  Idempotent.

    A line with one member is not swept: its origin is that segment's
    start, so the sweep would see one interval from 0 to ``t``, the
    segment's projection on the line's direction, and keep the segment when
    ``t`` is positive, reverse it when negative and drop it when 0.
    """
    segs = sorted(chain.segments, key=_seg_sort_key)
    out: list[Segment] = []
    for direction, members, t in (_planar_lines if chain.dim == 2
                                  else _lines)(segs, tol):
        if len(members) > 1:
            out.extend(_sweep_line(direction, members))
        elif t > 0:
            out.append(members[0])
        elif t < 0:
            out.append(members[0].reversed())
    out.sort(key=_seg_sort_key)
    return PolyhedralChain(tuple(out), canonical=True)


def _lines(segs: list[Segment], tol: float
           ) -> list[tuple[Point, list[Segment], float]]:
    """The segments grouped by supporting line, as (direction, members,
    the first member's projection on the direction).

    A line is that of its first member: through its start, along its unit
    direction with the first nonzero component made positive.  A segment
    joins the first line that both its endpoints lie on, or starts its own.
    A point p lies on the line through o along u when p - o is within
    tol (1 + |p - o| + scale) of its projection on u, where scale is the
    largest of 1 and the norms of the first member's endpoints.
    """
    lines: list[tuple[Point, Point, float, list[Segment], float]] = []
    for s in segs:
        for origin, u, scale, members, _ in lines:
            if not (_off_line(s.start, origin, u, scale, tol)
                    or _off_line(s.end, origin, u, scale, tol)):
                members.append(s)
                break
        else:
            d = vsub(s.end, s.start)
            u = _canonical_dir(d)
            lines.append((s.start, u, max(1.0, vnorm(s.start), vnorm(s.end)),
                          [s], vdot(d, u)))
    return [(u, members, t) for _, u, _, members, t in lines]


def _off_line(p: Point, origin: Point, u: Point, scale: float, tol: float
              ) -> bool:
    v = vsub(p, origin)
    t = vdot(v, u)
    perp = tuple(a - t * b for a, b in zip(v, u))
    return vnorm(perp) > tol * (1.0 + vnorm(v) + scale)


def _planar_lines(segs: list[Segment], tol: float
                  ) -> list[tuple[Point, list[Segment], float]]:
    """:func:`_lines` of planar segments, in flat float arithmetic.

    It does the operations of the generic code in its order (a dot product
    is ``sum``'s 0 + x_0 y_0 + x_1 y_1), so both give the same bits.
    """
    hypot = math.hypot
    lines: list[tuple[float, float, float, float, float, list[Segment],
                      float]] = []
    for s in segs:
        (ax, ay), (bx, by) = s.start, s.end
        for ox, oy, ux, uy, scale, members, _ in lines:
            vx, vy = ax - ox, ay - oy
            t = 0.0 + vx * ux + vy * uy
            if hypot(vx - t * ux, vy - t * uy) > tol * (
                    1.0 + hypot(vx, vy) + scale):
                continue
            vx, vy = bx - ox, by - oy
            t = 0.0 + vx * ux + vy * uy
            if hypot(vx - t * ux, vy - t * uy) > tol * (
                    1.0 + hypot(vx, vy) + scale):
                continue
            members.append(s)
            break
        else:
            dx, dy = bx - ax, by - ay
            n = hypot(dx, dy)
            ux, uy = dx / n, dy / n
            if ux < 0 or not ux > 0 and uy < 0:
                ux, uy = -ux, -uy
            lines.append((ax, ay, ux, uy,
                          max(1.0, hypot(ax, ay), hypot(bx, by)), [s],
                          0.0 + dx * ux + dy * uy))
    return [((ux, uy), members, t) for _, _, ux, uy, _, members, t in lines]


def _sweep_line(direction: Point, members: list[Segment]) -> list[Segment]:
    d = direction
    o = members[0].start
    # param -> concrete point; first writer wins, keeping coordinates exact
    point_at: dict[float, Point] = {}
    intervals: list[tuple[float, float, Fraction]] = []
    for s in members:
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
    if a < _NORMAL_MIN:
        # the parameters are those of the segment in units of its length
        d, w, (radius,) = _in_units_of(d, d, w, (radius,))
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

