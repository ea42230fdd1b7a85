"""Planar polyline strings and exact pairwise-intersection tests.

A point is a `Point`, an (x, y) pair of ints and Fractions. Points are
checked once, where they enter: `Polyline` and `Drawing` check points built
in code, while the file readers, generators and truncation check their own
and build curves with `Polyline.of_exact`. All predicates run on exact
arithmetic, so two runs on the same input always build the same graph.

Points with a Fraction coordinate go through a gcd-free kernel: each point
becomes integers (X, Y, W) with W > 0, and signs and squared distances are
integer expressions in those numerators. A squared distance is an unreduced
integer pair (numerator, denominator), which callers compare by cross
multiplication. A `Fraction` operation reduces by a gcd every time; on the
30-47 bit denominators of convex drawings, and the larger ones arithmetic on
them builds, that gcd is most of the cost, and the kernel pays it once per
point instead. The intersection graph's sweep runs one inline segment test
for both kinds of family: exact on ints, and on a rational family's floats
under a proven error bound, with the kernel deciding only the pairs the
bound leaves open.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from typing import NamedTuple, Union

from .errors import DuplicateId
from .graph import Graph

Coord = Union[int, Fraction]


def exact_coord(value) -> Coord:
    """Convert a parsed number (int, float, decimal/ratio string, Fraction) to an exact coordinate.

    Integral values are normalized to int, which keeps the hot orientation
    arithmetic on machine integers. A plain ASCII "p/q" or "-p/q" with q not
    0 is read without Fraction's regular expression.
    """
    if isinstance(value, bool):
        raise TypeError("coordinate cannot be a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"coordinate must be finite, got {value!r}")
        value = Fraction(value)
    elif isinstance(value, str):
        num, _, den = value.partition("/")
        if value.isascii() and den.isdigit() and den.strip("0") and num.removeprefix("-").isdigit():
            value = Fraction(int(num), int(den))
        else:
            try:
                value = Fraction(value)
            except ZeroDivisionError:
                raise ValueError(f"{value!r} has a zero denominator") from None
    elif not isinstance(value, Fraction):
        raise TypeError(f"unsupported coordinate type {type(value).__name__}")
    return int(value) if value.denominator == 1 else value


class Point(NamedTuple):
    """An exact (x, y) pair, checked where it enters, not here."""

    x: Coord
    y: Coord


def exact_points(points) -> tuple[Point, ...]:
    """points as Points; TypeError for a coordinate not an int or Fraction."""
    pts = tuple(map(Point._make, points))
    for c in chain.from_iterable(pts):
        if not isinstance(c, (int, Fraction)) or isinstance(c, bool):
            raise TypeError(f"coordinates must be int or Fraction, got {type(c).__name__}")
    return pts


@dataclass(frozen=True)
class Polyline:
    """A labeled open curve, stored as a chain of >= 2 points."""

    id: str
    points: tuple[Point, ...]

    def __post_init__(self):
        pts = exact_points(self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise ValueError(f"polyline {self.id!r} needs at least 2 points")
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise ValueError(f"polyline {self.id!r} has consecutive duplicate point {a}")

    @classmethod
    def of_exact(cls, id: str, points: tuple[Point, ...]) -> "Polyline":
        """A Polyline of points checked where they entered (a file reader, a
        generator, the truncation), which are not checked again."""
        line = object.__new__(cls)
        line.__dict__.update(id=id, points=points)  # past the frozen __setattr__
        return line

    def segments(self) -> list[tuple[Point, Point]]:
        return list(zip(self.points, self.points[1:]))


@dataclass(frozen=True)
class StringFamily:
    strings: tuple[Polyline, ...]

    def __post_init__(self):
        strs = tuple(self.strings)
        object.__setattr__(self, "strings", strs)
        seen = set()
        for s in strs:
            if s.id in seen:
                raise DuplicateId(f"duplicate string id {s.id!r}")
            seen.add(s.id)

    def __len__(self):
        return len(self.strings)


def _within_bbox(p: Point, a: Point, b: Point) -> bool:
    # Assumes p collinear with a-b; reduces to a coordinate range check.
    return (min(a.x, b.x) <= p.x <= max(a.x, b.x)
            and min(a.y, b.y) <= p.y <= max(a.y, b.y))


def segments_intersect(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    """True iff the closed segments p1-p2 and q1-q2 share at least one point.

    Endpoint and tangential contact count; collinear overlap counts. A
    segment strictly on one side of the other's line returns False before
    the other two signs are computed.
    """
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = p1, p2, q1, q2
    ex, ey = dx - cx, dy - cy
    d1 = ex * (ay - cy) - ey * (ax - cx)
    d2 = ex * (by - cy) - ey * (bx - cx)
    if d1 > 0 and d2 > 0 or d1 < 0 and d2 < 0:
        return False
    fx, fy = bx - ax, by - ay
    d3 = fx * (cy - ay) - fy * (cx - ax)
    d4 = fx * (dy - ay) - fy * (dx - ax)
    if d3 > 0 and d4 > 0 or d3 < 0 and d4 < 0:
        return False
    if d1 and d2 and d3 and d4:
        return True  # each pair of signs is opposite: a proper crossing
    return (not d1 and _within_bbox(p1, q1, q2) or not d2 and _within_bbox(p2, q1, q2)
            or not d3 and _within_bbox(q1, p1, p2) or not d4 and _within_bbox(q2, p1, p2))


def polylines_intersect(p: Polyline, q: Polyline) -> bool:
    """True iff some segment of p meets some segment of q.

    Tests every segment pair; `intersection_graph` must agree with it on
    every pair of strings.
    """
    qsegs = q.segments()
    return any(segments_intersect(a, b, c, d)
               for a, b in p.segments() for c, d in qsegs)


def _overlap(p1: Point, p2: Point, q1: Point, q2: Point) -> list[Point]:
    """Contact points of two segments on one supporting line: the ends of
    the intersection of their parameter intervals, with points ordered as
    (x, y) pairs."""
    start = max(min(p1, p2), min(q1, q2))
    end = min(max(p1, p2), max(q1, q2))
    if start > end:
        return []
    if start == end:
        return [start]
    return [start, end]


# ---------------------------------------------------------------------------
# The gcd-free kernel. A point is held as integers (X, Y, W), W > 0, with
# p = (X/W, Y/W). The line through two such points h and g is their cross
# product h x g, and the sign of its dot product with a third point k is the
# sign of det[h; g; k] = W_h W_g W_k * ((g - h) x (k - h)): the orientation
# sign of (h, g, k), since every W is positive. A squared distance is a sum
# of squared numerators over a positive product of W's, left unreduced.

Homogeneous = tuple[int, int, int]


def homogeneous(p: Point) -> Homogeneous:
    """(X, Y, W) with W > 0 and p = (X/W, Y/W): one lcm per point, here."""
    xn, xd = p.x.as_integer_ratio()
    yn, yd = p.y.as_integer_ratio()
    if xd == yd:
        return xn, yn, xd
    w = math.lcm(xd, yd)
    return xn * (w // xd), yn * (w // yd), w


def line_through(h: Homogeneous, g: Homogeneous) -> Homogeneous:
    """Coefficients (A, B, C) of the line through h and g: h x g."""
    return h[1] * g[2] - h[2] * g[1], h[2] * g[0] - h[0] * g[2], h[0] * g[1] - h[1] * g[0]


def side(line: Homogeneous, k: Homogeneous) -> int:
    """The orientation sign of (h, g, k), for line = line_through(h, g)."""
    v = line[0] * k[0] + line[1] * k[1] + line[2] * k[2]
    return (v > 0) - (v < 0)


def homogeneous_dist_sq(h: Homogeneous, g: Homogeneous) -> tuple[int, int]:
    """Squared distance of the two points, as an unreduced (numerator, denominator)
    with denominator > 0."""
    dx = h[0] * g[2] - g[0] * h[2]
    dy = h[1] * g[2] - g[1] * h[2]
    return dx * dx + dy * dy, (h[2] * g[2]) ** 2


class RationalSegment(NamedTuple):
    """A segment a-b with its endpoints' (X, Y, W) and its line's coefficients."""

    a: Point
    b: Point
    ha: Homogeneous
    hb: Homogeneous
    line: Homogeneous


def _between(k: Homogeneous, h: Homogeneous, g: Homogeneous) -> bool:
    """Whether k, collinear with h and g, lies on the closed segment h-g:
    (h - k) . (g - k) <= 0, scaled by W_h W_g W_k^2 > 0."""
    hx, hy = h[0] * k[2] - k[0] * h[2], h[1] * k[2] - k[1] * h[2]
    gx, gy = g[0] * k[2] - k[0] * g[2], g[1] * k[2] - k[1] * g[2]
    return hx * gx + hy * gy <= 0


def _segments_meet(h: Homogeneous, g: Homogeneous, k: Homogeneous, l: Homogeneous) -> bool:
    """Whether the closed segments h-g and k-l share a point, exactly: the
    sweep's test for a pair its float signs leave open."""
    lp, lq = line_through(h, g), line_through(k, l)
    d1, d2 = side(lq, h), side(lq, g)
    if d1 == d2 != 0:
        return False
    d3, d4 = side(lp, k), side(lp, l)
    if d3 == d4 != 0:
        return False
    return bool(d1 and d2 and d3 and d4
                or not d1 and _between(h, k, l) or not d2 and _between(g, k, l)
                or not d3 and _between(k, h, g) or not d4 and _between(l, h, g))


def rational_contact_points(s: RationalSegment, t: RationalSegment) -> list[Point]:
    """All contact points of the closed segments s and t, exactly.

    Returns [] when disjoint, one point for a crossing or touch, and the two
    overlap endpoints when collinear segments share more than a point. A
    crossing point is the meet of the two lines, s.line x t.line, so it is
    built from integers once.
    """
    p1, p2, h1, h2, lp = s
    q1, q2, g1, g2, lq = t
    d1 = side(lq, h1)
    d2 = side(lq, h2)
    d3 = side(lp, g1)
    d4 = side(lp, g2)
    if d1 == 0 and d2 == 0:
        return _overlap(p1, p2, q1, q2)
    if d1 * d2 < 0 and d3 * d4 < 0:
        x, y, w = line_through(lp, lq)
        return [Point(exact_coord(Fraction(x, w)), exact_coord(Fraction(y, w)))]
    out: list[Point] = []
    for d, pt, k, h, g in ((d1, p1, h1, g1, g2), (d2, p2, h2, g1, g2),
                           (d3, q1, g1, h1, h2), (d4, q2, g2, h1, h2)):
        if d == 0 and _between(k, h, g) and pt not in out:
            out.append(pt)
    return out


def rational_point_segment_dist_sq(h: Homogeneous, s: RationalSegment) -> tuple[int, int]:
    """Exact squared distance from the point h to the closed segment s, as an
    unreduced (numerator, denominator) with denominator > 0.

    a->b and a->p are numerators over Wa*Wb and Wa*Wp, so the projection
    parameter is t = dot * Wb / (ab2 * Wp), and the distance to the line is
    (line . h)^2 / (Wp^2 * ab2), where line . h = det[a; b; p].
    """
    xp, yp, wp = h
    xa, ya, wa = s.ha
    xb, yb, wb = s.hb
    abx, aby = xb * wa - xa * wb, yb * wa - ya * wb
    apx, apy = xp * wa - xa * wp, yp * wa - ya * wp
    dot = abx * apx + aby * apy
    if dot <= 0:
        return apx * apx + apy * apy, (wa * wp) ** 2
    ab2 = abx * abx + aby * aby
    if dot * wb >= ab2 * wp:
        return homogeneous_dist_sq(h, s.hb)
    line = s.line
    cross = line[0] * xp + line[1] * yp + line[2] * wp
    return cross * cross, wp * wp * ab2


def _float_key(c: Coord) -> float:
    """The correctly rounded float of c, or -inf or inf beyond the float
    range. It never decreases as c grows, so _float_key(a) < _float_key(b)
    implies a < b."""
    try:
        return float(c)
    except OverflowError:
        return math.inf if c > 0 else -math.inf


def _float_keys(coords: list[Coord]) -> list[float]:
    """_float_key of each coordinate, converted in C unless one overflows."""
    try:
        return list(map(float, coords))
    except OverflowError:
        return list(map(_float_key, coords))


def intersection_graph(family: StringFamily) -> Graph:
    """Build the intersection graph: one vertex per string, an edge iff the curves meet.

    One sweep in x over the closed bounding boxes of the B segments, with the
    plane cut into floor(sqrt(B)) horizontal strips at every (B / strips)-th
    lowest box bottom, so that about as many boxes start in each strip. A box
    is filed in every strip its y-range covers: as starting in the strip of
    its bottom, as passing through the others. A new box scans the boxes
    starting in each of its strips and the boxes passing through its first
    strip, so two boxes meet in the first strip they share and nowhere else.

    A scanned box has expired when its right x lies strictly left of the new
    box's left x; one that only touches it stays. A scan that meets at least
    as many expired boxes as it scans lists drops them from those lists, so
    rebuilding a list costs at most one expired box dropped. A scanned box
    that has not expired, of a string not yet known to meet this one, and
    that overlaps the new box in y, gets the segment test inline, with no
    call and no Point. Each box carries its ends and its direction,
    (ax, ay, bx, by, bx - ax, by - ay), and the index of its first point,
    and the test computes `segments_intersect`'s four orientation signs from
    them, each as two products of coordinate differences, with the same
    early exits. For an all-int family these are the ints, each sign is
    exact, and a touch test is a dot product. A rational family's boxes
    carry the float keys below, and each float sign d counts only where
    |d| > E = 64 u R^2, with u = 2^-53 and R the largest |key| (a filter as
    in Fortune & Van Wyk 1993 and Shewchuk 1997). A pair whose signs are all
    settled is decided by them; any other pair goes to `_segments_meet`, the
    gcd-free kernel on the ends' homogeneous triples, one per point. An
    empty family gives the empty graph.

    The bound: for 2^-400 < R < 2^400, every float sign d lies within
    49 u R^2 < E of its exact value D, so d > E implies D > 0 and d < -E
    implies D < 0. Each key is its coordinate correctly rounded, so it lies
    within u R of it: within u |key| where the key is normal, and within
    2^-1075 < u R where it is subnormal or 0, as where 10^-400 sits next to
    1. A float difference of two keys has magnitude at most 2R (rounding is
    monotone and 2R is a float), and it lies within 2uR + 2uR = 4uR of the
    exact difference, which is then at most 2R + 4uR. A sign is
    d = fl(fl(p q) - fl(r s)) of four such differences, for
    D = P Q - R' S. Then |p q - P Q| <= 2R 4uR + (2R + 4uR) 4uR =
    16 u R^2 + 16 u^2 R^2, rounding p q adds at most 4 u R^2 + 2^-1075, and
    rounding the difference of two products, each at most 4R^2 (1 + u) +
    2^-1075, adds at most u (8R^2 (1 + u) + 2^-1074), or nothing where that
    difference is subnormal. In all, |d - D| <= 48 u R^2 + 40 u^2 R^2 +
    2^-1074 (1 + u), and since u R^2 > 2^-853 the last two terms are below
    u R^2. E, computed as fl(2^-47 R * R), is at least 64 u R^2 (1 - u) >
    63 u R^2, and no value reaches 9 R^2 < 2^804, so none overflows.
    Outside that range, and wherever a key is -inf or inf, E is inf: no
    float sign is then settled, an inf - inf NaN neither, and every tested
    pair takes the exact test.

    The sort, the expiry and y-overlap tests and the strip filing compare
    float keys, one per coordinate: X / W from the triples of a rational
    family, `_float_key` of each int otherwise, or wherever a quotient
    overflows. Integer true division is correctly rounded, as float() of
    a Fraction is, and correctly rounded conversion never decreases, so
    fl(a) < fl(b) implies a < b: a pair whose boxes overlap exactly is
    never filtered out, and a tie only adds an exact test. The graph is the
    one testing every pair gives.
    """
    return Graph(tuple(_sweep(family.strings, [0] * len(family.strings))))


def _sweep(strings: tuple[Polyline, ...], adj: list[int], hs=None) -> list[int]:
    """intersection_graph's sweep, on adjacency masks adj seeded by the
    caller: a pair already adjacent in adj is never tested, and stays
    adjacent. Fills adj in place and returns it. A caller that holds the
    points' homogeneous triples, in the order of the strings' points, passes
    them as hs; otherwise a rational family derives them here."""
    points = [p for s in strings for p in s.points]
    xs, ys = zip(*points) if points else ((), ())
    # False for an all-int family and for the empty family.
    rational = not set(map(type, chain(xs, ys))) <= {int}
    if rational:
        # One homogeneous triple per point, shared by the two segments at a bend.
        hs = list(map(homogeneous, points) if hs is None else hs)
        try:
            kx, ky = [x / w for x, _, w in hs], [y / w for _, y, w in hs]
        except OverflowError:
            kx, ky = _float_keys(xs), _float_keys(ys)
        r = max(map(abs, chain(kx, ky)))
        err = 64 * 2 ** -53 * r * r if 2 ** -400 < r < 2 ** 400 else math.inf
        xs, ys = kx, ky  # the boxes carry the keys; hs decides what err leaves open
    else:
        kx, ky = _float_keys(xs), _float_keys(ys)
        err = 0
    boxes = []
    start = 0
    for i, s in enumerate(strings):
        stop = start + len(s.points) - 1
        for t in range(start, stop):
            x0, x1 = (kx[t], kx[t + 1]) if kx[t] <= kx[t + 1] else (kx[t + 1], kx[t])
            y0, y1 = (ky[t], ky[t + 1]) if ky[t] <= ky[t + 1] else (ky[t + 1], ky[t])
            ax, ay, bx, by = xs[t], ys[t], xs[t + 1], ys[t + 1]
            boxes.append((x0, x1, y0, y1, i, (ax, ay, bx, by, bx - ax, by - ay, t)))
        start = stop + 1
    boxes.sort(key=itemgetter(0))
    count = len(boxes)
    strips = max(math.isqrt(count), 1)
    bottoms = sorted(map(itemgetter(2), boxes))
    cuts = [bottoms[k * count // strips] for k in range(1, strips)]
    starting: list[list[tuple]] = [[] for _ in range(strips)]
    passing: list[list[tuple]] = [[] for _ in range(strips)]
    nerr = -err
    for box in boxes:
        x0, _, y0, y1, i, (ax, ay, bx, by, fx, fy, t) = box
        lo = bisect_right(cuts, y0)
        hi = bisect_right(cuts, y1) + 1
        met = adj[i] | 1 << i
        dead = 0
        for _, ox1, oy0, oy1, j, other in chain(passing[lo], *starting[lo:hi]):
            if ox1 < x0:
                dead += 1
                continue
            if met >> j & 1 or oy0 > y1 or y0 > oy1:
                continue
            # segments_intersect(a, b, c, d) on the box's coordinates: exact
            # ints, or float keys whose signs count only beyond err. A point
            # collinear with a segment lies on it iff the vectors to the
            # segment's ends point apart: a dot product <= 0.
            cx, cy, dx, dy, ex, ey, u = other
            acx, acy = ax - cx, ay - cy
            bcx, bcy = bx - cx, by - cy
            d1 = ex * acy - ey * acx
            d2 = ex * bcy - ey * bcx
            if d1 > err and d2 > err or d1 < nerr and d2 < nerr:
                continue
            adx, ady = ax - dx, ay - dy
            d3 = fy * acx - fx * acy
            d4 = fy * adx - fx * ady
            if d3 > err and d4 > err or d3 < nerr and d4 < nerr:
                continue
            if rational:
                if not (abs(d1) > err and abs(d2) > err and abs(d3) > err and abs(d4) > err
                        or _segments_meet(hs[t], hs[t + 1], hs[u], hs[u + 1])):
                    continue
            elif not (d1 and d2 and d3 and d4
                      or not d1 and acx * adx + acy * ady <= 0
                      or not d2 and bcx * (bx - dx) + bcy * (by - dy) <= 0
                      or not d3 and acx * bcx + acy * bcy <= 0
                      or not d4 and adx * (bx - dx) + ady * (by - dy) <= 0):
                continue
            met |= 1 << j
            adj[j] |= 1 << i
        adj[i] = met & ~(1 << i)
        if dead > hi - lo:
            passing[lo] = [o for o in passing[lo] if o[1] >= x0]
            starting[lo:hi] = [[o for o in strip if o[1] >= x0] for strip in starting[lo:hi]]
        starting[lo].append(box)
        for strip in passing[lo + 1:hi]:
            strip.append(box)
    return adj
