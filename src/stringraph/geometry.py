"""Planar polyline strings and exact pairwise-intersection tests.

All predicates run on exact arithmetic: coordinates are ints or Fractions,
orientation signs are computed without rounding, so two runs on the same
input always build the same graph.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import DuplicateId
from .graph import Graph

Coord = Union[int, Fraction]


def exact_coord(value) -> Coord:
    """Convert a parsed number (int, float, decimal/ratio string, Fraction) to an exact coordinate.

    Integral values are normalized to int, which keeps the hot orientation
    arithmetic on machine integers.
    """
    if isinstance(value, bool):
        raise TypeError("coordinate cannot be a bool")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"coordinate must be finite, got {value!r}")
        value = Fraction(value)
    elif isinstance(value, str):
        value = Fraction(value)
    elif not isinstance(value, Fraction):
        raise TypeError(f"unsupported coordinate type {type(value).__name__}")
    return int(value) if value.denominator == 1 else value


@dataclass(frozen=True, slots=True)
class Point:
    x: Coord
    y: Coord

    def __post_init__(self):
        for c in (self.x, self.y):
            if not isinstance(c, (int, Fraction)) or isinstance(c, bool):
                raise TypeError(f"coordinates must be int or Fraction, got {type(c).__name__}")


@dataclass(frozen=True)
class Polyline:
    """A labeled open curve, stored as a chain of >= 2 points."""

    id: str
    points: tuple[Point, ...]

    def __post_init__(self):
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise ValueError(f"polyline {self.id!r} needs at least 2 points")
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise ValueError(f"polyline {self.id!r} has consecutive duplicate point {a}")

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


def orientation_sign(o: Point, a: Point, b: Point) -> int:
    """Sign of the cross product (a-o) x (b-o): +1 ccw, -1 cw, 0 collinear."""
    cross = (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)
    if cross > 0:
        return 1
    if cross < 0:
        return -1
    return 0


def _within_bbox(p: Point, a: Point, b: Point) -> bool:
    # Assumes p collinear with a-b; reduces to a coordinate range check.
    return (min(a.x, b.x) <= p.x <= max(a.x, b.x)
            and min(a.y, b.y) <= p.y <= max(a.y, b.y))


def segments_intersect(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    """True iff the closed segments p1-p2 and q1-q2 share at least one point.

    Endpoint and tangential contact count; collinear overlap counts.
    """
    d1 = orientation_sign(q1, q2, p1)
    d2 = orientation_sign(q1, q2, p2)
    d3 = orientation_sign(p1, p2, q1)
    d4 = orientation_sign(p1, p2, q2)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    if d1 == 0 and _within_bbox(p1, q1, q2):
        return True
    if d2 == 0 and _within_bbox(p2, q1, q2):
        return True
    if d3 == 0 and _within_bbox(q1, p1, p2):
        return True
    if d4 == 0 and _within_bbox(q2, p1, p2):
        return True
    return False


def polylines_intersect(p: Polyline, q: Polyline) -> bool:
    """True iff some segment of p meets some segment of q.

    Tests every segment pair; `intersection_graph` must agree with it on
    every pair of strings.
    """
    qsegs = q.segments()
    return any(segments_intersect(a, b, c, d)
               for a, b in p.segments() for c, d in qsegs)


def dist_sq(p: Point, q: Point) -> Coord:
    """Exact squared Euclidean distance between two points."""
    return (p.x - q.x) ** 2 + (p.y - q.y) ** 2


def interpolate(a: Point, b: Point, t: Fraction) -> Point:
    """The point a + t*(b - a), exact for rational t."""
    return Point(exact_coord(a.x + t * (b.x - a.x)), exact_coord(a.y + t * (b.y - a.y)))


def point_segment_dist_sq(p: Point, a: Point, b: Point) -> Coord:
    """Exact squared distance from p to the closed segment a-b."""
    abx = b.x - a.x
    aby = b.y - a.y
    apx = p.x - a.x
    apy = p.y - a.y
    denom = abx * abx + aby * aby
    if denom == 0:
        return apx * apx + apy * apy
    t = Fraction(apx * abx + apy * aby, denom)
    if t <= 0:
        return apx * apx + apy * apy
    if t >= 1:
        return dist_sq(p, b)
    fx = apx - t * abx
    fy = apy - t * aby
    return exact_coord(fx * fx + fy * fy)


def segment_intersection_points(p1: Point, p2: Point, q1: Point, q2: Point) -> list[Point]:
    """All contact points of the closed segments p1-p2 and q1-q2, exactly.

    Returns [] when disjoint, one point for a crossing or touch, and the two
    overlap endpoints when collinear segments share more than a point.
    """
    d1 = orientation_sign(q1, q2, p1)
    d2 = orientation_sign(q1, q2, p2)
    d3 = orientation_sign(p1, p2, q1)
    d4 = orientation_sign(p1, p2, q2)
    if d1 == 0 and d2 == 0:
        # Same supporting line: intersect the two parameter intervals.
        def key(pt: Point):
            return (pt.x, pt.y)

        lo_p, hi_p = (p1, p2) if key(p1) <= key(p2) else (p2, p1)
        lo_q, hi_q = (q1, q2) if key(q1) <= key(q2) else (q2, q1)
        start = lo_p if key(lo_p) >= key(lo_q) else lo_q
        end = hi_p if key(hi_p) <= key(hi_q) else hi_q
        if key(start) > key(end):
            return []
        if start == end:
            return [start]
        return [start, end]
    if d1 * d2 < 0 and d3 * d4 < 0:
        rx = p2.x - p1.x
        ry = p2.y - p1.y
        sx = q2.x - q1.x
        sy = q2.y - q1.y
        t = Fraction((q1.x - p1.x) * sy - (q1.y - p1.y) * sx, rx * sy - ry * sx)
        return [interpolate(p1, p2, t)]
    out: list[Point] = []
    if d1 == 0 and _within_bbox(p1, q1, q2):
        out.append(p1)
    if d2 == 0 and _within_bbox(p2, q1, q2):
        out.append(p2)
    if d3 == 0 and _within_bbox(q1, p1, p2):
        out.append(q1)
    if d4 == 0 and _within_bbox(q2, p1, p2):
        out.append(q2)
    seen: list[Point] = []
    for pt in out:
        if pt not in seen:
            seen.append(pt)
    return seen


def intersection_graph(family: StringFamily) -> Graph:
    """Build the intersection graph: one vertex per string, an edge iff the curves meet.

    One sweep in x over the segments' closed bounding boxes: a segment is
    tested only against the active segments of other strings whose boxes
    reach its left x and overlap it in y, and only until the two strings are
    known to meet. A box is dropped once its right x lies strictly left of the
    sweep, so touching boxes stay; every candidate pair gets the exact
    `segments_intersect`, hence the same graph as testing every pair.
    """
    strings = family.strings
    if not strings:
        raise ValueError("cannot build the intersection graph of an empty family")
    boxes = []
    for i, s in enumerate(strings):
        for a, b in zip(s.points, s.points[1:]):
            x0, x1 = (a.x, b.x) if a.x <= b.x else (b.x, a.x)
            y0, y1 = (a.y, b.y) if a.y <= b.y else (b.y, a.y)
            boxes.append((x0, x1, y0, y1, i, a, b))
    boxes.sort(key=lambda box: box[0])
    adj = [0] * len(strings)
    active: list[tuple] = []
    for box in boxes:
        x0, _, y0, y1, i, a, b = box
        met = adj[i] | 1 << i
        kept = []
        for other in active:
            if other[1] < x0:
                continue
            kept.append(other)
            j = other[4]
            if (met >> j & 1 or other[3] < y0 or y1 < other[2]
                    or not segments_intersect(a, b, other[5], other[6])):
                continue
            met |= 1 << j
            adj[j] |= 1 << i
        adj[i] = met & ~(1 << i)
        kept.append(box)
        active = kept
    return Graph(tuple(adj))
