"""Seeded generators for string families and drawings.

Every generator is a pure function of its spec: the same kind, count, seed
and region always produce byte-identical output. Coordinates are integers,
which keeps the exact intersection predicates on machine-int arithmetic.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Union

from .errors import BadSpec
from .fileio import MAX_SEGMENTS, MAX_VERTICES
from .geometry import Point, Polyline, StringFamily, exact_coord
from .quasiplanar import DrawnEdge, Drawing

KINDS = ("random_segments", "random_polylines", "convex_chords",
         "grid_paths", "disjoint_segments", "all_crossing_segments")
# The kinds that generate a StringFamily; convex_chords generates a Drawing.
FAMILY_KINDS = tuple(kind for kind in KINDS if kind != "convex_chords")

# Mean segment length is this factor times region_size / sqrt(count), which
# keeps the expected number of crossings per string roughly constant as the
# family grows; 3.6 keeps median graphs connected enough that heuristic
# separator sizes scale like sqrt(m) over the 50..400 range.
_SEGMENT_LENGTH_FACTOR = 3.6

_MAX_CONVEX = 64
# The generators place points with float arithmetic, which holds every
# integer of at most this magnitude exactly.
_MAX_REGION = 2 ** 53


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    count: int
    seed: int = 0
    region: tuple[int, int, int, int] = (0, 0, 1_000_000, 1_000_000)
    bends: int = 2

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise BadSpec(f"unknown generator kind {self.kind!r}; choose from {KINDS}")
        if not isinstance(self.count, int) or self.count < 1:
            raise BadSpec("count must be a positive integer")
        if not isinstance(self.seed, int):
            raise BadSpec("seed must be an integer")
        region = tuple(self.region)
        object.__setattr__(self, "region", region)
        if len(region) != 4 or not all(isinstance(c, int) for c in region):
            raise BadSpec("region must be four integers (xmin, ymin, xmax, ymax)")
        if any(abs(c) > _MAX_REGION for c in region):
            raise BadSpec("region coordinates must lie within -2^53..2^53")
        xmin, ymin, xmax, ymax = region
        if xmax - xmin < 8 or ymax - ymin < 8:
            raise BadSpec("region must span at least 8 units in each direction")
        if not isinstance(self.bends, int) or self.bends < 0:
            raise BadSpec("bends must be a non-negative integer")
        if self.kind == "convex_chords" and self.count > _MAX_CONVEX:
            raise BadSpec(f"convex_chords supports at most {_MAX_CONVEX} vertices")
        # The count cap above keeps a convex_chords drawing far below this.
        per_string = {"random_polylines": self.bends + 1, "grid_paths": 4}.get(self.kind, 1)
        if self.count * per_string > MAX_SEGMENTS:
            raise BadSpec(f"family would have {self.count * per_string} segments, "
                          f"above the {MAX_SEGMENTS} cap")
        if self.count > MAX_VERTICES:
            raise BadSpec(f"count {self.count} is above the {MAX_VERTICES} vertex cap")


def generate(spec: GeneratorSpec) -> Union[StringFamily, Drawing]:
    """Build the family (or, for convex_chords, the drawing) described by spec."""
    return _DISPATCH[spec.kind](spec)


def _sizes(spec: GeneratorSpec) -> tuple[int, int, int, int, int, int]:
    xmin, ymin, xmax, ymax = spec.region
    return xmin, ymin, xmax, ymax, xmax - xmin, ymax - ymin


def _segment_length(spec: GeneratorSpec) -> int:
    _, _, _, _, w, h = _sizes(spec)
    side = min(w, h)
    raw = int(_SEGMENT_LENGTH_FACTOR * side / math.sqrt(spec.count))
    return max(4, min(raw, side // 2))


def _random_segments(spec: GeneratorSpec) -> StringFamily:
    rng = random.Random(spec.seed)
    xmin, ymin, xmax, ymax, _, _ = _sizes(spec)
    length = _segment_length(spec)
    strings = []
    for i in range(spec.count):
        for _ in range(1000):
            x = rng.randint(xmin, xmax)
            y = rng.randint(ymin, ymax)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            dx = int(round(length * math.cos(theta)))
            dy = int(round(length * math.sin(theta)))
            if (dx, dy) == (0, 0):
                continue
            if xmin <= x + dx <= xmax and ymin <= y + dy <= ymax:
                strings.append(Polyline.of_exact(f"s{i}", (Point(x, y), Point(x + dx, y + dy))))
                break
        else:
            raise BadSpec("region too small to place the requested segments")
    return StringFamily(tuple(strings))


def _random_polylines(spec: GeneratorSpec) -> StringFamily:
    rng = random.Random(spec.seed)
    xmin, ymin, xmax, ymax, _, _ = _sizes(spec)
    segs = spec.bends + 1
    step = max(3, _segment_length(spec) // segs)
    strings = []
    for i in range(spec.count):
        x = rng.randint(xmin, xmax)
        y = rng.randint(ymin, ymax)
        heading = rng.uniform(0.0, 2.0 * math.pi)
        pts = [Point(x, y)]
        for _ in range(segs):
            heading += rng.uniform(-1.2, 1.2)
            d = step * rng.uniform(0.7, 1.3)
            nx = min(max(x + int(round(d * math.cos(heading))), xmin), xmax)
            ny = min(max(y + int(round(d * math.sin(heading))), ymin), ymax)
            if (nx, ny) == (x, y):
                nx = nx + 1 if nx < xmax else nx - 1
            x, y = nx, ny
            pts.append(Point(x, y))
        strings.append(Polyline.of_exact(f"s{i}", tuple(pts)))
    return StringFamily(tuple(strings))


def _convex_chords(spec: GeneratorSpec) -> Drawing:
    """Straight-line drawing of the complete graph on count points of a circle.

    Points are exact rationals on the circle via the half-angle substitution,
    so convex position is exact: chords cross iff their endpoints interleave,
    and no crossing can coincide with a vertex (a line meets a circle twice).
    """
    rng = random.Random(spec.seed)
    n = spec.count
    xmin, ymin, xmax, ymax, w, h = _sizes(spec)
    cx = (xmin + xmax) // 2
    cy = (ymin + ymax) // 2
    radius = max(2, int(0.45 * min(w, h)))
    scale = 10 ** 6
    ts = []
    for i in range(n):
        theta = 2.0 * math.pi * (i + 0.5 + 0.25 * rng.uniform(-1.0, 1.0)) / n - math.pi
        ts.append(Fraction(round(math.tan(theta / 2.0) * scale), scale))
    if len(set(ts)) != n:
        raise BadSpec("convex point construction collided; try another seed")
    verts = []
    for t in ts:
        denom = 1 + t * t
        verts.append(Point(exact_coord(cx + radius * (1 - t * t) / denom),
                           exact_coord(cy + radius * 2 * t / denom)))
    edges = []
    for u, v in combinations(range(n), 2):
        edges.append(DrawnEdge(u, v, Polyline.of_exact(f"e{len(edges)}", (verts[u], verts[v]))))
    return Drawing(tuple(verts), tuple(edges))


def _grid_paths(spec: GeneratorSpec) -> StringFamily:
    xmin, ymin, xmax, ymax, w, h = _sizes(spec)
    k = math.isqrt(spec.count - 1) + 1
    g = min(100, w // (k + 2), h // (k + 2))
    if g < 5:
        raise BadSpec("region too small for the requested grid")
    arm = (3 * g) // 5
    strings = []
    for i in range(spec.count):
        r, c = divmod(i, k)
        x = xmin + g * (c + 1)
        y = ymin + g * (r + 1)
        pts = (Point(x - arm, y), Point(x + arm, y), Point(x, y),
               Point(x, y - arm), Point(x, y + arm))
        strings.append(Polyline.of_exact(f"s{i}", pts))
    return StringFamily(tuple(strings))


def _disjoint_segments(spec: GeneratorSpec) -> StringFamily:
    xmin, ymin, xmax, ymax, w, h = _sizes(spec)
    gap = (h - 2) // max(1, spec.count - 1) if spec.count > 1 else 0
    if spec.count > 1 and gap < 1:
        raise BadSpec("region too small to separate the requested segments")
    strings = []
    for i in range(spec.count):
        y = ymin + 1 + i * gap
        strings.append(Polyline.of_exact(f"s{i}", (Point(xmin + 1, y), Point(xmax - 1, y))))
    return StringFamily(tuple(strings))


def _all_crossing_segments(spec: GeneratorSpec) -> StringFamily:
    """Near-diameter segments through one common center, so all pairs cross."""
    rng = random.Random(spec.seed)
    n = spec.count
    xmin, ymin, xmax, ymax, w, h = _sizes(spec)
    cx = (xmin + xmax) // 2
    cy = (ymin + ymax) // 2
    length = max(2, int(0.45 * min(w, h)))
    strings = []
    for i in range(n):
        theta = math.pi * (i + 0.3 + 0.4 * rng.random()) / n
        dx = int(round(length * math.cos(theta)))
        dy = int(round(length * math.sin(theta)))
        if (dx, dy) == (0, 0):
            dx = 1
        strings.append(Polyline.of_exact(
            f"s{i}", (Point(cx - dx, cy - dy), Point(cx + dx, cy + dy))))
    return StringFamily(tuple(strings))


_DISPATCH = {
    "random_segments": _random_segments,
    "random_polylines": _random_polylines,
    "convex_chords": _convex_chords,
    "grid_paths": _grid_paths,
    "disjoint_segments": _disjoint_segments,
    "all_crossing_segments": _all_crossing_segments,
}
