"""Exact references the tests compare the library against.

Each one computes its answer the plain way, on `Fraction` arithmetic or by
the combinatorial rule, so that a faster path in the library can be checked
against it. No library code calls them.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from stringraph.errors import ParseError, SchemaError
from stringraph.fileio import MAX_VERTICES
from stringraph.geometry import (Coord, Point, _overlap, _within_bbox, dist_sq,
                                 exact_coord, interpolate, orientation_sign,
                                 polylines_intersect)
from stringraph.graph import Graph, bits
from stringraph.separator import SeparatorPartition, find_balanced_separator


def point_segment_dist_sq(p: Point, a: Point, b: Point) -> Coord:
    """Exact squared distance from p to the closed segment a-b.

    The reference for `geometry.rational_point_segment_dist_sq`."""
    abx = b.x - a.x
    aby = b.y - a.y
    apx = p.x - a.x
    apy = p.y - a.y
    denom = abx * abx + aby * aby
    if denom == 0:
        return exact_coord(apx * apx + apy * apy)
    t = Fraction(apx * abx + apy * aby, denom)
    if t <= 0:
        return exact_coord(apx * apx + apy * apy)
    if t >= 1:
        return exact_coord(dist_sq(p, b))
    fx = apx - t * abx
    fy = apy - t * aby
    return exact_coord(fx * fx + fy * fy)


def segment_intersection_points(p1: Point, p2: Point, q1: Point, q2: Point) -> list[Point]:
    """All contact points of the closed segments p1-p2 and q1-q2, exactly.

    Returns [] when disjoint, one point for a crossing or touch, and the two
    overlap endpoints when collinear segments share more than a point. The
    reference for `geometry.rational_contact_points`.
    """
    d1 = orientation_sign(q1, q2, p1)
    d2 = orientation_sign(q1, q2, p2)
    d3 = orientation_sign(p1, p2, q1)
    d4 = orientation_sign(p1, p2, q2)
    if d1 == 0 and d2 == 0:
        return _overlap(p1, p2, q1, q2)
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


def convex_interleaving_graph(n: int) -> Graph:
    """Crossing pattern of the straight-line complete graph on n points in
    convex position: one vertex per chord in pair order, adjacent iff the
    chords' endpoints interleave around the circle."""
    if n < 1:
        raise ValueError("n must be at least 1")
    chords = list(itertools.combinations(range(n), 2))
    edges = []
    for i, (a, b) in enumerate(chords):
        for j in range(i + 1, len(chords)):
            c, d = chords[j]
            if a < c < b < d or c < a < d < b:
                edges.append((i, j))
    return Graph.from_edges(len(chords), edges)


def auto_separator_reference(G: Graph, mask: int) -> SeparatorPartition:
    """The `auto` separator as two full searches: `exact` up to 14 vertices,
    and above that both `bfs_layer` and `degree_peel`, keeping the smaller
    S, ties to `bfs_layer`. The reference for the seeded `auto` search."""
    if mask.bit_count() <= 14:
        return find_balanced_separator(G, "exact", mask)
    a = find_balanced_separator(G, "bfs_layer", mask)
    b = find_balanced_separator(G, "degree_peel", mask)
    return a if len(a.S) <= len(b.S) else b


def crossing_graph_reference(drawing) -> Graph:
    """Crossing graph of a drawing without truncation: one vertex per edge,
    adjacent iff some segment of one curve and some segment of the other
    have a contact point that is not an endpoint the two edges share. The
    reference for `quasiplanar.crossing_graph`."""
    edges = drawing.edges
    pairs = []
    for i, j in itertools.combinations(range(len(edges)), 2):
        e, f = edges[i], edges[j]
        shared = {drawing.vertices[w] for w in {e.u, e.v} & {f.u, f.v}}
        if any(x not in shared
               for a, b in e.curve.segments() for c, d in f.curve.segments()
               for x in segment_intersection_points(a, b, c, d)):
            pairs.append((i, j))
    return Graph.from_edges(len(edges), pairs)


def intersection_graph_reference(family) -> Graph:
    """Intersection graph of a family by testing every pair of strings with
    `polylines_intersect`, which tests every pair of their segments. The
    reference for `geometry.intersection_graph`."""
    strings = family.strings
    edges = [(i, j) for i, j in itertools.combinations(range(len(strings)), 2)
             if polylines_intersect(strings[i], strings[j])]
    return Graph.from_edges(len(strings), edges)


def _alpha_reference(adj: tuple[int, ...], mask: int, size: int, best: int) -> int:
    """max(best, size + alpha(mask)) by branching on the closed neighborhood
    of a minimum-degree vertex, with no reduction rule or component split."""
    cnt = mask.bit_count()
    if size + cnt <= best:
        return best
    if cnt == 0:
        return size
    vmin = -1
    dmin = cnt
    dmax = -1
    degsum = 0
    for v in bits(mask):
        d = (adj[v] & mask).bit_count()
        degsum += d
        if d < dmin:
            dmin, vmin = d, v
        if d > dmax:
            dmax = d
    if dmax <= 1:
        # residual is a matching plus isolated vertices
        return max(best, size + cnt - degsum // 2)
    for u in bits((adj[vmin] & mask) | (1 << vmin)):
        best = _alpha_reference(adj, mask & ~(adj[u] | (1 << u)), size + 1, best)
    return best


def max_independent_set_reference(G: Graph) -> tuple[int, ...]:
    """Lexicographically smallest maximum independent set: each vertex in
    index order is kept when the rest of the graph, without its closed
    neighborhood, still holds enough of the optimum. The reference for
    `oracles.max_independent_set_exact`."""
    adj = G.adj
    need = _alpha_reference(adj, G.full_mask, 0, 0)
    chosen: list[int] = []
    mask = G.full_mask
    for v in range(G.n):
        if need and mask >> v & 1:
            rest = mask & ~(adj[v] | (1 << v))
            if _alpha_reference(adj, rest, 0, need - 2) >= need - 1:
                chosen.append(v)
                mask = rest
                need -= 1
            else:
                mask &= ~(1 << v)
    return tuple(chosen)


def parse_graph_text_reference(text: str) -> Graph:
    """Read a graph file line by line: the reference for
    `fileio.parse_graph_text`, which reads graph_text's own layout in C-level
    passes. Same graph, or the same error type, message and line."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append((lineno, body))
    if not rows:
        raise ParseError("empty graph file", line=1)
    lineno, head = rows[0]
    parts = head.split()
    if len(parts) != 2:
        raise ParseError("header must be 'n m'", line=lineno)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ParseError("header must hold two integers", line=lineno) from exc
    if n < 0 or m < 0:
        raise SchemaError("vertex and edge counts cannot be negative")
    if n > MAX_VERTICES:
        raise SchemaError(f"graph has {n} vertices, above the {MAX_VERTICES} cap")
    if len(rows) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(rows) - 1}",
                         line=rows[-1][0])
    adj = [0] * n
    for lineno, body in rows[1:]:
        parts = body.split()
        if len(parts) != 2:
            raise ParseError("edge line must be 'u v'", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError("edge line must hold two integers", line=lineno) from exc
        if not (0 <= u < n and 0 <= v < n):
            raise SchemaError(f"edge ({u}, {v}) outside 0..{n - 1}")
        if u == v:
            raise SchemaError(f"self-loop at vertex {u}")
        if adj[u] >> v & 1:
            raise SchemaError(f"duplicate edge ({u}, {v})")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(tuple(adj))
