"""Exact references the tests compare the library against.

Each one computes its answer the plain way, on `Fraction` arithmetic or by
the combinatorial rule, so that a faster path in the library can be checked
against it. No library code calls them.
"""
from __future__ import annotations

import itertools
import json
from fractions import Fraction

from stringraph.errors import ParseError, SchemaError
from stringraph.fileio import MAX_SEGMENTS, MAX_VERTICES, _check_digits
from stringraph.geometry import (Coord, Point, Polyline, StringFamily, _overlap,
                                 _within_bbox, exact_coord, polylines_intersect)
from stringraph.graph import Graph, bits
from stringraph.quasiplanar import DrawnEdge, Drawing
from stringraph.separator import SeparatorPartition, find_balanced_separator


def orientation_sign(o: Point, a: Point, b: Point) -> int:
    """Sign of the cross product (a-o) x (b-o): +1 ccw, -1 cw, 0 collinear.

    The reference for `geometry.side` and for the signs inside
    `geometry.segments_intersect`."""
    cross = (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)
    if cross > 0:
        return 1
    if cross < 0:
        return -1
    return 0


def dist_sq(p: Point, q: Point) -> Coord:
    """Exact squared Euclidean distance between two points.

    The reference for `geometry.homogeneous_dist_sq`."""
    return (p.x - q.x) ** 2 + (p.y - q.y) ** 2


def interpolate(a: Point, b: Point, t: Fraction) -> Point:
    """The point a + t*(b - a), exact for rational t.

    The reference for the cut points of `quasiplanar._first_exit`."""
    return Point(exact_coord(a.x + t * (b.x - a.x)), exact_coord(a.y + t * (b.y - a.y)))


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


def most_adjacent_reference(G: Graph, among: int, into: int) -> int:
    """The vertex of among with the most neighbours in into, ties to the
    lowest index, as a max over a key. The reference for
    `graph.most_adjacent`."""
    return max(bits(among), key=lambda v: ((G.adj[v] & into).bit_count(), -v))


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


def coord_in_reference(value, where: str) -> Coord:
    """A file coordinate as an exact value, every string through Fraction's
    own parser: the reference for `fileio._coord_in`, whose `exact_coord`
    reads a plain "p/q" without it."""
    if isinstance(value, bool):
        raise SchemaError(f"{where}: coordinate cannot be a boolean")
    if isinstance(value, (int, float, Fraction)):
        try:
            return exact_coord(value)
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
    if isinstance(value, str):
        _check_digits(value)
        try:
            q = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"{where}: bad coordinate {value!r}") from exc
        return q.numerator if q.denominator == 1 else q
    raise SchemaError(f"{where}: unsupported coordinate type {type(value).__name__}")


def _point_reference(value, where: str) -> Point:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise SchemaError(f"{where}: a point must be a two-element array")
    return Point(coord_in_reference(value[0], where), coord_in_reference(value[1], where))


def _curve_reference(value, where: str) -> tuple[Point, ...]:
    if not isinstance(value, list) or len(value) < 2:
        raise SchemaError(f"{where}: need an array of at least 2 points")
    return tuple(_point_reference(p, f"{where}[{i}]") for i, p in enumerate(value))


def _check_segments_reference(curves: list, kind: str) -> None:
    segments = sum(len(c["points"]) - 1 for c in curves
                   if isinstance(c, dict) and isinstance(c.get("points"), list))
    if segments > MAX_SEGMENTS:
        raise SchemaError(f"{kind} has {segments} segments, above the {MAX_SEGMENTS} cap")


def family_from_obj_reference(obj) -> StringFamily:
    """Read a decoded family file point by point, every coordinate through
    `coord_in_reference` and every curve through the checked `Polyline`
    constructor: the reference for `fileio.family_from_obj`. Each place is
    read anew, however often its point recurs in the file. Same family, or
    the same error type, message and field."""
    if not isinstance(obj, dict) or not isinstance(obj.get("strings"), list):
        raise SchemaError("family file needs a top-level 'strings' array",
                          field="strings")
    if len(obj["strings"]) > MAX_VERTICES:
        raise SchemaError(f"family has {len(obj['strings'])} strings, "
                          f"above the {MAX_VERTICES} cap")
    _check_segments_reference(obj["strings"], "family")
    strings = []
    for i, raw in enumerate(obj["strings"]):
        where = f"strings[{i}]"
        if not isinstance(raw, dict):
            raise SchemaError(f"{where}: each string must be an object")
        sid = raw.get("id")
        if not isinstance(sid, str) or not sid:
            raise SchemaError(f"{where}: missing string id", field="id")
        try:
            strings.append(Polyline(sid, _curve_reference(raw.get("points"), where)))
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
    return StringFamily(tuple(strings))


def drawing_from_obj_reference(obj) -> Drawing:
    """Read a decoded drawing file as `family_from_obj_reference` reads a
    family: the reference for `fileio.drawing_from_obj`."""
    if not isinstance(obj, dict):
        raise SchemaError("drawing file must be a JSON object")
    if not isinstance(obj.get("vertices"), list):
        raise SchemaError("drawing file needs a 'vertices' array", field="vertices")
    if not isinstance(obj.get("edges"), list):
        raise SchemaError("drawing file needs an 'edges' array", field="edges")
    if len(obj["edges"]) > MAX_VERTICES:
        raise SchemaError(f"drawing has {len(obj['edges'])} edges, "
                          f"above the {MAX_VERTICES} cap")
    _check_segments_reference(obj["edges"], "drawing")
    verts = tuple(_point_reference(p, f"vertices[{i}]") for i, p in enumerate(obj["vertices"]))
    edges = []
    for k, raw in enumerate(obj["edges"]):
        where = f"edges[{k}]"
        if not isinstance(raw, dict):
            raise SchemaError(f"{where}: each edge must be an object")
        u, v = raw.get("u"), raw.get("v")
        if (not isinstance(u, int) or not isinstance(v, int)
                or isinstance(u, bool) or isinstance(v, bool)):
            raise SchemaError(f"{where}: u and v must be integers")
        try:
            curve = Polyline(f"e{k}", _curve_reference(raw.get("points"), where))
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
        edges.append(DrawnEdge(u, v, curve))
    try:
        return Drawing(verts, tuple(edges))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def bits_reference(mask: int):
    """Set bit positions of mask in increasing order, one lowest bit at a
    time. The reference for `graph.bits`."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _greedy_color_classes(G: Graph, cand: int) -> int:
    """Number of greedy color classes of G[cand]; an upper bound on its clique number."""
    classes: list[int] = []
    for v in bits_reference(cand):
        av = G.adj[v]
        for i, cls in enumerate(classes):
            if not (av & cls):
                classes[i] = cls | (1 << v)
                break
        else:
            classes.append(1 << v)
    return len(classes)


def clique_in_mask_reference(G: Graph, mask: int, k: int):
    """The first k-clique inside mask in index-order backtracking, pruned by
    one ascending greedy colouring of the candidates per node, or None. No
    node budget. The reference for `graph.clique_in_mask`."""
    if k <= 0:
        raise ValueError("clique size must be positive")
    if k > mask.bit_count():
        return None
    if k == 1:
        return ((mask & -mask).bit_length() - 1,)
    adj = G.adj

    def expand(current: list[int], cand: int):
        need = k - len(current)
        if need == 0:
            return tuple(current)
        if cand.bit_count() < need:
            return None
        if need >= 3 and _greedy_color_classes(G, cand) < need:
            return None
        rest = cand
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            if rest.bit_count() + 1 < need:
                return None
            current.append(v)
            got = expand(current, rest & adj[v])
            if got is not None:
                return got
            current.pop()
        return None

    return expand([], mask)


def _biclique_grow_reference(G: Graph, mask: int, u: int, v: int) -> tuple[int, int]:
    adj = G.adj
    amask = 1 << u
    bmask = 1 << v
    cand_a = adj[v] & mask & ~amask & ~bmask
    cand_b = adj[u] & mask & ~amask & ~bmask
    while cand_a or cand_b:
        grow_a = amask.bit_count() <= bmask.bit_count()
        if grow_a and not cand_a:
            grow_a = False
        if not grow_a and not cand_b:
            grow_a = True
        if grow_a:
            x = most_adjacent_reference(G, cand_a, cand_b)
            amask |= 1 << x
            cand_b &= adj[x]
        else:
            x = most_adjacent_reference(G, cand_b, cand_a)
            bmask |= 1 << x
            cand_a &= adj[x]
        cand_a &= ~(1 << x)
        cand_b &= ~(1 << x)
    return amask, bmask


def biclique_greedy_reference(G: Graph, mask: int) -> tuple[int, int]:
    """Sides (A, B) of the best biclique that greedy completion grows from
    at most about 120 evenly strided seed edges of G[mask], every seed grown
    to the end. The reference for `extract._biclique_greedy`."""
    adj = G.adj
    seeds = [(u, v) for u in bits_reference(mask)
             for v in bits_reference(adj[u] & mask >> u + 1 << u + 1)]
    if len(seeds) > 120:
        step = len(seeds) // 120
        seeds = seeds[::step]
    best_t = 0
    best = (0, 0)
    for u, v in seeds:
        amask, bmask = _biclique_grow_reference(G, mask, u, v)
        t = min(amask.bit_count(), bmask.bit_count())
        if t > best_t:
            best_t, best = t, (amask, bmask)
    return best


def _canonical(value):
    """value with tuples (a Point too) as lists and each Fraction as an int
    when integral, "p/q" otherwise; keys and other values pass through."""
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if type(value) is Fraction:
        return value.numerator if value.denominator == 1 else str(value)
    return value


def dumps_reference(obj) -> str:
    """The canonical form of obj written by json.dumps with sorted keys, plus
    a final newline. The reference for `fileio._dumps`."""
    return json.dumps(_canonical(obj), sort_keys=True) + "\n"
