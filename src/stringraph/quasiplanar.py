"""Crossing graphs of graph drawings and quasiplanarity certificates.

A drawing maps vertices to distinct points and edges to curves joining their
endpoint points. Two edges cross iff their curves share a point that is not
an endpoint they share. `crossing_graph` decides this on the uncut curves:
one sweep of `geometry`'s intersection graph tests every pair of edges that
share no vertex. A drawing with a vertex on a curve that does not end there
is refused, and that refusal settles the pairs that share a vertex and are
both straight: they never cross. A shared pair with a bend is re-checked
exactly, with the shared point left out.

`truncate_edges` cuts every curve just outside small disks around its two
endpoints, at a radius derived from the drawing's own clearances. It is a
cut-curve utility that no command uses: the intersection graph of the cut
curves is the crossing graph except where two curves pass back through
their shared vertex, whose contact there the cut keeps. All computations run
on exact rationals.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import DegenerateDrawing, DomainError, PreconditionViolated, finite_value
from .extract import DEFAULT_PARAMS, AlgorithmParams, ExtractionWitness, q_independent_set
from .geometry import (Homogeneous, Point, Polyline, RationalSegment, StringFamily, _between,
                       _sweep, exact_coord, exact_points, homogeneous, homogeneous_dist_sq,
                       line_through, rational_contact_points,
                       rational_point_segment_dist_sq, side)
from .graph import Graph, bits, find_clique


@dataclass(frozen=True)
class DrawnEdge:
    u: int
    v: int
    curve: Polyline


@dataclass(frozen=True)
class Drawing:
    """Vertex points plus one curve per edge of a simple abstract graph.

    Vertex points are pairwise distinct; each curve runs from its first
    endpoint's point to its second's; loops and repeated unordered pairs are
    rejected.
    """

    vertices: tuple[Point, ...]
    edges: tuple[DrawnEdge, ...]

    def __post_init__(self) -> None:
        verts = exact_points(self.vertices)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", tuple(self.edges))
        if len({(x.as_integer_ratio(), y.as_integer_ratio()) for x, y in verts}) != len(verts):
            raise ValueError("vertex points must be pairwise distinct")
        seen: set[frozenset] = set()
        for k, e in enumerate(self.edges):
            if not (0 <= e.u < len(verts) and 0 <= e.v < len(verts)):
                raise ValueError(f"edge {k} references a missing vertex")
            if e.u == e.v:
                raise ValueError(f"edge {k} is a loop")
            pair = frozenset((e.u, e.v))
            if pair in seen:
                raise ValueError(f"edge {k} repeats the pair ({e.u}, {e.v})")
            seen.add(pair)
            if e.curve.points[0] != verts[e.u] or e.curve.points[-1] != verts[e.v]:
                raise ValueError(f"curve of edge {k} does not join its endpoint points")

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)


def _curve_triples(edges, hverts) -> list[list[Homogeneous]]:
    """Each edge's curve as homogeneous triples, one per point: a curve's
    ends take their vertices' triples, hverts[u] and hverts[v]."""
    # Drawing checked that each curve starts and ends at its endpoints' points.
    return [[hverts[e.u], *map(homogeneous, e.curve.points[1:-1]), hverts[e.v]]
            for e in edges]


def _rational_curves(edges, hcurves: list) -> list[list[RationalSegment]]:
    """Each edge's curve as RationalSegments, on the triples hcurves[k][i]
    of point i of edge k."""
    return [[RationalSegment(a, b, ha, hb, line_through(ha, hb))
             for a, b, ha, hb in zip(pts, pts[1:], hpts, hpts[1:])]
            for pts, hpts in zip((e.curve.points for e in edges), hcurves)]


def _refuse_vertex_on_curve(drawing: Drawing, hverts: list, curves: list) -> None:
    """Raise DegenerateDrawing for a vertex on a curve that does not end
    there, the first one found over vertices, then edges, then segments."""
    for w, hw in enumerate(hverts):
        x, y, z = hw
        for e, segs in zip(drawing.edges, curves):
            if w == e.u or w == e.v:
                continue
            for _, _, ha, hb, (a, b, c) in segs:  # side(line, hw) inline
                if not a * x + b * y + c * z and _between(hw, ha, hb):
                    raise DegenerateDrawing(
                        f"vertex {w} lies on the curve of edge ({e.u}, {e.v})")


def _meet_only_at(hw: Homogeneous, s: RationalSegment, t: RationalSegment) -> bool:
    """Whether s and t both end at the point hw and do not lie on one line,
    so that they meet there and nowhere else."""
    return ((hw == s.ha or hw == s.hb) and (hw == t.ha or hw == t.hb)
            and (side(s.line, t.ha) != 0 or side(s.line, t.hb) != 0))


def _meet_away(ci: list[RationalSegment], cj: list[RationalSegment],
               pw: Optional[Point], hw: Optional[Homogeneous]) -> bool:
    """Whether the curves ci and cj share a point other than pw, the point
    with triple hw; with pw and hw None, whether they meet at all. Tests
    every segment pair but those _meet_only_at skips."""
    for s in ci:
        for t in cj:
            if not _meet_only_at(hw, s, t) and any(
                    x != pw for x in rational_contact_points(s, t)):
                return True
    return False


def _auto_radius_sq(drawing: Drawing, hverts: list, hcurves: list) -> Fraction:
    """Exact square of the automatic truncation radius.

    The radius is half the smallest clearance, where clearances are: vertex
    to non-incident curve, vertex to any contact point of two distinct edges
    away from a shared endpoint, and half the distance between each edge's
    two endpoints. The last term keeps every curve strictly longer than four
    radii, so both cuts exist and leave a curve of positive length. Other
    vertex pairs need no term: the first clearance already keeps each disk
    off every curve that does not end at its center.

    Of the contact terms only those from a shared endpoint can set the
    minimum. A contact x lies on both curves, so for a vertex w that is not
    an endpoint of one of them, dist(w, x) is at least w's distance to that
    curve, which is a clearance of the first kind. Nor can a contact lie on
    another vertex's point: that vertex would lie on a curve that does not
    end there, which _refuse_vertex_on_curve refuses before any clearance
    is measured. Two segments that both end at the shared vertex's point and
    do not lie on one line meet only at that point, so such a pair is not
    measured (_meet_only_at). crossing_graph refuses and skips by the same
    two helpers.

    Distances and contacts go through the gcd-free kernel of `geometry`, on
    the triples truncate_edges derives once (hcurves[k][i] for point i of
    edge k). Each squared clearance is an unreduced integer pair, and the
    running minimum bn / bd is kept by cross multiplication, so the one
    Fraction is built at the end. truncate_edges asks only when there is an
    edge, so the endpoint term exists.
    """
    verts = drawing.vertices
    curves = _rational_curves(drawing.edges, hcurves)
    _refuse_vertex_on_curve(drawing, hverts, curves)
    bn, bd = 1, 0  # 1/0 stands for infinity: every n * 0 < 1 * d
    for e in drawing.edges:
        n, d = homogeneous_dist_sq(hverts[e.u], hverts[e.v])
        d *= 4
        if n * bd < bn * d:
            bn, bd = n, d
    for w, hw in enumerate(hverts):
        for e, segs in zip(drawing.edges, curves):
            if w == e.u or w == e.v:
                continue
            for seg in segs:
                n, d = rational_point_segment_dist_sq(hw, seg)
                if n * bd < bn * d:
                    bn, bd = n, d
    incident: list[list[list[RationalSegment]]] = [[] for _ in verts]
    for e, segs in zip(drawing.edges, curves):
        incident[e.u].append(segs)
        incident[e.v].append(segs)
    for pw, hw, at_w in zip(verts, hverts, incident):
        for ci, cj in itertools.combinations(at_w, 2):
            for s in ci:
                for t in cj:
                    if _meet_only_at(hw, s, t):
                        continue
                    for x in rational_contact_points(s, t):
                        if x != pw:
                            n, d = homogeneous_dist_sq(hw, homogeneous(x))
                            if n * bd < bn * d:
                                bn, bd = n, d
    return Fraction(bn, 4 * bd)


def _first_exit(hpts: list[Homogeneous], center: Homogeneous, rho_sq: Fraction,
                edge_index: int) -> tuple[int, Point]:
    """First point along a curve leaving the open disk around center.

    hpts are the curve's points in `geometry.homogeneous` form. Returns
    (segment index, point) with the point's distance d satisfying
    rho <= d < 1.5 * rho, found by dyadic bisection. Squared distance is
    convex along a segment, so a segment with both endpoints inside the disk
    lies wholly inside and can be skipped.

    Along a-b the squared distance to center is |u + t v|^2, with u = a -
    center and v = b - a as integer numerators over one denominator d, so
    rd * 4^e * dist^2 at t = m / 2^e is the integer s(m, e) below, and each
    test of the bisection compares it with rn * d^2 * 4^e, for
    rho_sq = rn / rd. A step that keeps hi at t = hi / 2^e knows s there
    already, as s(2 hi, e + 1) = 4 s(hi, e), so s is evaluated once per
    step. The point is built once, at the parameter t = hi / 2^e found, from
    the same numerators: each coordinate is
    (xa wb (2^e - hi) + xb wa hi) / (wa wb 2^e), one Fraction and so one gcd,
    normalized to int when integral as `exact_coord` does.
    """
    xc, yc, wc = center
    rn, rd = rho_sq.numerator, rho_sq.denominator
    for k in range(len(hpts) - 1):
        (xa, ya, wa), (xb, yb, wb) = hpts[k], hpts[k + 1]
        ux, uy = (xa * wc - xc * wa) * wb, (ya * wc - yc * wa) * wb
        vx, vy = (xb * wa - xa * wb) * wc, (yb * wa - ya * wb) * wc
        d = wa * wb * wc
        a2 = rd * (vx * vx + vy * vy)
        a1 = 2 * rd * (ux * vx + uy * vy)
        a0 = rd * (ux * ux + uy * uy)
        rho = rn * d * d

        def s(m: int, e: int) -> int:
            return a2 * m * m + (a1 * m << e) + (a0 << 2 * e)

        s_hi = s(1, 0)
        if s_hi < rho:
            continue
        lo, hi, e = 0, 1, 0
        while 4 * s_hi >= 9 * rho << 2 * e:
            mid = lo + hi
            lo, hi, e = lo << 1, hi << 1, e + 1
            s_mid = s(mid, e)
            if s_mid >= rho << 2 * e:
                hi, s_hi = mid, s_mid
            else:
                lo, s_hi = mid, 4 * s_hi
            if e > 512:
                raise DegenerateDrawing("truncation cut search did not converge")
        fa, fb, w = wb * ((1 << e) - hi), wa * hi, wa * wb << e
        return k, Point(exact_coord(Fraction(xa * fa + xb * fb, w)),
                        exact_coord(Fraction(ya * fa + yb * fb, w)))
    raise DegenerateDrawing(
        f"edge {edge_index} never leaves its endpoint disk, which the automatic "
        "radius rules out")


def truncate_edges(drawing: Drawing) -> StringFamily:
    """Clip every edge curve to the part outside its two endpoint disks of
    the automatic radius rho. Returns one string per edge, labeled
    e0..e{m-1} in edge order.

    Every cut curve keeps two distinct points. The curve before the cut near
    u lies within 1.5 rho of u: _first_exit skips only segments inside the
    disk, and the bisected piece has both ends within 1.5 rho, squared
    distance being convex along a segment. Likewise after the cut near v. If
    the cuts met, crossed or coincided, a point within 1.5 rho of both u and
    v would give |uv| < 3 rho, but the vertex clearance gives rho <= |uv| / 4.
    """
    if drawing.m == 0:
        return StringFamily(())
    hverts = [homogeneous(p) for p in drawing.vertices]
    hcurves = _curve_triples(drawing.edges, hverts)
    rho_sq = _auto_radius_sq(drawing, hverts, hcurves)
    strings = []
    for k, (e, hpts) in enumerate(zip(drawing.edges, hcurves)):
        pts = e.curve.points
        ku, pu = _first_exit(hpts, hverts[e.u], rho_sq, k)
        kr, pv = _first_exit(hpts[::-1], hverts[e.v], rho_sq, k)
        mid = [pu] + list(pts[ku + 1:len(pts) - 1 - kr]) + [pv]
        # A cut at parameter 1 repeats the next bend.
        out = [p for p, prev in zip(mid, [None, *mid]) if p != prev]
        strings.append(Polyline.of_exact(f"e{k}", tuple(out)))
    return StringFamily(tuple(strings))


def check_r(r: int) -> None:
    """Refuse r < 2: r-quasiplanarity asks about r pairwise crossing edges."""
    if r < 2:
        raise ValueError("r must be at least 2")


def check_s(s: int) -> None:
    """Refuse s < 3: the 2^s-quasiplanar results start at s = 3."""
    if s < 3:
        raise ValueError("s must be at least 3")


def crossing_graph(drawing: Drawing) -> Graph:
    """Graph on the drawing's edges, adjacent iff they cross: their curves
    share a point that is not an endpoint they share.

    A vertex on a curve that does not end there raises DegenerateDrawing,
    the first one found over vertices, then edges, then segments. Then one
    sweep of `intersection_graph` runs on the uncut curves with its
    adjacency seeded by the pairs of edges that share a vertex, so it tests
    only the pairs that share none, where any common point is a crossing.
    The sweep takes the homogeneous triples derived here for the refusal,
    one per vertex and one per interior bend, and derives none itself.
    The seeded pairs are taken out again. A pair where either curve has a
    bend is re-checked exactly, segment pair by segment pair, with the
    shared point w left out; a segment pair that both end there and do not
    lie on one line is skipped, since it meets only there.

    A pair of one-segment curves at w is not re-checked: it never crosses.
    Two segments leaving w meet away from w only if they run along the same
    ray. Then the nearer far endpoint, a vertex, lies on the other curve,
    which does not end there, and the drawing was refused above; equal far
    endpoints would repeat a vertex pair, which Drawing refuses.
    """
    edges, verts = drawing.edges, drawing.vertices
    hverts = [homogeneous(p) for p in verts]
    hcurves = _curve_triples(edges, hverts)
    curves = _rational_curves(edges, hcurves)
    _refuse_vertex_on_curve(drawing, hverts, curves)
    at = [0] * drawing.n   # the edges at each vertex, as a mask
    for k, e in enumerate(edges):
        at[e.u] |= 1 << k
        at[e.v] |= 1 << k
    shared = [(at[e.u] | at[e.v]) & ~(1 << k) for k, e in enumerate(edges)]
    adj = _sweep(tuple(e.curve for e in edges), list(shared), itertools.chain(*hcurves))
    adj = [a & ~s for a, s in zip(adj, shared)]
    bent = sum(1 << k for k, c in enumerate(curves) if len(c) > 1)
    for pw, hw, mask in zip(verts, hverts, at):
        for i in bits(mask & bent):  # each pair at w with a bent curve, once
            mask &= ~(1 << i)
            for j in bits(mask):
                if _meet_away(curves[i], curves[j], pw, hw):
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
    return Graph(tuple(adj))


def edges_cross(drawing: Drawing, i: int, j: int) -> bool:
    """Whether edges i and j of a drawing cross, by testing every segment
    pair of their uncut curves exactly: crossing_graph's test without the
    sweep, which verifiers use to re-check a witness. Assumes the drawing
    is not degenerate, as crossing_graph has checked."""
    e, f = drawing.edges[i], drawing.edges[j]
    hverts = {w: homogeneous(drawing.vertices[w]) for w in (e.u, e.v, f.u, f.v)}
    ci, cj = _rational_curves((e, f), _curve_triples((e, f), hverts))
    shared = {e.u, e.v} & {f.u, f.v}
    if not shared:
        return _meet_away(ci, cj, None, None)
    (w,) = shared
    return _meet_away(ci, cj, drawing.vertices[w], hverts[w])


def is_r_quasiplanar(crossings: Graph, r: int) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Whether no r edges of a drawing pairwise cross; if some do, also
    return r edge indices.

    `crossings` is `crossing_graph(drawing)`, so vertex i is edge i.
    """
    check_r(r)
    witness = find_clique(crossings, r)
    return witness is None, witness


def sparse_subgraph(crossings: Graph, s: int,
                    params: AlgorithmParams = DEFAULT_PARAMS) -> ExtractionWitness:
    """Extract an edge subset whose restriction is 4-quasiplanar.

    `crossings` is `crossing_graph(drawing)`. The drawing must be
    2^s-quasiplanar (verified; violations raise PreconditionViolated carrying
    2^s pairwise crossing edges). The witness vertices are edge indices;
    q_independent_set's own validation has checked that no 4 of them
    pairwise cross before it returns.
    """
    check_s(s)
    try:
        inner = q_independent_set(crossings, s, 2, params)
    except PreconditionViolated as exc:
        raise PreconditionViolated(
            f"drawing is not {2 ** s}-quasiplanar", witness=exc.witness) from exc
    cert = dict(inner.certificate)
    cert["edges_total"] = crossings.n
    cert["four_quasiplanar"] = True
    return ExtractionWitness("q_independent", inner.vertices, cert)


def edge_bound(n: int, s: int, C: float = 1.0) -> float:
    """Upper bound n * (C * log2(n) / s)^(2s-4) on the edge count of any
    n-vertex graph admitting a 2^s-quasiplanar drawing."""
    check_s(s)
    if C <= 0:
        raise ValueError("C must be strictly positive")
    if not C < math.inf:  # NaN or infinity; a huge int still overflows below
        raise ValueError("C must be finite")
    if n >> s < 1:
        # n < 2^s, tested without building 2^s, which a large s makes huge.
        power = 2 ** s if s <= 64 else f"2^{s}"
        raise DomainError(f"bound needs n >= 2^s = {power}, got n = {n}")
    return finite_value(lambda: n * (C * math.log2(n) / s) ** (2 * s - 4), "edge bound")


def edge_bound_holds(n: int, m: int, s: int, C: float = 1.0) -> bool:
    """Whether an edge count m is within edge_bound(n, s, C)."""
    if m < 0:
        raise ValueError("edge count cannot be negative")
    return m <= edge_bound(n, s, C)


def dense_threshold(n: int, epsilon: float) -> float:
    """Edge count 3 * n^(1+epsilon) beyond which, for large enough n, every
    drawing has many pairwise crossing edges."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if epsilon <= 0:
        raise ValueError("epsilon must be strictly positive")
    if not epsilon < math.inf:
        raise ValueError("epsilon must be finite")
    return finite_value(lambda: 3.0 * n ** (1.0 + epsilon), "dense threshold")
