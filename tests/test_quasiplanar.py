"""Edge truncation, crossing graphs and quasiplanarity checks."""

import json
import random
import re
import time
from fractions import Fraction
from itertools import combinations

import pytest

from stringraph import (DegenerateDrawing, DomainError, DrawnEdge, Drawing,
                        Point, Polyline, crossing_graph, dense_threshold,
                        edge_bound, edge_bound_holds, find_clique, is_r_quasiplanar,
                        geometry, q_independent_set, quasiplanar, sparse_subgraph,
                        truncate_edges)
from stringraph.cli import main
from stringraph.fileio import drawing_json
from stringraph.generators import GeneratorSpec, generate
from stringraph.geometry import homogeneous
from stringraph.graph import clique_in_mask, mask_of
from stringraph.oracles import pairwise_crossing_exact
from stringraph.quasiplanar import _auto_radius_sq, _first_exit
from tests.conftest import bent_convex_drawing, bent_grid_drawing, draw
from tests.reference import (convex_interleaving_graph, crossing_graph_reference,
                             dist_sq, interpolate, point_segment_dist_sq,
                             segment_intersection_points)


def test_drawing_validation():
    with pytest.raises(ValueError):
        draw([(0, 0), (0, 0)], [(0, 1)])
    with pytest.raises(ValueError):
        draw([(0, 0), (1, 0)], [(0, 0)])
    with pytest.raises(ValueError):
        draw([(0, 0), (1, 0)], [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Drawing((Point(0, 0), Point(1, 0)),
                (DrawnEdge(0, 1, Polyline("e0", (Point(0, 0), Point(2, 2)))),))


def test_two_disjoint_edges_do_not_cross():
    D = draw([(0, 0), (10, 0), (0, 5), (10, 5)], [(0, 1), (2, 3)])
    G = crossing_graph(D)
    assert (G.n, G.m) == (2, 0)
    assert is_r_quasiplanar(G, 2) == (True, None)


def test_single_crossing_detected():
    D = draw([(0, 0), (4, 4), (0, 4), (4, 0)], [(0, 1), (2, 3)])
    G = crossing_graph(D)
    assert G.edges() == [(0, 1)]
    ok, witness = is_r_quasiplanar(G, 2)
    assert not ok and witness == (0, 1)


def test_edges_sharing_a_vertex_do_not_cross():
    D = draw([(0, 0), (10, 0), (5, 8)], [(0, 1), (0, 2), (1, 2)])
    G = crossing_graph(D)
    assert G.m == 0


def test_bent_curves_cross():
    curves = [
        (Point(0, 0), Point(2, 5), Point(4, 0)),
        None,
    ]
    D = draw([(0, 0), (4, 0), (0, 3), (4, 3)], [(0, 1), (2, 3)], curves)
    G = crossing_graph(D)
    assert G.edges() == [(0, 1)]


def test_vertex_on_foreign_edge_is_degenerate():
    D = draw([(0, 0), (4, 0), (2, 0), (2, 3)], [(0, 1), (2, 3)])
    with pytest.raises(DegenerateDrawing):
        crossing_graph(D)


def test_truncation_keeps_curve_count_and_ids():
    D = generate(GeneratorSpec(kind="convex_chords", count=5, seed=2))
    fam = truncate_edges(D)
    assert len(fam) == D.m
    assert [s.id for s in fam.strings] == [f"e{k}" for k in range(D.m)]


@pytest.mark.parametrize("n", [4, 5, 6, 7, 10, 12, 14])
def test_convex_drawings_match_interleaving_graph(n):
    D = generate(GeneratorSpec(kind="convex_chords", count=n, seed=1))
    assert crossing_graph(D) == convex_interleaving_graph(n)


def test_convex_five_crossing_structure():
    G = convex_interleaving_graph(5)
    degs = sorted(G.degree(v) for v in range(G.n))
    # Five hull edges are crossing-free; the diagonals form a 5-cycle.
    assert degs == [0] * 5 + [2] * 5


def test_convex_six_quasiplanarity_levels():
    D = generate(GeneratorSpec(kind="convex_chords", count=6, seed=1))
    cg = crossing_graph(D)
    ok2, _ = is_r_quasiplanar(cg, 2)
    ok3, w3 = is_r_quasiplanar(cg, 3)
    ok4, w4 = is_r_quasiplanar(cg, 4)
    assert not ok2 and not ok3 and ok4
    assert w3 == (2, 7, 11) and w4 is None
    with pytest.raises(ValueError):
        is_r_quasiplanar(cg, 1)


def test_sparse_subgraph_keeps_planar_drawing_whole():
    D = draw([(0, 0), (10, 0), (0, 5), (10, 5)], [(0, 1), (2, 3)])
    w = sparse_subgraph(crossing_graph(D), 3)
    assert len(w.vertices) == 2
    assert w.certificate["four_quasiplanar"] is True


def test_sparse_subgraph_single_crossing_keeps_everything():
    D = draw([(0, 0), (4, 4), (0, 4), (4, 0), (8, 0), (9, 0)],
              [(0, 1), (2, 3), (4, 5)])
    w = sparse_subgraph(crossing_graph(D), 3)
    assert len(w.vertices) == 3


def test_sparse_subgraph_output_is_four_quasiplanar():
    for n in (6, 8):
        D = generate(GeneratorSpec(kind="convex_chords", count=n, seed=1))
        cg = crossing_graph(D)
        w = sparse_subgraph(cg, 3)
        assert clique_in_mask(cg, mask_of(w.vertices), 4) is None
        assert w.certificate["edges_total"] == cg.n
    with pytest.raises(ValueError):
        sparse_subgraph(crossing_graph(D), 2)


def test_empty_drawing_sparse_subgraph():
    D = Drawing((), ())
    cg = crossing_graph(D)
    w = sparse_subgraph(cg, 3)
    assert w.vertices == ()
    assert w.certificate == {**q_independent_set(cg, 3, 2).certificate,
                             "edges_total": 0, "four_quasiplanar": True}
    assert w.certificate["floor"] == 0


def test_edge_bound_values():
    assert edge_bound(256, 3, 1) == pytest.approx(256 * (8 / 3) ** 2, rel=1e-12)
    assert edge_bound(8, 3, 1) == pytest.approx(8 * 1.0, rel=1e-12)
    assert edge_bound_holds(256, 1820, 3, 1)
    assert not edge_bound_holds(256, 1821, 3, 1)
    with pytest.raises(DomainError):
        edge_bound(7, 3, 1)
    # 2^s is too large to build or print.
    with pytest.raises(DomainError, match=r"2\^s = 2\^20000, got n = 5"):
        edge_bound(5, 20000, 1)
    with pytest.raises(ValueError):
        edge_bound(256, 2, 1)
    with pytest.raises(ValueError):
        edge_bound(256, 3, 0)
    # Values beyond the float range: an overflowing power, an n with no
    # float value, a C with no float value.
    for n, s, C in ((300, 8, 1e300), (10 ** 400, 3, 1.0), (256, 3, 10 ** 400)):
        with pytest.raises(DomainError):
            edge_bound(n, s, C)
    # A non-finite C is refused before the formula runs.
    for C in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="^C must be finite$"):
            edge_bound(256, 3, C)


def test_dense_threshold():
    assert dense_threshold(16, 0.5) == pytest.approx(192.0)
    # n with no float value, n^1.5 beyond the float range, 3 * n^1.5 beyond it.
    for n in (10 ** 400, 10 ** 250, 2 * 10 ** 205):
        with pytest.raises(DomainError):
            dense_threshold(n, 0.5)
    for epsilon in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="^epsilon must be finite$"):
            dense_threshold(16, epsilon)


def test_interleaving_graph_matches_crossing_oracle():
    # Chords interleave exactly when the crossing pair is realizable.
    G = convex_interleaving_graph(6)
    chords = list(combinations(range(6), 2))
    for i, (a, b) in enumerate(chords):
        for j, (c, d) in enumerate(chords):
            if i < j and G.has_edge(i, j):
                inter = (a < c < b < d) or (c < a < d < b)
                assert inter
    assert find_clique(G, 3) is not None
    assert find_clique(G, 4) is None


def _radius_sq_all_terms(drawing):
    """The automatic radius with every contact of every edge pair measured
    from every vertex, as the clearance is defined."""
    verts = drawing.vertices
    terms = []
    for w, pw in enumerate(verts):
        for e in drawing.edges:
            if w in (e.u, e.v):
                continue
            for a, b in e.curve.segments():
                d2 = point_segment_dist_sq(pw, a, b)
                if d2 == 0:
                    raise DegenerateDrawing(
                        f"vertex {w} lies on the curve of edge ({e.u}, {e.v})")
                terms.append(Fraction(d2))
    for ei, ej in combinations(drawing.edges, 2):
        shared = {ei.u, ei.v} & {ej.u, ej.v}
        for a, b in ei.curve.segments():
            for c, d in ej.curve.segments():
                for x in segment_intersection_points(a, b, c, d):
                    if any(x == verts[t] for t in shared):
                        continue
                    if x in verts:
                        raise DegenerateDrawing(
                            f"edges ({ei.u}, {ei.v}) and ({ej.u}, {ej.v}) "
                            "meet at a vertex point")
                    terms.extend(Fraction(dist_sq(pw, x)) for pw in verts)
    terms.extend(Fraction(dist_sq(verts[e.u], verts[e.v]), 4) for e in drawing.edges)
    return min(terms) / 4


def _folded_back_drawing():
    """Edge 0 runs out along edge 1 and folds back through its own vertex, so
    two segments that both end at vertex 0 overlap on one line, with a
    contact at (1, 0) that sets the radius: rho^2 = 1/4, and the two edges
    cross. Skipping every segment pair that ends at the shared vertex would
    give 25/16 and lose the crossing."""
    return draw([(0, 0), (0, 5), (4, -5)], [(0, 1), (0, 2)],
                 [[Point(0, 0), Point(1, 0), Point(0, 0), Point(0, 5)],
                  [Point(0, 0), Point(4, 0), Point(4, -5)]])


def _radius_sq(drawing):
    """_auto_radius_sq given the homogeneous triples truncate_edges derives."""
    return _auto_radius_sq(drawing, [homogeneous(p) for p in drawing.vertices],
                           [[homogeneous(p) for p in e.curve.points] for e in drawing.edges])


def _radius_or_message(radius_sq, drawing):
    try:
        return radius_sq(drawing)
    except DegenerateDrawing as exc:
        return str(exc)


def test_auto_radius_matches_every_term():
    rng = random.Random(20211203)
    drawings = [generate(GeneratorSpec("convex_chords", n, seed=n)) for n in range(4, 13)]
    drawings += [bent_grid_drawing(rng) for _ in range(320)]
    drawings.append(_folded_back_drawing())
    outcomes = set()
    for D in drawings:
        if not D.m:
            continue  # truncate_edges never asks for an edgeless drawing's radius
        got = _radius_or_message(_radius_sq, D)
        assert got == _radius_or_message(_radius_sq_all_terms, D)
        outcomes.add(type(got))
    assert outcomes == {Fraction, str}


def test_crossing_graph_matches_uncut_reference():
    rng = random.Random(20211203)
    drawings = [generate(GeneratorSpec("convex_chords", n, seed=1)) for n in range(4, 13)]
    drawings += [bent_grid_drawing(rng) for _ in range(320)]
    drawings.append(_folded_back_drawing())
    checked = 0
    for D in drawings:
        try:
            got = crossing_graph(D)
        except DegenerateDrawing:
            continue
        assert got == crossing_graph_reference(D)
        checked += 1
    assert checked == 183


def _passes_back_drawing():
    """Both curves leave their shared vertex 0, come back through it and go
    on to their other ends, so they meet only at vertex 0's point and do
    not cross."""
    return draw([(0, 0), (10, 0), (0, 10)], [(0, 1), (0, 2)],
                 [[Point(0, 0), Point(5, 5), Point(0, 0), Point(10, 0)],
                  [Point(0, 0), Point(-5, 5), Point(0, 0), Point(0, 10)]])


def _first_clique(G, r):
    """The lexicographically first r vertices that are pairwise adjacent, or None."""
    return next((c for c in combinations(range(G.n), r)
                 if all(G.has_edge(a, b) for a, b in combinations(c, 2))), None)


def test_crossings_oracle_matches_uncut_reference():
    rng = random.Random(20211203)
    drawings = [generate(GeneratorSpec("convex_chords", n, seed=1)) for n in range(5, 10)]
    drawings += [bent_grid_drawing(rng) for _ in range(320)]
    drawings.append(_passes_back_drawing())
    refused = found = 0
    for D in drawings:
        try:
            crossing_graph(D)
        except DegenerateDrawing as exc:
            for r in (2, 3, 4):
                with pytest.raises(DegenerateDrawing) as got:
                    pairwise_crossing_exact(D, r)
                assert str(got.value) == str(exc)
            refused += 1
            continue
        reference = crossing_graph_reference(D)
        for r in (2, 3, 4):
            want = _first_clique(reference, r)
            assert pairwise_crossing_exact(D, r) == want
            found += want is not None
    # The 147 bent-grid drawings that the radius refuses, as above.
    assert (refused, found) == (147, 170)


def _disagreeing_bent_grid_drawings():
    rng = random.Random(20211203)
    drawings = [bent_grid_drawing(rng) for _ in range(1166)]
    return drawings[733], drawings[1165]


@pytest.mark.parametrize("which", [0, 1, 2])
def test_crossing_graph_where_curves_pass_back_through_a_shared_vertex(which):
    D = (_passes_back_drawing(), *_disagreeing_bent_grid_drawings())[which]
    assert crossing_graph(D) == crossing_graph_reference(D)


# Drawings whose only crossing question is a pair of edges that share a
# vertex, so the exact re-check alone decides it, with the crossing pairs.
SHARED_VERTEX_DRAWINGS = {
    # Edge 1 leaves vertex 0 along edge 0's ray and comes back through
    # vertex 0: its first two segments overlap edge 0 on one line from
    # (0, 0) to (2, 0), so the edges cross, and they meet nowhere else.
    "collinear-overlap": (([(0, 0), (4, 0), (0, 4)], [(0, 1), (0, 2)],
                           [None, [Point(0, 0), Point(2, 0), Point(0, 0), Point(0, 4)]]),
                          [(0, 1)]),
    # Edge 1's first segment meets edge 0 only at vertex 0; its second
    # crosses edge 0 at (2, 0).
    "later-segment": (([(0, 0), (4, 0), (0, 4)], [(0, 1), (0, 2)],
                       [None, [Point(0, 0), Point(2, -2), Point(2, 2), Point(0, 4)]]),
                      [(0, 1)]),
    # A straight triangle: each pair of chords meets only at its shared vertex.
    "straight-chords": (([(0, 0), (4, 0), (0, 4)], [(0, 1), (0, 2), (1, 2)], None), []),
}


@pytest.mark.parametrize("name", sorted(SHARED_VERTEX_DRAWINGS))
def test_shared_vertex_pairs_are_rechecked_exactly(name):
    (coords, pairs, curves), crossing = SHARED_VERTEX_DRAWINGS[name]
    D = draw(coords, pairs, curves)
    G = crossing_graph(D)
    assert G == crossing_graph_reference(D)
    assert G.edges() == crossing


def _lattice_drawing(rng):
    """Random straight-line drawing on a 5x5 lattice, where many vertices
    fall on other edges."""
    coords = rng.sample([(x, y) for x in range(5) for y in range(5)], rng.randint(3, 7))
    return draw(coords, [p for p in combinations(range(len(coords)), 2)
                         if rng.random() < 0.5])


def _vertex_on_edge_reference(D):
    """The message of the first vertex on a curve that does not end there,
    over vertices then edges, by exact point-segment distance; or None."""
    for w, p in enumerate(D.vertices):
        for e in D.edges:
            if w not in (e.u, e.v) and point_segment_dist_sq(
                    p, D.vertices[e.u], D.vertices[e.v]) == 0:
                return f"vertex {w} lies on the curve of edge ({e.u}, {e.v})"
    return None


def test_straight_drawings_need_no_shared_vertex_recheck():
    """crossing_graph does not re-check two straight edges that share a
    vertex. On random lattice drawings, each drawing is either refused for
    the vertex on an edge the reference finds, or matches the reference. A
    shared pair that the reference says crosses, two edges along one ray,
    comes only in refused drawings."""
    rng = random.Random(36)
    refused = checked = along_one_ray = 0
    for _ in range(600):
        D = _lattice_drawing(rng)
        reference = crossing_graph_reference(D)
        witness = _vertex_on_edge_reference(D)
        if witness is not None:
            with pytest.raises(DegenerateDrawing, match=rf"^{re.escape(witness)}$"):
                crossing_graph(D)
            refused += 1
            along_one_ray += any(
                reference.has_edge(i, j) for i, j in combinations(range(D.m), 2)
                if {D.edges[i].u, D.edges[i].v} & {D.edges[j].u, D.edges[j].v})
            continue
        assert crossing_graph(D) == reference
        checked += 1
    assert (refused, checked, along_one_ray) == (183, 417, 156)


def _shared_pairs_with_a_bend(D):
    """The pairs of edges that share a vertex where either curve has a bend."""
    return sum(1 for e, f in combinations(D.edges, 2)
               if {e.u, e.v} & {f.u, f.v}
               and max(len(e.curve.points), len(f.curve.points)) > 2)


def test_shared_vertex_recheck_only_where_a_curve_bends(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return meet_away(*args)

    meet_away = quasiplanar._meet_away
    monkeypatch.setattr(quasiplanar, "_meet_away", counted)
    drawings = [generate(GeneratorSpec("convex_chords", 10, seed=1)),
                _passes_back_drawing(), *_disagreeing_bent_grid_drawings()]
    drawings += [draw(*case) for case, _ in SHARED_VERTEX_DRAWINGS.values()]
    counts = []
    for D in drawings:
        calls.clear()
        assert crossing_graph(D) == crossing_graph_reference(D)
        assert len(calls) == _shared_pairs_with_a_bend(D)
        counts.append(len(calls))
    # Convex K_10's 360 shared pairs are all straight.
    assert counts == [0, 1, 13, 9, 1, 1, 0]


def test_qp_check_and_crossings_oracle_agree(tmp_path):
    """Both commands refuse the same drawings, with the same message, and
    otherwise both find r pairwise crossing edges or both find none."""
    rng = random.Random(20211203)
    drawings = [_passes_back_drawing(), *_disagreeing_bent_grid_drawings()]
    drawings += [bent_grid_drawing(rng) for _ in range(320)]
    path, out = tmp_path / "d.json", tmp_path / "report.json"

    def run(*argv):
        code = main([*argv, str(path), "-o", str(out)])
        return code, json.loads(out.read_text())["result"]

    outcomes = {}
    for D in drawings:
        path.write_text(drawing_json(D))
        for r in ("2", "3"):
            qp_code, qp = run("qp", "check", "--r", r)
            oracle_code, oracle = run("oracle", "crossings", "--r", r)
            assert qp_code == oracle_code
            if qp_code == 0:
                assert qp["quasiplanar"] is not oracle["found"]
            else:
                assert qp == oracle and qp["outcome"] == "DegenerateDrawing"
            key = (qp_code, qp.get("quasiplanar"))
            outcomes[key] = outcomes.get(key, 0) + 1
    # The 147 bent-grid drawings that the test above sees refused, at each r.
    assert outcomes == {(3, None): 294, (0, True): 204, (0, False): 148}


def test_truncation_derives_each_homogeneous_triple_once(monkeypatch):
    """One `homogeneous` call per vertex and per interior bend: a curve's
    ends take their vertices' triples, and the radius takes the triples
    truncate_edges derives. Convex chords meet nowhere but at shared
    vertices, so no contact point adds a call."""
    calls = 0
    real = quasiplanar.homogeneous

    def counting(p):
        nonlocal calls
        calls += 1
        return real(p)

    monkeypatch.setattr(quasiplanar, "homogeneous", counting)
    for n in (8, 9, 10):
        D = generate(GeneratorSpec("convex_chords", n, seed=n))
        calls = 0
        truncate_edges(D)
        assert calls == D.n + sum(len(e.curve.points) - 2 for e in D.edges)


def test_crossing_graph_derives_each_homogeneous_triple_once(monkeypatch):
    """One `homogeneous` call per vertex and per interior bend: the sweep
    takes the triples crossing_graph holds, where it derived one for every
    curve point again (64, 81 and 100 calls on convex K_8, K_9 and K_10)."""
    calls = 0
    real = quasiplanar.homogeneous

    def counting(p):
        nonlocal calls
        calls += 1
        return real(p)

    monkeypatch.setattr(quasiplanar, "homogeneous", counting)
    monkeypatch.setattr(geometry, "homogeneous", counting)
    drawings = [generate(GeneratorSpec("convex_chords", n, seed=n)) for n in (8, 9, 10)]
    for D in [*drawings, bent_convex_drawing(7, 2)]:
        calls = 0
        G = crossing_graph(D)
        assert calls == D.n + sum(len(e.curve.points) - 2 for e in D.edges)
        assert G == crossing_graph_reference(D)


def test_radius_of_many_vertices_and_one_edge_is_fast(tmp_path):
    # qp check tests each vertex against each curve that does not end
    # there, so 3000 vertices cost 3000 point-segment tests, not 4.5
    # million vertex pairs.
    coords = [(x, y) for x in range(60) for y in range(50)]
    obj = {"vertices": [list(p) for p in coords],
           "edges": [{"u": 0, "v": 1, "points": [[0, 0], [0, 1]]}]}
    path = tmp_path / "d.json"
    path.write_text(json.dumps(obj))
    start = time.perf_counter()
    assert main(["qp", "check", str(path), "--r", "2", "-o", str(tmp_path / "r.json")]) == 0
    assert time.perf_counter() - start < 2.0
    assert json.loads((tmp_path / "r.json").read_text())["result"]["quasiplanar"] is True


@pytest.mark.parametrize("coords", [(), ((0, 0), (1, 0))])
def test_drawings_without_edges_are_quasiplanar(coords):
    D = draw(coords, [])
    for r in (2, 3, 4):
        assert is_r_quasiplanar(crossing_graph(D), r) == (True, None)


def _first_exit_by_fractions(pts, center, rho_sq, edge_index):
    """The cut search on Fraction points: interpolate at every dyadic step
    and measure the point's squared distance."""
    limit = Fraction(9, 4) * rho_sq
    for k in range(len(pts) - 1):
        a, b = pts[k], pts[k + 1]
        if dist_sq(b, center) < rho_sq:
            continue
        lo, hi = Fraction(0), Fraction(1)
        point = interpolate(a, b, hi)
        guard = 0
        while dist_sq(point, center) >= limit:
            mid = (lo + hi) / 2
            if dist_sq(interpolate(a, b, mid), center) >= rho_sq:
                hi = mid
                point = interpolate(a, b, hi)
            else:
                lo = mid
            guard += 1
            if guard > 512:
                raise DegenerateDrawing("truncation cut search did not converge")
        return k, hi, point
    raise DegenerateDrawing(
        f"edge {edge_index} never leaves its endpoint disk, which the automatic "
        "radius rules out")


def _exit_or_message(search, *args):
    try:
        return search(*args)
    except DegenerateDrawing as exc:
        return str(exc)


@pytest.mark.parametrize("family", ["convex", "bent"])
def test_first_exit_matches_fraction_bisection(family):
    if family == "convex":
        drawings = [generate(GeneratorSpec("convex_chords", n, seed=n)) for n in range(4, 15)]
        radii = (1, 1000, 10 ** 5, 4 * 10 ** 5)
    else:
        rng = random.Random(20211203)
        drawings = [bent_grid_drawing(rng) for _ in range(320)]
        radii = (Fraction(1, 10), Fraction(1, 3), 1, 2)
    outcomes = set()
    for D in drawings:
        if not D.m:
            continue  # truncate_edges never asks for an edgeless drawing's radius
        rho_sqs = [Fraction(r) ** 2 for r in radii]
        try:
            rho_sqs.append(_radius_sq(D))
        except DegenerateDrawing:
            pass
        for rho_sq in rho_sqs:
            for k, e in enumerate(D.edges):
                pts = e.curve.points
                for path, center in ((pts, D.vertices[e.u]), (pts[::-1], D.vertices[e.v])):
                    hpts = [homogeneous(p) for p in path]
                    got = _exit_or_message(_first_exit, hpts, homogeneous(center), rho_sq, k)
                    want = _exit_or_message(_first_exit_by_fractions, path, center,
                                            rho_sq, k)
                    if isinstance(want, tuple):
                        want = want[0], want[2]  # the segment and the point
                    assert got == want
                    if isinstance(got, tuple):
                        # Fraction(2, 1) == 2, so the values alone would not
                        # show an integral coordinate left as a Fraction.
                        assert type(got[1].x) is type(want[1].x)
                        assert type(got[1].y) is type(want[1].y)
                    outcomes.add(type(got))
    assert outcomes == {tuple, str}
