"""Exact predicates, segment intersection points and intersection graphs."""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from stringraph import (DuplicateId, GeneratorSpec, Graph, Point, Polyline,
                        StringFamily, generate, intersection_graph,
                        segments_intersect)
from stringraph.cli import main
from stringraph import geometry
from stringraph.quasiplanar import crossing_graph
from stringraph.geometry import (RationalSegment, _float_key, exact_coord,
                                 homogeneous, homogeneous_dist_sq,
                                 line_through, rational_contact_points,
                                 rational_point_segment_dist_sq, side)
from tests.reference import (convex_interleaving_graph, dist_sq, interpolate,
                             intersection_graph_reference, orientation_sign,
                             point_segment_dist_sq, segment_intersection_points)


def _pt(x, y):
    return Point(exact_coord(x), exact_coord(y))


def _segment(a, b):
    """The RationalSegment a-b, as the sweep and truncation build it."""
    ha, hb = homogeneous(a), homogeneous(b)
    return RationalSegment(a, b, ha, hb, line_through(ha, hb))


def test_exact_coord_normalizes_integral_values():
    assert exact_coord(3) == 3 and isinstance(exact_coord(3), int)
    assert exact_coord(Fraction(6, 2)) == 3 and isinstance(exact_coord(Fraction(6, 2)), int)
    assert exact_coord(Fraction(1, 3)) == Fraction(1, 3)
    assert exact_coord("7/2") == Fraction(7, 2)
    assert exact_coord(0.5) == Fraction(1, 2)


def test_exact_coord_rejects_bad_input():
    with pytest.raises(TypeError):
        exact_coord(True)
    with pytest.raises(ValueError):
        exact_coord(float("nan"))
    with pytest.raises(TypeError):
        exact_coord([1])
    for text in ("1/0", "0/0"):
        with pytest.raises(ValueError, match="has a zero denominator"):
            exact_coord(text)


def test_polyline_needs_two_distinct_consecutive_points():
    with pytest.raises(ValueError):
        Polyline("a", (_pt(0, 0),))
    with pytest.raises(ValueError):
        Polyline("a", (_pt(0, 0), _pt(0, 0), _pt(1, 1)))
    p = Polyline("a", (_pt(0, 0), _pt(1, 1), _pt(0, 0)))
    assert len(p.segments()) == 2


def test_family_rejects_duplicate_ids():
    seg = (_pt(0, 0), _pt(1, 0))
    with pytest.raises(DuplicateId):
        StringFamily((Polyline("a", seg), Polyline("a", seg)))


def test_orientation_sign_exact():
    assert orientation_sign(_pt(0, 0), _pt(1, 0), _pt(0, 1)) > 0
    assert orientation_sign(_pt(0, 0), _pt(0, 1), _pt(1, 0)) < 0
    assert orientation_sign(_pt(0, 0), _pt(2, 2), _pt(5, 5)) == 0
    # Rational coordinates must not fall back to float arithmetic.
    tiny = Fraction(1, 10 ** 40)
    assert orientation_sign(_pt(0, 0), _pt(1, 0), Point(1, tiny)) > 0


def _rational(rng):
    return Fraction(rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(1, 10 ** 6))


def test_rational_orientation_sign_matches_fraction_cross_product(rng):
    tiny = Fraction(1, 10 ** 30)
    signs = []
    for _ in range(1500):
        o, a = Point(_rational(rng), _rational(rng)), Point(_rational(rng), _rational(rng))
        t = _rational(rng)
        on = Point(o.x + t * (a.x - o.x), o.y + t * (a.y - o.y))
        # A free point, one on the line o-a, and two that miss it by 10^-30.
        for b in (Point(_rational(rng), _rational(rng)), on,
                  Point(on.x, on.y + tiny), Point(on.x - tiny, on.y)):
            cross = (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)
            expected = (cross > 0) - (cross < 0)
            got = side(line_through(homogeneous(o), homogeneous(a)), homogeneous(b))
            assert got == expected == orientation_sign(o, a, b)
            signs.append(got)
    assert signs.count(0) >= 1500 and signs.count(1) > 1000 and signs.count(-1) > 1000


def test_rational_point_segment_distance_matches_fraction_arithmetic(rng):
    # Integral and rational coordinates, on both sides of each clamp.
    for trial in range(1500):
        coord = (lambda: rng.randrange(-9, 10)) if trial % 3 == 0 else (lambda: _rational(rng))
        p, a, b = (Point(exact_coord(coord()), exact_coord(coord())) for _ in range(3))
        if a == b:
            continue
        want = point_segment_dist_sq(p, a, b)
        n, d = rational_point_segment_dist_sq(homogeneous(p), _segment(a, b))
        assert d > 0 and Fraction(n, d) == want
        n, d = homogeneous_dist_sq(homogeneous(p), homogeneous(a))
        assert d > 0 and Fraction(n, d) == dist_sq(p, a)


def test_rational_segment_tests_match_fraction_reference(rng):
    # Coordinates k/3 and k/6 on a small grid: shared endpoints, T-contacts,
    # collinear overlaps and proper crossings all occur.
    kinds = set()
    for _ in range(3000):
        p1, p2, q1, q2 = (_pt(Fraction(rng.randrange(7), rng.choice((1, 3, 6))),
                              Fraction(rng.randrange(7), rng.choice((1, 3))))
                          for _ in range(4))
        if p1 == p2 or q1 == q2:
            continue
        s, t = _segment(p1, p2), _segment(q1, q2)
        want = segment_intersection_points(p1, p2, q1, q2)
        assert rational_contact_points(s, t) == want
        pair = StringFamily((Polyline.of_exact("p", (p1, p2)), Polyline.of_exact("q", (q1, q2))))
        assert intersection_graph(pair).m == segments_intersect(p1, p2, q1, q2)
        kinds.add(len(want))
    assert kinds == {0, 1, 2}


def test_integer_segment_test_matches_reference(rng):
    # A 5x5 grid: shared endpoints, T-contacts, collinear overlaps, crossings
    # and misses all occur, through both early exits.
    outcomes = set()
    for _ in range(4000):
        p1, p2, q1, q2 = (Point(rng.randrange(5), rng.randrange(5)) for _ in range(4))
        if p1 == p2 or q1 == q2:
            continue
        want = segment_intersection_points(p1, p2, q1, q2)
        assert segments_intersect(p1, p2, q1, q2) == bool(want)
        outcomes.add(len(want))
    assert outcomes == {0, 1, 2}


def test_segments_intersect_cases():
    # Proper crossing.
    assert segments_intersect(_pt(0, 0), _pt(2, 2), _pt(0, 2), _pt(2, 0))
    # Shared endpoint counts (closed curves).
    assert segments_intersect(_pt(0, 0), _pt(1, 0), _pt(1, 0), _pt(2, 5))
    # T-contact in the interior.
    assert segments_intersect(_pt(0, 0), _pt(4, 0), _pt(2, -1), _pt(2, 0))
    # Collinear overlap.
    assert segments_intersect(_pt(0, 0), _pt(3, 0), _pt(1, 0), _pt(5, 0))
    # Collinear but disjoint.
    assert not segments_intersect(_pt(0, 0), _pt(1, 0), _pt(2, 0), _pt(3, 0))
    # Parallel.
    assert not segments_intersect(_pt(0, 0), _pt(2, 0), _pt(0, 1), _pt(2, 1))


def test_dist_and_interpolation_are_exact():
    assert dist_sq(_pt(0, 0), _pt(3, 4)) == 25
    mid = interpolate(_pt(0, 0), _pt(1, 1), Fraction(1, 3))
    assert mid == Point(Fraction(1, 3), Fraction(1, 3))
    assert point_segment_dist_sq(_pt(2, 3), _pt(0, 0), _pt(4, 0)) == 9
    # Projection clamps to the nearest endpoint beyond the segment.
    assert point_segment_dist_sq(_pt(-3, 4), _pt(0, 0), _pt(4, 0)) == 25
    # On Fraction inputs every branch normalizes an integral distance to int.
    a, b = _pt(Fraction(1, 2), 0), _pt(Fraction(9, 2), 0)
    for p, expected in ((_pt(Fraction(-5, 2), 4), 25), (_pt(Fraction(15, 2), 4), 25),
                        (_pt(Fraction(5, 2), 3), 9)):
        d2 = point_segment_dist_sq(p, a, b)
        assert d2 == expected and type(d2) is int
        assert point_segment_dist_sq(p, a, a) == dist_sq(p, a)


def test_segment_intersection_points_proper_crossing():
    pts = segment_intersection_points(_pt(0, 0), _pt(2, 2), _pt(0, 2), _pt(2, 0))
    assert pts == [Point(1, 1)]
    pts = segment_intersection_points(_pt(0, 0), _pt(1, 0), _pt(0, 2), _pt(2, 0))
    assert pts == []


def test_segment_intersection_points_collinear_overlap():
    pts = segment_intersection_points(_pt(0, 0), _pt(3, 0), _pt(1, 0), _pt(5, 0))
    assert pts == [Point(1, 0), Point(3, 0)]
    # Touching collinear segments share exactly one point.
    pts = segment_intersection_points(_pt(0, 0), _pt(1, 0), _pt(1, 0), _pt(2, 0))
    assert pts == [Point(1, 0)]


def test_segment_intersection_points_endpoint_touch():
    pts = segment_intersection_points(_pt(0, 0), _pt(4, 0), _pt(2, -1), _pt(2, 0))
    assert pts == [Point(2, 0)]


def test_intersection_graph_basic():
    fam = StringFamily((
        Polyline("a", (_pt(0, 0), _pt(4, 4))),
        Polyline("b", (_pt(0, 4), _pt(4, 0))),
        Polyline("c", (_pt(10, 10), _pt(11, 10))),
    ))
    G = intersection_graph(fam)
    assert G.edges() == [(0, 1)]


def test_intersection_graph_of_empty_family_is_empty():
    assert intersection_graph(StringFamily(())) == Graph(())


def test_prefilter_agrees_with_full_scan(rng):
    for _ in range(25):
        strings = []
        for k in range(8):
            x, y = rng.randrange(50), rng.randrange(50)
            pts = [_pt(x, y)]
            for _ in range(2):
                x += rng.randrange(-9, 10)
                y += rng.randrange(-9, 10)
                if (x, y) != (pts[-1].x, pts[-1].y):
                    pts.append(_pt(x, y))
            if len(pts) < 2:
                pts.append(_pt(x + 1, y))
            strings.append(Polyline(f"s{k}", tuple(pts)))
        fam = StringFamily(tuple(strings))
        assert intersection_graph(fam) == intersection_graph_reference(fam)


def _family(*chains):
    """Strings s0, s1, ... from chains of (x, y) pairs."""
    return StringFamily(tuple(
        Polyline(f"s{k}", tuple(_pt(x, y) for x, y in chain))
        for k, chain in enumerate(chains)))


@pytest.mark.parametrize("kind", ["random_segments", "random_polylines", "grid_paths"])
def test_sweep_matches_brute_force_on_large_families(kind):
    for n, seed in ((60, 1), (97, 2), (150, 3)):
        fam = generate(GeneratorSpec(kind=kind, count=n, seed=seed))
        G = intersection_graph(fam)
        assert G == intersection_graph_reference(fam)


def test_sweep_on_degenerate_contacts():
    fam = _family(
        [(0, 0), (2, 2)],
        [(2, 5), (4, 7)],      # s1: box meets s0's only at x = 2; no contact
        [(2, 2), (4, 0)],      # s2: shares s0's endpoint (2, 2)
        [(12, -3), (12, 3)],   # s3: vertical
        [(10, 0), (12, 0)],    # s4: box meets s3's only at x = 12; T-contact
        [(12, 4), (12, 6)],    # s5: vertical at s3's x, gap in y
        [(12, 6), (12, 9)],    # s6: vertical, touches s5 end to end
        [(20, 0), (23, 0)],
        [(21, 0), (25, 0)],    # s8: collinear overlap with s7
        [(26, 0), (27, 0)],    # s9: collinear with s8, disjoint
        [(30, 0), (32, 2)],
        [(30, 0), (32, 2)],    # s11: the same segment as s10
        [(40, 0), (44, 4), (44, 0), (40, 4)],  # s12: crosses itself
        [(42, 5), (43, 7)],    # s13: above s12, disjoint
        [(41, -5), (41, 1)],   # s14: ends on s12's first segment
    )
    G = intersection_graph(fam)
    assert G == intersection_graph_reference(fam)
    assert G.edges() == [(0, 2), (3, 4), (5, 6), (7, 8), (10, 11), (12, 14)]


def test_sweep_matches_brute_force_on_every_lattice_segment():
    """One string per segment between two points of a 4x4 lattice: every
    crossing, touch, T-contact and collinear overlap the sweep's inline
    integer test can meet, against polylines_intersect on every pair."""
    lattice = [Point(x, y) for x in range(4) for y in range(4)]
    pairs = list(itertools.combinations(lattice, 2))
    assert len(pairs) == 120
    # Boxes with equal left x keep the family's order, which decides which
    # segment of a touching pair the sweep meets first: try both orders.
    for order in (pairs, [pair[::-1] for pair in reversed(pairs)]):
        fam = StringFamily(tuple(Polyline(f"s{k}", pair) for k, pair in enumerate(order)))
        assert intersection_graph(fam) == intersection_graph_reference(fam)


def test_sweep_with_fraction_coordinates():
    third = Fraction(1, 3)
    tiny = Fraction(1, 10 ** 30)
    fam = _family(
        [(0, 0), (1, 1)],
        [(third, third), (third, 5)],          # starts exactly on s0
        [(third + tiny, 0), (third + tiny, third)],  # misses s0 by tiny
        [(Fraction(2, 3), 0), (1, Fraction(-1, 7))],
        [(Fraction(2, 3), Fraction(2, 3)), (2, 2)],  # collinear with s0, touching
    )
    G = intersection_graph(fam)
    assert G == intersection_graph_reference(fam)
    assert G.edges() == [(0, 1), (0, 4)]


def test_rational_sweep_derives_each_homogeneous_triple_once(monkeypatch):
    """One `homogeneous` call per point: the two segments at an interior
    bend share its triple."""
    calls = 0
    real = geometry.homogeneous

    def counting(p):
        nonlocal calls
        calls += 1
        return real(p)

    monkeypatch.setattr(geometry, "homogeneous", counting)
    half = Fraction(1, 2)
    fam = _family([(0, 0), (half, 2), (2, half), (3, 3)],
                  [(0, 3), (1, half), (3, 0)])
    G = intersection_graph(fam)
    assert calls == 7
    assert G == intersection_graph_reference(fam) and G.m == 1


def _grid_family(rng, coord=lambda v: v):
    """20-60 strings of 1-3 segments with coordinates in 0..4, mapped by
    coord. Such a grid forces many shared endpoints, vertical and collinear
    segments and boxes that meet at a single x."""
    chains = []
    for _ in range(rng.randrange(20, 61)):
        chain = [(rng.randrange(5), rng.randrange(5))]
        while len(chain) < 2 or (len(chain) < 4 and rng.random() < 0.5):
            nxt = (rng.randrange(5), rng.randrange(5))
            if nxt != chain[-1]:
                chain.append(nxt)
        chains.append([(coord(x), coord(y)) for x, y in chain])
    return _family(*chains)


def test_sweep_matches_brute_force_on_small_coordinate_grid(rng):
    for trial in range(12):
        scale = Fraction(1, 3) if trial % 2 else 1
        fam = _grid_family(rng, lambda v: v * scale)
        assert intersection_graph(fam) == intersection_graph_reference(fam)


_EPS = Fraction(1, 3 << 150)

# Increasing maps of the grid's 0..4 onto coordinates whose float keys tie or
# overflow; then the keys decide nothing and every box pair that ties gets
# the exact test.
_KEY_HAZARDS = {
    # Floats of 2^53 + v tie in pairs, floats of 2^60 + v all tie.
    "int_2^53": lambda v: 2 ** 53 + v,
    "int_2^60": lambda v: 2 ** 60 + v,
    # Ints and Fractions above 2^54, where a float of a Fraction can lie
    # below a smaller int.
    "mixed_2^54": lambda v: 2 ** 54 + Fraction(v, 2),
    # Beyond the float range, keys are -inf or inf.
    "int_10^400": lambda v: 10 ** 400 + v,
    "fraction_-10^400": lambda v: Fraction(-10 ** 400 + v, 3),
    "mixed_range": lambda v: (-10 ** 400, -1, 0, 10 ** 400, 10 ** 400 + 1)[v],
    # About 150-bit denominators whose floats all tie.
    "fraction_150_bit": lambda v: Fraction(1, 3) + v * _EPS,
    # 10^-400 underflows to a key of 0 next to keys of 1 and 2, inside the
    # float filter's range.
    "mixed_underflow": lambda v: v // 2 + Fraction(v % 2, 10 ** 400),
}


def test_float_keys_never_reverse_exact_order():
    assert _float_key(2 ** 60) == _float_key(2 ** 60 + 4)
    small, large = 2 ** 54 + 1, Fraction(2 ** 55 + 3, 2)
    assert small < large and float(large) < small
    assert _float_key(small) <= _float_key(large)
    assert _float_key(Fraction(1, 3)) == _float_key(Fraction(1, 3) + 4 * _EPS)
    assert _float_key(10 ** 400) == _float_key(Fraction(10 ** 401, 3)) == math.inf
    assert _float_key(-10 ** 400) == -math.inf
    for coord in _KEY_HAZARDS.values():
        values = [coord(v) for v in range(5)]
        keys = [_float_key(c) for c in values]
        assert values == sorted(values) and keys == sorted(keys)
        assert len(set(keys)) < 5


@pytest.mark.parametrize("hazard", sorted(_KEY_HAZARDS))
def test_sweep_matches_brute_force_where_float_keys_tie_or_overflow(rng, hazard):
    for _ in range(4):
        fam = _grid_family(rng, _KEY_HAZARDS[hazard])
        assert intersection_graph(fam) == intersection_graph_reference(fam)


def _count_exact_tests(monkeypatch) -> list[int]:
    """Count the sweep's calls of its exact test from here on, in calls[0]."""
    calls = [0]
    real = geometry._segments_meet

    def counting(*triples):
        calls[0] += 1
        return real(*triples)

    monkeypatch.setattr(geometry, "_segments_meet", counting)
    return calls


def test_float_filter_matches_reference_on_near_degenerate_pairs(rng):
    """Two-segment families where q's first end misses the segment a-b, or
    its line, by +-1/(k 2^j): exact signs far inside the float error band, on
    both sides of it and at its edge, as the scale of a and b varies."""
    dens = (3, 7, 11, 13, 1000)
    outcomes = set()
    for _ in range(3000):
        big = 2 ** rng.randrange(61) * 1000

        def coord():
            return Fraction(rng.randrange(-big, big + 1), rng.choice(dens))

        a, b, q2 = (_pt(coord(), coord()) for _ in range(3))
        k = rng.choice(dens)
        t = Fraction(rng.randrange(k + 1), k)
        off = Fraction(rng.choice((-1, 1)), rng.choice(dens) << rng.randrange(60))
        dx, dy = (off, 0) if rng.random() < 0.5 else (0, off)
        q1 = _pt(a.x + t * (b.x - a.x) + dx, a.y + t * (b.y - a.y) + dy)
        if a == b or q1 == q2:
            continue
        fam = StringFamily((Polyline.of_exact("p", (a, b)), Polyline.of_exact("q", (q1, q2))))
        G = intersection_graph(fam)
        assert G == intersection_graph_reference(fam), (a, b, q1, q2)
        outcomes.add(G.m)
    assert outcomes == {0, 1}


# For each edge of the float filter's range, 2^-400 < R < 2^400: a grid scale
# putting the largest key R just inside, and one just outside.
_GATE_SCALES = {
    "2^400": (2 ** 398 - 2 ** 358 + Fraction(1, 3), 2 ** 398 + 2 ** 358 + Fraction(1, 3)),
    "2^-400": (Fraction(3 << 40 | 1, 3 << 442), Fraction((3 << 40) - 1, 3 << 442)),
}


@pytest.mark.parametrize("edge", sorted(_GATE_SCALES))
def test_float_filter_on_either_side_of_its_range(monkeypatch, edge):
    """The same grids just inside and just outside the filter's range build
    the reference graph; outside, every tested pair takes the exact test."""
    calls = _count_exact_tests(monkeypatch)
    counts = []
    for scale in _GATE_SCALES[edge]:
        calls[0] = 0
        for seed in range(4):
            fam = _grid_family(random.Random(seed), lambda v: v * scale)
            assert intersection_graph(fam) == intersection_graph_reference(fam)
        counts.append(calls[0])
    assert 0 < counts[0] < counts[1]


def test_float_filter_settles_convex_crossing_graphs(monkeypatch):
    """The filter decides every pair of convex K_8..K_10 in floats, and
    leaves the tied keys of 150-bit denominators to the exact test."""
    calls = _count_exact_tests(monkeypatch)
    for n in (8, 9, 10):
        D = generate(GeneratorSpec("convex_chords", n, seed=n))
        assert crossing_graph(D) == convex_interleaving_graph(n)
    assert calls[0] == 0
    fam = _grid_family(random.Random(1), _KEY_HAZARDS["fraction_150_bit"])
    assert intersection_graph(fam) == intersection_graph_reference(fam)
    assert calls[0] > 0


def test_build_graph_reads_coordinates_beyond_the_float_range(tmp_path):
    big = 10 ** 400
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"kind": "family", "strings": [
        {"id": "a", "points": [[big, 0], [big + 2, 2]]},
        {"id": "b", "points": [[big, 2], [big + 2, 0]]},      # crosses a
        {"id": "c", "points": [[big + 3, 0], [big + 3, 2]]},  # misses both
        {"id": "d", "points": [[-big, -big], [0, 0]]}]}))
    graph = tmp_path / "g.txt"
    assert main(["build-graph", str(fam), "-o", str(graph)]) == 0
    assert graph.read_text() == "4 1\n0 1\n"


def test_sweep_with_segments_spanning_every_strip(rng):
    # Verticals from bottoms in 0..59 up past every bottom: the strip cuts
    # lie among the bottoms, so a box spans every strip from its own up, and
    # the lowest span them all. Shared x values give collinear overlaps.
    chains = [[(x, bottom), (x, 100 + rng.randrange(3))]
              for x, bottom in ((rng.randrange(30), rng.randrange(60)) for _ in range(80))]
    chains += [[(rng.randrange(30), rng.randrange(110)), (rng.randrange(30), rng.randrange(110))]
               for _ in range(20)]
    fam = _family(*(chain for chain in chains if chain[0] != chain[1]))
    G = intersection_graph(fam)
    assert G == intersection_graph_reference(fam)
    assert G.m > 0


def test_sweep_with_horizontals_on_strip_cuts(rng):
    # Every box bottom is in 0..9 and there are horizontals at each of those
    # y, so every strip cut has horizontals lying on it; the verticals end on
    # them or cross them.
    chains = [[(x, y), (x + 1 + rng.randrange(6), y)]
              for y in range(10) for x in range(0, 30, 8)]
    chains += [[(x, y), (x, y + rng.randrange(1, 4))]
               for x, y in ((rng.randrange(36), rng.randrange(10)) for _ in range(60))]
    fam = _family(*chains)
    G = intersection_graph(fam)
    assert G == intersection_graph_reference(fam)
    assert G.m > 0


def test_sweep_with_fewer_than_four_segments():
    # With B < 4 boxes there is one strip.
    for chains, edges in (
            ([[(0, 0), (2, 2)]], []),
            ([[(0, 0), (2, 2)], [(0, 2), (2, 0)]], [(0, 1)]),
            ([[(0, 0), (2, 2), (2, 0), (0, 2)]], []),
            ([[(0, 0), (2, 2)], [(2, 2), (4, 0)], [(3, 0), (5, 2)]], [(0, 1), (1, 2)]),
            ([[(0, 0), (1, 0)], [(1, 0), (1, 1), (2, 1)]], [(0, 1)])):
        fam = _family(*chains)
        G = intersection_graph(fam)
        assert G == intersection_graph_reference(fam)
        assert G.edges() == edges


def test_sweep_on_rational_family_with_many_strips():
    # Scaling by 1/3 keeps every contact, so the graph is the integer
    # family's; the 1200 boxes make 34 strips on the rational kernel.
    fam = generate(GeneratorSpec(kind="random_polylines", count=400, seed=11))
    third = StringFamily(tuple(
        Polyline(s.id, tuple(_pt(Fraction(p.x, 3), Fraction(p.y, 3)) for p in s.points))
        for s in fam.strings))
    assert any(isinstance(p.x, Fraction) for s in third.strings for p in s.points)
    G = intersection_graph(third)
    assert G == intersection_graph_reference(fam)
    assert G.m > 1000
