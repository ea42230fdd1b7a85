"""Exact predicates, segment intersection points and intersection graphs."""

from fractions import Fraction

import pytest

from stringraph import (DuplicateId, GeneratorSpec, Graph, Point, Polyline,
                        StringFamily, generate, intersection_graph,
                        orientation_sign, segments_intersect)
from stringraph.geometry import (RationalSegment, dist_sq, exact_coord,
                                 homogeneous, homogeneous_dist_sq, interpolate,
                                 line_through, rational_contact_points,
                                 rational_point_segment_dist_sq,
                                 rational_segments_intersect, side)
from tests.reference import point_segment_dist_sq, segment_intersection_points
from tests.test_acceptance import _brute_intersection_graph


def _pt(x, y):
    return Point(exact_coord(x), exact_coord(y))


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
        got = rational_point_segment_dist_sq(homogeneous(p), RationalSegment.of(a, b))
        assert got == want and type(got) is type(want)
        assert homogeneous_dist_sq(homogeneous(p), homogeneous(a)) == dist_sq(p, a)


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
        s, t = RationalSegment.of(p1, p2), RationalSegment.of(q1, q2)
        want = segment_intersection_points(p1, p2, q1, q2)
        assert rational_contact_points(s, t) == want
        assert rational_segments_intersect(s, t) == segments_intersect(p1, p2, q1, q2)
        kinds.add(len(want))
    assert kinds == {0, 1, 2}


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
        assert intersection_graph(fam) == _brute_intersection_graph(fam)


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
        assert G == _brute_intersection_graph(fam)


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
    assert G == _brute_intersection_graph(fam)
    assert G.edges() == [(0, 2), (3, 4), (5, 6), (7, 8), (10, 11), (12, 14)]


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
    assert G == _brute_intersection_graph(fam)
    assert G.edges() == [(0, 1), (0, 4)]


def test_sweep_matches_brute_force_on_small_coordinate_grid(rng):
    # Coordinates in 0..4 force many shared endpoints, vertical and
    # collinear segments and boxes that meet at a single x.
    for trial in range(12):
        scale = Fraction(1, 3) if trial % 2 else 1
        chains = []
        for _ in range(rng.randrange(20, 61)):
            chain = [(rng.randrange(5), rng.randrange(5))]
            while len(chain) < 2 or (len(chain) < 4 and rng.random() < 0.5):
                nxt = (rng.randrange(5), rng.randrange(5))
                if nxt != chain[-1]:
                    chain.append(nxt)
            chains.append([(x * scale, y * scale) for x, y in chain])
        fam = _family(*chains)
        assert intersection_graph(fam) == _brute_intersection_graph(fam)
