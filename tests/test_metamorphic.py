"""Metamorphic guard for the sweeps: exact lattice maps of the plane keep
which curves meet, so the intersection and crossing graphs of a mapped,
reordered input are the original graphs under the reordering."""

import random
from fractions import Fraction

import pytest

from stringraph import (DegenerateDrawing, DrawnEdge, Drawing, Graph, Point, Polyline,
                        StringFamily, crossing_graph)
from stringraph.generators import GeneratorSpec, generate
from stringraph.geometry import exact_coord, intersection_graph
from tests.conftest import FAMILIES, bent_grid_drawing

SHIFT = 10 ** 12 + 7

# Each map is an exact affine bijection of the plane. The rotation moves
# tall boxes into wide ones, the translation makes the coordinates large,
# and the scaling makes most of them rational.
MAPS = {
    "rotate-90": lambda x, y: (-y, x),
    "reflect": lambda x, y: (-x, y),
    "swap-xy": lambda x, y: (y, x),
    "shear": lambda x, y: (x + 3 * y, y),
    "translate": lambda x, y: (x + SHIFT, y + SHIFT),
    "scale-1/7": lambda x, y: (Fraction(x) / 7, Fraction(y) / 7),
}


def _mapped(f, points):
    return tuple(Point(*map(exact_coord, f(x, y))) for x, y in points)


def _relabelled(G: Graph, order: list[int]) -> Graph:
    """G with vertex order[k] renamed k."""
    new = {old: k for k, old in enumerate(order)}
    return Graph.from_edges(G.n, [(new[a], new[b]) for a, b in G.edges()])


def _map_family(family: StringFamily, f, order: list[int]) -> StringFamily:
    return StringFamily(tuple(Polyline(family.strings[k].id, _mapped(f, family.strings[k].points))
                              for k in order))


def _map_drawing(D: Drawing, f, order: list[int]) -> Drawing:
    edges = [D.edges[k] for k in order]
    return Drawing(_mapped(f, D.vertices),
                   tuple(DrawnEdge(e.u, e.v, Polyline(e.curve.id, _mapped(f, e.curve.points)))
                         for e in edges))


def test_intersection_graph_is_invariant_under_lattice_maps():
    rng = random.Random(8)
    cases = 0
    for kind in FAMILIES:
        for n in (60, 300):
            for seed in range(4):
                family = generate(GeneratorSpec(kind, n, seed=seed))
                G = intersection_graph(family)
                for name, f in MAPS.items():
                    order = rng.sample(range(n), n)
                    got = intersection_graph(_map_family(family, f, order))
                    assert got == _relabelled(G, order), (kind, n, seed, name)
                    cases += 1
    assert cases == 144


def _crossings_or_refusal(D: Drawing):
    try:
        return crossing_graph(D)
    except DegenerateDrawing:
        return None


@pytest.mark.parametrize("name", sorted(MAPS))
def test_crossing_graph_is_invariant_under_lattice_maps(name):
    shapes = random.Random(20211203)
    drawings = [generate(GeneratorSpec("convex_chords", n, seed=n)) for n in range(4, 12)]
    drawings += [bent_grid_drawing(shapes) for _ in range(60)]
    rng = random.Random(name)
    refused = 0
    for D in drawings:
        G = _crossings_or_refusal(D)
        order = rng.sample(range(D.m), D.m)
        got = _crossings_or_refusal(_map_drawing(D, MAPS[name], order))
        if G is None:
            assert got is None
            refused += 1
        else:
            assert got == _relabelled(G, order)
    assert (refused, len(drawings)) == (30, 68)
