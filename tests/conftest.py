"""Shared builders for seeded random test instances."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from stringraph import DrawnEdge, Drawing, Graph, Point, Polyline
from stringraph.generators import GeneratorSpec, generate
from stringraph.geometry import exact_coord, intersection_graph

# The three string families whose intersection graphs the library targets.
FAMILIES = ("random_segments", "random_polylines", "grid_paths")


def er_graph(n: int, p: float, seed: int) -> Graph:
    """Erdős–Rényi G(n, p) with a deterministic edge list."""
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph.from_edges(n, edges)


def er_masked(rng: random.Random):
    """(G, mask) over ER graphs with n = 2..40 at three densities, each with
    its full vertex mask and with one random mask."""
    for n in range(2, 41):
        for p in (0.1, 0.4, 0.8):
            G = er_graph(n, p, rng.randrange(1 << 30))
            yield G, G.full_mask
            yield G, rng.getrandbits(n)


def family_graph(kind: str, n: int, seed: int) -> Graph:
    """Intersection graph of a generated family of n strings."""
    return intersection_graph(generate(GeneratorSpec(kind=kind, count=n, seed=seed)))


def draw(coords, pairs, curves=None):
    """Drawing of the points coords with the edges pairs; edge k is straight
    unless curves[k] gives its points."""
    vertices = tuple(Point(x, y) for x, y in coords)
    edges = []
    for k, (u, v) in enumerate(pairs):
        pts = curves[k] if curves and curves[k] else (vertices[u], vertices[v])
        edges.append(DrawnEdge(u, v, Polyline(f"e{k}", tuple(pts))))
    return Drawing(vertices, tuple(edges))


def bent_grid_drawing(rng):
    """Random drawing on a 6x6 grid: each edge bends at up to two grid points."""
    cells = [(x, y) for x in range(6) for y in range(6)]
    coords = rng.sample(cells, rng.randint(3, 6))
    pairs = [p for p in combinations(range(len(coords)), 2) if rng.random() < 0.5]
    curves = []
    for u, v in pairs:
        pts = [coords[u]]
        for _ in range(rng.randint(0, 2)):
            bend = rng.choice(cells)
            if bend != pts[-1]:
                pts.append(bend)
        if pts[-1] == coords[v]:
            pts.pop()
        pts.append(coords[v])
        curves.append(tuple(Point(x, y) for x, y in pts))
    return draw(coords, pairs, curves)


def bent_convex_drawing(n: int, seed: int) -> Drawing:
    """The generator's convex K_n with each chord bent once, at its midpoint
    moved a tenth of the way to the centroid: Fraction bends strictly inside
    the hull, so no curve passes through a vertex."""
    made = generate(GeneratorSpec("convex_chords", n, seed=seed))
    verts = made.vertices
    cx, cy = (Fraction(sum(c)) / n for c in zip(*verts))
    curves = []
    for e in made.edges:
        (ax, ay), (bx, by) = verts[e.u], verts[e.v]
        mx, my = Fraction(ax + bx) / 2, Fraction(ay + by) / 2
        bend = Point(exact_coord(mx + (cx - mx) / 10), exact_coord(my + (cy - my) / 10))
        curves.append((verts[e.u], bend, verts[e.v]))
    return draw(verts, [(e.u, e.v) for e in made.edges], curves)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
