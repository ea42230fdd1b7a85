"""Shared builders for seeded random test instances."""

import random

import pytest

from stringraph import Graph
from stringraph.generators import GeneratorSpec, generate
from stringraph.geometry import intersection_graph

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


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
