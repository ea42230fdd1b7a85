"""Bitset graph container, clique search and greedy coloring."""

from fractions import Fraction
from itertools import combinations

import pytest

from stringraph import (Coloring, ExtractorViolation, Graph, UnknownVertex,
                        find_clique, greedy_color, validate_coloring)
from stringraph.graph import (average_degree, bits, clique_in_mask,
                              components_masked, edges_in_mask,
                              induced_subgraph, is_independent, mask_of,
                              most_adjacent, peel_order)
from tests.conftest import FAMILIES, er_graph, er_masked, family_graph
from tests.reference import convex_interleaving_graph, most_adjacent_reference


def test_bits_and_mask_roundtrip():
    vs = (0, 3, 5, 11)
    assert tuple(bits(mask_of(vs))) == vs
    assert mask_of(()) == 0 and tuple(bits(0)) == ()


def test_from_edges_and_accessors():
    G = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert (G.n, G.m) == (4, 2)
    assert G.has_edge(1, 0) and not G.has_edge(0, 2)
    assert G.degree(1) == 2 and G.degree(3) == 0
    assert G.edges() == [(0, 1), (1, 2)]


def test_from_edges_rejects_bad_edges():
    with pytest.raises(UnknownVertex):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])


def test_complement_is_involutive():
    G = er_graph(9, 0.4, 7)
    H = G.complement()
    assert H.m == 9 * 8 // 2 - G.m
    assert H.complement() == G


def test_induced_subgraph_relabels():
    G = Graph.from_edges(5, [(0, 2), (2, 4), (1, 3)])
    H = induced_subgraph(G, (0, 2, 4))
    assert H.n == 3 and H.edges() == [(0, 1), (1, 2)]


def test_components_and_edge_counts():
    G = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
    comps = components_masked(G, G.full_mask)
    assert sorted(c.bit_count() for c in comps) == [1, 2, 3]
    assert edges_in_mask(G, mask_of((0, 1, 2))) == 3
    assert edges_in_mask(G, mask_of((0, 3, 5))) == 0
    assert average_degree(G) == Fraction(8, 6)


def test_clique_search_lexicographic_cases():
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert find_clique(c5, 2) == (0, 1)
    assert find_clique(c5, 3) is None
    k4 = Graph.from_edges(4, list(combinations(range(4), 2)))
    assert find_clique(k4, 4) == (0, 1, 2, 3)
    assert find_clique(k4, 5) is None
    assert find_clique(k4, 1) == (0,)
    assert clique_in_mask(k4, mask_of((1, 2, 3)), 3) == (1, 2, 3)


def test_clique_search_matches_brute_force(rng):
    for trial in range(30):
        G = er_graph(9, rng.uniform(0.2, 0.8), trial)
        for k in range(2, 5):
            got = find_clique(G, k)
            want = next((c for c in combinations(range(9), k)
                         if all(G.has_edge(u, v) for u, v in combinations(c, 2))),
                        None)
            if want is None:
                assert got is None
            else:
                assert got is not None and len(got) == k
                assert all(G.has_edge(u, v) for u, v in combinations(got, 2))


def test_independence_check():
    G = Graph.from_edges(4, [(0, 1)])
    assert is_independent(G, (0, 2, 3))
    assert not is_independent(G, (0, 1))


def test_greedy_color_checks_its_extractor():
    G = Graph.from_edges(4, list(combinations(range(4), 2)))
    col = greedy_color(G, lambda rest: rest & -rest)
    assert col.num_colors == 4
    validate_coloring(G, col)
    with pytest.raises(ExtractorViolation):
        greedy_color(G, lambda rest: rest)  # whole K4 is not independent
    with pytest.raises(ExtractorViolation):
        greedy_color(G, lambda rest: 0)


def test_validate_coloring_rejects_bad_classes():
    G = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(ValueError):
        validate_coloring(G, Coloring(((0, 1), (2,))))
    with pytest.raises(ValueError):
        validate_coloring(G, Coloring(((0,), (2,))))
    with pytest.raises(ValueError):
        validate_coloring(G, Coloring(((0, 2), (1, 2))))


def test_most_adjacent_matches_the_max_over_a_key(rng):
    instances = list(er_masked(rng))
    # Every vertex of an edgeless or a complete graph ties with every other.
    for n in (1, 2, 7, 40):
        for G in (Graph.from_edges(n, []), Graph.from_edges(n, combinations(range(n), 2))):
            instances += [(G, G.full_mask), (G, rng.getrandbits(n))]
    for G, mask in instances:
        if not mask:
            continue
        for into in (mask, G.full_mask, rng.getrandbits(G.n), 0):
            assert most_adjacent(G, mask, into) == most_adjacent_reference(G, mask, into)
    with pytest.raises(ValueError):
        most_adjacent(Graph.from_edges(3, [(0, 1)]), 0, 0b111)


def _peel_reference(G, mask, fewest):
    """The loop peel_order replaces: take most_adjacent(G, rest, rest), or its
    fewest-neighbours analogue, out of the rest until the rest is empty."""
    rest = mask
    order = []
    while rest:
        if fewest:
            v = min(bits(rest), key=lambda u: ((G.adj[u] & rest).bit_count(), u))
        else:
            v = most_adjacent_reference(G, rest, rest)
        order.append(v)
        rest &= ~(1 << v)
    return order


def test_peel_order_matches_the_repeated_most_adjacent_loop(rng):
    instances = list(er_masked(rng))
    instances += [(G, G.full_mask) for G in
                  (family_graph(kind, 200, 4) for kind in FAMILIES)]
    for G, mask in instances:
        for fewest in (False, True):
            assert list(peel_order(G, mask, fewest)) == _peel_reference(G, mask, fewest)


def _spread_neighbour_graphs():
    """Graphs in which one vertex has neighbours of many different degrees,
    so that yielding it moves vertices out of many buckets at once."""
    k = 12
    yield Graph.from_edges(k + 1, [(0, i) for i in range(1, k + 1)]
                           + [(i, i % k + 1) for i in range(1, k + 1)])  # wheel
    # A star on 0..8 whose centre 0 is also joined to the clique 9..15.
    yield Graph.from_edges(16, [(0, i) for i in range(1, 16)]
                           + list(combinations(range(9, 16), 2)))
    # A hub 0 whose i-th neighbour i has i leaves of its own.
    edges = [(0, i) for i in range(1, 9)]
    leaf = 9
    for i in range(1, 9):
        edges += [(i, leaf + j) for j in range(i)]
        leaf += i
    yield Graph.from_edges(leaf, edges)
    for n in range(5, 12):
        yield convex_interleaving_graph(n)


def test_peel_order_moves_neighbours_of_many_degrees(rng):
    for G in _spread_neighbour_graphs():
        for mask in (G.full_mask, rng.getrandbits(G.n), rng.getrandbits(G.n)):
            for fewest in (False, True):
                assert list(peel_order(G, mask, fewest)) == _peel_reference(G, mask, fewest)


def test_peel_order_breaks_ties_to_the_lowest_index():
    assert list(peel_order(Graph.from_edges(4, []), 0b1111)) == [0, 1, 2, 3]
    assert list(peel_order(Graph.from_edges(4, []), 0b1111, fewest=True)) == [0, 1, 2, 3]
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert list(peel_order(path, path.full_mask)) == [1, 2, 0, 3]
    assert list(peel_order(path, path.full_mask, fewest=True)) == [0, 1, 2, 3]
    assert list(peel_order(path, 0)) == []


def _components_reference(G, mask):
    """Components of G[mask] by a breadth-first search that scans every
    frontier vertex."""
    comps = []
    remaining = mask
    while remaining:
        comp = frontier = remaining & -remaining
        while frontier:
            neighbors = 0
            for v in bits(frontier):
                neighbors |= G.adj[v]
            frontier = neighbors & remaining & ~comp
            comp |= frontier
        comps.append(comp)
        remaining &= ~comp
    return comps


def test_components_match_a_full_scan_on_sparse_graphs_and_complements(rng):
    instances = [(G, mask) for G, mask in er_masked(rng)]
    for kind in FAMILIES:
        G = family_graph(kind, 200, 5)
        instances += [(G, G.full_mask), (G, rng.getrandbits(G.n))]
    for G, mask in instances:
        for graph in (G, G.complement()):
            assert components_masked(graph, mask) == _components_reference(graph, mask)


def test_find_clique_refuses_non_positive_sizes():
    G = Graph.from_edges(3, [(0, 1)])
    for k in (0, -1):
        with pytest.raises(ValueError, match="^clique size must be positive$"):
            find_clique(G, k)
