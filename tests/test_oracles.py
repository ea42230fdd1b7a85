"""Exact reference solvers: brute-force agreement, determinism, size caps."""

from itertools import combinations

import pytest

from stringraph import (Graph, TooLarge, max_balanced_biclique_exact,
                        max_clique_exact, max_independent_set_exact,
                        max_kp_free_subset_exact, min_balanced_separator_exact,
                        pairwise_crossing_exact, validate_partition)
from stringraph.generators import GeneratorSpec, generate
from tests.conftest import er_graph, family_graph
from tests.reference import max_independent_set_reference


def _brute_best(n, keep):
    """Lexicographically first maximum subset satisfying keep()."""
    best = ()
    for k in range(n, -1, -1):
        for sub in combinations(range(n), k):
            if keep(sub):
                return sub
    return best


def _is_clique(G, sub):
    return all(G.has_edge(u, v) for u, v in combinations(sub, 2))


def _is_independent(G, sub):
    return not any(G.has_edge(u, v) for u, v in combinations(sub, 2))


def _kp_free(G, sub, p):
    return all(not _is_clique(G, c) for c in combinations(sub, p))


def test_known_small_graphs():
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert max_independent_set_exact(c5) == (0, 2)
    assert max_clique_exact(c5) == (0, 1)
    k4 = Graph.from_edges(4, list(combinations(range(4), 2)))
    assert max_clique_exact(k4) == (0, 1, 2, 3)
    assert max_independent_set_exact(k4) == (0,)
    assert max_kp_free_subset_exact(k4, 3) == (0, 1)


def test_mis_matches_brute_force(rng):
    for trial in range(25):
        G = er_graph(rng.randrange(2, 10), rng.uniform(0.1, 0.9), trial)
        want = _brute_best(G.n, lambda s: _is_independent(G, s))
        assert max_independent_set_exact(G) == want


def _relabeled(n, edges, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def _sparse_unions(rng):
    """Disjoint unions of paths, cycles, stars and isolated vertices, up to
    40 vertices, with the vertices shuffled."""
    for _ in range(40):
        edges, n = [], 0
        while n < 33:
            kind, k = rng.choice(("path", "cycle", "star", "isolated")), rng.randint(1, 8)
            if kind == "path":
                edges += [(n + i, n + i + 1) for i in range(k - 1)]
            elif kind == "cycle":
                k = max(k, 3)
                edges += [(n + i, n + (i + 1) % k) for i in range(k)]
            elif kind == "star":
                edges += [(n, n + i) for i in range(1, k)]
            n += k
        yield _relabeled(n, edges, rng)


def _pendant_graphs(rng):
    """A random core with pendant and isolated vertices, 40 vertices in all."""
    for _ in range(40):
        core = rng.randint(8, 24)
        edges = [(u, v) for u, v in combinations(range(core), 2)
                 if rng.random() < rng.choice((0.2, 0.5))]
        for w in range(core, 40):
            if rng.random() < 0.7:
                edges.append((rng.randrange(w), w))
        yield _relabeled(40, edges, rng)


def test_mis_matches_reference_at_full_size(rng):
    graphs = [family_graph(kind, 40, seed) for kind in ("random_segments", "grid_paths")
              for seed in range(6)]
    graphs += _sparse_unions(rng)
    graphs += _pendant_graphs(rng)
    for G in graphs:
        assert max_independent_set_exact(G) == max_independent_set_reference(G)


def test_clique_matches_brute_force(rng):
    for trial in range(25):
        G = er_graph(rng.randrange(2, 10), rng.uniform(0.1, 0.9), 50 + trial)
        want = _brute_best(G.n, lambda s: _is_clique(G, s))
        assert max_clique_exact(G) == want


def test_kp_free_matches_brute_force(rng):
    for trial in range(15):
        G = er_graph(rng.randrange(3, 9), rng.uniform(0.2, 0.8), 90 + trial)
        for p in (2, 3):
            want = _brute_best(G.n, lambda s: _kp_free(G, s, p))
            assert max_kp_free_subset_exact(G, p) == want


def test_kp_free_p2_equals_mis(rng):
    for trial in range(10):
        G = er_graph(8, 0.5, 200 + trial)
        assert max_kp_free_subset_exact(G, 2) == max_independent_set_exact(G)


def test_separator_oracle_is_minimal(rng):
    P5 = Graph.from_edges(5, [(i, i + 1) for i in range(4)])
    part = min_balanced_separator_exact(P5)
    validate_partition(P5, part)
    assert part.size == 1
    for trial in range(10):
        G = er_graph(rng.randrange(3, 8), rng.uniform(0.2, 0.7), 400 + trial)
        part = min_balanced_separator_exact(G)
        validate_partition(G, part)
        # No smaller separator exists.
        smaller_ok = False
        for k in range(part.size):
            for S in combinations(range(G.n), k):
                try:
                    rest = tuple(v for v in range(G.n) if v not in S)
                    half = len(rest) // 2
                    for split in combinations(rest, half):
                        v1 = split
                        v2 = tuple(v for v in rest if v not in split)
                        try:
                            validate_partition(G, type(part)(S, v1, v2))
                            smaller_ok = True
                        except ValueError:
                            pass
                except ValueError:
                    pass
        assert not smaller_ok


def test_biclique_oracle_known_values():
    k33 = Graph.from_edges(6, [(u, v + 3) for u in range(3) for v in range(3)])
    A, B = max_balanced_biclique_exact(k33)
    assert len(A) == len(B) == 3
    assert all(k33.has_edge(u, v) for u in A for v in B)
    k4 = Graph.from_edges(4, list(combinations(range(4), 2)))
    A, B = max_balanced_biclique_exact(k4)
    assert len(A) == len(B) == 2
    empty = Graph.from_edges(3, [])
    A, B = max_balanced_biclique_exact(empty)
    assert A == () and B == ()


def test_biclique_oracle_matches_brute_force(rng):
    for trial in range(10):
        G = er_graph(7, rng.uniform(0.3, 0.8), 600 + trial)
        A, B = max_balanced_biclique_exact(G)
        t = len(A)
        assert all(G.has_edge(u, v) for u in A for v in B)
        better = False
        for a in combinations(range(7), t + 1):
            rest = [v for v in range(7) if v not in a]
            for b in combinations(rest, t + 1):
                if all(G.has_edge(u, v) for u in a for v in b):
                    better = True
        assert not better


def test_pairwise_crossing_on_convex_six():
    D = generate(GeneratorSpec(kind="convex_chords", count=6, seed=1))
    w2 = pairwise_crossing_exact(D, 2)
    assert w2 is not None and len(w2) == 2
    w3 = pairwise_crossing_exact(D, 3)
    # The three long diagonals pairwise cross.
    assert w3 == (2, 7, 11)
    assert pairwise_crossing_exact(D, 4) is None


def test_oracle_caps_raise_too_large():
    big = Graph.from_edges(41, [])
    with pytest.raises(TooLarge):
        max_independent_set_exact(big)
    with pytest.raises(TooLarge):
        max_clique_exact(Graph.from_edges(61, []))
    with pytest.raises(TooLarge):
        max_kp_free_subset_exact(Graph.from_edges(19, []), 3)
    with pytest.raises(TooLarge):
        min_balanced_separator_exact(Graph.from_edges(15, []))
    with pytest.raises(TooLarge):
        max_balanced_biclique_exact(Graph.from_edges(17, []))
    D = generate(GeneratorSpec(kind="convex_chords", count=12, seed=1))
    with pytest.raises(TooLarge):
        pairwise_crossing_exact(D, 5)  # C(66, 5) subsets is past the cap


def test_oracles_are_deterministic(rng):
    G = er_graph(12, 0.5, 9)
    assert max_independent_set_exact(G) == max_independent_set_exact(G)
    assert max_clique_exact(G) == max_clique_exact(G)
    assert min_balanced_separator_exact(er_graph(8, 0.4, 9)) == \
        min_balanced_separator_exact(er_graph(8, 0.4, 9))
