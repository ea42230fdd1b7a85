"""Balanced separators: validation, strategies, exact search, survey."""

import math
from itertools import combinations, product

import pytest

from stringraph import (Graph, SeparatorPartition, TooLarge, balance_cap,
                        find_balanced_separator, fit_loglog_slope,
                        separator_size_survey, validate_partition)
from stringraph import separator as separator_module
from stringraph.generators import GeneratorSpec
from stringraph.graph import bits, components_masked, iter_components, mask_of, peel_order
from stringraph.separator import _degree_peel, _fits, _pack_two_bins
from tests.conftest import FAMILIES, er_graph, er_masked, family_graph
from tests.reference import (auto_separator_reference, convex_interleaving_graph,
                             most_adjacent_reference)


def _min_separator_size(G: Graph) -> int:
    """Reference minimum by direct subset enumeration."""
    cap = balance_cap(G.n)
    verts = range(G.n)
    for k in range(G.n + 1):
        for S in combinations(verts, k):
            rest = G.full_mask & ~mask_of(S)
            sizes = [c.bit_count() for c in components_masked(G, rest)]
            if sum(sizes) > 2 * cap:
                continue
            # Pack components into two sides greedily over all subsets.
            feasible = 1
            for s in sizes:
                feasible |= feasible << s
            total = sum(sizes)
            if any(feasible >> a & 1 and a <= cap and total - a <= cap
                   for a in range(total + 1)):
                return k
    return G.n


def test_balance_cap_matches_two_thirds_ceiling():
    for n in range(1, 40):
        assert balance_cap(n) == -(-2 * n // 3)


def test_validate_partition_rejects_violations():
    G = Graph.from_edges(4, [(0, 1), (2, 3)])
    good = SeparatorPartition(S=(), V1=(0, 1), V2=(2, 3))
    validate_partition(G, good)
    with pytest.raises(ValueError):
        validate_partition(G, SeparatorPartition((), (0, 1), (2,)))
    with pytest.raises(ValueError):
        validate_partition(G, SeparatorPartition((0,), (0, 1), (2, 3)))
    with pytest.raises(ValueError):
        validate_partition(G, SeparatorPartition((), (0, 1, 2), (3,)))
    with pytest.raises(ValueError):
        validate_partition(G, SeparatorPartition((2,), (0, 3), (1,)))


def test_exact_on_path_uses_single_cut_vertex():
    P9 = Graph.from_edges(9, [(i, i + 1) for i in range(8)])
    part = find_balanced_separator(P9, "exact")
    validate_partition(P9, part)
    assert part.size == 1


def test_exact_on_complete_graph():
    K6 = Graph.from_edges(6, list(combinations(range(6), 2)))
    part = find_balanced_separator(K6, "exact")
    validate_partition(K6, part)
    # One side must be empty, so the other holds at most the cap.
    assert part.size == 6 - balance_cap(6)


def test_disconnected_graph_needs_no_separator():
    G = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    part = find_balanced_separator(G, "auto")
    validate_partition(G, part)
    assert part.size == 0


def test_exact_matches_reference_minimum(rng):
    for trial in range(20):
        G = er_graph(rng.randrange(3, 9), rng.uniform(0.2, 0.8), 100 + trial)
        part = find_balanced_separator(G, "exact")
        validate_partition(G, part)
        assert part.size == _min_separator_size(G)


@pytest.mark.parametrize("strategy", ["exact", "degree_peel"])
def test_sides_split_the_rest_closest_to_half(strategy, rng):
    for trial in range(25):
        G = er_graph(rng.randrange(2, 15), rng.uniform(0.05, 0.6), 500 + trial)
        part = find_balanced_separator(G, strategy)
        validate_partition(G, part)
        sizes = [c.bit_count() for c in
                 components_masked(G, G.full_mask & ~mask_of(part.S))]
        best = min(abs(sum(sz if side else -sz for sz, side in zip(sizes, sides)))
                   for sides in product((0, 1), repeat=len(sizes)))
        assert abs(len(part.V1) - len(part.V2)) == best


@pytest.mark.parametrize("strategy", ["auto", "bfs_layer", "degree_peel"])
def test_heuristics_always_validate(strategy, rng):
    for trial in range(15):
        G = er_graph(rng.randrange(2, 40), rng.uniform(0.05, 0.5), 300 + trial)
        part = find_balanced_separator(G, strategy)
        validate_partition(G, part)


def test_exact_strategy_refuses_large_graphs():
    G = er_graph(20, 0.3, 1)
    with pytest.raises(TooLarge):
        find_balanced_separator(G, "exact")


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        find_balanced_separator(er_graph(4, 0.5, 1), "magic")


def test_survey_rows_and_determinism():
    spec = GeneratorSpec(kind="random_segments", count=30, seed=5)
    rows = separator_size_survey(spec, (30, 60), trials=3)
    again = separator_size_survey(spec, (30, 60), trials=3)
    assert rows == again
    assert [r[0] for r in rows] == [30, 60]
    assert all(r[1] >= 0 and r[2] >= 0 for r in rows)
    with pytest.raises(ValueError, match="trials"):
        separator_size_survey(spec, (30,), trials=0)
    with pytest.raises(ValueError, match="family kind"):
        separator_size_survey(GeneratorSpec(kind="convex_chords", count=10), (10,), 1)


def test_loglog_slope_fit():
    assert fit_loglog_slope([(10, 10), (100, 100)]) == pytest.approx(1.0)
    pts = [(x, x ** 0.5) for x in (10, 100, 1000)]
    assert fit_loglog_slope(pts) == pytest.approx(0.5, abs=1e-9)
    assert fit_loglog_slope([(10, 0), (100, 0)]) == 0.0
    assert fit_loglog_slope([(10, 5)]) == 0.0


def _degree_peel_reference(G, mask):
    """The linear loop _degree_peel replaces: move the vertex with the most
    neighbours in the rest into S until the rest packs into balanced sides."""
    cap = balance_cap(mask.bit_count())
    s_mask = 0
    while not _fits(G, mask & ~s_mask, cap):
        rest = mask & ~s_mask
        s_mask |= 1 << most_adjacent_reference(G, rest, rest)
    v1 = _pack_two_bins(components_masked(G, mask & ~s_mask), cap)
    return SeparatorPartition(S=tuple(bits(s_mask)), V1=tuple(bits(v1)),
                              V2=tuple(bits(mask & ~s_mask & ~v1)))


def test_degree_peel_bisection_matches_the_linear_loop(rng):
    instances = [(G, mask) for G, mask in er_masked(rng) if mask]
    for kind in FAMILIES:
        G = family_graph(kind, 200, 6)
        instances += [(G, G.full_mask), (G, rng.getrandbits(G.n))]
    for G, mask in instances:
        assert _degree_peel(G, mask) == _degree_peel_reference(G, mask)


def _count_components(monkeypatch) -> list[int]:
    """Record the mask of every component computation the separator makes:
    each components_masked call, and each fit test's iter_components."""
    calls = []

    def counted(graph, mask):
        calls.append(mask)
        return components_masked(graph, mask)

    def counted_iter(graph, mask):
        calls.append(mask)
        return iter_components(graph, mask)

    monkeypatch.setattr(separator_module, "components_masked", counted)
    monkeypatch.setattr(separator_module, "iter_components", counted_iter)
    return calls


def test_degree_peel_computes_components_logarithmically_often(monkeypatch):
    # The linear loop computes the components once per vertex moved into S;
    # bisecting the peel order needs about log2(n + 1) of them.
    G = family_graph("random_segments", 1600, 3)
    calls = _count_components(monkeypatch)
    part = _degree_peel(G, G.full_mask)
    bound = math.ceil(math.log2(G.n + 1)) + 1
    assert 1 <= len(calls) <= bound < part.size


def test_auto_equals_the_smaller_of_both_heuristics(rng):
    # auto seeds the degree_peel search with the bfs_layer answer; it must
    # return what running both in full and keeping the smaller S returns.
    instances = list(er_masked(rng))
    for kind in FAMILIES:
        for n in (60, 150, 300):
            G = family_graph(kind, n, 8)
            instances += [(G, G.full_mask), (G, rng.getrandbits(G.n))]
    for n in range(5, 15):
        G = convex_interleaving_graph(n)
        instances.append((G, G.full_mask))
    for G, mask in instances:
        assert (find_balanced_separator(G, "auto", mask)
                == auto_separator_reference(G, mask))


@pytest.mark.parametrize("kind", FAMILIES)
def test_auto_computes_components_at_most_twice_on_string_graphs(kind, monkeypatch):
    # bfs_layer computes the components once; the one prefix of the peel
    # order shorter than its S does not pack, which ends the search.
    G = family_graph(kind, 1600, 3)
    peeled = []

    def counted_order(graph, mask):
        for v in peel_order(graph, mask):
            peeled.append(v)
            yield v

    monkeypatch.setattr(separator_module, "peel_order", counted_order)
    calls = _count_components(monkeypatch)
    part = find_balanced_separator(G, "auto")
    assert 1 <= len(calls) <= 2
    assert len(peeled) < part.size


def test_auto_on_a_matching_computes_components_once(monkeypatch):
    # The components of a perfect matching pack with S empty, so no prefix
    # is shorter and the peel order is never started.
    n = 2000
    G = Graph.from_edges(n, [(i, i + n // 2) for i in range(n // 2)])
    monkeypatch.setattr(separator_module, "peel_order", None)
    calls = _count_components(monkeypatch)
    part = find_balanced_separator(G, "auto")
    assert part.size == 0 and len(calls) == 1
