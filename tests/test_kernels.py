"""The per-element kernels against the plain versions they replaced, kept in
tests/reference.py: the clique search, the greedy biclique, bits and the
report encoder must give the same answers, and the same bytes."""

import json
import math
import random
import time
from fractions import Fraction
from itertools import islice

import pytest

from stringraph import (Graph, PreconditionViolated, TooLarge, color_or_clique, find_clique,
                        kr1_free_subgraph)
from stringraph import extract as extract_module
from stringraph import fileio
from stringraph import graph as graph_module
from stringraph.cli import main
from stringraph.graph import _SCAN_MEMBERS, _SCAN_WIDTH, bits, clique_in_mask
from tests.conftest import FAMILIES, er_graph, family_graph
from tests.reference import (biclique_greedy_reference, bits_reference,
                             clique_in_mask_reference, dumps_reference)
from tests.test_cli_golden import CASES, corpus  # noqa: F401 (a fixture)


def _omega(G, mask):
    k = 1
    while clique_in_mask_reference(G, mask, k + 1) is not None:
        k += 1
    return k


def _same_cliques(G, mask):
    """Every k from 1 to omega + 2 gives the reference's clique, or None."""
    for k in range(1, _omega(G, mask) + 3):
        assert clique_in_mask(G, mask, k) == clique_in_mask_reference(G, mask, k), k


@pytest.mark.parametrize("kind", FAMILIES)
def test_clique_search_matches_the_reference_on_family_graphs(kind):
    G = family_graph(kind, 300, 3)
    rng = random.Random(kind)
    for mask in (G.full_mask, rng.getrandbits(G.n), rng.getrandbits(G.n)):
        _same_cliques(G, mask)


def test_clique_search_matches_the_reference_on_random_graphs(rng):
    for _ in range(150):
        n = rng.randrange(1, 61)
        G = er_graph(n, rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)), rng.randrange(1 << 30))
        for mask in (G.full_mask, rng.getrandbits(n)):
            _same_cliques(G, mask)


def test_clique_search_matches_the_reference_on_dense_g200():
    G = er_graph(200, 0.5, 7)
    _same_cliques(G, G.full_mask)


@pytest.mark.parametrize("search", [
    lambda G: find_clique(G, 10),
    lambda G: kr1_free_subgraph(G, 10),
    lambda G: color_or_clique(G, 0.5),
], ids=["find_clique", "kr1_free_precondition", "color_or_clique"])
def test_every_clique_search_shares_the_node_budget(search, monkeypatch):
    G = er_graph(60, 0.5, 3)  # its largest clique has 9 vertices
    search(G)  # within the budget
    monkeypatch.setattr(graph_module, "CLIQUE_NODE_BUDGET", 0)
    with pytest.raises(TooLarge, match="^clique search for K_[0-9]+ expanded more than 0 nodes$"):
        search(G)


def _complete(n):
    return Graph(tuple((1 << n) - 1 ^ 1 << v for v in range(n)))


def test_clique_search_finds_a_clique_past_the_recursion_limit():
    # One search level per clique vertex once recursed; 1000 levels are
    # past Python's default limit of 1000 frames.
    K = _complete(1000)
    assert find_clique(K, 1000) == tuple(range(1000))
    with pytest.raises(PreconditionViolated) as info:
        kr1_free_subgraph(K, 1000)
    assert info.value.witness.vertices == tuple(range(1000))
    assert info.value.witness.certificate == {"size": 1000}


# The smallest CLIQUE_NODE_BUDGET each search passes: the nodes it expands.
NODE_COUNTS = [
    (("random_segments", 300), 5, 8),
    (("random_polylines", 300), 8, 47),
    (("grid_paths", 300), 3, 268),
    ((60, 0.5, 0), 9, 129),
    ((120, 0.3, 2), 6, 19),
    ((200, 0.5, 3), 12, 16701),
]


@pytest.mark.parametrize("graph, k, nodes", NODE_COUNTS,
                         ids=[f"{g[0]}-{g[1]}-K{k}" for g, k, _ in NODE_COUNTS])
def test_clique_search_expands_a_pinned_number_of_nodes(graph, k, nodes, monkeypatch):
    G = family_graph(*graph, 3) if isinstance(graph[0], str) else er_graph(*graph)
    monkeypatch.setattr(graph_module, "CLIQUE_NODE_BUDGET", nodes)
    found = clique_in_mask(G, G.full_mask, k)
    assert found == clique_in_mask_reference(G, G.full_mask, k)
    monkeypatch.setattr(graph_module, "CLIQUE_NODE_BUDGET", nodes - 1)
    with pytest.raises(TooLarge):
        clique_in_mask(G, G.full_mask, k)


def test_biclique_greedy_matches_the_reference_on_half_clique_masks(monkeypatch, rng):
    """Every mask the half-clique step hands the greedy search, at n = 150-300,
    and complete and dense random masks."""
    masks = []

    def recorded(G, mask):
        masks.append((G, mask))
        return greedy(G, mask)

    greedy = extract_module._biclique_greedy
    monkeypatch.setattr(extract_module, "_biclique_greedy", recorded)
    for kind in FAMILIES:
        for n in range(150, 301, 25):
            for seed in (3, 4):
                G = family_graph(kind, n, seed)
                extract_module.half_clique_free_subgraph(G, _omega(G, G.full_mask) + 1)
    assert len(masks) >= 30
    for n in (21, 40, 80):
        masks.append((_complete(n), (1 << n) - 1))
        for p in (0.9, 0.95, 0.99):
            G = er_graph(n, p, n)
            masks += [(G, G.full_mask), (G, rng.getrandbits(n) | 1 << n - 1)]
    for G, mask in masks:
        assert greedy(G, mask) == biclique_greedy_reference(G, mask)


def test_half_clique_free_subgraph_answers_on_k1000_in_under_five_seconds():
    # Every seed after the first starts with all 1000 vertices in its sides
    # and candidates, so the union bound drops it at once; growing every
    # seed to the end took 14-20 s in all.
    K = _complete(1000)
    start = time.perf_counter()
    witness = extract_module.half_clique_free_subgraph(K, 1001)
    assert time.perf_counter() - start < 5
    assert witness.vertices == tuple(range(0, 1000, 2))


def test_half_clique_free_subgraph_refuses_a_dense_random_graph_within_its_budget():
    # Unlike K_1000, the seeds of a G(1000, 0.99) keep sides and candidates
    # above the union bound for most of their growth: 27 million candidate
    # scans and about 7 s without a budget.
    G = er_graph(1000, 0.99, 1)
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="balanced-biclique search scanned more than "
                                       f"{extract_module.BICLIQUE_SCAN_BUDGET} candidates"):
        extract_module.half_clique_free_subgraph(G, 1001)
    assert time.perf_counter() - start < 5


# The smallest BICLIQUE_SCAN_BUDGET each greedy search passes: the
# candidates it scans.
SCAN_COUNTS = [
    (("random_segments", 300, 3), 2404),
    ((80, 0.95, 80), 247625),
    ((120, 0.9, 7), 272517),
]


@pytest.mark.parametrize("graph, scans", SCAN_COUNTS, ids=[str(g) for g, _ in SCAN_COUNTS])
def test_biclique_search_scans_a_pinned_number_of_candidates(graph, scans, monkeypatch):
    G = family_graph(*graph) if isinstance(graph[0], str) else er_graph(*graph)
    monkeypatch.setattr(extract_module, "BICLIQUE_SCAN_BUDGET", scans)
    assert (extract_module._biclique_greedy(G, G.full_mask)
            == biclique_greedy_reference(G, G.full_mask))
    monkeypatch.setattr(extract_module, "BICLIQUE_SCAN_BUDGET", scans - 1)
    with pytest.raises(TooLarge):
        extract_module._biclique_greedy(G, G.full_mask)


def test_k1000_biclique_search_stays_within_the_budget(monkeypatch):
    # K_1000 scans the most of any Tier-1 input; the budget is four times it.
    assert 4 * 498_501 <= extract_module.BICLIQUE_SCAN_BUDGET
    monkeypatch.setattr(extract_module, "BICLIQUE_SCAN_BUDGET", 498_501)
    K = _complete(1000)
    assert extract_module._biclique_greedy(K, K.full_mask) == (
        sum(1 << v for v in range(0, 1000, 2)), sum(1 << v for v in range(1, 1000, 2)))


def _spread(members, width, rng):
    """A mask of the given member count whose highest bit is width - 1."""
    return 1 << width - 1 | sum(1 << b for b in rng.sample(range(width - 1), members - 1))


def test_bits_matches_the_reference_on_both_sides_of_the_switch(rng):
    masks = [0, 1, 1 << 15 - 1, (1 << 15) - 1]
    masks += [1 << b for b in (0, 1, 63, 64, 299, 1 << 15 - 1)]
    for members in (_SCAN_MEMBERS - 1, _SCAN_MEMBERS, _SCAN_MEMBERS + 1):
        masks.append((1 << members) - 1)
    for members in (_SCAN_MEMBERS, 30, 100):
        for width in (members * _SCAN_WIDTH - 1, members * _SCAN_WIDTH,
                      members * _SCAN_WIDTH + 1, 1 << 15):
            masks.append(_spread(members, width, rng))
    for mask in masks:
        want = list(bits_reference(mask))
        assert list(bits(mask)) == want
        # A consumer that stops early sees the same prefix.
        assert list(islice(bits(mask), 3)) == want[:3]
        assert next(iter(bits(mask)), None) == (want[0] if want else None)


def test_encoder_writes_every_golden_document_as_the_reference_does(corpus, monkeypatch,
                                                                   capsys):
    written = []

    def both(obj):
        written.append((obj, dumps(obj)))
        return written[-1][1]

    dumps = fileio._dumps
    monkeypatch.setattr(fileio, "_dumps", both)
    monkeypatch.chdir(corpus)
    for argv, code, _, _ in CASES.values():
        assert main(argv.split()) == code
    capsys.readouterr()
    assert len(written) >= 60
    for obj, text in written:
        assert text == dumps_reference(obj)


# json sorts a dict's keys before it writes them, so it refuses a dict whose
# keys do not compare (1 and "1") or that it cannot write (a tuple).
UNSORTABLE = [{1: "int", "1": "str"}, {1.5: 0, None: 1, True: 2, (1, 2): 3}]
FUZZ = [
    "plain", "", "café ☃ \U0001f600", "tab\there\nnew\x00\x1f\x7f\"\\/",
    0, -1, 10 ** 40, True, False, None,
    0.0, -0.0, 1e16, -1e16, 5e-324, 1.5, 2.0 ** 60, math.pi,
    Fraction(3, 1), Fraction(-7, 2), Fraction(0), Fraction(10 ** 30, 7),
    [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], [[]], {}],
    [1, 2, 3], (4, 5), [1, True, 2], [0, False], [1, 2.0], [1, None], [1, Fraction(1, 2)],
    {3: "x", 10: "y", 2: [1, 2]}, {"apexes": {5: 7, 12: 1, 100: 3}},
    *UNSORTABLE,
    {"b": (1, (2, 3)), "a": [{"z": Fraction(1, 3)}, ("é", -0.0)]},
]


@pytest.mark.parametrize("value", FUZZ, ids=range(len(FUZZ)))
def test_encoder_matches_the_reference_on_fuzzed_values(value):
    for obj in (value, [value, {"k": value}]):
        if any(value is u for u in UNSORTABLE):
            _assert_both_refuse(obj)
        else:
            assert fileio._dumps(obj) == dumps_reference(obj)


def test_encoder_matches_the_reference_on_random_nested_values(rng):
    leaves = [lambda: rng.randrange(-10 ** 6, 10 ** 6), lambda: rng.random() * 10 ** rng.randrange(-30, 30),
              lambda: Fraction(rng.randrange(-50, 50), rng.randrange(1, 9)),
              lambda: "".join(chr(rng.randrange(0, 0x3000)) for _ in range(rng.randrange(6))),
              lambda: rng.choice((True, False, None))]

    def value(depth):
        roll = rng.random()
        if depth > 3 or roll < 0.4:
            return rng.choice(leaves)()
        if roll < 0.6:
            return [rng.randrange(100) for _ in range(rng.randrange(5))]
        if roll < 0.8:
            return (list if rng.random() < 0.5 else tuple)(value(depth + 1)
                                                           for _ in range(rng.randrange(4)))
        key = rng.choice((str, int))  # one key type per dict, which json can sort
        return {key(rng.randrange(50)): value(depth + 1) for _ in range(rng.randrange(4))}

    for _ in range(300):
        obj = value(0)
        assert fileio._dumps(obj) == dumps_reference(obj)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_encoder_writes_non_finite_floats_as_json_does(value):
    assert fileio._dumps({"x": [value]}) == dumps_reference({"x": [value]})


@pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes", Fraction(1, 2) + 0j])
def test_encoder_refuses_what_json_refuses(value):
    _assert_both_refuse([value])


def _assert_both_refuse(obj):
    with pytest.raises(TypeError):
        dumps_reference(obj)
    with pytest.raises(TypeError):
        fileio._dumps(obj)


def test_encoder_round_trips_through_json():
    obj = {"r": [Fraction(1, 2), (1, 2), {"3": None}]}
    assert json.loads(fileio._dumps(obj)) == {"r": ["1/2", [1, 2], {"3": None}]}
