"""Masked calls equal the same call on the induced subgraph, mapped back."""

import random

import pytest

from stringraph import (ExtractorViolation, NoCoverFound, PreconditionViolated,
                        UnknownVertex,
                        find_balanced_biclique, find_balanced_separator,
                        induced_subgraph, multipartite_cover,
                        validate_multipartite_cover)
from stringraph.graph import bits
from tests.conftest import er_graph


def _masked_instances(count, n_range, seed):
    rng = random.Random(seed)
    for trial in range(count):
        n = rng.randrange(*n_range)
        G = er_graph(n, rng.uniform(0.05, 0.8), seed + trial)
        mask = rng.getrandbits(n) | 1 << rng.randrange(n)
        yield G, mask, list(bits(mask))


def _mapped(vs, sets):
    return tuple(tuple(vs[i] for i in s) for s in sets)


@pytest.mark.parametrize("strategy", ["auto", "exact", "bfs_layer", "degree_peel"])
def test_masked_separator_matches_copy(strategy):
    n_range = (2, 22) if strategy == "exact" else (2, 60)
    checked = 0
    for G, mask, vs in _masked_instances(40, n_range, 100):
        if strategy == "exact" and len(vs) > 14:
            continue
        want = find_balanced_separator(induced_subgraph(G, vs), strategy)
        got = find_balanced_separator(G, strategy, mask)
        assert (got.S, got.V1, got.V2) == _mapped(vs, (want.S, want.V1, want.V2))
        checked += 1
    assert checked >= 15


@pytest.mark.parametrize("search", ["exact", "greedy"])
def test_masked_biclique_matches_copy(search):
    # The search is chosen by size: exact up to 20 vertices, greedy above.
    n_range = (2, 24) if search == "exact" else (30, 60)
    checked = 0
    for G, mask, vs in _masked_instances(30, n_range, 200):
        if (len(vs) <= 20) != (search == "exact"):
            continue
        for t_min in (1, 2, 3):
            want = find_balanced_biclique(induced_subgraph(G, vs), t_min)
            got = find_balanced_biclique(G, t_min, mask=mask)
            assert got == (None if want is None else _mapped(vs, want))
        checked += 1
    assert checked >= 10


def _cover_or_error(G, alpha, mask=None):
    try:
        return multipartite_cover(G, alpha, mask=mask)
    except (NoCoverFound, PreconditionViolated) as exc:
        return type(exc)


def test_masked_multipartite_cover_matches_copy():
    covers = 0
    for G, mask, vs in _masked_instances(60, (2, 40), 300):
        if len(vs) < 2:
            continue
        for alpha in (0.02, 0.1, 0.3):
            want = _cover_or_error(induced_subgraph(G, vs), alpha)
            got = _cover_or_error(G, alpha, mask)
            if isinstance(want, type):
                assert got is want
                continue
            assert got.parts == _mapped(vs, want.parts)
            validate_multipartite_cover(G, got, 0.05, mask)
            with pytest.raises(ExtractorViolation):
                validate_multipartite_cover(G, got, 0.05, mask & ~(1 << got.parts[0][0]))
            covers += 1
    assert covers >= 20


def test_masks_outside_the_graph_are_refused():
    G = er_graph(6, 0.5, 1)
    with pytest.raises(UnknownVertex):
        find_balanced_separator(G, "auto", 1 << 6)
    with pytest.raises(UnknownVertex):
        find_balanced_biclique(G, 1, mask=-1)


@pytest.mark.parametrize("strategy", ["auto", "exact", "bfs_layer", "degree_peel"])
def test_empty_mask_gives_the_empty_partition(strategy):
    part = find_balanced_separator(er_graph(6, 0.5, 1), strategy, 0)
    assert (part.S, part.V1, part.V2) == ((), (), ())
