"""Extractor outcomes pinned by digest.

Each case calls one extractor on a fixed graph under a fixed parameter set and
reduces its outcome to a sha256: of (kind, vertices, sorted certificate
items) for a witness, or of (exception type, message, witness vertices) for a
refusal. `extractor_pins.json` holds the recorded digests, so a refactor of
the extraction code must leave every entry unchanged.
`PYTHONPATH=src python -m tests.test_extractor_pins` prints the digests of the
current code in that file's format.
"""

import hashlib
import json
from itertools import combinations
from pathlib import Path

from stringraph import (AlgorithmParams, Graph, color_or_clique, half_clique_free_subgraph,
                        independent_set, kr1_free_subgraph, q_independent_set)
from stringraph.generators import GeneratorSpec, generate
from stringraph.quasiplanar import crossing_graph, sparse_subgraph
from tests.conftest import FAMILIES, er_graph, family_graph

PINS = Path(__file__).with_name("extractor_pins.json")

PARAMS = {
    "default": AlgorithmParams(),
    "degree_peel": AlgorithmParams(separator_strategy="degree_peel"),
    "c5-cprime2": AlgorithmParams(c=5, c_prime=2),
    "cdblprime1e3-bfs": AlgorithmParams(c_dblprime=1e3, separator_strategy="bfs_layer"),
    "cprime1e3": AlgorithmParams(c_prime=1e3),
}

CALLS = {
    "kr1free-r3": lambda G, p: kr1_free_subgraph(G, 3, p),
    "kr1free-r6": lambda G, p: kr1_free_subgraph(G, 6, p),
    "halfclique-r3": lambda G, p: half_clique_free_subgraph(G, 3, p),
    "halfclique-r6": lambda G, p: half_clique_free_subgraph(G, 6, p),
    "independent-s2": lambda G, p: independent_set(G, 2, p),
    "independent-s3": lambda G, p: independent_set(G, 3, p),
    "qindep-s2-q1": lambda G, p: q_independent_set(G, 2, 1, p),
    "qindep-s3-q2": lambda G, p: q_independent_set(G, 3, 2, p),
}


def _complete(n):
    return Graph.from_edges(n, list(combinations(range(n), 2)))


def _graphs():
    graphs = {f"{kind}-{n}": family_graph(kind, n, 3) for kind in FAMILIES for n in (20, 60)}
    graphs["er-30"] = er_graph(30, 0.5, 37)
    graphs["K5"] = _complete(5)
    graphs["C5"] = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    graphs["empty"] = Graph.from_edges(0, [])
    return graphs


def _cases():
    graphs = _graphs()
    for gname, G in graphs.items():
        for pname, params in PARAMS.items():
            for cname, call in CALLS.items():
                yield f"{cname}/{gname}/{pname}", lambda c=call, G=G, p=params: c(G, p)
    # An overflowing floor on a graph that holds the forbidden clique.
    K5, huge = graphs["K5"], AlgorithmParams(c=1e308)
    yield "check-order/kr1free-r3", lambda: kr1_free_subgraph(K5, 3, huge)
    yield "check-order/halfclique-r3", lambda: half_clique_free_subgraph(K5, 3, huge)
    yield "check-order/independent-s2", lambda: independent_set(K5, 2, huge)
    yield "check-order/qindep-s2-q1", lambda: q_independent_set(K5, 2, 1, huge)
    # delta = 0.3 makes s = 2 at these sizes, so the colour rounds run on
    # every K_4-free graph.
    for gname, G in graphs.items():
        if G.n <= 60:
            for eps in (0.5, 0.9):
                yield (f"color-or-clique-eps{eps}/{gname}",
                       lambda G=G, e=eps: color_or_clique(G, e, AlgorithmParams(delta=0.3)))
    for n in (7, 8, 9):
        crossings = crossing_graph(generate(GeneratorSpec(kind="convex_chords", count=n,
                                                          seed=1)))
        for s in (3, 4):
            for pname, params in PARAMS.items():
                yield (f"sparse-s{s}/convex-K{n}/{pname}",
                       lambda X=crossings, s=s, p=params: sparse_subgraph(X, s, p))


def _plain(value):
    return tuple(sorted(value.items())) if isinstance(value, dict) else value


def _digest(call) -> str:
    try:
        w = call()
    except Exception as exc:
        witness = getattr(exc, "witness", None)
        outcome = (type(exc).__name__, str(exc),
                   witness.vertices if witness is not None else None)
    else:
        outcome = (w.kind, w.vertices,
                   tuple((k, _plain(v)) for k, v in sorted(w.certificate.items())))
    return hashlib.sha256(repr(outcome).encode()).hexdigest()


def _digests() -> dict:
    return {name: _digest(call) for name, call in _cases()}


def test_extractor_outcomes_match_their_pins():
    recorded = json.loads(PINS.read_text())
    current = _digests()
    assert current.keys() == recorded.keys()
    changed = sorted(name for name in current if current[name] != recorded[name])
    assert not changed, changed


if __name__ == "__main__":
    print(json.dumps(_digests(), indent=0, sort_keys=True))
