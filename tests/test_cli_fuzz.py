"""Seeded CLI fuzz: every report command that reads a graph file, over a grid
of parameters, on small adversarial graphs. No run may crash (exit 1, a
traceback), run past RUN_SECONDS, or exit non-zero without saying why. Then
a fixed list of hostile JSON documents, read as families, drawings and params
files: each is refused with exit 3 or 4 and an error line."""

import json
import random
import time
from itertools import combinations

import pytest

from stringraph import Graph
from stringraph.cli import main
from stringraph.fileio import graph_text
from stringraph.separator import STRATEGIES
from tests.conftest import er_graph

# Wall time one run may take; the slowest run here takes under 0.05 s on a
# shared 2-vCPU VM.
RUN_SECONDS = 1.0
# Where a command's graph file goes in its argument list.
GRAPH = "GRAPH"


# color-or-clique --delta 0.3 returns more than n^epsilon colour classes:
# each class is an independent set the extraction recursion keeps tiny.
KNOWN_EXIT_2 = {(name, "color-or-clique", GRAPH, "--epsilon", "0.5", "--delta", "0.3")
                for name in ("K4x4x4", "path200")}


def _complete(n):
    return Graph.from_edges(n, combinations(range(n), 2))


def _multipartite(parts, size):
    """The complete multipartite graph of `parts` parts of `size` vertices."""
    n = parts * size
    return Graph.from_edges(n, [(u, v) for u, v in combinations(range(n), 2)
                                if u // size != v // size])


def _graphs():
    rng = random.Random(20261020)
    return {
        "K3": _complete(3),
        "K40": _complete(40),
        "K4x4x4": _multipartite(3, 4),
        "K10x3": _multipartite(10, 3),
        "G60_0.95": er_graph(60, 0.95, rng.randrange(1 << 30)),
        "G200_0.97": er_graph(200, 0.97, rng.randrange(1 << 30)),
        "path200": Graph.from_edges(200, [(v, v + 1) for v in range(199)]),
        "star200": Graph.from_edges(200, [(0, v) for v in range(1, 200)]),
        "empty200": Graph.from_edges(200, []),
    }


def _commands():
    commands = [["separator", GRAPH, "--strategy", s] for s in STRATEGIES]
    commands += [["extract", "independent", GRAPH, "--s", s] for s in ("1", "2", "4")]
    commands += [["extract", "qindep", GRAPH, "--s", s, "--q", q]
                 for s, q in (("2", "1"), ("3", "2"), ("2", "3"))]
    commands += [["extract", op, GRAPH, "--r", r] for op in ("kr1free", "halfclique")
                 for r in ("1", "2", "3", "8")]
    commands += [["extract", "densecore", GRAPH, "--epsilon", e] for e in ("0.1", "0.5", "1.5")]
    commands += [["extract", "multipartite", GRAPH, "--alpha", a] for a in ("0", "0.1", "0.5")]
    commands += [["extract", "independent", GRAPH, "--s", "2", "--strategy", s]
                 for s in ("bfs_layer", "degree_peel")]
    commands += [["color-or-clique", GRAPH, "--epsilon", e] for e in ("0.5", "1")]
    commands += [["color-or-clique", GRAPH, "--epsilon", "0.5", "--delta", "0.3"]]
    commands += [["oracle", w, GRAPH] for w in ("mis", "clique", "sep", "biclique")]
    commands += [["oracle", "kpfree", GRAPH, "--p", "3"]]
    return commands


def _explained(code, err, report):
    """Whether a non-zero exit says why: an error line on stderr, or a
    report whose verification failed (exit 2) or that names its declared
    outcome (exit 3)."""
    if any(line.startswith(("error: ", "verification error: ")) for line in err.splitlines()):
        return True
    if not report:
        return False
    obj = json.loads(report)
    if code == 2:
        return obj["verification"]["status"] == "fail"
    return code == 3 and obj["result"]["outcome"] != "ok"


def test_report_commands_exit_declared_on_adversarial_graphs(tmp_path, capsys):
    codes = {}
    for name, G in _graphs().items():
        graph = tmp_path / f"{name}.txt"
        graph.write_text(graph_text(G))
        for args in _commands():
            out = tmp_path / "report.json"
            out.unlink(missing_ok=True)
            argv = [str(graph) if a == GRAPH else a for a in args]
            started = time.perf_counter()
            try:
                code = main([*argv, "-o", str(out)])
            except Exception as exc:  # the CLI would exit 1 with a traceback
                pytest.fail(f"{name} {args}: {type(exc).__name__}: {exc}")
            took = time.perf_counter() - started
            err = capsys.readouterr().err
            assert took < RUN_SECONDS, (name, args, took)
            assert code in (0, 2, 3, 4, 5), (name, args, code)
            if code:
                report = out.read_text() if out.exists() else ""
                assert _explained(code, err, report), (name, args, code, err)
            codes.setdefault(code, []).append((name, *args))
    # A procedure that misses its own bound exits 2: a defect, and only the
    # known ones may appear.
    assert set(codes.get(2, [])) <= KNOWN_EXIT_2, codes[2]
    assert {0, 3, 4, 5} <= set(codes)


# JSON nested far past the decoder's recursion limit, and well formed.
DEEP = "[" * 100_000 + "]" * 100_000
# Hostile JSON values, each put where a coordinate and a tuning constant go.
HOSTILE_VALUES = {
    "deep": DEEP,
    "nan": "NaN",
    "5000-digit": "7" * 5000,
    "1e400": "1e400",
    "zero-denominator": '"1/0"',
}
# Documents of the wrong shape, each given as an input and as a params file.
WRONG_SHAPES = {
    "deep-top-level": DEEP,
    "array": "[]",
    "string": '"family"',
    "null": "null",
    "strings-object": '{"kind": "family", "strings": {}}',
    "string-array": '{"kind": "family", "strings": [[[0, 0], [1, 1]]]}',
    "id-number": '{"kind": "family", "strings": [{"id": 1, "points": [[0, 0], [1, 1]]}]}',
    "point-scalar": '{"kind": "family", "strings": [{"id": "a", "points": [0, 1]}]}',
    "edges-number": '{"kind": "drawing", "vertices": [[0, 0], [1, 1]], "edges": 3}',
    "u-float": ('{"kind": "drawing", "vertices": [[0, 0], [1, 1]], '
                '"edges": [{"u": 0.5, "v": 1, "points": [[0, 0], [1, 1]]}]}'),
    "param-array": '{"c": [1]}',
}


def _family(x):
    return ('{"kind": "family", "strings": [{"id": "a", "points": [[%s, 0], [1, 1]]}, '
            '{"id": "b", "points": [[0, 1], [1, 0]]}]}' % x)


def _drawing(x):
    return ('{"kind": "drawing", "vertices": [[%s, 0], [1, 1]], '
            '"edges": [{"u": 0, "v": 1, "points": [[%s, 0], [1, 1]]}]}' % (x, x))


def _input_commands(path):
    commands = [["build-graph", path], ["qp", "check", path, "--r", "2"],
                ["qp", "sparse", path, "--s", "2"], ["oracle", "crossings", path, "--r", "2"]]
    return commands + [[*c, "--inexact"] for c in commands]


def _params_commands(path, graph):
    return [["extract", "independent", graph, "--s", "1", "--params", path],
            ["color-or-clique", graph, "--epsilon", "0.5", "--params", path]]


def test_hostile_json_documents_exit_declared(tmp_path, capsys):
    graph = tmp_path / "graph.txt"
    graph.write_text(graph_text(_complete(3)))
    runs = []
    for name, x in HOSTILE_VALUES.items():
        runs += [(name, _family(x), args) for args in _input_commands(GRAPH)]
        runs += [(name, _drawing(x), args) for args in _input_commands(GRAPH)]
        runs += [(name, '{"c": %s}' % x, args) for args in _params_commands(GRAPH, str(graph))]
    for name, text in WRONG_SHAPES.items():
        runs += [(name, text, args) for args in
                 _input_commands(GRAPH) + _params_commands(GRAPH, str(graph))]
    doc = tmp_path / "doc.json"
    for name, text, args in runs:
        doc.write_text(text)
        argv = [str(doc) if a == GRAPH else a for a in args]
        try:
            code = main([*argv, "-o", str(tmp_path / "out")])
        except Exception as exc:  # the CLI would exit 1 with a traceback
            pytest.fail(f"{name} {args}: {type(exc).__name__}")
        err = capsys.readouterr().err
        # Read exactly, 1e400 is the integer 10^400, a coordinate like any other.
        if name == "1e400" and "--inexact" not in args and "--params" not in args:
            continue
        assert code in (3, 4), (name, args, code, err)
        assert err.startswith("error: "), (name, args, err)
