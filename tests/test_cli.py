"""End-to-end command line behavior: pipelines, reports, exit codes."""

import json
import os
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

from stringraph import KINDS, ExtractionWitness, Graph, quasiplanar
from stringraph import extract as extract_module
from stringraph.cli import _build_parser, main
from stringraph.fileio import graph_text, parse_graph_text
from stringraph.graph import CLIQUE_NODE_BUDGET
from tests.conftest import er_graph


def _write_graph(tmp_path, G, name="g.txt"):
    path = tmp_path / name
    path.write_text(graph_text(G))
    return str(path)


def _run(tmp_path, *args, out="out.json"):
    """Run one command writing to a file; returns (exit code, parsed report)."""
    dest = tmp_path / out
    code = main([*args, "-o", str(dest)])
    text = dest.read_text() if dest.exists() else ""
    try:
        return code, json.loads(text)
    except json.JSONDecodeError:
        return code, text


def test_gen_build_separator_pipeline(tmp_path):
    fam = tmp_path / "fam.json"
    assert main(["gen", "--kind", "random_segments", "--count", "12",
                 "--seed", "7", "-o", str(fam)]) == 0
    graph = tmp_path / "g.txt"
    assert main(["build-graph", str(fam), "-o", str(graph)]) == 0
    G = parse_graph_text(graph.read_text())
    assert G.n == 12
    code, report = _run(tmp_path, "separator", str(graph))
    assert code == 0
    assert report["verification"]["status"] == "pass"
    res = report["result"]
    assert len(res["S"]) + len(res["V1"]) + len(res["V2"]) == 12


def test_reused_parser_leaks_no_state(tmp_path, capsys):
    # main builds its parser once per process; every call must still answer
    # as a call on a freshly built parser does.
    graph = _write_graph(tmp_path, er_graph(14, 0.3, 5))
    drawing = tmp_path / "d.json"
    assert main(["gen", "--kind", "convex_chords", "--count", "6",
                 "--seed", "2", "-o", str(drawing)]) == 0
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"c": 0.5, "separator_strategy": "bfs_layer"}))
    commands = [
        ["separator", graph],
        ["separator", graph, "--strategy", "bfs_layer"],
        ["separator", graph],
        ["extract", "independent", graph, "--s", "3", "--params", str(params)],
        ["extract", "independent", graph, "--s", "3"],
        ["extract", "qindep", graph, "--s", "3"],
        ["extract", "qindep", graph, "--s", "3", "--q", "2"],
        ["qp", "check", str(drawing), "--r", "3"],
        ["qp", "sparse", str(drawing), "--s", "3"],
        ["oracle", "mis", graph],
        ["color-or-clique", graph, "--epsilon", "0.5", "--delta", "0.5"],
        ["no-such-command"],
        ["--help"],
    ] * 2
    capsys.readouterr()

    def call(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    _build_parser.cache_clear()
    reused = [call(argv) for argv in commands]
    assert _build_parser.cache_info().misses == 1
    fresh = []
    for argv in commands:
        _build_parser.cache_clear()
        fresh.append(call(argv))
    assert reused == fresh
    codes = [code for code, _, _ in reused[:len(commands) // 2]]
    assert codes == [0] * 5 + [4] + [0] * 5 + [4, 0]
    assert reused[3][1] != reused[4][1] and reused[0][1] != reused[1][1]


def test_build_graph_from_drawing(tmp_path):
    drawing = tmp_path / "d.json"
    assert main(["gen", "--kind", "convex_chords", "--count", "6",
                 "--seed", "1", "-o", str(drawing)]) == 0
    graph = tmp_path / "g.txt"
    assert main(["build-graph", str(drawing), "-o", str(graph)]) == 0
    G = parse_graph_text(graph.read_text())
    assert (G.n, G.m) == (15, 15)


@pytest.mark.parametrize("op,flags,graph_builder", [
    ("independent", ["--s", "2"], lambda: Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])),
    ("qindep", ["--s", "3", "--q", "2"], lambda: er_graph(12, 0.3, 3)),
    ("kr1free", ["--r", "3"], lambda: Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])),
    ("halfclique", ["--r", "4"], lambda: Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])),
    ("densecore", ["--epsilon", "0.5"], lambda: er_graph(15, 0.4, 4)),
    ("multipartite", ["--alpha", "0.3"], lambda: Graph.from_edges(
        6, [(u, v) for u in range(6) for v in range(u + 1, 6) if abs(u - v) != 3])),
])
def test_extract_operations_verify(tmp_path, op, flags, graph_builder):
    path = _write_graph(tmp_path, graph_builder())
    code, report = _run(tmp_path, "extract", op, path, *flags)
    assert code == 0
    assert report["verification"]["status"] == "pass"
    assert report["operation"] == f"extract:{op}"
    assert report["result"]["outcome"] == "ok"


@pytest.mark.parametrize("op", ["kr1free", "halfclique"])
def test_extract_degree_peel_on_two_isolated_vertices(tmp_path, op):
    path = tmp_path / "g.txt"
    path.write_text("2 0\n")
    code, report = _run(tmp_path, "extract", op, str(path), "--r", "3",
                        "--strategy", "degree_peel")
    assert code == 0
    assert report["verification"]["status"] == "pass"
    assert report["result"]["witness"]["vertices"] == [0, 1]


def test_extract_missing_flag_is_usage_error(tmp_path):
    path = _write_graph(tmp_path, er_graph(6, 0.3, 1))
    code, _ = _run(tmp_path, "extract", "independent", path)
    assert code == 4


def test_extract_precondition_violation_attaches_witness(tmp_path):
    K4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    path = _write_graph(tmp_path, K4)
    code, report = _run(tmp_path, "extract", "kr1free", path, "--r", "3")
    assert code == 3
    assert report["result"]["outcome"] == "PreconditionViolated"
    assert report["result"]["witness"]["kind"] == "clique"
    assert report["result"]["witness"]["vertices"] == [0, 1, 2]


def test_color_or_clique_command(tmp_path):
    path = _write_graph(tmp_path, er_graph(40, 0.2, 9))
    code, report = _run(tmp_path, "color-or-clique", path, "--epsilon", "0.5")
    assert code == 0
    assert report["result"]["witness"]["kind"] in ("coloring", "clique")
    assert report["verification"]["status"] == "pass"


def test_qp_check_and_sparse(tmp_path):
    drawing = tmp_path / "d.json"
    main(["gen", "--kind", "convex_chords", "--count", "6", "--seed", "1",
          "-o", str(drawing)])
    code, report = _run(tmp_path, "qp", "check", str(drawing), "--r", "3")
    assert code == 0
    assert report["result"]["quasiplanar"] is False
    assert report["result"]["witness"] == [2, 7, 11]
    code, report = _run(tmp_path, "qp", "check", str(drawing), "--r", "4")
    assert code == 0
    assert report["result"]["quasiplanar"] is True
    # No witness, so nothing was re-checked.
    assert report["verification"] == {"witness_revalidated": False, "status": "pass"}
    code, report = _run(tmp_path, "qp", "sparse", str(drawing), "--s", "3")
    assert code == 0
    assert report["verification"]["status"] == "pass"
    assert len(report["result"]["witness"]["vertices"]) == 15


def _convex_drawing(tmp_path, n):
    drawing = tmp_path / f"k{n}.json"
    assert main(["gen", "--kind", "convex_chords", "--count", str(n), "--seed", "1",
                 "-o", str(drawing)]) == 0
    return str(drawing)


def test_qp_check_takes_no_radius(tmp_path):
    # The cut radius is derived from the drawing, so it is not an option.
    code, report = _run(tmp_path, "qp", "check", _convex_drawing(tmp_path, 6),
                        "--r", "3", "--radius", "1/100")
    assert (code, report) == (4, "")


@pytest.mark.parametrize("command, flag, message", [
    ("check", "--r=1", "r must be at least 2"), ("sparse", "--s=2", "s must be at least 3")])
def test_qp_parameters_are_checked_before_truncation(tmp_path, capsys, command, flag, message):
    # Vertex 2 lies on the curve of edge (0, 1), so cutting would fail too.
    drawing = tmp_path / "degenerate.json"
    drawing.write_text('{"kind": "drawing", "vertices": [[0, 0], [4, 0], [2, 0], [2, 3]], '
                       '"edges": [{"u": 0, "v": 1, "points": [[0, 0], [4, 0]]}, '
                       '{"u": 2, "v": 3, "points": [[2, 0], [2, 3]]}]}\n')
    code, report = _run(tmp_path, "qp", command, str(drawing), flag)
    assert (code, report) == (4, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_qp_check_verifier_catches_edges_that_do_not_cross(tmp_path, monkeypatch):
    # Edges 0, 1 and 2 of convex K_6 all end at vertex 0, so no two cross.
    monkeypatch.setattr(quasiplanar, "find_clique", lambda G, r: (0, 1, 2))
    code, report = _run(tmp_path, "qp", "check", _convex_drawing(tmp_path, 6), "--r", "3")
    assert code == 2
    assert report["result"]["witness"] == [0, 1, 2]
    assert report["verification"] == {"witness_revalidated": True, "status": "fail",
                                      "message": "witness edges 0 and 1 do not cross"}


def test_qp_sparse_verifier_catches_four_pairwise_crossing_edges(tmp_path, monkeypatch):
    # The four long diagonals of convex K_8 pairwise cross.
    chords = list(combinations(range(8), 2))
    diagonals = tuple(chords.index((i, i + 4)) for i in range(4))
    found = ExtractionWitness("q_independent", diagonals,
                              {"s": 3, "q": 2, "p": 4, "floor": 0, "fallbacks": 0,
                               "found_clique": None})
    monkeypatch.setattr(quasiplanar, "q_independent_set", lambda G, s, q, params: found)
    code, report = _run(tmp_path, "qp", "sparse", _convex_drawing(tmp_path, 8), "--s", "3")
    assert code == 2
    assert report["result"]["witness"]["vertices"] == list(diagonals)
    assert report["verification"]["status"] == "fail"
    assert report["verification"]["witness_revalidated"] is True


def test_qp_bound_report(tmp_path):
    code, report = _run(tmp_path, "qp", "bound", "--n", "256", "--s", "3",
                        "--edges", "1820")
    assert code == 0
    assert report["result"]["bound"] == pytest.approx(256 * (8 / 3) ** 2)
    assert report["result"]["holds"] is True


@pytest.mark.parametrize("flags", [
    ["--n", "300", "--s", "8", "--C", "1e300"],
    ["--n", str(10 ** 400), "--s", "3"],
    ["--n", str(10 ** 400), "--s", "3", "--epsilon", "0.5"],
    ["--n", str(2 * 10 ** 205), "--s", "3", "--epsilon", "0.5"],
    ["--n", "5", "--s", "20000"],
])
def test_qp_bound_overflow_is_a_declared_outcome(tmp_path, flags):
    code, report = _run(tmp_path, "qp", "bound", *flags)
    assert code == 3
    assert report["result"]["outcome"] == "DomainError"


def test_qp_bound_refuses_negative_edges(tmp_path, capsys):
    code, report = _run(tmp_path, "qp", "bound", "--n", "256", "--s", "3",
                        "--edges", "-5")
    assert (code, report) == (4, "")
    assert "edge count cannot be negative" in capsys.readouterr().err



@pytest.mark.parametrize("flags,message", [
    (["--C", "nan"], "C must be finite"),
    (["--C", "inf"], "C must be finite"),
    (["--epsilon", "nan"], "epsilon must be finite"),
    (["--epsilon", "inf"], "epsilon must be finite"),
], ids=["C-nan", "C-inf", "epsilon-nan", "epsilon-inf"])
def test_qp_bound_refuses_non_finite_numbers(tmp_path, capsys, flags, message):
    # A NaN or an infinity would otherwise be written into the report.
    code, report = _run(tmp_path, "qp", "bound", "--n", "256", "--s", "3", *flags)
    assert (code, report) == (4, "")
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("args,name", [
    (["extract", "independent", "--s", "600"], "independent-set floor"),
    (["extract", "qindep", "--s", "600", "--q", "1"], "q-independent floor"),
    (["color-or-clique", "--epsilon", "0.5", "--delta", "1000"],
     "clique threshold n^delta"),
])
def test_extract_formula_overflow_is_a_declared_outcome(tmp_path, args, name):
    path = _write_graph(tmp_path, Graph.from_edges(3, [(0, 1)]))
    code, report = _run(tmp_path, *args, path)
    assert code == 3
    assert report["result"] == {
        "outcome": "DomainError",
        "message": f"{name} is not a finite float for these arguments"}


def test_dense_branch_trigger_overflow_is_a_declared_outcome(tmp_path):
    # Above 10 vertices _qindep computes its dense-branch trigger alpha, whose
    # square overflows a float for this s even though the floor is finite.
    path = _write_graph(tmp_path, er_graph(30, 0.3, 1))
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps({"c": 1e-300}))
    code, report = _run(tmp_path, "extract", "independent", "--s", str(10 ** 200),
                        "--params", str(params_path), path)
    assert code == 3
    assert report["result"] == {
        "outcome": "DomainError",
        "message": "dense-branch trigger alpha is not a finite float for these arguments"}


@pytest.mark.parametrize("graph,params,args,code", [
    (Graph.from_edges(3, [(0, 1)]), {"c": 1e-12},
     ["independent", "--s", "10000000000"], 0),
    (Graph.from_edges(3, [(0, 1)]), {"c": 1e-12},
     ["qindep", "--s", "10000000000", "--q", "1"], 0),
    (Graph.from_edges(3, [(0, 1)]), {"c": 1e-12},
     ["qindep", "--s", "10000000000", "--q", "10000000000"], 3),
    # A tiny c_prime sends K_12 through the cover branch, whose parts are
    # searched for K_{2^(s-1)}.
    (Graph.from_edges(12, [(u, v) for u in range(12) for v in range(u + 1, 12)]),
     {"c": 1e-12, "c_prime": 1e-30}, ["independent", "--s", "10000000000"], 0),
])
def test_huge_clique_exponents_never_build_the_power(tmp_path, graph, params, args, code):
    # A child with a 512 MiB address space: building 2^s or 2^q for these
    # exponents dies there of MemoryError instead of answering or refusing.
    path = _write_graph(tmp_path, graph)
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(params))
    out = tmp_path / "out.json"
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
             "from stringraph.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", child, "extract", *args, path,
                           "--params", str(params_path), "-o", str(out)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == code, proc.stderr
    result = json.loads(out.read_text())["result"]
    if code == 0:
        assert result["outcome"] == "ok" and result["witness"]["vertices"]
    else:
        assert result == {
            "outcome": "DomainError",
            "message": "forbidden clique size 2^q is not a finite float for these arguments"}



@pytest.mark.parametrize("kind", KINDS)
def test_gen_region_stays_within_exact_floats(tmp_path, capsys, kind):
    # The generators place points with float arithmetic, which holds every
    # integer up to 2^53 exactly.
    dest = tmp_path / "out.json"
    edge = 2 ** 53
    for region in ((0, 0, edge + 1, edge + 1), (0, 0, 10 ** 400, 10 ** 400),
                   (-edge - 1, 0, 0, 8)):
        assert main(["gen", "--kind", kind, "--count", "5", "--region",
                     *map(str, region), "-o", str(dest)]) == 4
        assert not dest.exists()
        assert capsys.readouterr().err == (
            "error: region coordinates must lie within -2^53..2^53\n")
    assert main(["gen", "--kind", kind, "--count", "5", "--region",
                 *map(str, (-edge, -edge, edge, edge)), "-o", str(dest)]) == 0
    assert main(["build-graph", str(dest), "-o", str(tmp_path / "g.txt")]) == 0


@pytest.mark.parametrize("params,name", [
    ({"c": True, "c1": True}, "c1"),
    ({"c2": True}, "c2"),
    ({"c": True}, "c"),
    ({"c_prime": False}, "c_prime"),
    ({"c_dblprime": True}, "c_dblprime"),
    ({"delta": True}, "delta"),
], ids=["c-and-c1", "c2", "c", "c_prime-false", "c_dblprime", "delta"])
def test_boolean_tuning_constants_are_refused(tmp_path, capsys, params, name):
    path = _write_graph(tmp_path, Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]))
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(params))
    code, report = _run(tmp_path, "extract", "kr1free", path, "--r", "3",
                        "--params", str(params_path))
    assert (code, report) == (4, "")
    assert capsys.readouterr().err == f"error: bad parameters: {name} cannot be a boolean\n"


def test_epsilon_in_params_file_is_an_unknown_parameter(tmp_path, capsys):
    # epsilon is an option of the commands that use it, not a tuning constant.
    path = _write_graph(tmp_path, Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]))
    params_path = tmp_path / "params.json"
    params_path.write_text('{"epsilon": 0.4}')
    code, report = _run(tmp_path, "extract", "densecore", path, "--epsilon", "0.4",
                        "--params", str(params_path))
    assert (code, report) == (4, "")
    assert capsys.readouterr().err == "error: epsilon: unknown parameter 'epsilon'\n"


def test_densecore_epsilon_defaults_to_one_half(tmp_path):
    path = _write_graph(tmp_path, er_graph(15, 0.4, 4))
    code, report = _run(tmp_path, "extract", "densecore", path)
    assert code == 0
    assert report["parameters"]["epsilon"] == 0.5
    assert "epsilon" not in report["parameters"]["params"]
    assert report["result"]["witness"]["certificate"]["epsilon"] == 0.5


@pytest.mark.parametrize("op,flags,foreign", [
    ("independent", ["--s", "2", "--alpha", "0.3", "--epsilon", "0.9", "--r", "7"], "r"),
    ("independent", ["--s", "2", "--epsilon", "0.5"], "epsilon"),
    ("qindep", ["--s", "3", "--q", "2", "--alpha", "0.3"], "alpha"),
    ("kr1free", ["--r", "3", "--s", "2"], "s"),
    ("densecore", ["--q", "1"], "q"),
    ("multipartite", ["--alpha", "0.3", "--r", "3"], "r"),
    ("halfclique", ["--alpha", "0.3"], "alpha"),
], ids=["independent-many", "independent-epsilon", "qindep-alpha", "kr1free-s",
        "densecore-q", "multipartite-r", "halfclique-alpha-before-missing-r"])
def test_extract_refuses_options_its_op_does_not_read(tmp_path, capsys, op, flags,
                                                      foreign):
    path = _write_graph(tmp_path, Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]))
    code, report = _run(tmp_path, "extract", op, path, *flags)
    assert (code, report) == (4, "")
    assert capsys.readouterr().err == f"error: extract {op} does not take --{foreign}\n"


def test_color_or_clique_reports_one_epsilon(tmp_path):
    path = _write_graph(tmp_path, er_graph(15, 0.4, 4))
    code, report = _run(tmp_path, "color-or-clique", path, "--epsilon", "0.4")
    assert code == 0
    assert report["parameters"]["epsilon"] == 0.4
    assert "epsilon" not in report["parameters"]["params"]


def test_verify_is_refused_where_nothing_is_rechecked(tmp_path, capsys):
    # qp bound and oracle answers have no verifier; --timings still works.
    path = _write_graph(tmp_path, Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]))
    for argv in (["oracle", "mis", path], ["qp", "bound", "--n", "256", "--s", "3"]):
        code, report = _run(tmp_path, *argv, "--verify", "off", out=f"{argv[0]}-off.json")
        assert (code, report) == (4, "")
        assert "unrecognized arguments: --verify off" in capsys.readouterr().err
        code, report = _run(tmp_path, *argv, "--timings", out=f"{argv[0]}-timed.json")
        assert code == 0 and report["verification"]["status"] == "pass"
        assert "wall_seconds" in report["timings"]


def test_oracle_commands(tmp_path):
    C5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    path = _write_graph(tmp_path, C5)
    code, report = _run(tmp_path, "oracle", "mis", path)
    assert code == 0 and report["result"]["vertices"] == [0, 2]
    code, report = _run(tmp_path, "oracle", "clique", path)
    assert code == 0 and report["result"]["vertices"] == [0, 1]
    code, report = _run(tmp_path, "oracle", "kpfree", path, "--p", "2")
    assert code == 0 and report["result"]["vertices"] == [0, 2]
    code, report = _run(tmp_path, "oracle", "sep", path)
    assert code == 0 and len(report["result"]["S"]) == 1
    code, report = _run(tmp_path, "oracle", "biclique", path)
    assert code == 0 and report["result"]["t"] == 1
    drawing = tmp_path / "d.json"
    main(["gen", "--kind", "convex_chords", "--count", "6", "--seed", "1",
          "-o", str(drawing)])
    code, report = _run(tmp_path, "oracle", "crossings", str(drawing), "--r", "3")
    assert code == 0 and report["result"]["found"] is True
    code, report = _run(tmp_path, "oracle", "crossings", str(drawing), "--r", "4")
    assert code == 0 and report["result"]["found"] is False


def test_oracle_size_cap_exit_code(tmp_path):
    path = _write_graph(tmp_path, er_graph(20, 0.2, 2))
    dest = tmp_path / "cap.json"
    assert main(["oracle", "sep", str(path), "-o", str(dest)]) == 5


def test_clique_search_past_its_node_budget_exits_five(tmp_path, capsys):
    # Proving G(400, 1/2) free of K_13 takes 9-11 s of clique search on a
    # shared 2-vCPU VM; the budget refuses it after CLIQUE_NODE_BUDGET nodes,
    # about 1 s there.
    path = _write_graph(tmp_path, er_graph(400, 0.5, 1))
    start = time.perf_counter()
    code = main(["extract", "kr1free", path, "--r", "13", "-o", str(tmp_path / "r.json")])
    elapsed = time.perf_counter() - start
    assert code == 5 and elapsed < 20
    assert capsys.readouterr().err == (
        f"error: clique search for K_13 expanded more than {CLIQUE_NODE_BUDGET} nodes\n")
    assert not (tmp_path / "r.json").exists()


def test_biclique_search_past_its_scan_budget_exits_five(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(extract_module, "BICLIQUE_SCAN_BUDGET", 1000)
    path = _write_graph(tmp_path, er_graph(120, 0.9, 7))
    code = main(["extract", "halfclique", path, "--r", "121", "-o", str(tmp_path / "r.json")])
    assert code == 5
    assert capsys.readouterr().err == (
        "error: greedy balanced-biclique search scanned more than 1000 candidates\n")
    assert not (tmp_path / "r.json").exists()


def test_parse_failures_exit_four(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["build-graph", str(bad)]) == 4
    missing = tmp_path / "nope.json"
    assert main(["build-graph", str(missing)]) == 4
    badgraph = tmp_path / "bad.txt"
    badgraph.write_text("2 1\n0 9\n")
    assert main(["separator", str(badgraph)]) == 4


def test_unwritable_output_exit_four(tmp_path, capsys):
    dest = tmp_path / "missing" / "out.json"
    for argv in (["gen", "--kind", "random_segments", "--count", "5"],
                 ["qp", "bound", "--n", "256", "--s", "3"]):
        assert main([*argv, "-o", str(dest)]) == 4
        assert capsys.readouterr().err.startswith(f"error: cannot write {dest}: ")


def test_unknown_params_key_exit_four(tmp_path):
    path = _write_graph(tmp_path, er_graph(6, 0.3, 1))
    params = tmp_path / "p.json"
    params.write_text('{"c_quadruple": 1}')
    assert main(["extract", "densecore", str(path), "--epsilon", "0.5",
                 "--params", str(params)]) == 4


def test_unknown_strategy_in_params_file_exit_four(tmp_path):
    params = tmp_path / "p.json"
    params.write_text('{"separator_strategy": "magic"}')
    path6 = Graph.from_edges(6, [(i, i + 1) for i in range(5)])
    sparse40 = Graph.from_edges(40, [(0, 1), (2, 3)])
    for G in (path6, sparse40):
        path = _write_graph(tmp_path, G)
        assert main(["extract", "independent", path, "--s", "2",
                     "--params", str(params)]) == 4


def test_usage_error_exit_four(tmp_path):
    assert main(["separator"]) == 4
    assert main(["qp"]) == 4


def test_params_file_overrides_constants(tmp_path):
    path = _write_graph(tmp_path, er_graph(12, 0.35, 5))
    params = tmp_path / "p.json"
    params.write_text('{"c": 0.02, "separator_strategy": "bfs_layer"}')
    code, report = _run(tmp_path, "extract", "densecore", path,
                        "--epsilon", "0.5", "--params", str(params))
    assert code == 0
    assert report["parameters"]["params"]["c"] == 0.02
    assert report["parameters"]["params"]["separator_strategy"] == "bfs_layer"


def test_verify_off_skips_revalidation(tmp_path):
    path = _write_graph(tmp_path, er_graph(10, 0.3, 6))
    code, report = _run(tmp_path, "separator", path, "--verify", "off")
    assert code == 0
    assert report["verification"]["status"] == "skipped"


def test_timings_flag_adds_wall_clock(tmp_path):
    path = _write_graph(tmp_path, er_graph(10, 0.3, 6))
    code, report = _run(tmp_path, "separator", path, "--timings")
    assert code == 0
    assert "wall_seconds" in report["timings"]


def test_reports_are_byte_identical(tmp_path):
    path = _write_graph(tmp_path, er_graph(14, 0.4, 8))
    outs = []
    for k in range(3):
        dest = tmp_path / f"rep{k}.json"
        assert main(["extract", "qindep", path, "--s", "3", "--q", "2",
                     "-o", str(dest)]) == 0
        outs.append(dest.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_survey_csv_shape(tmp_path):
    dest = tmp_path / "survey.csv"
    assert main(["survey", "--kind", "random_segments", "--sizes", "20,40",
                 "--trials", "2", "--seed", "3", "-o", str(dest)]) == 0
    lines = dest.read_text().strip().splitlines()
    assert lines[0] == "size,median_edges,median_separator"
    assert len(lines) == 4 and lines[-1].startswith("# fitted_beta=")


@pytest.mark.parametrize("flags, named", [
    (["--kind", "convex_chords", "--sizes", "10", "--trials", "1"], "--kind"),
    (["--kind", "random_segments", "--sizes", "10", "--trials", "0"], "trials"),
])
def test_survey_refuses_drawing_kinds_and_no_trials(tmp_path, capsys, flags, named):
    dest = tmp_path / "survey.csv"
    assert main(["survey", *flags, "-o", str(dest)]) == 4
    assert not dest.exists()
    assert named in capsys.readouterr().err


def test_stdin_input_via_subprocess(tmp_path):
    fam_json = subprocess.run(
        [sys.executable, "-m", "stringraph.cli", "gen", "--kind",
         "random_segments", "--count", "5", "--seed", "2"],
        capture_output=True, text=True, check=True).stdout
    proc = subprocess.run(
        [sys.executable, "-m", "stringraph.cli", "build-graph", "-"],
        input=fam_json, capture_output=True, text=True)
    assert proc.returncode == 0
    assert parse_graph_text(proc.stdout).n == 5


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "stringraph", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: stringraph")


def _strict_json(text):
    """Parse a report, refusing the NaN and Infinity literals JSON lacks."""
    def refuse(name):
        raise ValueError(f"non-finite literal {name} in report")
    return json.loads(text, parse_constant=refuse)


C5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
K5 = Graph.from_edges(5, list(combinations(range(5), 2)))


@pytest.mark.parametrize("args,params,code,message,graph", [
    (["extract", "kr1free", "--r", "3"], '{"c": NaN}', 4, None, C5),
    (["extract", "kr1free", "--r", "3"], '{"c": 1' + "0" * 400 + "}", 4, None, C5),
    (["extract", "multipartite", "--alpha", "0.1"], '{"c_dblprime": NaN}', 4, None, C5),
    (["extract", "multipartite", "--alpha", "nan"], None, 4, None, C5),
    (["extract", "multipartite", "--alpha", "inf"], None, 4, None, C5),
    (["color-or-clique", "--epsilon", "0.5"], '{"delta": Infinity}', 4, None, C5),
    (["extract", "kr1free", "--r", "3"], '{"c": 1e308}', 3, "cover floor", C5),
    (["extract", "halfclique", "--r", "3"], '{"c": 1e308}', 3, "half-clique floor", C5),
    (["extract", "kr1free", "--r", "3"], '{"c": 1e308}', 3, "cover floor", K5),
    (["extract", "densecore", "--epsilon", "0.5"], '{"c1": 1e200}', 3,
     "refinement constant C", C5),
    (["extract", "densecore", "--epsilon", "1e-200"], None, 3, "refinement constant C", C5),
], ids=["kr1free-c-nan", "kr1free-c-int-1e400", "multipartite-c_dblprime-nan",
        "multipartite-alpha-nan", "multipartite-alpha-inf", "color-or-clique-delta-inf",
        "kr1free-c-1e308", "halfclique-c-1e308", "kr1free-c-1e308-on-K5",
        "densecore-c1-1e200", "densecore-epsilon-1e-200"])
def test_non_finite_numbers_never_reach_a_report(tmp_path, capsys, args, params, code,
                                                 message, graph):
    path = _write_graph(tmp_path, graph)
    extra = []
    if params is not None:
        params_path = tmp_path / "params.json"
        params_path.write_text(params)
        extra = ["--params", str(params_path)]
    dest = tmp_path / "out.json"
    assert main([*args, path, *extra, "-o", str(dest)]) == code
    if code == 4:
        assert not dest.exists()
        assert capsys.readouterr().err.startswith("error: ")
    else:
        assert _strict_json(dest.read_text())["result"] == {
            "outcome": "DomainError",
            "message": f"{message} is not a finite float for these arguments"}


def test_refinement_constant_underflowing_to_zero_is_a_domain_error(tmp_path):
    # (12 c1)^2 and 4 c1^2 / epsilon^2 are both 0.0 in floats.
    path = _write_graph(tmp_path, Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]))
    params_path = tmp_path / "params.json"
    params_path.write_text('{"c1": 1e-200}')
    dest = tmp_path / "out.json"
    assert main(["extract", "densecore", path, "--epsilon", "0.5",
                 "--params", str(params_path), "-o", str(dest)]) == 3
    assert _strict_json(dest.read_text())["result"] == {
        "outcome": "DomainError",
        "message": "refinement constant C underflows to 0 for these arguments"}
