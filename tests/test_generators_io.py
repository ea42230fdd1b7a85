"""Seeded instance generators and exact-number serialization."""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from stringraph import (BadSpec, Drawing, GeneratorSpec, Graph, ParseError,
                        Point, Polyline, SchemaError, StringFamily,
                        StringraphError, generate,
                        intersection_graph)
from stringraph import fileio
from stringraph.cli import main
from stringraph.fileio import (MAX_EDGES, MAX_SEGMENTS, MAX_VERTICES, drawing_json,
                               family_json, graph_text,
                               parse_drawing, parse_graph_text, parse_input,
                               report_json, sha256_digest)
from stringraph.generators import FAMILY_KINDS

from tests.conftest import FAMILIES, er_graph, family_graph
from tests.reference import parse_graph_text_reference


def parse_family(text, inexact=False):
    """parse_input of a text that must hold a family."""
    family = parse_input(text, inexact)
    assert isinstance(family, StringFamily)
    return family


def test_generate_is_deterministic():
    for kind in ("random_segments", "random_polylines", "convex_chords",
                 "grid_paths", "disjoint_segments", "all_crossing_segments"):
        spec = GeneratorSpec(kind=kind, count=7, seed=11)
        assert generate(spec) == generate(spec)
    a = generate(GeneratorSpec(kind="random_segments", count=7, seed=1))
    b = generate(GeneratorSpec(kind="random_segments", count=7, seed=2))
    assert a != b


def test_generator_kinds_produce_expected_shapes():
    fam = generate(GeneratorSpec(kind="random_segments", count=9, seed=0))
    assert isinstance(fam, StringFamily) and len(fam) == 9
    assert all(len(s.points) == 2 for s in fam.strings)

    poly = generate(GeneratorSpec(kind="random_polylines", count=5, seed=0, bends=3))
    assert all(2 <= len(s.points) <= 5 for s in poly.strings)

    D = generate(GeneratorSpec(kind="convex_chords", count=6, seed=0))
    assert isinstance(D, Drawing) and (D.n, D.m) == (6, 15)

    grid = generate(GeneratorSpec(kind="grid_paths", count=9, seed=0))
    G = intersection_graph(grid)
    assert G.m == 12  # 3x3 grid adjacency

    disj = generate(GeneratorSpec(kind="disjoint_segments", count=6, seed=0))
    assert intersection_graph(disj).m == 0

    allx = generate(GeneratorSpec(kind="all_crossing_segments", count=6, seed=0))
    assert intersection_graph(allx).m == 15


def test_generator_region_bounds_respected():
    region = (10, 20, 200, 150)
    fam = generate(GeneratorSpec(kind="random_segments", count=8, seed=3,
                                 region=region))
    for s in fam.strings:
        for p in s.points:
            assert 10 <= p.x <= 200 and 20 <= p.y <= 150


def test_bad_specs_rejected():
    with pytest.raises(BadSpec):
        GeneratorSpec(kind="moebius", count=3)
    with pytest.raises(BadSpec):
        GeneratorSpec(kind="random_segments", count=0)
    with pytest.raises(BadSpec):
        GeneratorSpec(kind="random_segments", count=3, region=(0, 0, 3, 3))
    with pytest.raises(BadSpec):
        GeneratorSpec(kind="convex_chords", count=65)
    with pytest.raises(BadSpec):
        GeneratorSpec(kind="random_polylines", count=3, bends=-1)


def test_spec_segment_cap():
    # Exactly MAX_SEGMENTS segments are accepted; one string or bend more is refused.
    GeneratorSpec(kind="random_polylines", count=MAX_SEGMENTS // 1000, bends=999)
    for count, bends in ((MAX_SEGMENTS // 1000 + 1, 999), (MAX_SEGMENTS // 1000, 1000)):
        with pytest.raises(BadSpec, match="segments, above the 1000000 cap"):
            GeneratorSpec(kind="random_polylines", count=count, bends=bends)


def test_spec_vertex_cap():
    # A string is a vertex of the family's graph: MAX_VERTICES strings are
    # accepted, one more is refused.
    for kind in FAMILY_KINDS:
        GeneratorSpec(kind=kind, count=MAX_VERTICES)
        with pytest.raises(BadSpec, match="count 32769 is above the 32768 vertex cap"):
            GeneratorSpec(kind=kind, count=MAX_VERTICES + 1)


# The command line in a child with a 512 MiB address space, where a command
# that allocates before it refuses dies of MemoryError (exit 1).
_CAPPED = ("import resource, sys\n"
           "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
           "from stringraph.cli import main\n"
           "sys.exit(main(sys.argv[1:]))\n")


def _capped_cli(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-c", _CAPPED, *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_oversized_gen_refused_before_generating(tmp_path):
    out = tmp_path / "fam.json"
    for flags in (["--kind", "random_segments", "--count", "1000000000"],
                  ["--kind", "random_polylines", "--count", "2", "--bends", "1000000000"]):
        proc = _capped_cli("gen", *flags, "-o", str(out))
        assert proc.returncode == 4, proc.stderr
        assert "above the 1000000 cap" in proc.stderr
        assert not out.exists()


def _far_matched(n):
    """Graph text of n vertices with vertex i matched to i + n/2: few edges,
    but every mask of the lower half reaches past n/2, so the masks hold
    about n^2/2 bits."""
    half = n // 2
    return f"{n} {half}\n" + "".join(f"{i} {i + half}\n" for i in range(half))


def test_graphs_above_the_vertex_cap_are_refused(tmp_path):
    # 200000 vertices need about 2.3 GiB of masks.
    graph = tmp_path / "far.txt"
    graph.write_text(_far_matched(200_000))
    for argv in (["separator", str(graph)], ["extract", "independent", str(graph), "--s", "2"]):
        proc = _capped_cli(*argv)
        assert proc.returncode == 4, proc.stderr
        assert "graph has 200000 vertices, above the 32768 cap" in proc.stderr


def test_graph_at_the_vertex_cap_runs(tmp_path):
    graph = tmp_path / "far.txt"
    graph.write_text(_far_matched(MAX_VERTICES))
    report = tmp_path / "report.json"
    # bfs_layer answers this graph in about a second; auto also tries degree_peel.
    proc = _capped_cli("separator", str(graph), "--strategy", "bfs_layer", "-o", str(report))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(report.read_text())["verification"]["status"] == "pass"


def test_families_and_drawings_above_the_vertex_cap_are_refused(tmp_path):
    over = MAX_VERTICES + 1
    family = tmp_path / "fam.json"
    family.write_text(json.dumps({"kind": "family", "strings": [
        {"id": f"s{i}", "points": [[4 * i, 0], [4 * i + 1, 1]]} for i in range(over)]}))
    # Edges of a straight-line drawing on 257 points of a parabola: the
    # crossing graph has one vertex per edge.
    drawing = tmp_path / "drawing.json"
    edges = list(combinations(range(257), 2))[:over]
    drawing.write_text(json.dumps({
        "kind": "drawing", "vertices": [[x, x * x] for x in range(257)],
        "edges": [{"u": u, "v": v, "points": [[u, u * u], [v, v * v]]} for u, v in edges]}))
    out = tmp_path / "out"
    for argv, message in (
            (["gen", "--kind", "random_segments", "--count", "200000"],
             "count 200000 is above the 32768 vertex cap"),
            (["survey", "--kind", "random_segments", "--sizes", "10,40000", "--trials", "1"],
             "count 40000 is above the 32768 vertex cap"),
            (["build-graph", str(family)], "family has 32769 strings, above the 32768 cap"),
            (["build-graph", str(drawing)], "drawing has 32769 edges, above the 32768 cap"),
            (["qp", "check", str(drawing), "--r", "3"],
             "drawing has 32769 edges, above the 32768 cap")):
        proc = _capped_cli(*argv, "-o", str(out))
        assert proc.returncode == 4, proc.stderr
        assert message in proc.stderr
        assert not out.exists()


def test_families_and_drawings_above_the_segment_cap_are_refused(tmp_path, monkeypatch):
    monkeypatch.setattr(fileio, "MAX_SEGMENTS", 4)
    at_cap = [{"id": "a", "points": [[0, 0], [1, 1], [2, 0]]},
              {"id": "b", "points": [[0, 1], [1, 0], [2, 1]]}]
    assert len(parse_family(json.dumps({"kind": "family", "strings": at_cap}))) == 2
    # The third string repeats a point, which building its Polyline would
    # refuse; the count comes first.
    over = at_cap + [{"id": "c", "points": [[5, 5], [5, 5]]}]
    with pytest.raises(SchemaError, match="family has 5 segments, above the 4 cap"):
        parse_input(json.dumps({"kind": "family", "strings": over}))
    zigzag = [[x, x % 2] for x in range(6)]
    drawing = {"kind": "drawing", "vertices": [[0, 0], [5, 1]],
               "edges": [{"u": 0, "v": 1, "points": zigzag}]}
    with pytest.raises(SchemaError, match="drawing has 5 segments, above the 4 cap"):
        parse_input(json.dumps(drawing))
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"kind": "family", "strings": over}))
    out = tmp_path / "g.txt"
    assert main(["build-graph", str(fam), "-o", str(out)]) == 4
    assert not out.exists()


def test_family_json_roundtrip():
    fam = StringFamily((
        Polyline("a", (Point(0, 0), Point(3, 4))),
        Polyline("b", (Point(Fraction(1, 2), 2), Point(5, Fraction(7, 3)))),
    ))
    text = family_json(fam)
    back = parse_family(text)
    assert back == fam
    assert '"1/2"' in text and '"7/3"' in text


def test_drawing_json_roundtrip():
    D = generate(GeneratorSpec(kind="convex_chords", count=5, seed=4))
    back = parse_drawing(drawing_json(D))
    assert back.vertices == D.vertices
    assert [(e.u, e.v) for e in back.edges] == [(e.u, e.v) for e in D.edges]
    assert [e.curve.points for e in back.edges] == [e.curve.points for e in D.edges]


def test_parse_input_dispatches_on_kind():
    fam = generate(GeneratorSpec(kind="random_segments", count=3, seed=0))
    assert isinstance(parse_input(family_json(fam)), StringFamily)
    D = generate(GeneratorSpec(kind="convex_chords", count=4, seed=0))
    assert isinstance(parse_input(drawing_json(D)), Drawing)


def test_decimal_literals_parse_exactly():
    text = '{"kind": "family", "strings": [{"id": "a", "points": [[0.1, 0], [1, 1]]}]}'
    fam = parse_family(text)
    assert fam.strings[0].points[0].x == Fraction(1, 10)
    # Binary doubles differ from the decimal reading for 0.1.
    inex = parse_family(text, inexact=True)
    assert inex.strings[0].points[0].x == Fraction(0.1)
    assert inex.strings[0].points[0].x != Fraction(1, 10)


def test_non_finite_numbers_rejected():
    text = '{"kind": "family", "strings": [{"id": "a", "points": [[NaN, 0], [1, 1]]}]}'
    with pytest.raises(SchemaError):
        parse_family(text)


def test_malformed_json_reports_line():
    with pytest.raises(ParseError) as exc:
        parse_family('{"kind": "family",\n  "strings": [}')
    assert "line 2" in str(exc.value)


def test_family_schema_errors():
    with pytest.raises(SchemaError):
        parse_family('{"kind": "family", "strings": [{"id": "a"}]}')
    with pytest.raises(SchemaError):
        parse_family('{"kind": "family", "strings": [{"id": "a", "points": [[0, 0]]}]}')
    with pytest.raises(SchemaError):
        parse_input('{"kind": "sculpture"}')


def test_graph_text_roundtrip():
    G = Graph.from_edges(4, [(0, 1), (2, 3)])
    text = graph_text(G)
    assert parse_graph_text(text) == G
    commented = "# a comment\n\n" + text
    assert parse_graph_text(commented) == G
    inline = "4 2  # n m\n# edges follow\n0 1 # first\n\n2 3\n"
    assert parse_graph_text(inline) == G
    # int() reads leading zeros, which JSON refuses.
    assert parse_graph_text("4 2\n00 01\n02 3\n") == G
    empty = Graph.from_edges(0, [])
    assert graph_text(empty) == "0 0\n"
    assert parse_graph_text(graph_text(empty)) == empty


GRAPH_TEXT_ERRORS = [
    ("", ParseError, "line 1: empty graph file", 1),
    ("3\n", ParseError, "line 1: header must be 'n m'", 1),
    ("3 1 4\n", ParseError, "line 1: header must be 'n m'", 1),
    ("3 x\n", ParseError, "line 1: header must hold two integers", 1),
    ("-1 0\n", SchemaError, "vertex and edge counts cannot be negative", None),
    ("2 -1\n", SchemaError, "vertex and edge counts cannot be negative", None),
    ("2 1\n", ParseError, "line 1: expected 1 edge lines, found 0", 1),
    ("3 1\n0 1\n# note\n1 2\n", ParseError,
     "line 4: expected 1 edge lines, found 2", 4),
    ("2 1\n0 1 1\n", ParseError, "line 2: edge line must be 'u v'", 2),
    ("# c\n2 1\n\n0 x\n", ParseError, "line 4: edge line must hold two integers", 4),
    ("2 1\n0 5\n", SchemaError, "edge (0, 5) outside 0..1", None),
    ("2 1\n-1 0\n", SchemaError, "edge (-1, 0) outside 0..1", None),
    ("0 1\n0 0\n", SchemaError, "edge (0, 0) outside 0..-1", None),
    ("2 1\n1 1\n", SchemaError, "self-loop at vertex 1", None),
    ("2 2\n0 1\n0 1\n", SchemaError, "duplicate edge (0, 1)", None),
    ("2 2\n0 1\n1 0\n", SchemaError, "duplicate edge (1, 0)", None),
    # Lines are checked in order: the first bad line decides the error.
    ("3 3\n0 1\n1 0\n0 9\n", SchemaError, "duplicate edge (1, 0)", None),
    ("3 2\n0 9\n1 1\n", SchemaError, "edge (0, 9) outside 0..2", None),
    # Texts in graph_text's layout, or one line short of it, that a check
    # refuses: the line reader still raises the first bad line's error.
    ("3 2\n0 9\n1 x\n", SchemaError, "edge (0, 9) outside 0..2", None),
    ("3 2\n0 1\n0 1\n", SchemaError, "duplicate edge (0, 1)", None),
    (f"{MAX_VERTICES + 1} 1\n0 1\n", SchemaError,
     f"graph has {MAX_VERTICES + 1} vertices, above the {MAX_VERTICES} cap", None),
]


def test_graph_text_errors():
    """Each malformed graph text raises one exact error type and message,
    with the line number where the error carries one."""
    for text, error, message, line in GRAPH_TEXT_ERRORS:
        with pytest.raises(StringraphError) as exc:
            parse_graph_text(text)
        assert type(exc.value) is error, text
        assert str(exc.value) == message, text
        if error is ParseError:
            assert exc.value.line == line, text


def _read_outcome(parse, text):
    """The graph a reader returns, or the type, message and line of the error
    it raises."""
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def _assert_reads_like_reference(text):
    got = _read_outcome(parse_graph_text, text)
    assert got == _read_outcome(parse_graph_text_reference, text), repr(text)
    return got


def _edge_lines(G, rng):
    """G's edge lines in a shuffled order, each with its ends in a random order."""
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in G.edges()]
    rng.shuffle(edges)
    return [f"{u} {v}" for u, v in edges]


def test_graph_text_matches_reference_reader(rng):
    graphs = [er_graph(n, p, rng.randrange(1 << 30))
              for n in (0, 1, 2, 5, 17, 64) for p in (0.0, 0.3, 0.9)]
    graphs += [family_graph(kind, 150, seed) for kind in FAMILIES for seed in (1, 2)]
    for G in graphs:
        assert _assert_reads_like_reference(graph_text(G)) == G
        lines = [f"{G.n} {G.m}"] + _edge_lines(G, rng)
        assert _assert_reads_like_reference("\n".join(lines) + "\n") == G
        # One edge line replaced anywhere, deep into a long file too.
        for bad in ("0 01", "1\t2", "3 3", "1 0", f"0 {G.n}", "4 5 # c"):
            if G.m:
                i = rng.randrange(1, len(lines))
                _assert_reads_like_reference("\n".join(lines[:i] + [bad] + lines[i + 1:]) + "\n")


# Texts one edit away from graph_text's layout, each named for its edit. The
# digits-deleted layout check passes on the first six, so the JSON decode or
# the range and bit-count checks must hand them to the line reader.
LAYOUT_EDITS = {
    "leading zero": "4 2\n0 01\n2 3\n",
    "empty token": "4 2\n0 \n2 3\n",
    "10 digits": "4 2\n0 1234567890\n2 3\n",
    "5000 digits": "4 2\n0 " + "1" * 5000 + "\n2 3\n",
    "self-loop": "4 2\n0 1\n3 3\n",
    "duplicate edge": "4 2\n0 1\n1 0\n",
    "edge >= n": "4 2\n0 1\n2 4\n",
    "plus sign": "4 2\n0 +1\n2 3\n",
    "double space": "4 2\n0  1\n2 3\n",
    "tab": "4 2\n0\t1\n2 3\n",
    "trailing space": "4 2\n0 1 \n2 3\n",
    "CRLF": "4 2\r\n0 1\r\n2 3\r\n",
    "no final newline": "4 2\n0 1\n2 3",
    "non-ASCII digit": "4 2\n0 \u0661\n2 3\n",
}


@pytest.mark.parametrize("edit", sorted(LAYOUT_EDITS))
def test_graph_text_layout_edits_read_like_reference(edit):
    _assert_reads_like_reference(LAYOUT_EDITS[edit])


# Tokens that int() reads and JSON does not ("00", "01", "+1", "1_0", the
# Arabic-Indic three), that neither reads, and out-of-range ones.
FUZZ_TOKENS = ("0", "1", "2", "3", "9", "00", "01", "+1", "1_0", "\u0663",
               "-1", "x", "1000000000")


def _fuzz_graph_text(rng):
    """A random small graph's text with zero to three random faults."""
    G = er_graph(rng.randrange(7), rng.choice((0.3, 0.7)), rng.randrange(1 << 30))
    lines = [f"{G.n} {G.m}"] + _edge_lines(G, rng)
    end, last = "\n", "\n"
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        i = rng.randrange(len(lines))
        tokens = lines[i].split(" ")
        fault = rng.randrange(9)
        if fault == 0:  # any token
            tokens[rng.randrange(len(tokens))] = rng.choice(FUZZ_TOKENS)
            lines[i] = " ".join(tokens)
        elif fault == 1:  # a self-loop, or an edge listed again in either order
            if i and len(tokens) == 2:
                if rng.random() < 0.5:
                    lines[i] = f"{tokens[0]} {tokens[0]}"
                else:
                    lines.insert(rng.randint(1, len(lines)),
                                 " ".join(tokens[::rng.choice((1, -1))]))
        elif fault == 2:  # a header that counts too many or too few lines
            lines[0] = f"{G.n} {max(0, G.m + rng.choice((-1, 1)))}"
        elif fault == 3:  # a line dropped
            del lines[i]
            if not lines:
                lines = [""]
        elif fault == 4:  # blank and comment lines, and a comment after a line
            lines.insert(i, rng.choice(("", "   ", "# note", "#")))
            lines[rng.randrange(len(lines))] += " # " + rng.choice(FUZZ_TOKENS)
        elif fault == 5:  # other whitespace between and around the tokens
            lines[i] = rng.choice(("\t", "  ", " \x0c ")).join(tokens)
            if rng.random() < 0.5:
                lines[i] = " " + lines[i] + "\t"
        elif fault == 6:  # other line breaks
            end = last = rng.choice(("\r\n", "\r", "\x0c", "\x85"))
        elif fault == 7:  # no final line break
            last = ""
        else:  # an extra token
            lines[i] += " " + rng.choice(FUZZ_TOKENS)
    return end.join(lines) + last


def test_graph_text_fuzz_matches_reference_reader(rng):
    """Seeded differential fuzz: every text reads as the reference line
    reader reads it, to the error type, message and line."""
    outcomes = [_assert_reads_like_reference(_fuzz_graph_text(rng)) for _ in range(4000)]
    graphs = sum(isinstance(got, Graph) for got in outcomes)
    assert 1000 < graphs < 3000


# The report bytes of REPORT_PARTS, pinned: every golden report follows these
# rules, so the literal changes only with a recorded change of report output.
REPORT_PARTS = dict(
    operation="demo", input_digest="abc",
    parameters={"b": 2, "a": 1, "apexes": {2: (0, 1), 10: (2, 3)}},
    result={"outcome": "ok", "ratio": Fraction(1, 3), "whole": Fraction(6, 3),
            "parts": [{"edge": (4, 5)}], "none": None, "flag": True, "alpha": 0.25},
    verification={"status": "pass", "witness_revalidated": True})
REPORT_TEXT = (
    '{"input_digest": "abc", "operation": "demo", '
    '"parameters": {"a": 1, "apexes": {"2": [0, 1], "10": [2, 3]}, "b": 2}, '
    '"result": {"alpha": 0.25, "flag": true, "none": null, "outcome": "ok", '
    '"parts": [{"edge": [4, 5]}], "ratio": "1/3", "whole": 2}, '
    '"verification": {"status": "pass", "witness_revalidated": true}}\n')


def test_report_json_is_canonical():
    """One line with json's default separators; keys sorted by json, int keys
    by value; tuples are arrays, an integral rational is an integer and any
    other one "p/q"; timings only when given."""
    assert report_json(**REPORT_PARTS) == REPORT_TEXT
    timed = REPORT_TEXT.replace('"verification"',
                                '"timings": {"wall_seconds": 0.5}, "verification"')
    assert report_json(**REPORT_PARTS, timings={"wall_seconds": 0.5}) == timed


def test_sha256_digest_stable():
    assert sha256_digest("abc") == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
    assert sha256_digest(b"abc") == sha256_digest("abc")


def test_oversized_graph_header_refused_before_allocating():
    # A child with a 512 MiB address space: a parser that allocates per
    # declared vertex dies there of MemoryError instead of refusing.
    code = ("import resource, time\n"
            "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
            "from stringraph import SchemaError\n"
            "from stringraph.fileio import parse_graph_text\n"
            "start = time.perf_counter()\n"
            "try:\n"
            "    parse_graph_text('100000000 0\\n')\n"
            "except SchemaError:\n"
            "    print(time.perf_counter() - start)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 0.1


def test_graph_text_refuses_a_graph_above_the_edge_cap_fast():
    # A complete graph, built from its masks: the smallest one above the cap.
    n = math.isqrt(2 * MAX_EDGES) + 1
    full = (1 << n) - 1
    G = Graph(tuple(full & ~(1 << v) for v in range(n)))
    assert G.m > MAX_EDGES >= (n - 1) * (n - 2) // 2
    start = time.perf_counter()
    with pytest.raises(SchemaError, match="above the"):
        graph_text(G)
    assert time.perf_counter() - start < 0.1


def test_oversized_coordinate_literals_refused_fast():
    template = '{"kind": "family", "strings": [{"id": "a", "points": [[%s, 0], [1, 1]]}]}'
    for literal in ("1e1000000", '"1e1000000"', '"1/1%s"' % ("0" * 5000), "1" * 5000):
        start = time.perf_counter()
        with pytest.raises(SchemaError):
            parse_family(template % literal)
        assert time.perf_counter() - start < 0.1
    fam = parse_family(template % "1e400")
    assert fam.strings[0].points[0].x == 10 ** 400
    assert parse_family(family_json(fam)) == fam


_FAMILY_WITH = '{"kind": "family", "strings": [{"id": "a", "points": [[%s, 0], [1, 1]]}]}'


@pytest.mark.parametrize("literal,message", [
    ('"%s"' % ("7" * 4301), "number literal '%s' exceeds 4300 digits" % ("7" * 24)),
    ('"%s/%s"' % ("3" * 2200, "7" * 2200),
     "number literal '%s' exceeds 4300 digits" % ("3" * 24)),
    ('"1e5000"', "number literal '1e5000' exceeds 4300 digits"),
    ('"1E4301"', "number literal '1E4301' exceeds 4300 digits"),
    ("1e5000", "number literal '1e5000' exceeds 4300 digits"),
    ("1e-5000", "number literal '1e-5000' exceeds 4300 digits"),
    ("7" * 4301, "number literal exceeds 4300 digits"),
], ids=["string-4301-digits", "ratio-2200-over-2200", "string-1e5000", "string-1E4301",
        "float-1e5000", "float-1e-5000", "int-4301-digits"])
def test_literals_past_the_digit_cap_are_refused(tmp_path, capsys, literal, message):
    text = _FAMILY_WITH % literal
    with pytest.raises(SchemaError) as exc:
        parse_input(text)
    assert str(exc.value) == message
    path, out = tmp_path / "fam.json", tmp_path / "g.txt"
    path.write_text(text)
    assert main(["build-graph", str(path), "-o", str(out)]) == 4
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("literal,value", [
    ('"%s"' % ("7" * 4300), int("7" * 4300)),
    ('" 1e3 "', 1000),
], ids=["string-4300-digits", "string-1e3-spaced"])
def test_literals_within_the_digit_cap_are_read(tmp_path, literal, value):
    text = _FAMILY_WITH % literal
    assert parse_family(text).strings[0].points[0].x == value
    path, out = tmp_path / "fam.json", tmp_path / "g.txt"
    path.write_text(text)
    assert main(["build-graph", str(path), "-o", str(out)]) == 0
    assert parse_graph_text(out.read_text()).n == 1
