"""Family and drawing readers: every point is checked once, where it enters,
and the reader agrees with the point-by-point reference on every input, to
the error type, message and field."""

import copy
import json
from fractions import Fraction

import pytest

from stringraph import (Drawing, DrawnEdge, GeneratorSpec, Point, Polyline,
                        StringFamily, StringraphError, generate)
from stringraph import fileio
from stringraph.cli import main
from stringraph.fileio import MAX_DIGITS
from stringraph.generators import KINDS

from tests.conftest import bent_convex_drawing
from tests.reference import (coord_in_reference, drawing_from_obj_reference,
                             family_from_obj_reference)

STRINGS = ["1/2", "-3/4", "6/3", "-0/5", "007/3", "1/0", "0/0", "1/00", " 1/2",
           "1/2 ", "+1/2", "1_0/3", "3/", "/3", "--1/2", "1/-2", "abc", "", "1.5",
           "-2.25", "1e3", "7", "١/٢", "9" * (MAX_DIGITS + 1),
           "1/" + "3" * MAX_DIGITS, "5/" + "0" * 40 + "7"]


def _outcome(read, obj):
    """repr of what read(obj) returns, which shows each coordinate's type,
    or the error's type, message and field."""
    try:
        return repr(read(obj))
    except StringraphError as exc:
        return type(exc), str(exc), getattr(exc, "field", None)


def _read(obj):
    if "strings" in obj:
        return _outcome(fileio.family_from_obj, obj), _outcome(family_from_obj_reference, obj)
    return _outcome(fileio.drawing_from_obj, obj), _outcome(drawing_from_obj_reference, obj)


def _base_objects():
    """The decoded file of every generator kind at a few sizes and seeds."""
    objs = []
    for kind in KINDS:
        for count, seed in ((2, 1), (7, 3), (12, 11)):
            made = generate(GeneratorSpec(kind, count, seed=seed))
            text = (fileio.drawing_json(made) if isinstance(made, Drawing)
                    else fileio.family_json(made))
            objs.append(fileio._loads(text))
    objs.append(fileio._loads(fileio.drawing_json(bent_convex_drawing(5, 3))))
    return objs


def test_generator_files_read_like_the_reference():
    for obj in _base_objects():
        got, want = _read(obj)
        assert got == want
        assert isinstance(got, str)


def _bad_value(rng):
    return rng.choice([True, False, 0.5, -1e300, float("nan"), Fraction(7, 2),
                       Fraction(6, 3), [1, 2], [], None, {"x": 1},
                       rng.choice(STRINGS)])


def _mutate(obj, rng):
    """One seeded fault in a decoded family or drawing, in place. A fault
    whose target an earlier fault has already broken is skipped."""
    try:
        _fault(obj, rng)
    except (TypeError, IndexError, KeyError, AttributeError, ValueError):
        pass


def _fault(obj, rng):
    curves = obj["strings"] if "strings" in obj else obj["edges"]
    c = rng.randrange(len(curves))
    pts = curves[c]["points"]
    p = rng.randrange(len(pts))
    fault = rng.randrange(10)
    if fault == 0:  # a bad coordinate: bool, float, str, nested list, ...
        pts[p][rng.randrange(2)] = _bad_value(rng)
    elif fault == 1:  # a point of 3, 1 or 0 elements, or not an array
        pts[p] = rng.choice([pts[p] + [0], pts[p][:1], [], 5, "1/2", (1, 2)])
    elif fault == 2:  # a one-point curve, or points not an array
        curves[c]["points"] = rng.choice([pts[:1], [], None, {"0": pts[0]}])
    elif fault == 3:  # a point repeated
        pts.insert(p, list(pts[p]))
    elif fault == 4:  # a second curve's id or endpoints repeated
        other = curves[rng.randrange(len(curves))]
        if "strings" in obj:
            curves[c]["id"] = other["id"]
        else:
            curves[c]["u"], curves[c]["v"] = other["u"], other["v"]
    elif fault == 5:  # a zero denominator or a literal over the digit cap
        pts[p][rng.randrange(2)] = rng.choice(["1/0", "9" * (MAX_DIGITS + 1)])
    elif fault == 6:  # an entry that is not an object
        curves[c] = rng.choice([[], "s", 3, None])
    elif fault == 7:  # u or v a bool, or an id not a string
        if "strings" in obj:
            curves[c]["id"] = rng.choice([True, 3, "", None])
        else:
            curves[c][rng.choice("uv")] = rng.choice([True, False])
    elif fault == 8 and "vertices" in obj:  # a bad or repeated vertex
        verts = obj["vertices"]
        w = rng.randrange(len(verts))
        if rng.random() < 0.5:
            verts[w] = list(verts[rng.randrange(len(verts))])
        else:
            verts[w][rng.randrange(2)] = _bad_value(rng)
    else:  # a valid bend between the curve's two ends
        exact = ["3/9", "-5/7", "12/4", Fraction(1, 3), 4, "0.25"]
        pts.insert(rng.randrange(1, len(pts)), [rng.choice(exact), rng.choice(exact)])


def test_mutated_files_read_like_the_reference(rng):
    """Seeded differential fuzz: 1 to 3 faults per decoded file; the reader
    and the reference give the same object or the same error."""
    bases = _base_objects()
    families = [obj for obj in bases if "strings" in obj]
    drawings = [obj for obj in bases if "edges" in obj]
    outcomes = []
    for _ in range(1200):
        obj = copy.deepcopy(rng.choice(families if rng.random() < 0.6 else drawings))
        for _ in range(rng.randint(1, 3)):
            _mutate(obj, rng)
        got, want = _read(obj)
        assert got == want, obj
        outcomes.append(got)
    kinds = {o[0] if isinstance(o, tuple) else str for o in outcomes}
    assert len(kinds) == 3  # objects, SchemaError and DuplicateId all occur
    assert 100 < sum(isinstance(o, str) for o in outcomes) < 1100


def _drawing_obj(vertices, curves):
    """A decoded drawing: curve k joins vertex k to vertex k + 1 through its
    own bends."""
    return {"vertices": vertices,
            "edges": [{"u": k, "v": k + 1, "points": [vertices[k], *bends, vertices[k + 1]]}
                      for k, bends in enumerate(curves)]}


def _repeated_point_files():
    """Files whose "p/q" points repeat, with what each read gives: equal
    values in different forms, points of a string and an int, a bool after
    the int it equals, and a bad coordinate at its first and later places."""
    half = ["1/2", "1/2"]
    verts = [half, ["3/2", "1/3"], ["0.5", "3/2"], [1, "1/2"], ["1/2", 1], [1, 2]]
    bends = [[["3/4", "1/3"]], [["3/4", "1/3"], ["5/4", "1/3"]], [["2/4", "3/4"]],
             [["2/3", "1/3"], ["2/4", "2/4"]], [half]]
    family = [{"id": "a", "points": [half, ["3/4", "1/3"], half]},
              {"id": "b", "points": [["2/4", "1/2"], ["3/4", "1/3"], [0.5, "1/3"], half]}]
    files = [(_drawing_obj(verts, bends), None),
             ({"strings": family}, None),
             ({"strings": family + [{"id": "c", "points": [[1, 2], [True, 2], half]}]},
              "strings[2][1]: coordinate cannot be a boolean"),
             ({"strings": [{"id": "a", "points": [[1, 2], ["1/3", "1/3"]]},
                           {"id": "b", "points": [["1/3", "1/3"], [True, 2]]}]},
              "strings[1][1]: coordinate cannot be a boolean"),
             ({"strings": [{"id": "a", "points": [[1, "1/3"], [0, 0]]},
                           {"id": "b", "points": [[0, 1], [True, "1/3"]]}]},
              "strings[1][1]: coordinate cannot be a boolean")]
    for bad in ("1/0", "x"):
        # The bad point first appears as a vertex, a bend or a string's end.
        error = f"bad coordinate {bad!r}"
        files += [
            (_drawing_obj([half, [bad, "1/2"], half[::-1]], [[], [[bad, "1/2"]]]),
             f"vertices[1]: {error}"),
            (_drawing_obj([half, ["1/3", "1/3"], [1, 1]], [[["1/2", bad]], [["1/2", bad]]]),
             f"edges[0][1]: {error}"),
            ({"strings": [{"id": "a", "points": [half, ["1/3", bad]]},
                          {"id": "b", "points": [["1/3", bad], half]}]},
             f"strings[0][1]: {error}")]
    return files


@pytest.mark.parametrize("inexact", [False, True])
def test_repeated_ratio_points_read_like_the_reference(inexact):
    """The reader converts a point of two strings once per file and hands
    that Point out at each later place; the reference reads every place
    anew. Same objects, or the same error at the same place."""
    for obj, error in _repeated_point_files():
        got, want = _read(fileio._loads(json.dumps(obj), inexact))
        assert got == want, obj
        if error is None:
            assert isinstance(got, str)
        else:
            assert got[1] == error


def test_a_bool_after_the_int_it_equals_is_refused(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"strings": [{"id": "a", "points": [[1, 2], ["1/2", 1]]},
                                            {"id": "b", "points": [[True, 2], [0, 0]]}]}))
    assert main(["build-graph", str(path), "-o", str(tmp_path / "g.txt")]) == 4


def test_repeated_points_share_their_point():
    drawing = fileio.drawing_from_obj(
        _drawing_obj([["1/2", "1/3"], ["1/3", "1/2"], ["1/5", "1/7"]],
                     [[["1/9", "1/9"]], [["1/9", "1/9"]]]))
    first, second = (e.curve.points for e in drawing.edges)
    assert first[1] is second[1] and first[-1] is second[0]
    assert all(e.curve.points[0].x is drawing.vertices[e.u].x for e in drawing.edges)


@pytest.mark.parametrize("n", [3, 8, 10])
def test_a_convex_drawing_file_reads_each_vertex_once(n, monkeypatch):
    """A straight-line convex K_n file holds n + n(n - 1) points, every one a
    vertex's; its coordinates are converted 2n times."""
    calls = 0
    real = fileio.exact_coord

    def counting(value):
        nonlocal calls
        calls += 1
        return real(value)

    monkeypatch.setattr(fileio, "exact_coord", counting)
    drawing = generate(GeneratorSpec("convex_chords", n, seed=n))
    text = fileio.drawing_json(drawing)
    assert fileio.parse_drawing(text) == drawing
    assert calls == 2 * n


def _one_edge(vertices, points, u=0):
    return {"vertices": vertices, "edges": [{"u": u, "v": 1, "points": points}]}


# Drawings at the edge of the C passes, by name: the file, and whether the
# passes read it, which here is whether the file is accepted.
SPELLINGS = {
    # "1/2" then "2/4": one value spelled twice, a repeated point.
    "equal-consecutive": (_one_edge([[0, 0], [1, 1]],
                                    [[0, 0], ["1/2", "1/3"], ["2/4", "2/6"], [1, 1]]), False),
    # A curve's end spelled "2/4" at a vertex spelled "1/2": the same point.
    "end-spelled-apart": (_one_edge([["1/2", "1/3"], [1, 1]],
                                    [["2/4", "2/6"], ["3/4", "1/5"], [1, 1]]), True),
    "all-int": (_drawing_obj([[0, 0], [4, 0], [4, 4]], [[[2, -1]], [[5, 2], [3, 2]]]), True),
    "int-and-str-points": (_drawing_obj([[0, 0], ["4", "1/3"], [4, 4]],
                                        [[["2/3", -1]], [[5, 2], ["7/2", "5/2"]]]), True),
    "u-true": (_one_edge([[0, 0], [1, 1]], [[0, 0], [1, 1]], u=True), False),
}


@pytest.mark.parametrize("name", sorted(SPELLINGS))
def test_drawings_at_the_edge_of_the_c_passes(name):
    """The C passes read a drawing, or leave it to the checked reader, as
    SPELLINGS says; either way the reader gives what the reference gives."""
    obj, bulk = SPELLINGS[name]
    obj = fileio._loads(json.dumps(obj))
    assert (fileio._exact_drawing(obj["vertices"], obj["edges"]) is not None) == bulk
    got, want = _read(obj)
    assert got == want
    assert isinstance(got, str) == bulk
    if name == "end-spelled-apart":
        D = fileio.drawing_from_obj(obj)
        end, vertex = D.edges[0].curve.points[0], D.vertices[0]
        assert end.x is vertex.x and end.y is vertex.y


@pytest.mark.parametrize("n", [1, 2, 3, 8, 12])
def test_generator_drawings_skip_the_per_coordinate_path(n, monkeypatch):
    """Every convex_chords drawing, and a bent one, never reaches _coord_in:
    the C passes read it."""
    drawings = [generate(GeneratorSpec("convex_chords", n, seed=seed)) for seed in (1, 7)]
    if n > 1:
        drawings.append(bent_convex_drawing(n, n))
    texts = [fileio.drawing_json(D) for D in drawings]

    def refuse(value, where):
        raise AssertionError(f"{where}: {value!r} took the per-coordinate path")

    monkeypatch.setattr(fileio, "_coord_in", refuse)
    for D, text in zip(drawings, texts):
        got = fileio.parse_drawing(text)
        assert got == D
        assert all(type(p) is Point for e in got.edges for p in e.curve.points)


@pytest.mark.parametrize("literal", STRINGS)
def test_ratio_strings_read_like_fraction(literal):
    """A plain "p/q" skips Fraction's parser; every string gives the value
    and type, or the error, that the reference gives."""
    def read(coord_in):
        try:
            value = coord_in(literal, "w")
            return value, type(value)
        except StringraphError as exc:
            return type(exc), str(exc)

    assert read(fileio._coord_in) == read(coord_in_reference)


@pytest.mark.parametrize("kind", ["random_segments", "random_polylines", "grid_paths"])
def test_int_files_skip_the_per_coordinate_path(kind, monkeypatch):
    """An all-int family never reaches _coord_in: each of its points becomes
    a Point as it stands."""
    family = generate(GeneratorSpec(kind, 120, seed=5))
    text = fileio.family_json(family)

    def refuse(value, where):
        raise AssertionError(f"{where}: {value!r} took the per-coordinate path")

    monkeypatch.setattr(fileio, "_coord_in", refuse)
    got = fileio.parse_input(text)
    assert got == family
    assert all(type(p) is Point for s in got.strings for p in s.points)


def test_points_are_exact_pairs():
    p = Point(1, 2)
    assert p.x == 1 and p.y == 2 and p == (1, 2)
    assert hash(p) == hash(Point(1, 2)) and len({p, Point(1, 2)}) == 1
    line = Polyline("a", [(0, 0), (Fraction(1, 2), 3)])
    assert line.points == (Point(0, 0), Point(Fraction(1, 2), 3))
    assert all(type(q) is Point for q in line.points)
    D = Drawing([(0, 0), (1, 1)], (DrawnEdge(0, 1, Polyline("e0", ((0, 0), (1, 1)))),))
    assert D.vertices == (Point(0, 0), Point(1, 1))


@pytest.mark.parametrize("bad", [True, 1.5, "1"], ids=["bool", "float", "str"])
def test_constructors_refuse_inexact_coordinates(bad):
    message = f"coordinates must be int or Fraction, got {type(bad).__name__}"
    with pytest.raises(TypeError, match=message):
        Polyline("a", (Point(0, 0), Point(bad, 1)))
    with pytest.raises(TypeError, match=message):
        StringFamily((Polyline("a", ((0, 0), (1, 1))), Polyline("b", ((0, bad), (1, 1)))))
    with pytest.raises(TypeError, match=message):
        Drawing(((0, 0), (bad, 1)), ())
    with pytest.raises(TypeError, match=message):
        Drawing(((0, 0), (1, 1)), (DrawnEdge(0, 1, Polyline("e0", ((0, 0), (bad, 1), (1, 1)))),))


def test_constructors_keep_their_chain_and_vertex_checks():
    with pytest.raises(ValueError, match=r"consecutive duplicate point Point\(x=0, y=0\)"):
        Polyline("a", ((0, 0), (0, 0), (1, 1)))
    with pytest.raises(ValueError, match="needs at least 2 points"):
        Polyline("a", ((0, 0),))
    with pytest.raises(ValueError, match="pairwise distinct"):
        Drawing(((0, 0), (0, 0)), ())


@pytest.mark.parametrize("kind", KINDS)
def test_generated_points_pass_the_checked_constructors(kind):
    """Generators build their curves unchecked; the checked constructors
    accept every curve unchanged."""
    made = generate(GeneratorSpec(kind, 9, seed=4))
    curves = made.strings if isinstance(made, StringFamily) else [e.curve for e in made.edges]
    for s in curves:
        assert Polyline(s.id, s.points) == s
        assert all(type(q) is Point for q in s.points)


# Edits of a small all-int family file, by name: the first two stay on the
# bulk path (a point repeated across two strings is allowed), every other one
# leaves it for the checked reader.
BULK_EDITS = ("none", "repeat_across", "true", "float", "three", "nested",
              "repeat_inside", "no_id", "empty_id", "not_dict", "one_point")


def _edited_family_text(edit):
    strings = [{"id": "a", "points": [[0, 0], [4, 4], [0, 4]]},
               {"id": "b", "points": [[1, 4], [4, 0]]},
               {"id": "c", "points": [[5, 5], [6, 5]]}]
    a, b, c = (s["points"] for s in strings)
    if edit == "repeat_across":
        c[0] = [4, 0]
    elif edit == "true":
        b[0][0] = True
    elif edit == "float":
        b[0][0] = 1.0
    elif edit == "three":
        b[0].append(1)
    elif edit == "nested":
        b[0] = [[1, 4], 1]
    elif edit == "repeat_inside":
        a.insert(1, [0, 0])
    elif edit == "no_id":
        del strings[1]["id"]
    elif edit == "empty_id":
        strings[1]["id"] = ""
    elif edit == "not_dict":
        strings[1] = b
    elif edit == "one_point":
        del b[1:]
    return json.dumps({"kind": "family", "strings": strings})


@pytest.mark.parametrize("inexact", [False, True])
@pytest.mark.parametrize("edit", BULK_EDITS)
def test_bulk_int_path_reads_like_the_reference(edit, inexact, tmp_path, capsys):
    """The bulk all-int path and the checked reader it falls back to give the
    family, or the error text, that the reference gives, and the CLI exits 4
    with that text."""
    text = _edited_family_text(edit)
    obj = fileio._loads(text, inexact)
    bulk = fileio._int_strings(obj["strings"]) is not None
    assert bulk == (edit in ("none", "repeat_across"))
    got = _outcome(fileio.family_from_obj, obj)
    assert got == _outcome(family_from_obj_reference, obj)
    path = tmp_path / "f.json"
    path.write_text(text)
    args = ["build-graph", str(path), "-o", str(tmp_path / "g.txt")] + ["--inexact"] * inexact
    code = main(args)
    if isinstance(got, str):
        assert code == 0
    else:
        assert code == 4
        assert capsys.readouterr().err == f"error: {got[1]}\n"
