"""Family and drawing readers: every point is checked once, where it enters,
and the reader agrees with the point-by-point reference on every input, to
the error type, message and field."""

import copy
from fractions import Fraction

import pytest

from stringraph import (Drawing, DrawnEdge, GeneratorSpec, Point, Polyline,
                        StringFamily, StringraphError, generate)
from stringraph import fileio
from stringraph.fileio import MAX_DIGITS
from stringraph.generators import KINDS

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
