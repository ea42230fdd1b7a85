"""Serialization: family and drawing JSON, graph text files, run reports.

Coordinates in files stay exact: integers are plain JSON numbers, other
rationals are "p/q" strings, and decimal literals parse to the exact rational
they denote. With inexact=True decimal literals are read as IEEE doubles
instead (then converted to the exact rational of the double). A point is
checked once, as it is read: two ints become a Point as they stand, and any
other point goes through _coord_in, whose errors name the point. A family
whose every string is a dict with a non-empty str id and at least two
[int, int] points, none equal to the one before it in its string, is checked
and built in a few passes that run in C; any other family goes to the
checked reader, which names the first fault. A point of two strings is
read once per file: each later occurrence of the same two strings reuses the
first one's Point, so the vertex points that every curve of a drawing
starts and ends at are converted once each. Every JSON document written
(family, drawing, run report) is json.dumps(obj, sort_keys=True,
default=_exact) plus a newline: one line, json's default separators, ASCII
only, keys sorted by json (int keys by value), tuples as arrays, and each
Fraction an integer when integral and a "p/q" string otherwise. So
parse-emit round trips are byte-stable and reports are reproducible; pipe a
document through `python -m json.tool` for an indented view. Inputs that
would be too costly to hold or could not be written back are refused with
SchemaError: graph files, families and drawings whose graph would have more
than MAX_VERTICES vertices (strings of a family, edges of a drawing),
families and drawings whose curves hold more than MAX_SEGMENTS segments,
graphs of more than MAX_EDGES edges to write as text, and number literals
above MAX_DIGITS digits.

A graph file is text: a header line "n m", then exactly m edge lines "u v"
with 0 <= u, v < n and u != v, no edge listed twice in either order. Tokens
on a line are separated by whitespace and read as Python's int() reads them,
so "+1", "007", "1_0" and non-ASCII digits count. "#" starts a comment that
runs to the end of its line, blank lines are skipped, and any line break that
str.splitlines knows ends a line. The files graph_text writes (plain decimals,
one space, "\\n" after each line, nothing else) are read in a few passes that
run in C: deleting the ASCII digits from the edge lines must leave " \\n" once
per edge, and a JSON decode reads the numbers, refusing an empty token, a
leading zero or a literal too long for an int. Any other text is read line by
line, and that reader raises every error, with the line where it is found.
"""
from __future__ import annotations

import decimal
import hashlib
import json
import re
from fractions import Fraction
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import eq, ne
from typing import Optional, Union

from .errors import ParseError, SchemaError
from .geometry import Coord, Point, Polyline, StringFamily, exact_coord
from .graph import Graph
from .quasiplanar import DrawnEdge, Drawing

# A graph holds one adjacency mask per vertex, and a mask costs about its
# highest neighbour's index in bits, so n vertices may need n^2 bits however
# few the edges: 2^15 vertices is 128 MiB.
MAX_VERTICES = 1 << 15
# Segments a family or drawing may hold: intersection_graph files every
# segment's box, in one strip or more, so its memory grows with this count.
MAX_SEGMENTS = 1_000_000
# Edges graph_text writes: at the cap its edge list, lines and text peak at
# about 180 MB (a complete graph on 1448 vertices, written in 0.7 s).
MAX_EDGES = 1 << 20
# Python's default limit for int <-> str conversion, which json.dumps obeys.
MAX_DIGITS = 4300


# ---------------------------------------------------------------------------
# Exact numbers.

def _check_digits(text: str) -> None:
    """Refuse a number literal whose exact value may need more than MAX_DIGITS
    digits, before anything of that size is computed. A literal of at most
    MAX_DIGITS characters and no exponent has no more digits than characters,
    so it passes without a count."""
    literal = text.strip().lower()
    if len(literal) <= MAX_DIGITS and "e" not in literal:
        return
    mantissa, _, exponent = literal.partition("e")
    try:
        scale = abs(int(exponent or 0))
    except ValueError:  # not a number (left to the caller), or a huge exponent
        scale = MAX_DIGITS + 1 if exponent.lstrip("+-").isdigit() else 0
    if sum(ch.isdigit() for ch in mantissa) + scale > MAX_DIGITS:
        raise SchemaError(f"number literal {text[:24]!r} exceeds {MAX_DIGITS} digits")


def _exact_decimal(text: str) -> Fraction:
    _check_digits(text)
    return Fraction(decimal.Decimal(text))


def _reject_constant(text: str):
    raise SchemaError(f"non-finite number {text!r} is not allowed")


def _loads(text: str, inexact: bool = False):
    try:
        if inexact:
            return json.loads(text, parse_constant=_reject_constant)
        return json.loads(text, parse_float=_exact_decimal,
                          parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    except RecursionError:  # the decoder recurses once per level of nesting
        raise ParseError("invalid JSON: nesting too deep") from None
    except ValueError as exc:  # an integer literal past MAX_DIGITS digits
        raise SchemaError(f"number literal exceeds {MAX_DIGITS} digits") from exc


def _coord_in(value, where: str) -> Coord:
    """exact_coord of a file's coordinate; a refusal names where."""
    if isinstance(value, str):
        _check_digits(value)
    try:
        return exact_coord(value)
    except TypeError as exc:
        raise SchemaError(f"{where}: {exc}") from exc
    except ValueError as exc:
        detail = f"bad coordinate {value!r}" if isinstance(value, str) else exc
        raise SchemaError(f"{where}: {detail}") from exc


def _point_in(value, where: str) -> Point:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise SchemaError(f"{where}: a point must be a two-element array")
    return Point(_coord_in(value[0], where), _coord_in(value[1], where))


def _point_once(value, where: str, i: int, seen: dict) -> Point:
    """_point_in of value, naming where[i]. A point of two JSON strings is
    read at its first occurrence in the file, and seen hands that Point out
    again for each later one. Only str pairs are keys: true, 1, 1.0 and a
    decimal Fraction compare equal, and each of them is checked where it
    stands."""
    if (type(value) is list and len(value) == 2
            and type(value[0]) is str and type(value[1]) is str):
        key = (*value,)
        point = seen.get(key)
        if point is None:
            point = seen[key] = _point_in(value, f"{where}[{i}]")
        return point
    return _point_in(value, f"{where}[{i}]")


def _points_in(values: list, where: str, seen: dict) -> tuple[Point, ...]:
    """The points of values, each checked once; errors name where[i]."""
    return tuple([tuple.__new__(Point, p) if type(p) is list and len(p) == 2
                   and type(p[0]) is int and type(p[1]) is int
                   else _point_once(p, where, i, seen) for i, p in enumerate(values)])


def _curve_in(value, where: str, curve_id: str, seen: dict) -> Polyline:
    if not isinstance(value, list) or len(value) < 2:
        raise SchemaError(f"{where}: need an array of at least 2 points")
    pts = _points_in(value, where, seen)
    if all(map(ne, pts, pts[1:])):
        return Polyline.of_exact(curve_id, pts)
    try:  # the checked constructor raises for the point that repeats
        return Polyline(curve_id, pts)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _check_caps(curves: list, kind: str, noun: str) -> None:
    """Refuse more than MAX_VERTICES curves, then more than MAX_SEGMENTS
    segments, counted from the point arrays before any point is read."""
    if len(curves) > MAX_VERTICES:
        raise SchemaError(f"{kind} has {len(curves)} {noun}, above the {MAX_VERTICES} cap")
    segments = sum(len(c["points"]) - 1 for c in curves
                   if isinstance(c, dict) and isinstance(c.get("points"), list))
    if segments > MAX_SEGMENTS:
        raise SchemaError(f"{kind} has {segments} segments, above the {MAX_SEGMENTS} cap")


# ---------------------------------------------------------------------------
# String families.

def family_to_obj(family: StringFamily) -> dict:
    return {"kind": "family",
            "strings": [{"id": s.id, "points": s.points} for s in family.strings]}


def _int_strings(raws: list) -> Optional[tuple[Polyline, ...]]:
    """The curves of raws, read in a few passes that run in C, when every
    entry is a dict with a non-empty str "id" and a "points" list of at
    least two [int, int] points, no two consecutive points of one string
    equal; None otherwise. Types are tested exactly, so true is refused."""
    if not raws or {*map(type, raws)} != {dict}:
        return None
    ids = list(map(dict.get, raws, repeat("id")))
    curves = list(map(dict.get, raws, repeat("points")))
    if ({*map(type, ids)} != {str} or not all(ids) or {*map(type, curves)} != {list}
            or min(map(len, curves)) < 2):
        return None
    flat = list(chain.from_iterable(curves))
    if ({*map(type, flat)} != {list} or {*map(len, flat)} != {2}
            or {*map(type, chain.from_iterable(flat))} != {int}):
        return None
    # flat[k] == flat[k + 1] is allowed only where a string starts at k + 1.
    stops = list(accumulate(map(len, curves)))
    if not {*stops}.issuperset(compress(count(1), map(eq, flat, islice(flat, 1, None)))):
        return None
    points = tuple(map(tuple.__new__, repeat(Point), flat))
    return tuple(map(Polyline.of_exact, ids, map(points.__getitem__,
                                                   map(slice, [0, *stops], stops))))


def family_from_obj(obj) -> StringFamily:
    if not isinstance(obj, dict) or not isinstance(obj.get("strings"), list):
        raise SchemaError("family file needs a top-level 'strings' array",
                          field="strings")
    _check_caps(obj["strings"], "family", "strings")
    strings = _int_strings(obj["strings"])
    if strings is not None:
        return StringFamily(strings)
    seen: dict = {}
    strings = []
    for i, raw in enumerate(obj["strings"]):
        where = f"strings[{i}]"
        if not isinstance(raw, dict):
            raise SchemaError(f"{where}: each string must be an object")
        sid = raw.get("id")
        if not isinstance(sid, str) or not sid:
            raise SchemaError(f"{where}: missing string id", field="id")
        strings.append(_curve_in(raw.get("points"), where, sid, seen))
    return StringFamily(tuple(strings))


# ---------------------------------------------------------------------------
# Drawings.

def drawing_to_obj(drawing: Drawing) -> dict:
    return {"kind": "drawing", "vertices": drawing.vertices,
            "edges": [{"u": e.u, "v": e.v, "points": e.curve.points} for e in drawing.edges]}


def drawing_from_obj(obj) -> Drawing:
    if not isinstance(obj, dict):
        raise SchemaError("drawing file must be a JSON object")
    if not isinstance(obj.get("vertices"), list):
        raise SchemaError("drawing file needs a 'vertices' array", field="vertices")
    if not isinstance(obj.get("edges"), list):
        raise SchemaError("drawing file needs an 'edges' array", field="edges")
    _check_caps(obj["edges"], "drawing", "edges")
    seen: dict = {}
    verts = _points_in(obj["vertices"], "vertices", seen)
    edges = []
    for k, raw in enumerate(obj["edges"]):
        where = f"edges[{k}]"
        if not isinstance(raw, dict):
            raise SchemaError(f"{where}: each edge must be an object")
        u, v = raw.get("u"), raw.get("v")
        if not isinstance(u, int) or not isinstance(v, int) or isinstance(u, bool) or isinstance(v, bool):
            raise SchemaError(f"{where}: u and v must be integers")
        edges.append(DrawnEdge(u, v, _curve_in(raw.get("points"), where, f"e{k}", seen)))
    try:
        return Drawing(verts, tuple(edges))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Unified input loading.

def parse_input(text: str, inexact: bool = False) -> Union[StringFamily, Drawing]:
    """Load a family or drawing JSON document, telling them apart by shape."""
    obj = _loads(text, inexact)
    if not isinstance(obj, dict):
        raise SchemaError("input must be a JSON object")
    kind = obj.get("kind")
    if kind == "family" or (kind is None and "strings" in obj):
        return family_from_obj(obj)
    if kind == "drawing" or (kind is None and "vertices" in obj and "edges" in obj):
        return drawing_from_obj(obj)
    raise SchemaError("cannot tell whether this is a family or a drawing", field="kind")


def parse_drawing(text: str, inexact: bool = False) -> Drawing:
    loaded = parse_input(text, inexact)
    if not isinstance(loaded, Drawing):
        raise SchemaError("expected a drawing file, got a family")
    return loaded


def _exact(value) -> Union[int, str]:
    """json.dumps's hook for a Fraction: an int when integral, "p/q" otherwise."""
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else str(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, default=_exact) + "\n"


def family_json(family: StringFamily) -> str:
    return _dumps(family_to_obj(family))


def drawing_json(drawing: Drawing) -> str:
    return _dumps(drawing_to_obj(drawing))


# ---------------------------------------------------------------------------
# Graph text files (grammar in the module docstring).

def graph_text(G: Graph) -> str:
    m = G.m
    if m > MAX_EDGES:
        raise SchemaError(f"graph has {m} edges, above the {MAX_EDGES} cap")
    lines = [f"{G.n} {m}"]
    lines.extend(f"{u} {v}" for u, v in G.edges())
    return "\n".join(lines) + "\n"


# graph_text's own layout: an "n m" header line of plain decimals, then lines
# of two ASCII digit runs split by one space, each line ending in "\n". A
# header token has no leading zero and at most nine digits.
_TOKEN = "(?:0|[1-9][0-9]{0,8})"
_HEADER = re.compile(f"({_TOKEN}) ({_TOKEN})\n")
_NO_DIGITS = str.maketrans("", "", "0123456789")


def parse_graph_text(text: str) -> Graph:
    """Read a graph file. A file in graph_text's own layout is read in a few
    passes that run in C; any other text, and any text that one of their
    checks refuses, goes to the line reader, which raises every error."""
    header = _HEADER.match(text)
    if header is None:
        return _parse_graph_lines(text)
    n, m = int(header[1]), int(header[2])
    if n > MAX_VERTICES:
        return _parse_graph_lines(text)
    body = text[header.end():]
    # Deleting the digits leaves " \n" per line only if each line is two
    # digit runs split by one space. A run that is empty, has a leading zero
    # or is too long for an int is refused by the JSON decode.
    layout = body.translate(_NO_DIGITS)
    if len(layout) != 2 * m or layout != " \n" * m:
        return _parse_graph_lines(text)
    try:
        ends = json.loads("[" + body.replace(" ", ",").replace("\n", ",")[:-1] + "]")
    except ValueError:
        return _parse_graph_lines(text)
    if ends and max(ends) >= n:
        return _parse_graph_lines(text)
    adj = [0] * n
    pairs = iter(ends)
    for u, v in zip(pairs, pairs):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    # Each edge sets two bits, unless it is a self-loop or a duplicate.
    if sum(map(int.bit_count, adj)) != 2 * m:
        return _parse_graph_lines(text)
    return Graph(tuple(adj))


def _parse_graph_lines(text: str) -> Graph:
    """Read a graph file line by line, raising at the first line that fails."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append((lineno, body))
    if not rows:
        raise ParseError("empty graph file", line=1)
    lineno, head = rows[0]
    parts = head.split()
    if len(parts) != 2:
        raise ParseError("header must be 'n m'", line=lineno)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ParseError("header must hold two integers", line=lineno) from exc
    if n < 0 or m < 0:
        raise SchemaError("vertex and edge counts cannot be negative")
    if n > MAX_VERTICES:
        raise SchemaError(f"graph has {n} vertices, above the {MAX_VERTICES} cap")
    if len(rows) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(rows) - 1}",
                         line=rows[-1][0])
    adj = [0] * n
    for lineno, body in rows[1:]:
        parts = body.split()
        if len(parts) != 2:
            raise ParseError("edge line must be 'u v'", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError("edge line must hold two integers", line=lineno) from exc
        if not (0 <= u < n and 0 <= v < n):
            raise SchemaError(f"edge ({u}, {v}) outside 0..{n - 1}")
        if u == v:
            raise SchemaError(f"self-loop at vertex {u}")
        if adj[u] >> v & 1:
            raise SchemaError(f"duplicate edge ({u}, {v})")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(tuple(adj))


# ---------------------------------------------------------------------------
# Run reports.

def report_json(operation: str, input_digest: str, parameters: dict, result: dict,
                verification: dict, timings: Optional[dict] = None) -> str:
    """The canonical JSON text of a run report, timings only when given, as
    _dumps writes every document (see the module docstring)."""
    obj = {"operation": operation, "input_digest": input_digest,
           "parameters": parameters, "result": result, "verification": verification}
    if timings is not None:
        obj["timings"] = timings
    return _dumps(obj)


def sha256_digest(data: Union[str, bytes]) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()
