"""Source hygiene: every module-level import in the package is used, and
every module-level function and class is reached from the package or
exported."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "stringraph"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each module-level import, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "annotations":
                    names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def test_modules_are_found():
    assert "extract.py" in MODULES and "quasiplanar.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported_names(tree).items()
              if name not in used}
    assert not unused, f"{module}: unused imports {unused}"


def _exported() -> set[str]:
    tree = ast.parse((SRC / "__init__.py").read_text(), filename="__init__.py")
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    raise AssertionError("__init__.py has no __all__")


def _names_in(node: ast.AST) -> set[str]:
    """Names that code under node refers to: a Name or an Attribute, so a
    mention in a docstring does not count."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def test_every_function_is_reached():
    """Fail on a module-level function or class that no src module refers
    to, other than from inside itself, and that __init__ does not export:
    library code that nothing runs."""
    referenced = _exported()
    defined = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=path.name).body:
            names = _names_in(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name))
                names.discard(node.name)
            referenced |= names
    unreached = [f"{module}.{name}" for module, name in defined if name not in referenced]
    assert not unreached, f"functions and classes no src module reaches: {unreached}"



def test_every_tuning_constant_is_read():
    """Fail on an AlgorithmParams field that no src code reads: a tuning
    value that every report prints and nothing uses. A read is an attribute
    of a name holding the constants (`params`, `DEFAULT_PARAMS`), or of
    `self` in a method of the class other than its validation, __post_init__;
    an option of the same name on an argparse namespace does not count."""
    fields, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=path.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "AlgorithmParams":
                fields = [s.target.id for s in node.body if isinstance(s, ast.AnnAssign)]
                read |= {n.attr for s in node.body
                         if isinstance(s, ast.FunctionDef) and s.name != "__post_init__"
                         for n in ast.walk(s) if isinstance(n, ast.Attribute)
                         and isinstance(n.value, ast.Name) and n.value.id == "self"}
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and "params" in node.value.id.lower()):
                read.add(node.attr)
    assert "c1" in fields and "separator_strategy" in fields
    unread = [name for name in fields if name not in read]
    assert not unread, f"AlgorithmParams fields nothing reads: {unread}"


# What `oracles` may take from the rest of the package: the error types, the
# graph type and its bit iterator, the separator's result type and balance
# cap. No geometry predicate, truncation, extractor or separator strategy,
# so that an oracle's agreement with production is evidence.
ORACLE_IMPORTS = {"errors", "Graph", "bits", "SeparatorPartition", "balance_cap"}


def _foreign_imports(source: str) -> list[str]:
    """Package names a source imports outside ORACLE_IMPORTS, where any
    name from `errors` is allowed. Imports inside functions count."""
    foreign = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            foreign += [a.name for a in node.names if a.name.split(".")[0] == "stringraph"]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if ((node.level or module.split(".")[0] == "stringraph")
                    and module.split(".")[-1] != "errors"):
                foreign += [f"{module}.{a.name}" for a in node.names
                            if a.name not in ORACLE_IMPORTS]
    return foreign


def test_oracles_import_no_production_algorithm():
    assert _foreign_imports((SRC / "oracles.py").read_text()) == []


@pytest.mark.parametrize("line", [
    "from .geometry import polylines_intersect",
    "from .quasiplanar import truncate_edges",
    "from .extract import independent_set",
    "from .separator import find_balanced_separator",
    "from . import geometry",
    "import stringraph.quasiplanar",
    "from stringraph.geometry import segments_intersect",
    "def f():\n    from .separator import _bfs_layer",
])
def test_oracle_import_check_catches_production_code(line):
    assert _foreign_imports(line) != []


def _traced() -> tuple[tuple[str, str], ...]:
    """The (module, function) pairs the benchmark's traced run wraps: the
    TRACED tuple of perfbench/spans.py, read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(), filename="spans.py")
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py has no TRACED")


def test_every_traced_function_exists():
    """Fail, naming it, on a traced function that the package no longer
    defines, which the traced run would meet only as a getattr traceback."""
    traced = _traced()
    assert ("quasiplanar", "crossing_graph") in traced
    missing = [f"{module}.{fn}" for module, fn in traced
               if not callable(getattr(importlib.import_module(f"stringraph.{module}"), fn, None))]
    assert not missing, f"traced functions stringraph does not define: {missing}"
