"""Every name an ``nmfseg`` module imports is used in that module, no
module imports another's private name, and only ``errors.py`` writes JSON
or CSV.

No linter runs on the package, so this walks each module's syntax tree: a
name bound by ``import`` or ``from ... import`` that the module never reads,
in code or in a quoted annotation, fails.  ``__init__.py`` is exempt, since
its imports are the package's re-exports.  An underscore name imported from
another ``nmfseg`` module fails too, unless the benchmark wraps it
(``perfbench/layers.WRAPS``, read here): the benchmark patches those names
where they are looked up, so they keep their names until it stops.  A call
of ``json.dump`` or ``csv.writer``, under any import alias, fails outside
``errors.py``, whose ``write_json`` and ``write_csv`` fix the artifact layout.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nmfseg"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
if str(ROOT / "perfbench") not in sys.path:
    sys.path.insert(0, str(ROOT / "perfbench"))

import layers  # noqa: E402  (perfbench/ must be on the path first)

WRAPPED = {(module, attr) for module, attr, _, _ in layers.WRAPS}


def unused_imports(source: str) -> list[str]:
    """Names ``source`` imports and never reads, sorted."""
    tree = ast.parse(source)
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a quoted annotation such as -> "Workspace"
                read.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
            except SyntaxError:
                pass
    return sorted(imported - read)


def test_finds_unused_imports():
    source = ("import os, numpy as np\nimport os.path\nfrom a import b, c as d, e\n"
              "from __future__ import annotations\nb(np)\ndef f() -> 'e': pass\n")
    assert unused_imports(source) == ["d", "os"]


def private_imports(source: str) -> list[tuple[str, str]]:
    """(module, name) of each underscore name ``source`` imports from an
    ``nmfseg`` module, relatively or by the package name, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.level > 0 or node.module.startswith("nmfseg.")):
            module = node.module.removeprefix("nmfseg.")
            found.extend((module, alias.name) for alias in node.names if alias.name.startswith("_"))
    return found


def test_finds_private_imports():
    source = ("from .network import _forward_cache, _bce_cells, encode\n"
              "from nmfseg.nmf import _lift as lift\nfrom . import parallel\nfrom numpy import _core\n")
    found = private_imports(source)
    assert found == [("network", "_forward_cache"), ("network", "_bce_cells"), ("nmf", "_lift")]
    assert [name for name in found if name not in WRAPPED] == [("network", "_bce_cells"), ("nmf", "_lift")]


def test_only_wrapped_private_names_cross_modules():
    """Today only ``training`` reaches in, for the two passes the benchmark wraps."""
    crossing = {(module, imported) for module in MODULES
                for imported in private_imports((SRC / module).read_text(encoding="utf-8"))}
    assert crossing == {("training.py", ("network", "_forward_cache")),
                        ("training.py", ("network", "_backward_from_cache"))}
    assert all(imported in WRAPPED for _, imported in crossing)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_no_private_name(module):
    private = private_imports((SRC / module).read_text(encoding="utf-8"))
    unwrapped = [f"{source}.{name}" for source, name in private if (source, name) not in WRAPPED]
    assert not unwrapped, f"src/nmfseg/{module} imports private {unwrapped}"


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert len(MODULES) >= 10
    unused = unused_imports((SRC / module).read_text(encoding="utf-8"))
    assert not unused, f"src/nmfseg/{module} imports {unused} and never uses them"


WRITERS = {("json", "dump"), ("csv", "writer")}


def writer_calls(source: str) -> list[tuple[int, str]]:
    """``(line, "json.dump" or "csv.writer")`` of each call of either in
    ``source``, through any import alias, in source order."""
    tree = ast.parse(source)
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((alias.asname or alias.name, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update((alias.asname or alias.name, (node.module, alias.name)) for alias in node.names)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            called = (modules.get(func.value.id), func.attr)
        else:
            called = names.get(func.id) if isinstance(func, ast.Name) else None
        if called in WRITERS:
            found.append((node.lineno, ".".join(called)))
    return sorted(found)


def test_finds_writer_calls():
    source = ("import json, csv as c\nfrom json import dump as d\njson.dump(x, fh)\nc.writer(fh)\n"
              "d(x, fh)\njson.dumps(x)\nc.reader(fh)\njson.load(fh)\ncsv.writer(fh)\ndump(x)\n")
    assert writer_calls(source) == [(3, "json.dump"), (4, "csv.writer"), (5, "json.dump")]


def test_errors_holds_the_one_writer_of_each_kind():
    assert [name for _, name in writer_calls((SRC / "errors.py").read_text(encoding="utf-8"))] == [
        "json.dump", "csv.writer"]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "errors.py"])
def test_module_writes_json_and_csv_through_errors(module):
    calls = writer_calls((SRC / module).read_text(encoding="utf-8"))
    assert not calls, f"src/nmfseg/{module} calls {calls}; use errors.write_json or errors.write_csv"
