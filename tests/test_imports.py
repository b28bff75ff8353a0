"""Every name an ``nmfseg`` module imports is used in that module, and no
module imports another's private name.

No linter runs on the package, so this walks each module's syntax tree: a
name bound by ``import`` or ``from ... import`` that the module never reads,
in code or in a quoted annotation, fails.  ``__init__.py`` is exempt, since
its imports are the package's re-exports.  An underscore name imported from
another ``nmfseg`` module fails too, unless the benchmark wraps it
(``perfbench/layers.WRAPS``, read here): the benchmark patches those names
where they are looked up, so they keep their names until it stops.
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
