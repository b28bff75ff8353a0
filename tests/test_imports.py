"""Every name an ``nmfseg`` module imports is used in that module.

No linter runs on the package, so this walks each module's syntax tree: a
name bound by ``import`` or ``from ... import`` that the module never reads,
in code or in a quoted annotation, fails.  ``__init__.py`` is exempt, since
its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "nmfseg"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


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


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert len(MODULES) >= 10
    unused = unused_imports((SRC / module).read_text(encoding="utf-8"))
    assert not unused, f"src/nmfseg/{module} imports {unused} and never uses them"
