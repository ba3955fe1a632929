"""Source hygiene: no module in src/, tests/ or demos/ imports a name it
never uses. The scan reads each file's AST, so it needs no linter; a name
counts as used when the module reads it anywhere (an attribute access
reads its root name) or re-exports it through `__all__`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "demos")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(elt.value for elt in node.value.elts)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import json\n"
        "from typing import Any, Sequence\n"
        "from x import exported\n"
        "__all__ = ['exported']\n"
        "def f(v: Sequence) -> int:\n"
        "    return os.sep and v\n")
    assert unused_imports(source) == [(2, "osp"), (3, "json"), (4, "Any")]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for folder in SCANNED
             for path in sorted((ROOT / folder).rglob("*.py"))
             for line, name in unused_imports(path.read_text("utf-8"))]
    assert not found, "imported but never used:\n" + "\n".join(found)
