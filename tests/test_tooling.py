"""Source hygiene: no module in src/, tests/ or demos/ imports a name it
never uses, no private module-level function or class in src/ is left
unread, and every public one (and every public method) is read outside
the tests. The scans read each file's AST, so they need no linter; a name
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


def unread_private_definitions(sources: dict[str, str]) -> list[str]:
    """module:name of each module-level function or class whose name starts
    with `_` that no source reads, by name or as an attribute.
    `_cmd_*` handlers are exempt: the CLI looks them up by name."""
    defined: list[tuple[str, str]] = []
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined.extend(
            (module, node.name) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("_cmd_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module}:{name}" for module, name in defined if name not in read]


def test_private_scan_flags_only_unread_definitions():
    sources = {
        "a": "def _used(): pass\n"
             "def _dead(): pass\n"
             "class _Dead: pass\n"
             "def _cmd_run(): pass\n"
             "def _shared(): pass\n"
             "def public(): return _used()\n",
        "b": "import a\n"
             "x = a._shared\n",
    }
    assert unread_private_definitions(sources) == ["a:_dead", "a:_Dead"]


def test_no_unread_private_definitions_in_src():
    sources = {str(path.relative_to(ROOT)): path.read_text("utf-8")
               for path in sorted((ROOT / "src").rglob("*.py"))}
    found = unread_private_definitions(sources)
    assert not found, "private but never read:\n" + "\n".join(found)


def unread_public_definitions(defining: dict[str, str],
                              readers: list[str]) -> list[str]:
    """module:name (module:Class.name for a method) of each public
    module-level function or class of `defining`, and each public method of
    such a class, that no source in `readers` reads: as a name, an
    attribute or an imported alias."""
    defined: list[tuple[str, str, str]] = []
    for module, source in defining.items():
        for node in ast.parse(source).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined.append((module, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined.extend(
                    (module, f"{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_"))
    read: set[str] = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [f"{module}:{label}" for module, label, name in defined
            if name not in read]


def test_public_scan_flags_only_unread_definitions():
    defining = {
        "a": "def used(): pass\n"
             "def imported(): pass\n"
             "def dead(): pass\n"
             "def _private(): pass\n"
             "class Box:\n"
             "    def read(self): pass\n"
             "    def unread(self): pass\n"
             "    def _hidden(self): pass\n"
             "class Gone: pass\n",
    }
    readers = [*defining.values(),
               "from a import imported\n"
               "box = a.Box()\n"
               "used()\n"
               "box.read()\n"]
    assert unread_public_definitions(defining, readers) == [
        "a:dead", "a:Box.unread", "a:Gone"]


def test_every_public_definition_in_src_is_read_outside_the_tests():
    defining = {str(path.relative_to(ROOT)): path.read_text("utf-8")
                for path in sorted((ROOT / "src").rglob("*.py"))}
    readers = [path.read_text("utf-8")
               for folder in ("src", "demos", "perfbench")
               for path in sorted((ROOT / folder).rglob("*.py"))]
    found = unread_public_definitions(defining, readers)
    assert not found, "public but read only by tests:\n" + "\n".join(found)
