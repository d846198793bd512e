"""Every module-level import in the package is used in its module, and
every module-level private name is used somewhere in the package.

No linter ships with the project, so these ``ast`` walks stand in for
unused-import and dead-code checks.  ``__init__.py`` is left out of the
import check: its imports are the package's public re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import mueflow

PACKAGE = sorted(Path(mueflow.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def _unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports of ``source`` that it never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in bound if name not in used)


def test_checker_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as js\n"
              "from math import inf, pi\n"
              "def f():\n    return os.sep, inf\n")
    assert _unused_imports(source) == ["js", "pi"]
    assert "equilibrium.py" in {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    unused = _unused_imports(path.read_text())
    assert not unused, f"{path.name} imports but never uses {unused}"


def _dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each top-level ``_name`` no module reads.

    ``sources`` maps module names to their source.  A name counts as read
    where it is loaded as a bare name or as an attribute.
    """
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            dead += [f"{mod}.{name}" for name in names
                     if name.startswith("_") and not name.startswith("__")
                     and name not in read]
    return sorted(dead)


def test_checker_flags_a_dead_private_name():
    sources = {
        "a": "_LIMIT = 3\n_unused = 4\ndef _helper():\n    return _LIMIT\n"
             "class _Gone:\n    pass\n",
        "b": "from . import a\nVALUE = a._helper()\n",
    }
    assert _dead_private_names(sources) == ["a._Gone", "a._unused"]


def test_every_private_name_is_used():
    dead = _dead_private_names({p.stem: p.read_text() for p in PACKAGE})
    assert not dead, f"private names nothing in the package reads: {dead}"
