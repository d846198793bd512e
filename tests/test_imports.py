"""Every module-level import in the package is used in its module.

No linter ships with the project, so this ``ast`` walk stands in for an
unused-import check.  ``__init__.py`` is left out: its imports are the
package's public re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import mueflow

MODULES = sorted(p for p in Path(mueflow.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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
