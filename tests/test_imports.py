"""Every name a ringlab module imports is read in that module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import ringlab

MODULES = sorted(Path(ringlab.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names the source imports and never reads, sorted; a name listed
    in a module-level __all__ counts as read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_unused_imports_finds_each_binding():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from .errors import A, B as C\n__all__ = ['A']\nx: np.ndarray\n")
    assert unused_imports(source) == ["C", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
