"""Every name a ringlab module imports is read in that module, every
module-level private name is read somewhere in the package, and no module
compares an order with the lattice or spp bound outside bounds.check_order."""

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


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level private functions, classes and constants, as
    "module:name", that no source reads by name, attribute, import or
    string, sorted."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            read.add(node.id if isinstance(node, ast.Name) else node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [f"{module}:{name}" for name in names
                     if name.startswith("_") and not name.startswith("__") and name not in read]
    return sorted(dead)


def test_dead_private_names_finds_each_kind():
    sources = {
        "a": "_LIMIT = 3\n_ORDER: int = 2\ndef _f(): pass\nclass _C: pass\n"
             "def _g(): pass\n_H = 1\ndef __dunder(): pass\n",
        "b": "from .a import _g\nimport a\nx = a._ORDER\ny = getattr(a, '_H')\n",
    }
    assert dead_private_names(sources) == ["a:_C", "a:_LIMIT", "a:_f"]


def test_every_private_name_is_read():
    assert dead_private_names({path.stem: path.read_text(encoding="utf-8")
                               for path in MODULES}) == []


def _identifiers(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def bound_comparisons(source: str) -> list[int]:
    """The lines of the comparisons that set an order against the lattice or
    spp bound by hand.  bounds.check_order, the one place that decides
    whether an order is over a bound, compares with its `bound` parameter
    and so is never listed."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            sides = [_identifiers(side) for side in (node.left, *node.comparators)]
            orders = {k for k, names in enumerate(sides) if any(n.endswith("order") for n in names)}
            caps = {k for k, names in enumerate(sides)
                    if any("lattice" in n.lower() or "spp" in n.lower() for n in names)}
            if any(k != j for k in orders for j in caps):
                lines.append(node.lineno)
    return lines


def test_bound_comparisons_finds_each_form():
    source = ("if ring.order <= self.bounds.lattice:\n    pass\n"
              "ok = bounds.spp >= order\nx = n <= DEFAULT_LATTICE_BOUND < max_order\n"
              "y = ring.order > bounds.element\nz = min(b.spp, b.lattice)\n"
              "w = len(lattice) > 2\ncheck_order(ring.order, bounds.lattice)\n")
    assert bound_comparisons(source) == [1, 3, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_check_order_gates_the_lattice_and_spp_bounds(path):
    # all_ideals and RingContext.pure_spectrum gate through check_order; a
    # caller reads the enumeration and handles OrderTooLarge
    assert bound_comparisons(path.read_text(encoding="utf-8")) == []
