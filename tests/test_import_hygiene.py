"""Every name a library module imports is read in that module.

An import left behind by a deletion keeps a dead name bound. The one
exception is a name that ``perfbench/tracing.py`` wraps in that module's
namespace (a ``BOUNDARIES`` entry with no class): the tracer needs it bound
there even when the module no longer calls it.
"""

import ast
from pathlib import Path

import pytest

from tests.test_benchmark_hooks import _boundaries

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dsgraph"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unread_imports(tree: ast.Module) -> set[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


def private_definitions(tree: ast.Module) -> set[str]:
    """The module-level names a module defines with one leading underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def read_names(tree: ast.Module) -> set[str]:
    """The names a module reads, bare or as an attribute of something else."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_every_module_is_checked():
    assert len(MODULES) >= 9
    assert unread_imports(ast.parse("import os\nfrom x import a as b\nb()\n")) == {"os"}
    sample = ast.parse("_a = 1\n_b: int = 2\n_c, d = 3, 4\ndef _f(): _g.h\nclass _K: _m = 5\n"
                       "__all__ = []\nx = 1\n")
    assert private_definitions(sample) == {"_a", "_b", "_c", "_f", "_K"}
    assert read_names(sample) == {"int", "_g", "h"}


def test_every_private_module_name_is_read_in_the_package():
    # a helper left behind by a refactor keeps a dead definition
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    read = set().union(*map(read_names, trees.values()))
    unread = {f"{stem}.{name}" for stem, tree in trees.items()
              for name in private_definitions(tree) - read}
    assert unread == set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_read(path):
    traced = {attr for module, cls, attr, _layer, _span in _boundaries()
              if module == path.stem and cls is None}
    unread = unread_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert unread - traced == set()


def package_imports(tree: ast.Module) -> set[str]:
    """The dsgraph modules a module imports, by relative or absolute name
    ("dsgraph" itself for the whole package)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "dsgraph":
                    continue
                module = module.partition(".")[2]
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "dsgraph":
                    found.add(rest.split(".")[0] or top)
    return found


def test_oracle_imports_no_solver_code():
    # the oracle is the independent reference the solver is tested against
    sample = ("from . import solver\nfrom .errors import X\nimport dsgraph.bounds\n"
              "from dsgraph import cli\nimport dsgraph\nimport os\n")
    assert package_imports(ast.parse(sample)) == {"solver", "errors", "bounds", "cli", "dsgraph"}
    tree = ast.parse((PACKAGE / "oracle.py").read_text(encoding="utf-8"))
    assert package_imports(tree) <= {"graph_core", "errors", "list_assignments"}
