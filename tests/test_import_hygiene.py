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


def test_every_module_is_checked():
    assert len(MODULES) >= 9
    assert unread_imports(ast.parse("import os\nfrom x import a as b\nb()\n")) == {"os"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_read(path):
    traced = {attr for module, cls, attr, _layer, _span in _boundaries()
              if module == path.stem and cls is None}
    unread = unread_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert unread - traced == set()
