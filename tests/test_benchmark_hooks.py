"""The library names that perfbench's tracer wraps must exist.

``perfbench/tracing.py`` replaces each ``BOUNDARIES`` entry with a timing
wrapper by ``getattr``/``setattr``; a renamed or deleted name breaks the
traced benchmark run, so this checks every entry against the package.
"""

import importlib.util
from pathlib import Path

import dsgraph

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


def test_every_traced_name_resolves():
    boundaries = _boundaries()
    assert boundaries
    for module_name, class_name, attr, _layer, _span in boundaries:
        owner = getattr(dsgraph, module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        assert callable(getattr(owner, attr, None)), (module_name, class_name, attr)
