"""The benchmark's trace targets name functions and methods of coiso.

``bench/tracing.py`` wraps each entry of its ``TARGETS`` by name, so a
renamed or removed function breaks only a traced benchmark run.  This test
reads ``TARGETS`` from the source of that file, without running it, and
checks that every entry resolves: ``module.name`` to a callable of
``coiso.module``, ``module.Class.method`` to a method defined on that class.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets() -> dict:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} assigns no TARGETS")


def _resolves(module: str, qual: str) -> bool:
    owner = importlib.import_module(f"coiso.{module}")
    *cls, name = qual.split(".")
    if cls:
        owner = getattr(owner, cls[0], None)
        return isinstance(owner, type) and name in vars(owner)
    return callable(getattr(owner, name, None))


def test_every_trace_target_resolves():
    targets = _targets()
    assert targets
    missing = [f"{module}.{qual}" for module, quals in targets.items()
               for qual in quals if not _resolves(module, qual)]
    assert not missing, f"trace targets missing from coiso: {missing}"
