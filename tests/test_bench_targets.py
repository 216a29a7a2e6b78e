"""The benchmark's trace targets name functions and methods of coiso.

``bench/tracing.py`` wraps each entry of its ``TARGETS`` by name, so a
renamed or removed function breaks only a traced benchmark run.  This test
reads ``TARGETS`` from the source of that file, without running it, and
checks that every entry resolves: ``module.name`` to a callable of
``coiso.module``, ``module.Class.method`` to a method defined on that class.
It also checks the two signatures the tracer binds: the loop hook reads the
``samples`` argument of ``loop_from_family``, and the wrapper of
``SymplecticMatrixLoop.from_callable`` passes exactly three positional
arguments.
"""

import ast
import importlib
import inspect
from pathlib import Path

from coiso import grassmann

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


def test_loop_hook_binds_the_samples_of_loop_from_family():
    signature = inspect.signature(grassmann.loop_from_family)
    for args, kwargs, samples in (((1, None), {}, 16),
                                  ((1, None), {"samples": 64, "tol": None}, 64),
                                  ((1, None, 32), {"tol": None}, 32)):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        assert bound.arguments["samples"] == samples


def test_from_callable_takes_three_positional_arguments():
    inspect.signature(grassmann.SymplecticMatrixLoop.from_callable).bind(2, None, 16)
