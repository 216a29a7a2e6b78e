"""Every library error type is raised by some library module.

An error type that nothing raises is dead: a caller may catch it, and
nothing ever arrives.  This test parses the library's modules without
running them and collects the names errors are raised as: the class named
in a ``raise`` statement (``raise X(...)`` or ``raise X``) and the error
class passed to ``symplin._check``, which raises for the first failing
member of a stack.  Every ``CoisoError`` subclass in ``errors.__all__``
must be among them; ``CoisoError`` itself, the base class, is exempt.
"""

import ast
from pathlib import Path

from coiso import errors

SRC = Path(__file__).resolve().parents[1] / "src" / "coiso"


def _name(node):
    """The name a ``Name`` or ``Attribute`` node ends in, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _raised_names(sources) -> set:
    """The names errors are raised as in the module texts ``sources``."""
    raised = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(_name(exc))
            elif isinstance(node, ast.Call) and _name(node.func) == "_check":
                error = node.args[1] if len(node.args) > 1 else next(
                    (kw.value for kw in node.keywords if kw.arg == "error"), None)
                raised.add(_name(error))
    return raised


def test_every_error_type_is_raised_by_the_library():
    raised = _raised_names(path.read_text() for path in sorted(SRC.glob("*.py")))
    dead = [name for name in errors.__all__ if name != "CoisoError"
            and issubclass(getattr(errors, name), errors.CoisoError) and name not in raised]
    assert not dead, f"error types no library module raises: {dead}"


def test_the_scan_reads_each_way_of_raising():
    source = """
raise A("message")
raise B
raise errors.C(1) from None
_check(bad, D, lambda w: "")
symplin._check(bad, message=m, error=E)
F("constructed, never raised")
"""
    assert _raised_names([source]) == {"A", "B", "C", "D", "E"}
