"""One policy names the failing member of a stack in an error message.

``symplin._check`` raises for the first failing member of a stack and
``symplin._check_inside`` for the worst one, with a witness; every other
check on a stack calls one of them.  This test parses the library's modules
without running them and checks that ``_member_note``, the text that names a
member, is called from those two functions only, and that no other module
defines a function named ``_check`` of its own.  It also checks that no
module but ``symplin`` names ``classify_coisotropic``, which the package
only re-exports: every loop certifies the splittings its generator hands
over, and none classifies.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "coiso"

_FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_member_note_call(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "_member_note") or (
        isinstance(func, ast.Attribute) and func.attr == "_member_note")


def _callers(node, module: str, function=None) -> set:
    """``(module, function)`` for every call of ``_member_note`` under
    ``node``, ``function`` the innermost one around it (None at module
    level)."""
    found = set()
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, _FUNCTION) else function
        if _is_member_note_call(child):
            found.add((module, inner))
        found |= _callers(child, module, inner)
    return found


def _modules():
    return [(path.stem, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))]


def test_member_note_is_called_by_the_two_stack_checks_only():
    callers = set().union(*(_callers(tree, module) for module, tree in _modules()))
    assert callers == {("symplin", "_check"), ("symplin", "_check_inside")}


def test_only_symplin_defines_check():
    defined = [(module, node.name) for module, tree in _modules()
               for node in ast.walk(tree)
               if isinstance(node, _FUNCTION) and node.name == "_check"]
    assert defined == [("symplin", "_check")]


def _naming(tree, name: str) -> list:
    """The nodes of ``tree`` that name ``name``: a reference, an attribute,
    an imported alias or a definition."""
    return [node for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.alias) and name in (node.name, node.asname))
            or (isinstance(node, _FUNCTION) and node.name == name)]


def test_only_symplin_names_classify_coisotropic():
    naming = {module: nodes for module, tree in _modules()
              if (nodes := _naming(tree, "classify_coisotropic"))}
    assert set(naming) == {"__init__", "symplin"}
    # the package's public surface imports it, and does nothing else with it
    assert all(isinstance(node, ast.alias) for node in naming["__init__"])
