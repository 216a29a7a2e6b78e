"""The library orthonormalizes with one routine, ``symplin._mgs``.

This test parses the library's modules without running them and finds every
reference to a ``linalg.qr`` (``np.linalg.qr``, ``numpy.linalg.qr``,
``scipy.linalg.qr``) or an import of ``qr`` from a ``linalg`` module.  The
only one allowed is in ``random_unitary``, whose QR of a complex Gaussian
defines the seeded draws.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "coiso"


class _QrReads(ast.NodeVisitor):
    """The enclosing function of every QR reference, as module.function."""

    def __init__(self, module: str):
        self.scope = [module]
        self.found = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node):
        owner = node.value
        if node.attr == "qr" and isinstance(owner, ast.Attribute) and owner.attr == "linalg":
            self.found.append(".".join(self.scope))
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if (node.module or "").endswith("linalg") and any(a.name == "qr" for a in node.names):
            self.found.append(".".join(self.scope))


def test_only_random_unitary_calls_a_lapack_qr():
    found = []
    for path in sorted(SRC.glob("*.py")):
        reads = _QrReads(path.stem)
        reads.visit(ast.parse(path.read_text()))
        found += reads.found
    assert found == ["symplin.random_unitary"]
