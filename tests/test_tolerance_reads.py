"""Every tolerance is read by some check from the record a caller passes.

A field of ``Tolerances`` that no check reads through such a record is a
dead knob: a spec or ``--tol-file`` may set it and nothing changes.  This
test parses the library's modules, except ``config.py``, without running
them, collects every attribute read off a name or attribute called ``tol``
(``tol.x``, ``geo.tol.x``) and checks that each field is among them.  A
read off ``DEFAULT`` does not count.
"""

import ast
import dataclasses
from pathlib import Path

from coiso import Tolerances

SRC = Path(__file__).resolve().parents[1] / "src" / "coiso"


def _tol_reads() -> set:
    reads = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
                continue
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id == "tol") or (
                    isinstance(owner, ast.Attribute) and owner.attr == "tol"):
                reads.add(node.attr)
    return reads


def test_every_tolerance_is_read_through_a_callers_record():
    reads = _tol_reads()
    unread = [f.name for f in dataclasses.fields(Tolerances) if f.name not in reads]
    assert not unread, f"tolerances no check reads from a caller's record: {unread}"
