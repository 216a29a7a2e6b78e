"""The JSON schema of a ``coiso run`` report, checked with ``jsonschema``: the
shape the report tests hold every written report to."""

from coiso.cli import KINDS

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "coiso report",
    "type": "object",
    "required": ["kind", "spec", "version", "seed", "passed", "items", "tolerances"],
    "properties": {
        "kind": {"enum": KINDS},
        "spec": {"type": "object"},
        "version": {"type": "string"},
        "seed": {"type": ["integer", "null"]},
        "passed": {"type": "boolean"},
        "error": {"type": ["string", "null"]},
        "items": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "value"],
                "properties": {
                    "name": {"type": "string"},
                    "value": {},
                    "oracle": {},
                    "residual": {"type": ["number", "null"]},
                    "passed": {"type": "boolean"},
                },
            },
        },
        "tolerances": {"type": "object"},
    },
}
