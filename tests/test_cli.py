"""Experiment runner: schema, reports, traces, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import coiso
from coiso.cli import (
    BOUNDARY_FAMILIES,
    REPORT_SCHEMA,
    SCHEMA,
    emit_phase_trace,
    main,
    run,
)


def test_schema_subcommand(capsys):
    assert main(["schema"]) == 0
    out = capsys.readouterr().out
    parsed = json.loads(out)
    assert parsed["properties"]["kind"]["enum"]


def test_schema_rejects_unknown_kind():
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"kind": "nope", "parameters": {}}, SCHEMA)


def test_run_grassmannian_dim_report():
    spec = {"kind": "grassmannian-dim",
            "parameters": {"n": 3, "k": 1, "points": 2, "seed": 4}}
    rep = run(spec)
    assert rep.passed
    assert rep.items[0]["value"] == 7
    jsonschema.validate(rep.to_dict(), REPORT_SCHEMA)


def test_run_maslov_index_lagrangian_rotation():
    spec = {"kind": "maslov-index",
            "parameters": {"family": "lagrangian-rotation", "n": 1, "M": 64,
                           "seed": 1}}
    rep = run(spec)
    assert rep.passed
    values = {it["name"]: it["value"] for it in rep.items}
    assert abs(values["maslov_index"]) == 1


def test_run_disc_index_hopf():
    spec = {"kind": "disc-index",
            "parameters": {"fixture": "sphere", "loop": "hopf", "M": 128,
                           "seed": 1, "expected_index": -2}}
    rep = run(spec)
    assert rep.passed


def test_run_reports_oracle_failure_with_exit_one(tmp_path):
    spec = {"kind": "disc-index",
            "parameters": {"fixture": "sphere", "loop": "hopf", "M": 128,
                           "seed": 1, "expected_index": 5}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "report.json"
    code = main(["run", str(path), "--out", str(out)])
    assert code == 1
    rep = json.loads(out.read_text())
    assert rep["passed"] is False


def test_run_schema_violation_exit_two(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "nope", "parameters": {}}))
    assert main(["run", str(path)]) == 2


def test_run_computation_error_exit_three(tmp_path):
    # a boundary loop that leaves the surface trips a computation error
    spec = {"kind": "disc-index",
            "parameters": {"fixture": "hyperplane", "loop": "hopf",
                           "M": 64, "seed": 0}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "report.json"
    code = main(["run", str(path), "--out", str(out)])
    assert code == 3
    rep = json.loads(out.text if hasattr(out, "text") else out.read_text())
    assert rep["error"]


def test_reports_byte_identical_for_same_seed():
    spec = {"kind": "invariance-suite",
            "parameters": {"n": 2, "k": 1, "trials": 2, "M": 128, "seed": 12}}
    assert run(spec).to_json() == run(spec).to_json()


def test_seed_override_changes_report():
    spec = {"kind": "hypersurface-report",
            "parameters": {"fixture": "sphere", "points": 2, "seed": 1}}
    a = run(spec).to_json()
    b = run(spec, seed_override=2).to_json()
    assert a != b


def test_report_roundtrips_schema():
    spec = {"kind": "minimality-scan",
            "parameters": {"fixture": "sphere", "points": 2, "seed": 3}}
    rep = run(spec)
    payload = json.loads(rep.to_json())
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload == json.loads(json.dumps(payload))


def test_phase_trace_constant_loop(tmp_path):
    sp = coiso.standard_space(2)
    loop = coiso.loop_from_family(sp, 1, coiso.constant_family(sp, 1), samples=16)
    sec = coiso.MaslovSection.from_function(loop.thetas, lambda t: 1.0 + 0j)
    path = tmp_path / "trace.csv"
    emit_phase_trace(loop, sec, str(path))
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "theta,re_g,im_g,unwrapped_phase"
    phases = [float(r.split(",")[3]) for r in rows[1:]]
    assert max(phases) - min(phases) < 1e-9


def test_phase_trace_rotation_spans_minus_two_pi(tmp_path):
    sp = coiso.standard_space(1)
    loop = coiso.loop_from_family(
        sp, 0, coiso.lagrangian_rotation_family(sp, 1), samples=64)
    sec = coiso.MaslovSection.from_function(loop.thetas, lambda t: 1.0 + 0j)
    path = tmp_path / "trace.csv"
    emit_phase_trace(loop, sec, str(path))
    rows = path.read_text().strip().split("\n")[1:]
    phases = [float(r.split(",")[3]) for r in rows]
    span = phases[-1] - phases[0]
    assert abs(span + 2 * np.pi) < 0.05 * 2 * np.pi


def test_phase_trace_winding_section_spans_plus_two_pi(tmp_path):
    sp = coiso.standard_space(2)
    loop = coiso.loop_from_family(sp, 1, coiso.constant_family(sp, 1), samples=64)
    sec = coiso.MaslovSection.from_function(loop.thetas, lambda t: np.exp(1j * t))
    path = tmp_path / "trace.csv"
    emit_phase_trace(loop, sec, str(path))
    rows = path.read_text().strip().split("\n")[1:]
    phases = [float(r.split(",")[3]) for r in rows]
    assert abs((phases[-1] - phases[0]) - 2 * np.pi) < 1e-9
    assert rows[0].count(",") == 3


def test_csv_output_through_main(tmp_path):
    spec = {"kind": "maslov-index",
            "parameters": {"family": "lagrangian-rotation", "n": 1, "M": 64,
                           "seed": 1},
            "output": {"path": str(tmp_path / "t.csv"), "format": "csv"}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["run", str(path)]) == 0
    text = (tmp_path / "t.csv").read_text()
    assert text.startswith("theta,")
    assert "\r" not in text


def test_console_entry_point(tmp_path):
    spec = {"kind": "grassmannian-dim", "parameters": {"n": 2, "k": 0}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    # the child imports the same coiso as this process, however pytest found it
    src = str(Path(coiso.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "coiso.cli", "run", str(path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["items"][0]["value"] == 3
