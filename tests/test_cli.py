"""Experiment runner: schema, reports, traces, exit codes, determinism."""

import copy
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import coiso
from coiso import DEFAULT, is_leafwise_special, leafwise_mean_curvature, point_geometry
from coiso.cli import (
    SCHEMA,
    Report,
    _TOLERANCES_SCHEMA,
    _dumps,
    _validate,
    emit_phase_trace,
    main,
    run,
)
from reference_report import REPORT_SCHEMA


def _accepts(instance, schema) -> bool:
    """Whether the library validator accepts ``instance`` against ``schema``."""
    try:
        _validate(instance, schema)
    except coiso.SpecError:
        return False
    return True


def test_schema_subcommand(capsys):
    assert main(["schema"]) == 0
    out = capsys.readouterr().out
    parsed = json.loads(out)
    assert parsed["properties"]["kind"]["enum"]


def test_schema_subcommand_prints_the_json_dumps_bytes(capsys):
    assert main(["schema"]) == 0
    assert capsys.readouterr().out == json.dumps(SCHEMA, sort_keys=True, indent=2) + "\n"


def test_schema_rejects_unknown_kind():
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"kind": "nope", "parameters": {}}, SCHEMA)
    with pytest.raises(coiso.SpecError, match=r"^kind: 'nope' is not one of \["):
        _validate({"kind": "nope", "parameters": {}}, SCHEMA)


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


def test_run_disc_index_builds_its_fixture_once(monkeypatch):
    # the fixture whose n the spec check reads is the one the run uses
    builds = []
    sphere = coiso.hypergeo.FIXTURES["sphere"]

    def counted(params):
        builds.append(params)
        return sphere(params)

    monkeypatch.setitem(coiso.hypergeo.FIXTURES, "sphere", counted)
    spec = {"kind": "disc-index",
            "parameters": {"fixture": "sphere", "loop": "hopf", "M": 128,
                           "seed": 1, "expected_index": -2}}
    assert run(spec).passed
    assert len(builds) == 1


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


@pytest.mark.parametrize("spec, message", [
    ({"kind": "maslov-index", "parameters": {"n": 2, "k": 1, "family": "random-unitary-orbit",
                                             "family_params": {"wiggle": 6.3}}},
     "parameters.family_params.wiggle: 6.3 is greater than the maximum of 6.283185307179586"),
    ({"kind": "minimality-scan", "parameters": {"fixture": "polynomial", "fixture_params": {
        "n": 2, "terms": [{"coeff": 1.0, "exponents": [2, 0, -1, 0]}]}}},
     "parameters.fixture_params.terms[0].exponents[2]: -1 is less than the minimum of 0"),
    ({"kind": "disc-index", "parameters": {"fixture": "sphere", "loop_params": {"powr": 3}}},
     "parameters.loop_params: Additional properties are not allowed ('powr' was unexpected)"),
    ({"kind": "disc-index", "parameters": {}, "outptu": {}, "extra": 1},
     "Additional properties are not allowed ('extra', 'outptu' were unexpected)"),
    ({"kind": "disc-index"}, "'parameters' is a required property"),
    ({"kind": "grassmannian-dim", "parameters": {
        "n": 2, "k": 1, "tolerances": {"max_loop_samples": 1.5}}},
     "parameters.tolerances.max_loop_samples: 1.5 is not of type 'integer'"),
    ({"kind": "minimality-scan", "parameters": {
        "fixture": "ellipsoid", "fixture_params": {"semi_axes": []}}},
     "parameters.fixture_params.semi_axes: [] should be non-empty"),
    ({"kind": "disc-index", "parameters": {"fixture": "sphere", "fixture_params": {"r": 0}}},
     "parameters.fixture_params.r: 0 is less than or equal to the minimum of 0"),
    ({"kind": "grassmannian-dim", "parameters": {
        "n": 2, "k": 1, "tolerances": {"hint_min_norm": 1}}},
     "parameters.tolerances.hint_min_norm: 1 is greater than or equal to the maximum of 1"),
    ({"kind": "disc-index", "parameters": {"fixture": "sphere"}, "output": {"format": "xml"}},
     "output.format: 'xml' is not one of ['json', 'csv']"),
])
def test_refusal_names_the_json_path(tmp_path, capsys, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"bad input: {message}\n"
    with pytest.raises(coiso.SpecError) as refused:
        run(spec)
    assert str(refused.value) == message
    assert isinstance(refused.value, ValueError)
    assert not isinstance(refused.value, coiso.CoisoError)


@pytest.mark.parametrize("overrides, message", [
    ({"max_loop_samples": 1.5}, "max_loop_samples: 1.5 is not of type 'integer'"),
    ([1.0], "[1.0] is not of type 'object'"),
    ({"phase_jump": 0}, "phase_jump: 0 is less than or equal to the minimum of 0"),
])
def test_tolerance_file_refusal_names_the_field(tmp_path, capsys, overrides, message):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"kind": "grassmannian-dim", "parameters": {"n": 2, "k": 1}}))
    tol_path = tmp_path / "tol.json"
    tol_path.write_text(json.dumps(overrides))
    assert main(["run", str(spec_path), "--tol-file", str(tol_path)]) == 2
    assert capsys.readouterr().err == f"bad tolerance file: {message}\n"


@pytest.mark.parametrize("kind,parameters", [
    ("hypersurface-report", {"fixture": "torus"}),
    ("disc-index", {"fixture": "sphere", "loop": "figure-eight"}),
    ("maslov-index", {"n": 2, "family": "spiral"}),
    ("grassmannian-dim", {"n": 2, "k": 1, "tolerances": {"no_such_tolerance": 1.0}}),
    ("hypersurface-report", {"fixture": "sphere", "points": 0}),
    ("minimality-scan", {"fixture": "sphere", "points": 0}),
    ("maslov-index", {"n": 2, "k": 1, "family": "diag-unitary"}),
    ("maslov-index", {"n": 2, "k": 1, "family": "diag-unitary", "family_params": {}}),
    ("maslov-index", {"n": 2, "k": 1, "family": "diag-unitary",
                      "family_params": {"windings": "1 -1"}}),
    ("grassmannian-dim", {"n": 2, "k": 1, "tolerances": {"loop_closure": 1.0}}),
    # k > n, against the n the runner uses (default 1 and 2)
    ("maslov-index", {"n": 2, "k": 3, "family": "random-unitary-orbit"}),
    ("maslov-index", {"k": 2, "family": "constant"}),
    ("invariance-suite", {"k": 3, "trials": 1}),
    ("grassmannian-dim", {"n": 2, "k": 3}),
    ("grassmannian-dim", {"k": 1}),
    ("grassmannian-dim", {"n": 2}),
    ("maslov-index", {"n": 2, "k": 1, "family": "diag-unitary",
                      "family_params": {"windings": [1, 2, 3]}}),
    ("maslov-index", {"k": 1, "family": "diag-unitary", "family_params": {"windings": [1, 2]}}),
    ("hypersurface-report", {"fixture": "ellipsoid"}),
    ("disc-index", {"fixture": "ellipsoid", "fixture_params": {"r": 1.0}}),
    ("hypersurface-report", {"fixture": "polynomial", "fixture_params": {"terms": []}}),
    ("minimality-scan", {"fixture": "polynomial", "fixture_params": {"n": 2}}),
    ("maslov-index", {"n": 2, "k": 1, "family": "random-unitary-orbit",
                      "family_params": {"max_winding": 1.5}}),
    ("maslov-index", {"n": 2, "k": 1, "family": "random-unitary-orbit",
                      "family_params": {"max_winding": -1}}),
    ("maslov-index", {"n": 2, "k": 1, "family": "lagrangian-rotation"}),
    ("maslov-index", {"n": 2, "k": 1}),
    # fixtures whose surface is empty or degenerate
    ("hypersurface-report", {"fixture": "sphere", "points": 2, "fixture_params": {"n": 0}}),
    ("hypersurface-report", {"fixture": "ellipsoid", "points": 2,
                             "fixture_params": {"semi_axes": [1.0, 0.0]}}),
    ("minimality-scan", {"fixture": "ellipsoid", "fixture_params": {"semi_axes": []}}),
    ("minimality-scan", {"fixture": "cylinder", "fixture_params": {"r": -1.0}}),
    ("disc-index", {"fixture": "sphere", "fixture_params": {"r": 0}}),
    ("maslov-index", {"n": 2, "family": "lagrangian-rotation", "family_params": {"turns": 0.5}}),
    # malformed polynomial terms
    ("hypersurface-report", {"fixture": "polynomial", "fixture_params": {
        "n": 2, "terms": [{"coeff": 1.0, "exponents": [2, 0]}]}}),
    ("hypersurface-report", {"fixture": "polynomial", "fixture_params": {
        "n": 2, "terms": [{"exponents": [2, 0, 0, 0]}]}}),
    ("hypersurface-report", {"fixture": "polynomial", "fixture_params": {
        "n": 2, "terms": [{"coeff": "1", "exponents": [2, 0, 0, 0]}]}}),
    ("minimality-scan", {"fixture": "polynomial", "fixture_params": {
        "n": 2, "terms": [{"coeff": 1.0, "exponents": [2, 0, -1, 0]}]}}),
    ("minimality-scan", {"fixture": "polynomial", "fixture_params": {
        "n": 2, "terms": [{"coeff": 1.0, "exponents": [4, 0, 3, 0]}]}}),
    # every boundary family is a loop in C^2
    ("disc-index", {"fixture": "sphere", "fixture_params": {"n": 3}}),
    ("disc-index", {"fixture": "ellipsoid", "fixture_params": {"semi_axes": [1.0, 1.0, 1.0]}}),
    ("disc-index", {"fixture": "polynomial", "fixture_params": {
        "n": 1, "terms": [{"coeff": 1.0, "exponents": [2, 0]}]}}),
    # a tolerance is a number, max_loop_samples an integer
    ("grassmannian-dim", {"n": 2, "k": 1, "tolerances": {"phase_jump": "wide"}}),
    ("grassmannian-dim", {"n": 2, "k": 1, "tolerances": {"phase_jump": None}}),
    ("grassmannian-dim", {"n": 2, "k": 1, "tolerances": {"max_loop_samples": 1.5}}),
    # every key a builder reads is typed, and an unknown key is refused
    ("disc-index", {"fixture": "sphere", "loop": "hopf", "loop_params": {"power": "x"}}),
    ("disc-index", {"fixture": "hyperplane", "loop": "planar-circle",
                    "fixture_params": {"level": "x"}}),
    ("maslov-index", {"n": 2, "k": 1, "family": "random-unitary-orbit",
                      "family_params": {"wiggle": "x"}}),
    ("maslov-index", {"n": 2, "k": 1, "family": "random-unitary-orbit",
                      "family_params": {"seed": "x"}}),
    ("disc-index", {"fixture": "sphere", "loop": "hopf", "loop_params": {"power": 1.5}}),
    ("maslov-index", {"n": 2, "k": 1, "family": "constant", "family_params": {"seed": 1.5}}),
    ("disc-index", {"fixture": "sphere", "loop": "hopf", "loop_params": {"powr": 3}}),
    ("hypersurface-report", {"fixture": "sphere", "fixture_params": {"radius": 3}}),
    # a seed keys a SeedSequence, which refuses negative entropy
    ("grassmannian-dim", {"n": 2, "k": 1, "points": 1, "seed": -1}),
    ("maslov-index", {"n": 2, "k": 1, "family": "random-unitary-orbit",
                      "family_params": {"seed": -1}}),
    # a turn count or winding past 64, or an expected index past 2**53, is
    # bad input; a 401-digit one used to overflow a float and exit 1
    ("maslov-index", {"n": 2, "k": 0, "M": 64, "family": "lagrangian-rotation",
                      "family_params": {"turns": 10 ** 400}}),
    ("disc-index", {"fixture": "sphere", "loop": "hopf", "loop_params": {"power": 10 ** 400}}),
    ("disc-index", {"fixture": "sphere", "loop": "latitude", "loop_params": {"p": 10 ** 400}}),
    ("disc-index", {"fixture": "sphere", "loop": "latitude", "loop_params": {"q": -10 ** 400}}),
    ("maslov-index", {"n": 2, "k": 1, "family": "random-unitary-orbit",
                      "section": {"winding": 10 ** 400}}),
    ("disc-index", {"fixture": "sphere", "loop": "hopf", "M": 64, "expected_index": 10 ** 400}),
    ("disc-index", {"fixture": "sphere", "loop": "hopf", "expected_index": 2 ** 53 + 1}),
    ("maslov-index", {"n": 2, "k": 2, "family": "diag-unitary",
                      "family_params": {"windings": [1e300, 0]}}),
    ("maslov-index", {"n": 2, "k": 0, "family": "lagrangian-rotation",
                      "family_params": {"turns": 65}}),
    # a grid that aliases a kernel winding: M = 4 and 8 read e^{8 i theta} as
    # 1 and printed index 0, where M >= 32 gives -16; the default M = 64
    # against a kernel winding 17
    ("maslov-index", {"n": 2, "k": 1, "M": 4, "family": "diag-unitary",
                      "family_params": {"windings": [0, 8]}}),
    ("maslov-index", {"n": 2, "k": 1, "M": 8, "family": "diag-unitary",
                      "family_params": {"windings": [0, 8]}}),
    ("maslov-index", {"n": 2, "k": 0, "family": "diag-unitary",
                      "family_params": {"windings": [0, -17]}}),
])
def test_run_unknown_name_exit_two(tmp_path, kind, parameters):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": kind, "parameters": parameters}))
    assert main(["run", str(path)]) == 2


@pytest.mark.parametrize("family_params", [
    {"wiggle": 1e300}, {"wiggle": 6.3}, {"wiggle": -0.1}, {"max_winding": 65},
    {"max_winding": 10 ** 30}])
def test_out_of_range_family_params_exit_two(tmp_path, capsys, family_params):
    # a wiggle of 1e300 used to reach the library and exit 3 with
    # DiscontinuousLoopError; the range ends are runnable
    path = tmp_path / "spec.json"
    spec = {"kind": "maslov-index", "parameters": {
        "n": 2, "k": 1, "family": "random-unitary-orbit", "family_params": family_params}}
    path.write_text(json.dumps(spec))
    assert main(["run", str(path), "--out", str(tmp_path / "report.json")]) == 2
    assert "Traceback" not in capsys.readouterr().err
    spec["parameters"]["family_params"] = {"wiggle": 2 * np.pi, "max_winding": 64}
    path.write_text(json.dumps(spec))
    assert main(["run", str(path), "--out", str(tmp_path / "report.json")]) in (0, 1)


REMOVED_TOLERANCES = ["kernel_pairing", "loop_closure", "equivariance", "unit_gradient",
                      "unit_modulus", "fd_step", "svd_cutoff", "svd_gap"]


def test_diag_unitary_grid_resolving_the_kernel_windings_runs():
    # M = 4 max |w_j| over the kernel coordinates j >= k is the coarsest
    # grid accepted; the H coordinate's winding 40 does not move the subspace.
    # A k of 1.0 is a Draft-7 integer: it used to slice the windings and
    # raise TypeError
    for windings, k, want in (([0, 8], 1, -16), ([40, 8], 1, -16), ([0, 8], 1.0, -16)):
        spec = {"kind": "maslov-index", "parameters": {
            "n": 2, "k": k, "M": 32, "family": "diag-unitary",
            "family_params": {"windings": windings}}}
        assert run(spec).items[0]["value"] == want


def test_random_orbit_grid_that_aliases_a_drawn_kernel_winding_exit_two(tmp_path, capsys):
    # its windings are [-6, 15.5]: M = 4 printed index 1, where M >= 62 gives
    # -31; the H winding -6 does not move the subspace
    params = {"n": 2, "k": 1, "seed": 0, "M": 4, "family": "random-unitary-orbit",
              "family_params": {"max_winding": 64, "wiggle": 0.0}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "maslov-index", "parameters": params}))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == ("bad input: a grid of M=4 aliases the kernel winding "
                                       "15.5 of random-unitary-orbit: it needs M >= 62\n")
    for m in (62, 64):
        report = run({"kind": "maslov-index", "parameters": {**params, "M": m}})
        assert report.items[0]["value"] == -31


def test_diag_unitary_aliasing_text():
    spec = {"kind": "maslov-index", "parameters": {
        "n": 2, "k": 1, "M": 4, "family": "diag-unitary", "family_params": {"windings": [0, 8]}}}
    with pytest.raises(coiso.SpecError) as refused:
        run(spec)
    assert str(refused.value) == ("a grid of M=4 aliases the kernel winding 8 of diag-unitary: "
                                  "it needs M >= 32")


# number literals json reads as NaN or infinity; no range check refuses NaN,
# and each of these reached the library: the first two flipped minimal[i],
# the grading phase, wiggle and level ended in a ValueError or LinAlgError
# (exit 3), and the infinite rank step exited 0
NON_FINITE_SPECS = [
    ('minimality-scan', '{"fixture": "sphere", "points": 2, "seed": 1, '
                        '"tolerances": {"minimality": NaN}}'),
    ('minimality-scan', '{"fixture": "ellipsoid", "fixture_params": {"semi_axes": [1.0, 1.7]}, '
                        '"points": 2, "seed": 1, "tolerances": {"minimality": 1e999}}'),
    ('disc-index', '{"fixture": "sphere", "loop": "hopf", "M": 64, "grading_phase": NaN}'),
    ('maslov-index', '{"n": 2, "k": 1, "family": "random-unitary-orbit", '
                     '"family_params": {"wiggle": NaN}}'),
    ('grassmannian-dim', '{"n": 2, "k": 1, "points": 1, "tolerances": {"rank_step": Infinity}}'),
    ('disc-index', '{"fixture": "hyperplane", "loop": "planar-circle", '
                   '"fixture_params": {"level": -Infinity}}'),
]


@pytest.mark.parametrize("kind, parameters", NON_FINITE_SPECS)
def test_non_finite_number_in_a_spec_exit_two(tmp_path, capsys, kind, parameters):
    path = tmp_path / "spec.json"
    path.write_text(f'{{"kind": "{kind}", "parameters": {parameters}}}')
    assert main(["run", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("cannot read spec: non-finite number ")


@pytest.mark.parametrize("kind, parameters", NON_FINITE_SPECS)
def test_non_finite_number_in_a_spec_dict_raises_spec_error(kind, parameters):
    # the library entry reads no JSON text: the validator refuses the number
    spec = json.loads(f'{{"kind": "{kind}", "parameters": {parameters}}}')
    with pytest.raises(coiso.SpecError, match="is not a finite number$"):
        run(spec)


@pytest.mark.parametrize("text", ['{"winding_residual": NaN}', '{"minimality": 1e999}',
                                  '{"rank_step": -Infinity}'])
def test_non_finite_number_in_a_tolerance_file_exit_two(tmp_path, capsys, text):
    # {"winding_residual": NaN} exited 0
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"kind": "grassmannian-dim", "parameters": {"n": 2, "k": 1}}))
    tol_path = tmp_path / "tol.json"
    tol_path.write_text(text)
    assert main(["run", str(spec_path), "--tol-file", str(tol_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("cannot read tolerance file: non-finite number ")


@pytest.mark.parametrize("overrides", [
    {"phase_jump": "wide"}, {"phase_jump": None}, {"max_loop_samples": 1.5}, [1.0]])
def test_non_numeric_tolerance_file_exit_two(tmp_path, capsys, overrides):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"kind": "grassmannian-dim", "parameters": {"n": 2, "k": 1}}))
    tol_path = tmp_path / "tol.json"
    tol_path.write_text(json.dumps(overrides))
    assert main(["run", str(spec_path), "--tol-file", str(tol_path)]) == 2
    assert "bad tolerance file" in capsys.readouterr().err


@pytest.mark.parametrize("name", REMOVED_TOLERANCES)
def test_removed_tolerance_name_exit_two(tmp_path, name):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"kind": "grassmannian-dim",
                                     "parameters": {"n": 2, "k": 1, "tolerances": {name: 1.0}}}))
    assert main(["run", str(spec_path)]) == 2
    spec_path.write_text(json.dumps({"kind": "grassmannian-dim", "parameters": {"n": 2, "k": 1}}))
    tol_path = tmp_path / "tol.json"
    tol_path.write_text(json.dumps({name: 1.0}))
    assert main(["run", str(spec_path), "--tol-file", str(tol_path)]) == 2
    assert main(["run", str(spec_path)]) == 0


# out of range: a negative angle refines to the sample budget, a zero jump
# bound refuses every winding, a zero sample budget refuses every loop
OUT_OF_RANGE = [{"consecutive_angle": -1.0}, {"phase_jump": 0}, {"max_loop_samples": 0}]


@pytest.mark.parametrize("overrides", OUT_OF_RANGE)
def test_out_of_range_tolerance_exit_two(tmp_path, capsys, overrides):
    params = {"n": 2, "k": 1, "M": 64, "seed": 1, "family": "random-unitary-orbit"}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"kind": "maslov-index",
                                     "parameters": {**params, "tolerances": overrides}}))
    assert main(["run", str(spec_path)]) == 2
    spec_path.write_text(json.dumps({"kind": "maslov-index", "parameters": params}))
    tol_path = tmp_path / "tol.json"
    tol_path.write_text(json.dumps(overrides))
    assert main(["run", str(spec_path), "--tol-file", str(tol_path)]) == 2
    assert "bad tolerance file" in capsys.readouterr().err
    assert main(["run", str(spec_path)]) == 0


def test_default_tolerances_lie_in_their_ranges():
    _validate(DEFAULT.as_dict(), _TOLERANCES_SCHEMA)
    assert not _accepts({"max_loop_samples": 3}, _TOLERANCES_SCHEMA)
    assert _accepts({"max_loop_samples": 4}, _TOLERANCES_SCHEMA)
    assert not _accepts({"orthonormality": 0}, _TOLERANCES_SCHEMA)
    # the frame's f = j e and Darboux bounds are gone: naming them is an error
    for name in ("frame_j", "darboux"):
        assert not _accepts({name: 1e-9}, _TOLERANCES_SCHEMA)


def test_diag_unitary_with_windings_runs():
    spec = {"kind": "maslov-index",
            "parameters": {"n": 2, "k": 1, "M": 32, "family": "diag-unitary",
                           "family_params": {"windings": [1, -0.5]}}}
    jsonschema.validate(spec, SCHEMA)
    assert run(spec).error is None


def test_schema_accepts_known_tolerance_names():
    jsonschema.validate({"kind": "grassmannian-dim",
                         "parameters": {"n": 2, "k": 1, "tolerances": {"sff_symmetry": 1e-4}}},
                        SCHEMA)


def test_leafwise_special_reads_report_mean_curvatures():
    for fixture, fixture_params in (("ellipsoid", {"semi_axes": [1.0, 1.3]}),
                                    ("hyperplane", {})):
        spec = {"kind": "hypersurface-report",
                "parameters": {"fixture": fixture, "fixture_params": fixture_params,
                               "points": 4, "seed": 2}}
        values = {it["name"]: it["value"] for it in run(spec).items}
        y = coiso.FIXTURES[fixture](fixture_params)
        pts = y.sample_points(4, coiso.rng(2, 7))
        recomputed = [leafwise_mean_curvature(point_geometry(y, p)).alpha_norm for p in pts]
        assert [values[f"alpha_norm[{i}]"] for i in range(4)] == recomputed
        special = is_leafwise_special(pts, recomputed)
        assert special.max_alpha == max(recomputed) == values["max_alpha_norm"]
        assert np.array_equal(special.witness, pts[int(np.argmax(recomputed))])
        assert special.result == (max(recomputed) < DEFAULT.leafwise_special)
        assert values["leafwise_special"] == special.result
    assert values["leafwise_special"]   # the hyperplane's leaves are special


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


@pytest.mark.parametrize("spec", [
    # the latitude whose grading section does not close
    {"kind": "disc-index", "parameters": {
        "fixture": "sphere", "loop": "latitude", "M": 256,
        "loop_params": {"alpha": 1.3, "p": 2, "q": 0}}},
    # a pushed loop whose matrix samples jump by more than 0.5
    {"kind": "invariance-suite", "parameters": {
        "n": 2, "k": 1, "M": 128, "seed": 123100, "trials": 2}},
], ids=["latitude", "invariance"])
def test_value_error_exits_three(tmp_path, capsys, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(ValueError):
        run(spec)
    assert main(["run", str(path), "--out", str(tmp_path / "report.json")]) == 3
    assert capsys.readouterr().err.startswith("computation error: ValueError: ")


def test_unreachable_surface_exit_three(tmp_path):
    # rho = -x_1^2 never reaches 1: sampling gives up after its budget
    spec = {"kind": "hypersurface-report",
            "parameters": {"fixture": "polynomial", "points": 1, "fixture_params": {
                "n": 1, "terms": [{"coeff": -1.0, "exponents": [2, 0]}]}}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "report.json"
    assert main(["run", str(path), "--out", str(out)]) == 3
    assert json.loads(out.read_text())["error"].startswith("OffSurfaceError")


def test_zero_gradient_surface_exits_three_without_warning(tmp_path):
    # rho = 0 everywhere: every projection stops at its first zero gradient
    spec = {"kind": "hypersurface-report",
            "parameters": {"fixture": "polynomial", "points": 1, "fixture_params": {
                "n": 1, "terms": [{"coeff": 0, "exponents": [2, 0]}]}}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(path), "--out", str(out)]) == 3
    assert json.loads(out.read_text())["error"].startswith("OffSurfaceError")


def test_boundary_on_a_critical_circle_exits_three_with_the_angle(tmp_path):
    # rho = (|z_1|^2 - 1)^2 + 1 is 1 on the Hopf circle |z_1| = 1, where its
    # gradient vanishes: the tangent loop names the angle before dividing
    terms = [{"coeff": c, "exponents": e} for c, e in (
        (1.0, [4, 0, 0, 0]), (2.0, [2, 0, 2, 0]), (1.0, [0, 0, 4, 0]),
        (-2.0, [2, 0, 0, 0]), (-2.0, [0, 0, 2, 0]), (2.0, [0, 0, 0, 0]))]
    spec = {"kind": "disc-index",
            "parameters": {"fixture": "polynomial", "loop": "hopf", "M": 64,
                           "fixture_params": {"n": 2, "terms": terms}}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(path), "--out", str(out)]) == 3
    assert json.loads(out.read_text())["error"] == (
        "UnnormalizedDefiningFunctionError: grad rho vanished at theta=0.0000")


@pytest.mark.parametrize("fixture", ["sphere", "cylinder"])
def test_circle_of_radius_r_runs_as_a_hypersurface(tmp_path, fixture):
    # n = 1: Y is a circle in C, k = 0, and the null leaf is the circle
    r, points = 0.7, 4
    params = {"fixture": fixture, "fixture_params": {"n": 1, "r": r},
              "points": points, "seed": 5}
    values = {}
    for kind in ("hypersurface-report", "minimality-scan"):
        path = tmp_path / f"{kind}.json"
        out = tmp_path / f"{kind}-report.json"
        path.write_text(json.dumps({"kind": kind, "parameters": params}))
        assert main(["run", str(path), "--out", str(out)]) == 0
        values.update({it["name"]: it["value"] for it in json.loads(out.read_text())["items"]})
    for i in range(points):
        assert abs(values[f"alpha_norm[{i}]"] - 1.0 / r) < 1e-10
        assert values[f"levi_eigenvalues[{i}]"] == []
        assert values[f"levi_positive_definite[{i}]"] is False
        assert values[f"minimal[{i}]"] is True


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


def test_negative_seed_override_exit_two(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "grassmannian-dim",
                                "parameters": {"n": 2, "k": 1, "points": 1}}))
    assert main(["run", str(path), "--seed", "-1"]) == 2
    assert "seed -1 is negative" in capsys.readouterr().err
    assert main(["run", str(path), "--seed", "1"]) == 0


def test_directly_built_report_serializes_its_tolerances():
    rep = Report(kind="grassmannian-dim", spec={}, seed=None, items=[], passed=True)
    payload = json.loads(rep.to_json())
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["tolerances"] == DEFAULT.as_dict()
    assert len(payload["tolerances"]) == 20


def test_run_report_carries_the_spec_tolerances():
    spec = {"kind": "grassmannian-dim",
            "parameters": {"n": 2, "k": 0, "tolerances": {"rank_step": 2e-5}}}
    rep = run(spec)
    assert rep.tolerances == DEFAULT.replace(rank_step=2e-5)
    assert json.loads(rep.to_json())["tolerances"]["rank_step"] == 2e-5


def test_report_roundtrips_schema():
    spec = {"kind": "minimality-scan",
            "parameters": {"fixture": "sphere", "points": 2, "seed": 3}}
    rep = run(spec)
    payload = json.loads(rep.to_json())
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload == json.loads(json.dumps(payload))


# one small spec per kind, and one whose report carries an error
ONE_PER_KIND = [
    {"kind": "grassmannian-dim", "parameters": {"n": 3, "k": 1, "points": 3, "seed": 4}},
    {"kind": "maslov-index", "parameters": {"n": 2, "k": 1, "M": 64, "seed": 1,
                                            "family": "random-unitary-orbit"}},
    {"kind": "invariance-suite", "parameters": {"n": 2, "k": 1, "M": 64, "trials": 1,
                                                "seed": 1}},
    {"kind": "disc-index", "parameters": {"fixture": "sphere", "loop": "hopf", "M": 64}},
    {"kind": "hypersurface-report", "parameters": {"fixture": "cylinder", "points": 2,
                                                   "seed": 1}},
    {"kind": "minimality-scan", "parameters": {"fixture": "sphere", "points": 2, "seed": 1}},
    {"kind": "disc-index", "parameters": {"fixture": "hyperplane", "loop": "hopf", "M": 64}},
]


@pytest.mark.parametrize("spec", ONE_PER_KIND, ids=lambda spec: spec["kind"])
def test_report_json_is_the_json_dumps_bytes(spec):
    report = run(spec)
    assert report.to_json() == json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


_TEXT = st.text() | st.sampled_from(['"', "\\", '\\"\x00\x1f\n\t\x7f', "é ∮ 𝔸 \u2028"])
_FLOATS = (st.floats() | st.floats().map(np.float64)
           | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300]))
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _FLOATS | _TEXT,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=40)


@settings(max_examples=300)
@given(_VALUES)
def test_writer_is_json_dumps_with_sorted_keys_and_indent(value):
    assert _dumps(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("bad", [np.int64(1), np.bool_(True), {1, 2}, object()],
                         ids=["int64", "bool_", "set", "object"])
def test_writer_refuses_what_json_refuses(bad):
    for value in (bad, [1, bad], {"key": bad}):
        with pytest.raises(TypeError):
            json.dumps(value, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            _dumps(value)


def test_grassmannian_dim_decompositions_do_not_grow_with_points(linalg_calls):
    # the points are drawn and measured as one stack: one QR draws them and
    # one SVD takes the Jacobians' ranks; a drawn unitary is its point's
    # gauge, so no point is classified and C^perp is read off it
    counts = []
    for points in (2, 16):
        linalg_calls.clear()
        report = run({"kind": "grassmannian-dim",
                      "parameters": {"n": 3, "k": 1, "points": points, "seed": 4}})
        assert report.passed and len(report.items) == points + 1
        counts.append(dict(linalg_calls))
    assert counts[0] == counts[1] == {"svd": 1, "qr": 1}


def test_grassmannian_dim_points_past_one_stack(monkeypatch):
    spec = {"kind": "grassmannian-dim", "parameters": {"n": 2, "k": 1, "points": 5, "seed": 3}}
    whole = run(spec).to_json()
    sizes = []

    def recorded(n, k, seed, tol, size, _draw=coiso.symplin.random_coisotropic):
        sizes.append(size)
        return _draw(n, k, seed, tol, size)

    monkeypatch.setattr(coiso.cli, "_POINTS_PER_STACK", 2)
    monkeypatch.setattr(coiso.symplin, "random_coisotropic", recorded)
    assert run(spec).to_json() == whole
    assert sizes == [(2,), (2,), (1,)]


def test_phase_trace_constant_loop(tmp_path):
    loop = coiso.loop_from_family(1, coiso.constant_family(2, 1), samples=16)
    sec = coiso.MaslovSection.from_function(loop.thetas, lambda t: np.ones(len(t)))
    path = tmp_path / "trace.csv"
    emit_phase_trace(loop, sec, str(path))
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "theta,re_g,im_g,unwrapped_phase"
    phases = [float(r.split(",")[3]) for r in rows[1:]]
    assert max(phases) - min(phases) < 1e-9


def test_phase_trace_rotation_spans_minus_two_pi(tmp_path):
    loop = coiso.loop_from_family(
        0, coiso.lagrangian_rotation_family(1, 1), samples=64)
    sec = coiso.MaslovSection.from_function(loop.thetas, lambda t: np.ones(len(t)))
    path = tmp_path / "trace.csv"
    emit_phase_trace(loop, sec, str(path))
    rows = path.read_text().strip().split("\n")[1:]
    phases = [float(r.split(",")[3]) for r in rows]
    span = phases[-1] - phases[0]
    assert abs(span + 2 * np.pi) < 0.05 * 2 * np.pi


def test_phase_trace_winding_section_spans_plus_two_pi(tmp_path):
    loop = coiso.loop_from_family(1, coiso.constant_family(2, 1), samples=64)
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


def test_csv_trace_reads_the_spec_tolerances(tmp_path):
    # a tighter angle bound refines the loop, so the trace gains rows
    def trace(tolerances, tol_file=None):
        params = {"family": "lagrangian-rotation", "n": 1, "M": 8, "seed": 1}
        if tolerances:
            params["tolerances"] = tolerances
        out = tmp_path / "t.csv"
        spec = {"kind": "maslov-index", "parameters": params,
                "output": {"path": str(out), "format": "csv"}}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = ["run", str(path)]
        if tol_file:
            (tmp_path / "tol.json").write_text(json.dumps(tol_file))
            argv += ["--tol-file", str(tmp_path / "tol.json")]
        assert main(argv) == 0
        return out.read_text()

    tight = {"consecutive_angle": 0.1}
    assert trace(tight) == trace(None, tol_file=tight)
    assert trace(tight).count("\n") > trace(None).count("\n")


class _CountingSchema:
    """Stands in for the ``jsonschema`` binding of ``coiso.cli``, counting
    ``validate`` calls."""

    def __init__(self):
        self.calls = 0

    def validate(self, instance, schema):
        self.calls += 1
        return _validate(instance, schema)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_main_validates_each_spec_once(tmp_path, monkeypatch, fmt):
    schema = _CountingSchema()
    monkeypatch.setattr("coiso.cli.jsonschema", schema)
    spec = {"kind": "maslov-index",
            "parameters": {"family": "lagrangian-rotation", "n": 1, "M": 8, "seed": 1},
            "output": {"path": str(tmp_path / f"out.{fmt}"), "format": fmt}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["run", str(path)]) == 0
    assert schema.calls == 1


def test_schema_is_checked_once_per_process(monkeypatch):
    # SCHEMA is checked against its meta-schema by the test below, never by
    # a run: neither a run nor a refusal reaches jsonschema, every check of
    # which iterates a Draft7Validator's errors
    calls = []
    iter_errors = jsonschema.Draft7Validator.iter_errors

    def counting(self, *args, **kwargs):
        calls.append(args)
        return iter_errors(self, *args, **kwargs)

    monkeypatch.setattr(jsonschema.Draft7Validator, "iter_errors", counting)
    specs = [{"kind": "grassmannian-dim", "parameters": {"n": 2, "k": 1, "seed": s}}
             for s in range(5)]
    assert all(run(spec).passed for spec in specs)
    with pytest.raises(coiso.SpecError, match=r"^parameters\.k: -1 is less than the minimum of 0$"):
        run({"kind": "grassmannian-dim", "parameters": {"n": 2, "k": -1}})
    assert calls == []
    jsonschema.Draft7Validator.check_schema(SCHEMA)
    assert calls


def test_schema_is_a_draft7_schema():
    jsonschema.Draft7Validator.check_schema(SCHEMA)
    jsonschema.Draft7Validator.check_schema(_TOLERANCES_SCHEMA)
    jsonschema.Draft7Validator.check_schema(REPORT_SCHEMA)


# the Draft-7 keywords the library validator applies; "$schema" and "title"
# annotate the root and constrain nothing
VALIDATED_KEYWORDS = {"type", "enum", "required", "properties", "additionalProperties",
                      "items", "minItems", "minimum", "maximum", "exclusiveMinimum",
                      "exclusiveMaximum"}


def _subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


@pytest.mark.parametrize("schema", [SCHEMA, _TOLERANCES_SCHEMA], ids=["spec", "tolerances"])
def test_schemas_use_only_the_validated_keywords(schema):
    for node in _subschemas(schema):
        assert set(node) - {"$schema", "title"} <= VALIDATED_KEYWORDS, node
        assert isinstance(node.get("type", ""), str)
        assert node.get("additionalProperties", False) is False
        assert isinstance(node.get("items", {}), dict)
        assert all(isinstance(value, str) for value in node.get("enum", []))


POOL = json.loads((Path(__file__).resolve().parents[1] / "bench" / "pool.json").read_text())
POOL_SPECS = [entry["spec"] for workload in ("loops", "disc", "pointwise")
              for _, entry in sorted(POOL[workload].items())]
_BOUND_KEYWORDS = ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum")


def _near(schema) -> list:
    """Values at the edges of one subschema: its bounds and the numbers
    beside them, as integers and floats, its names and a value of each
    other JSON type."""
    values = [True, None, "json", [], {}, 2.0, 2, -0.0]
    for bound in (schema[word] for word in _BOUND_KEYWORDS if word in schema):
        values += [bound, float(bound), math.nextafter(bound, -math.inf),
                   math.nextafter(bound, math.inf), round(bound) - 1, round(bound) + 1]
    values += schema.get("enum", [])
    if "items" in schema:
        values += [[value] for value in _near(schema["items"])]
    return values


# the edges of every subschema, and a few more values
_EDGES = [value for schema in (SCHEMA, _TOLERANCES_SCHEMA) for node in _subschemas(schema)
          for value in _near(node)] + [False, "", 0.5, 1e300, -1e300, 10 ** 400]
_KEYS = st.sampled_from(sorted({name for node in _subschemas(SCHEMA)
                                for name in node.get("properties", {})})) | st.text(max_size=4)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=8)
# half the values drawn lie at an edge; every value is a fresh copy
_VALUES = (st.sampled_from(_EDGES) | _JSON).map(copy.deepcopy)
_DRAFT7 = jsonschema.Draft7Validator(SCHEMA)
_DRAFT7_TOLERANCES = jsonschema.Draft7Validator(_TOLERANCES_SCHEMA)


def _slots(value, schema):
    """``(container, key, subschema)`` for each entry of each dict and list
    within ``value``, each property its schema names, a new random key
    (None) and a list's next index."""
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        yield value, None, {}
        for key in sorted(value.keys() | properties.keys()):
            yield value, key, properties.get(key, {})
            if key in value:
                yield from _slots(value[key], properties.get(key, {}))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield value, i, schema.get("items", {})
            yield from _slots(item, schema.get("items", {}))
        yield value, len(value), schema.get("items", {})


def _mutate(value, schema, data) -> None:
    """Set, add or delete one entry within ``value``: a new value lies at an
    edge of the entry's subschema, at an edge of the schemas, or anywhere."""
    container, key, sub = data.draw(st.sampled_from(list(_slots(value, schema))))
    if key is None:
        key = data.draw(_KEYS)
    new = st.sampled_from(_near(sub)).map(copy.deepcopy) | _VALUES
    present = key in container if isinstance(container, dict) else key < len(container)
    if present and data.draw(st.integers(0, 3)) == 0:
        del container[key]
    elif present or isinstance(container, dict):
        container[key] = data.draw(new)
    else:
        container.append(data.draw(new))


def test_validator_agrees_with_draft7_at_the_edges_of_every_subschema():
    for schema in (SCHEMA, _TOLERANCES_SCHEMA):
        for node in _subschemas(schema):
            draft7 = jsonschema.Draft7Validator(node)
            for value in _EDGES:
                assert _accepts(value, node) == draft7.is_valid(value), (node, value)


@settings(max_examples=500)
@given(st.sampled_from(POOL_SPECS), st.integers(0, 3), st.data())
def test_validator_agrees_with_draft7_on_mutated_pool_specs(spec, mutations, data):
    spec = copy.deepcopy(spec)
    for _ in range(mutations):
        _mutate(spec, SCHEMA, data)
    assert _accepts(spec, SCHEMA) == _DRAFT7.is_valid(spec), spec


@settings(max_examples=200)
@given(st.booleans(), st.integers(0, 3), st.data())
def test_validator_agrees_with_draft7_on_tolerances(full, mutations, data):
    overrides = DEFAULT.as_dict() if full else {}
    for _ in range(mutations):
        _mutate(overrides, _TOLERANCES_SCHEMA, data)
    assert _accepts(overrides, _TOLERANCES_SCHEMA) == _DRAFT7_TOLERANCES.is_valid(overrides)


@settings(max_examples=200)
@given(_VALUES)
def test_validator_agrees_with_draft7_on_any_json_value(value):
    assert _accepts(value, SCHEMA) == _DRAFT7.is_valid(value)
    assert _accepts(value, _TOLERANCES_SCHEMA) == _DRAFT7_TOLERANCES.is_valid(value)


def _child_env():
    """Environment in which a child imports the same coiso as this process,
    however pytest found it."""
    src = str(Path(coiso.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_console_entry_point(tmp_path):
    spec = {"kind": "grassmannian-dim", "parameters": {"n": 2, "k": 0}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, "-m", "coiso.cli", "run", str(path)],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["items"][0]["value"] == 3


def test_package_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "coiso", "schema"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == SCHEMA


def test_no_kind_imports_scipy():
    # every run kind, and the graph-product fixture's frame, with numpy alone:
    # neither scipy nor jsonschema is imported
    specs = [
        {"kind": "grassmannian-dim", "parameters": {"n": 3, "k": 1, "points": 2}},
        {"kind": "hypersurface-report", "parameters": {"fixture": "sphere", "points": 2}},
        {"kind": "minimality-scan", "parameters": {"fixture": "sphere", "points": 2}},
        {"kind": "disc-index", "parameters": {"fixture": "sphere", "loop": "hopf", "M": 64}},
        {"kind": "maslov-index", "parameters": {"n": 2, "k": 1, "M": 64, "seed": 1,
                                                "family": "random-unitary-orbit"}},
        {"kind": "invariance-suite", "parameters": {"n": 2, "k": 1, "M": 64, "trials": 2,
                                                    "seed": 1}},
    ]
    script = (
        "import json, sys\n"
        "import numpy as np\n"
        "import coiso, coiso.cli\n"
        "for spec in json.loads(sys.argv[1]):\n"
        "    assert coiso.cli.run(spec).passed, spec\n"
        "try:\n"
        "    coiso.cli.run({'kind': 'grassmannian-dim', 'parameters': {'n': 2, 'k': -1}})\n"
        "except coiso.SpecError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('a negative k was accepted')\n"
        "coiso.random_graph_product(11, l=2, m=1).frame(np.array([0.3, -0.2]))\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('scipy', 'jsonschema')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(specs)],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
