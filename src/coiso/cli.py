"""Batch front end: experiment files in, machine-readable reports out.

Usage:

    coiso run <spec.json> [--out PATH] [--seed N] [--tol-file PATH]
    coiso schema

An experiment file names one of the built-in kinds together with its
parameters; the runner dispatches to the library, compares every computed
quantity against its independent oracle and writes a JSON report (or a CSV
phase trace when the output format is csv).  Exit status: 0 when all
oracle comparisons pass, 1 on oracle failure (report still written), 2 on
schema violations, 3 on computation errors.

Reports are byte-identical for identical (spec, seed, version); timing is
printed to stderr and deliberately kept out of the report file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from math import cos, pi, sin, sqrt
from typing import Callable, Optional

import numpy as np
import jsonschema

from . import __version__
from .config import DEFAULT, Tolerances, rng
from .errors import CoisoError
from . import grassmann, hypergeo, maslov, symplin

__all__ = ["SCHEMA", "run", "emit_phase_trace", "main", "BOUNDARY_FAMILIES"]


KINDS = [
    "grassmannian-dim",
    "maslov-index",
    "invariance-suite",
    "disc-index",
    "hypersurface-report",
    "minimality-scan",
]

SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "coiso experiment",
    "type": "object",
    "required": ["kind", "parameters"],
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": KINDS},
        "parameters": {
            "type": "object",
            "properties": {
                "n": {"type": "integer", "minimum": 1},
                "k": {"type": "integer", "minimum": 0},
                "M": {"type": "integer", "minimum": 4},
                "seed": {"type": "integer"},
                "points": {"type": "integer", "minimum": 0},
                "trials": {"type": "integer", "minimum": 1},
                "family": {"type": "string"},
                "family_params": {"type": "object"},
                "fixture": {"type": "string"},
                "fixture_params": {"type": "object"},
                "loop": {"type": "string"},
                "loop_params": {"type": "object"},
                "section": {
                    "type": "object",
                    "properties": {
                        "winding": {"type": "integer"},
                        "phase0": {"type": "number"},
                    },
                    "additionalProperties": False,
                },
                "grading_phase": {"type": "number"},
                "expected_index": {"type": "integer"},
                "tolerances": {"type": "object"},
            },
            "additionalProperties": False,
        },
        "output": {
            "type": "object",
            "properties": {
                "path": {"type": "string"},
                "format": {"enum": ["json", "csv"]},
            },
            "additionalProperties": False,
        },
    },
}


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


@dataclasses.dataclass
class Report:
    kind: str
    spec: dict
    seed: Optional[int]
    items: list
    passed: bool
    error: Optional[str] = None
    wall_time_s: Optional[float] = None   # stderr only, never serialized

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "spec": self.spec,
            "version": __version__,
            "seed": self.seed,
            "passed": self.passed,
            "error": self.error,
            "items": self.items,
            "tolerances": _tol_dict(self._tol),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _tol_dict(tol: Tolerances) -> dict:
    return {k: v for k, v in tol.as_dict().items()}


def _item(name, value, oracle=None, residual=None, passed=True) -> dict:
    return {
        "name": name,
        "value": value,
        "oracle": oracle,
        "residual": residual,
        "passed": bool(passed),
    }


# ---------------------------------------------------------------------------
# boundary loop families on hypersurface fixtures


def _hopf_boundary(params: dict) -> Callable[[float], np.ndarray]:
    power = int(params.get("power", 1))

    def w(theta):
        z = np.exp(1j * power * theta)
        return np.array([z.real, 0.0, z.imag, 0.0])

    return w


def _latitude_boundary(params: dict) -> Callable[[float], np.ndarray]:
    alpha = float(params.get("alpha", 1.25))
    p = int(params.get("p", 1))
    q = int(params.get("q", 0))
    ca, sa = cos(alpha), sin(alpha)

    def w(theta):
        z1 = ca * np.exp(1j * p * theta)
        z2 = sa * np.exp(1j * q * theta)
        return np.array([z1.real, z2.real, z1.imag, z2.imag])

    return w


def _planar_circle_boundary(params: dict) -> Callable[[float], np.ndarray]:
    r1 = float(params.get("r1", 0.7))
    r2 = float(params.get("r2", 0.4))
    # closed curve inside the hyperplane x1 = 1 of C^2
    def w(theta):
        return np.array([
            1.0,
            r1 * cos(theta),
            r2 * sin(theta) + 0.2 * r2 * sin(2 * theta),
            r2 * cos(theta),
        ])

    return w


BOUNDARY_FAMILIES = {
    "hopf": _hopf_boundary,
    "latitude": _latitude_boundary,
    "planar-circle": _planar_circle_boundary,
}


# ---------------------------------------------------------------------------
# experiment kinds


def _run_grassmannian_dim(params: dict, tol: Tolerances, seed: int) -> list:
    n, k = int(params["n"]), int(params["k"])
    points = int(params.get("points", 0))
    formula = symplin.grassmannian_dim(n, k)
    items = [_item("dimension_formula", formula)]
    if points:
        space = symplin.standard_space(n)
        gen = rng(seed, 1)
        for i in range(points):
            c = symplin.random_coisotropic(space, k, gen, tol)
            measured = symplin.measured_grassmannian_dim(space, c, tol.rank_step, tol)
            items.append(_item(
                f"measured_rank[{i}]", measured, oracle=formula,
                residual=float(abs(measured - formula)),
                passed=measured == formula,
            ))
    return items


def _build_loop(space, params: dict, tol: Tolerances, seed: int):
    name = params.get("family", "lagrangian-rotation")
    fp = dict(params.get("family_params", {}))
    m = int(params.get("M", 64))
    if name == "lagrangian-rotation":
        gen = grassmann.lagrangian_rotation_family(space, int(fp.get("turns", 1)))
        k = 0
    elif name == "constant":
        k = int(params.get("k", 0))
        gen = grassmann.constant_family(space, k, fp.get("seed"))
    elif name == "diag-unitary":
        k = int(params.get("k", 0))
        gen = grassmann.diag_unitary_family(space, k, fp["windings"])
    elif name == "random-unitary-orbit":
        k = int(params.get("k", 0))
        gen = grassmann.random_unitary_orbit_family(
            space, k, fp.get("seed", seed),
            max_winding=int(fp.get("max_winding", 2)),
            wiggle=float(fp.get("wiggle", 0.4)))
    else:
        raise ValueError(f"unknown loop family {name!r}")
    return grassmann.loop_from_family(space, k, gen, samples=m, tol=tol), name


def _run_maslov_index(params: dict, tol: Tolerances, seed: int) -> list:
    n = int(params.get("n", 1))
    space = symplin.standard_space(n)
    loop, fam = _build_loop(space, params, tol, seed)
    sec = params.get("section", {})
    w = int(sec.get("winding", 0))
    phase0 = float(sec.get("phase0", 0.0))
    section = maslov.MaslovSection.from_function(
        loop.thetas, lambda t: np.exp(1j * (w * t + phase0))
    )
    idx = maslov.maslov_index(loop, section, tol)
    items = [_item("maslov_index", idx)]
    # grid-doubling oracle: the integer must be stable under refinement
    loop2 = loop.resample(2 * loop.m, tol)
    section2 = maslov.MaslovSection.from_function(
        loop2.thetas, lambda t: np.exp(1j * (w * t + phase0))
    )
    idx2 = maslov.maslov_index(loop2, section2, tol)
    items.append(_item("refined_index", idx2, oracle=idx,
                       residual=float(abs(idx2 - idx)), passed=idx2 == idx))
    if fam == "lagrangian-rotation":
        turns = int(params.get("family_params", {}).get("turns", 1))
        # classical oracle: winding of the squared determinant of the
        # generating unitaries, computed away from the loop machinery
        gen_det = np.exp(1j * turns * loop.thetas / 2) ** (2 * n)
        classical = maslov.winding(gen_det / np.abs(gen_det), tol)
        items.append(_item(
            "classical_magnitude", abs(idx - w), oracle=abs(classical),
            residual=float(abs(abs(idx - w) - abs(classical))),
            passed=abs(idx - w) == abs(classical),
        ))
    if "expected_index" in params:
        exp = int(params["expected_index"])
        items.append(_item("expected_index", idx, oracle=exp,
                           residual=float(abs(idx - exp)), passed=idx == exp))
    return items


def _run_invariance_suite(params: dict, tol: Tolerances, seed: int) -> list:
    n = int(params.get("n", 2))
    k = int(params.get("k", 0))
    trials = int(params.get("trials", 10))
    m = int(params.get("M", 64))
    space = symplin.standard_space(n)
    items = []
    failures = 0
    for t in range(trials):
        gen = grassmann.random_unitary_orbit_family(space, k, rng(seed, 10 + t))
        loop = grassmann.loop_from_family(space, k, gen, samples=m, tol=tol)
        g = rng(seed, 1000 + t)
        wsec = int(g.integers(-2, 3))
        section = maslov.MaslovSection.from_function(
            loop.thetas, lambda th, _w=wsec: np.exp(1j * _w * th)
        )
        mu = maslov.maslov_index(loop, section, tol)
        if t % 2 == 0:
            aloop = grassmann.random_unitary_matrix_loop(space, g, loop.m)
        else:
            aloop = grassmann.random_symplectic_matrix_loop(space, g, loop.m)
        out, moved = maslov.pushforward_section(aloop, loop, section, tol)
        mu2 = maslov.maslov_index(out, moved, tol)
        ok = mu2 == mu
        failures += 0 if ok else 1
        items.append(_item(f"pushforward_equality[{t}]", mu2, oracle=mu,
                           residual=float(abs(mu2 - mu)), passed=ok))
    items.insert(0, _item("failures", failures, oracle=0,
                          residual=float(failures), passed=failures == 0))
    return items


def _run_disc_index(params: dict, tol: Tolerances, seed: int) -> list:
    fixture = params.get("fixture", "sphere")
    y = hypergeo.FIXTURES[fixture](fixture, params.get("fixture_params", {}))
    loop_name = params.get("loop", "hopf")
    boundary = BOUNDARY_FAMILIES[loop_name](params.get("loop_params", {}))
    m = int(params.get("M", 256))
    phase = float(params.get("grading_phase", 0.0))
    grading = maslov.Grading(charge=lambda p: np.exp(1j * phase), label="constant")
    detail = maslov.disc_index_detail(y, boundary, grading, m, tol)
    items = [
        _item("disc_index", detail["index"], residual=detail["residual"]),
        _item("connection_index", detail["connection_index"],
              oracle=detail["index"],
              residual=float(abs(detail["connection_index"] - detail["index"])),
              passed=detail["connection_index"] == detail["index"]),
    ]
    if "expected_index" in params:
        exp = int(params["expected_index"])
        items.append(_item("expected_index", detail["index"], oracle=exp,
                           residual=float(abs(detail["index"] - exp)),
                           passed=detail["index"] == exp))
    return items


def _hypersurface_point_report(y, p, tol: Tolerances) -> dict:
    blocks = hypergeo.second_fundamental_form(y, p, tol=tol)
    mc = hypergeo.leafwise_mean_curvature(y, p, tol=tol)
    levi = hypergeo.levi_form(y, p, tol=tol)
    sff_route = hypergeo.transverse_curvature_sff(blocks, tol=tol)
    bracket = hypergeo.transverse_curvature_bracket(y, p, tol=tol)
    return {
        "sff_symmetry": blocks.symmetry_residual(),
        "alpha_norm": mc.alpha_norm,
        "mean_curvature_residual": mc.formula_residual,
        "levi_eigenvalues": [float(v) for v in levi.eigenvalues],
        "levi_positive_definite": levi.positive_definite,
        "curvature_route_gap": float(np.max(np.abs(
            sff_route.components - bracket.components))) if sff_route.components.size else 0.0,
        "type_11": bool(hypergeo.is_integrable_prekahler(y, p, tol)),
    }


def _run_hypersurface_report(params: dict, tol: Tolerances, seed: int) -> list:
    fixture = params.get("fixture", "sphere")
    y = hypergeo.FIXTURES[fixture](fixture, params.get("fixture_params", {}))
    count = int(params.get("points", 8))
    pts = y.sample_points(count, rng(seed, 7))
    reports = [_hypersurface_point_report(y, p, tol) for p in pts]
    items = []
    for i, rep in enumerate(reports):
        items.append(_item(
            f"sff_symmetry[{i}]", rep["sff_symmetry"], oracle=0.0,
            residual=rep["sff_symmetry"], passed=rep["sff_symmetry"] < tol.sff_symmetry))
        items.append(_item(
            f"curvature_route_gap[{i}]", rep["curvature_route_gap"], oracle=0.0,
            residual=rep["curvature_route_gap"],
            passed=rep["curvature_route_gap"] < tol.bracket_vs_sff))
        items.append(_item(
            f"type_11[{i}]", rep["type_11"], oracle=True, residual=None,
            passed=rep["type_11"]))
        items.append(_item(f"levi_eigenvalues[{i}]", rep["levi_eigenvalues"]))
        items.append(_item(f"alpha_norm[{i}]", rep["alpha_norm"]))
        items.append(_item(f"levi_positive_definite[{i}]",
                           rep["levi_positive_definite"]))
    special = maslov.is_leafwise_special(y, pts, tol)
    items.append(_item("leafwise_special", bool(special.result)))
    items.append(_item("max_alpha_norm", float(special.max_alpha)))
    return items


def _run_minimality_scan(params: dict, tol: Tolerances, seed: int) -> list:
    fixture = params.get("fixture", "sphere")
    y = hypergeo.FIXTURES[fixture](fixture, params.get("fixture_params", {}))
    count = int(params.get("points", 8))
    pts = y.sample_points(count, rng(seed, 11))
    items = []
    for i, p in enumerate(pts):
        res = hypergeo.leaf_minimality(y, p, tol=tol)
        items.append(_item(
            f"minimal[{i}]", bool(res.minimal),
            residual=res.curvature_norm, passed=True))
        items.append(_item(
            f"contraction_residual[{i}]", res.consistency_residual, oracle=0.0,
            residual=res.consistency_residual,
            passed=res.consistency_residual < tol.minimality_consistency
            * max(1.0, res.curvature_norm)))
    return items


_RUNNERS = {
    "grassmannian-dim": _run_grassmannian_dim,
    "maslov-index": _run_maslov_index,
    "invariance-suite": _run_invariance_suite,
    "disc-index": _run_disc_index,
    "hypersurface-report": _run_hypersurface_report,
    "minimality-scan": _run_minimality_scan,
}


def run(spec: dict, tol: Tolerances = DEFAULT,
        seed_override: Optional[int] = None) -> Report:
    """Validate and execute one experiment; deterministic given the seed."""
    jsonschema.validate(spec, SCHEMA)
    params = dict(spec.get("parameters", {}))
    if "tolerances" in params:
        tol = tol.replace(**params["tolerances"])
    seed = seed_override if seed_override is not None else int(params.get("seed", 0))
    params["seed"] = seed
    kind = spec["kind"]
    started = time.perf_counter()
    report = Report(kind=kind, spec=spec, seed=seed, items=[], passed=True)
    report._tol = tol
    try:
        items = _RUNNERS[kind](params, tol, seed)
        report.items = items
        report.passed = all(it.get("passed", True) for it in items)
    except CoisoError as exc:
        report.items = []
        report.passed = False
        report.error = f"{type(exc).__name__}: {exc}"
    report.wall_time_s = time.perf_counter() - started
    return report


def emit_phase_trace(loop, section, path, tol: Tolerances = DEFAULT) -> None:
    """CSV trace of the comparison function g = section / canonical along
    the loop: columns theta, re(g), im(g), unwrapped_phase; a closing row
    at theta = 2*pi makes the winding readable from the last entry."""
    can = maslov.canonical_section(loop, tol)
    g = section.samples / can.samples
    inc = np.angle(np.roll(g, -1) / g)
    unwrapped = np.concatenate([[np.angle(g[0])],
                                np.angle(g[0]) + np.cumsum(inc)])
    thetas = np.concatenate([loop.thetas, [2 * pi]])
    gg = np.concatenate([g, [g[0]]])
    lines = ["theta,re_g,im_g,unwrapped_phase"]
    for t, z, u in zip(thetas, gg, unwrapped):
        lines.append(f"{t:.17g},{z.real:.17g},{z.imag:.17g},{u:.17g}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _emit_trace_for_spec(spec: dict, tol: Tolerances, seed: int, path: str) -> None:
    params = dict(spec.get("parameters", {}))
    params["seed"] = seed
    n = int(params.get("n", 1))
    space = symplin.standard_space(n)
    loop, _ = _build_loop(space, params, tol, seed)
    sec = params.get("section", {})
    w = int(sec.get("winding", 0))
    phase0 = float(sec.get("phase0", 0.0))
    section = maslov.MaslovSection.from_function(
        loop.thetas, lambda t: np.exp(1j * (w * t + phase0)))
    emit_phase_trace(loop, section, path, tol)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coiso",
        description="coisotropic loop indices and hypersurface geometry",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute an experiment file")
    runp.add_argument("spec", help="path to the experiment JSON")
    runp.add_argument("--out", default=None, help="report path override")
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--tol-file", default=None,
                      help="JSON file of tolerance overrides")
    sub.add_parser("schema", help="print the experiment JSON schema")
    args = parser.parse_args(argv)

    if args.command == "schema":
        print(json.dumps(SCHEMA, sort_keys=True, indent=2))
        return 0

    try:
        with open(args.spec) as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read spec: {exc}", file=sys.stderr)
        return 2
    tol = DEFAULT
    if args.tol_file:
        try:
            with open(args.tol_file) as fh:
                tol = tol.replace(**json.load(fh))
        except (OSError, json.JSONDecodeError, TypeError) as exc:
            print(f"cannot read tolerance file: {exc}", file=sys.stderr)
            return 2
    try:
        jsonschema.validate(spec, SCHEMA)
    except jsonschema.ValidationError as exc:
        print(f"schema violation: {exc.message}", file=sys.stderr)
        return 2

    out_path = args.out or spec.get("output", {}).get("path")
    fmt = spec.get("output", {}).get("format", "json")
    if fmt == "csv":
        if spec["kind"] != "maslov-index":
            print("csv output is only defined for maslov-index traces",
                  file=sys.stderr)
            return 2
        if not out_path:
            print("csv output needs a path", file=sys.stderr)
            return 2
        seed = args.seed if args.seed is not None else int(
            spec.get("parameters", {}).get("seed", 0))
        try:
            _emit_trace_for_spec(spec, tol, seed, out_path)
        except CoisoError as exc:
            print(f"computation error: {exc}", file=sys.stderr)
            return 3
        return 0

    report = run(spec, tol, seed_override=args.seed)
    payload = report.to_json()
    if out_path:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    print(f"wall time: {report.wall_time_s:.3f}s", file=sys.stderr)
    if report.error is not None:
        print(report.error, file=sys.stderr)
        return 3
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
