"""Batch front end: experiment files in, machine-readable reports out.

Usage:

    coiso run <spec.json> [--out PATH] [--seed N] [--tol-file PATH]
    coiso schema

An experiment file names one of the built-in kinds together with its
parameters; the runner dispatches to the library, compares every computed
quantity against its independent oracle and writes a JSON report (or a CSV
phase trace when the output format is csv).  Exit status: 0 when all
oracle comparisons pass, 1 on oracle failure (report still written), 2 on
bad input, 3 on computation errors.

Reports are byte-identical for identical (spec, seed, version); timing is
printed to stderr and deliberately kept out of the report file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite, pi
from operator import ge, gt, le, lt
from types import SimpleNamespace
from typing import Optional

import numpy as np

from . import __version__
from .config import DEFAULT, Tolerances, rng
from .errors import CoisoError, SpecError
from . import grassmann, hypergeo, maslov, symplin

__all__ = ["SCHEMA", "run", "emit_phase_trace", "main"]


KINDS = [
    "grassmannian-dim",
    "maslov-index",
    "invariance-suite",
    "disc-index",
    "hypersurface-report",
    "minimality-scan",
]


# the range of a tolerance, positive unless listed.  A bound that every
# value fails, or that makes a check compute nothing, is refused: a check
# passing below a bound needs a positive one, and so does a defect bound, as
# rounding leaves some defect.  Angles lie in [0, pi/2] (principal) or
# [0, pi] (phase jumps) and a winding residual in [0, 1/2]; a projected norm
# below 1 always shows rounding, and a spec's grid has M >= 4.
_POSITIVE = {"exclusiveMinimum": 0}
_TOLERANCE_RANGES = {
    "max_loop_samples": {"minimum": 4},
    "subspace_equality": {**_POSITIVE, "maximum": pi / 2},
    "consecutive_angle": {**_POSITIVE, "maximum": pi / 2},
    "phase_jump": {**_POSITIVE, "maximum": pi},
    "winding_residual": {**_POSITIVE, "maximum": 0.5},
    "hint_min_norm": {**_POSITIVE, "exclusiveMaximum": 1},
}


def _closed(**properties) -> dict:
    """The schema of an object that may hold the named properties only."""
    return {"type": "object", "properties": properties, "additionalProperties": False}


_INTEGER, _NUMBER = {"type": "integer"}, {"type": "number"}

# turn counts and windings lie in [-64, 64], as a random orbit's do, and an
# expected index in [-2**53, 2**53], where a float holds every integer
_TURNS = {"minimum": -64, "maximum": 64}
_WINDING = {**_INTEGER, **_TURNS}
_INDEX = {**_INTEGER, "minimum": -2 ** 53, "maximum": 2 ** 53}

# a spec's ``tolerances`` object and a --tol-file: known names only, each a
# number (an integer where the field is one) in its range
_TOLERANCES_SCHEMA = _closed(**{
    f.name: {"type": "integer" if isinstance(f.default, int) else "number",
             **_TOLERANCE_RANGES.get(f.name, _POSITIVE)}
    for f in dataclasses.fields(Tolerances)
})


SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "coiso experiment",
    "type": "object",
    "required": ["kind", "parameters"],
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": KINDS},
        "parameters": _closed(
            n={"type": "integer", "minimum": 1},
            k={"type": "integer", "minimum": 0},
            M={"type": "integer", "minimum": 4},
            seed=_INTEGER,
            points={"type": "integer", "minimum": 0},
            trials={"type": "integer", "minimum": 1},
            family={"enum": list(grassmann.LOOP_FAMILIES)},
            # every key a family, fixture or boundary builder reads, typed;
            # a random orbit winds at most 64 times per coordinate, and its
            # wiggle scales Gaussian generators by at most 2 pi, past which
            # the unitaries turn through whole circles
            family_params=_closed(
                max_winding={"type": "integer", "minimum": 0, "maximum": 64}, turns=_WINDING,
                seed={"type": "integer", "minimum": 0},
                wiggle={"type": "number", "minimum": 0, "maximum": 2 * pi},
                windings={"type": "array", "items": {**_NUMBER, **_TURNS}}),
            fixture={"enum": list(hypergeo.FIXTURES)},
            fixture_params=_closed(
                n={"type": "integer", "minimum": 1},
                r={"type": "number", "exclusiveMinimum": 0},
                level=_NUMBER,
                semi_axes={"type": "array", "minItems": 1,
                           "items": {"type": "number", "exclusiveMinimum": 0}},
                terms={"type": "array", "items": {
                    "type": "object",
                    "required": ["coeff", "exponents"],
                    "properties": {
                        "coeff": _NUMBER,
                        "exponents": {"type": "array",
                                      "items": {"type": "integer", "minimum": 0}},
                    }}}),
            loop={"enum": list(maslov.BOUNDARY_FAMILIES)},
            loop_params=_closed(power=_WINDING, p=_WINDING, q=_WINDING,
                                alpha=_NUMBER, r1=_NUMBER, r2=_NUMBER),
            section=_closed(winding=_WINDING, phase0=_NUMBER),
            grading_phase=_NUMBER,
            expected_index=_INDEX,
            tolerances=_TOLERANCES_SCHEMA,
        ),
        "output": _closed(path={"type": "string"}, format={"enum": ["json", "csv"]}),
    },
}


# the Draft-7 types SCHEMA names: an integer-valued float is an integer, and
# a bool is neither an integer nor a number
_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "integer": lambda value: (isinstance(value, int) and not isinstance(value, bool)
                              or isinstance(value, float) and value.is_integer()),
    "number": lambda value: isinstance(value, (int, float)) and not isinstance(value, bool),
}

# the range keywords: the test a number fails, and the refusal's wording
_BOUNDS = (
    ("minimum", lt, "is less than the minimum of"),
    ("maximum", gt, "is greater than the maximum of"),
    ("exclusiveMinimum", le, "is less than or equal to the minimum of"),
    ("exclusiveMaximum", ge, "is greater than or equal to the maximum of"),
)


def _refusal(path: str, text: str) -> SpecError:
    return SpecError(f"{path}: {text}" if path else text)


def _validate(instance, schema: dict, path: str = "") -> None:
    """Raise SpecError for the first value of the JSON value ``instance``
    that ``schema`` refuses, named by its JSON path (``path`` is that of
    ``instance``), or for a non-finite number.

    ``schema`` may use only the Draft-7 keywords of SCHEMA: ``type`` (one
    name), ``enum`` (of strings, which no other JSON value equals),
    ``required``, ``properties``, ``additionalProperties: false``,
    ``items`` (one schema), ``minItems``, ``minimum``, ``maximum``,
    ``exclusiveMinimum`` and ``exclusiveMaximum``.  Each applies as in
    Draft 7, so a finite value is refused here exactly when a Draft-7
    validator refuses it; the wording after the path is ``jsonschema``'s.
    """
    kind = schema.get("type")
    if kind is not None and not _TYPES[kind](instance):
        raise _refusal(path, f"{instance!r} is not of type {kind!r}")
    if "enum" in schema and instance not in schema["enum"]:
        raise _refusal(path, f"{instance!r} is not one of {schema['enum']!r}")
    if isinstance(instance, dict):
        for name in schema.get("required", ()):
            if name not in instance:
                raise _refusal(path, f"{name!r} is a required property")
        properties = schema.get("properties", {})
        if schema.get("additionalProperties", True) is False:
            extra = sorted(instance.keys() - properties.keys(), key=str)
            if extra:
                raise _refusal(path, f"Additional properties are not allowed "
                               f"({', '.join(map(repr, extra))} "
                               f"{'was' if len(extra) == 1 else 'were'} unexpected)")
        for name, value in instance.items():
            if name in properties:
                _validate(value, properties[name], f"{path}.{name}" if path else name)
    elif isinstance(instance, list):
        least = schema.get("minItems", 0)
        if len(instance) < least:
            raise _refusal(path, f"{instance!r} "
                           f"{'should be non-empty' if least == 1 else 'is too short'}")
        if "items" in schema:
            for i, value in enumerate(instance):
                _validate(value, schema["items"], f"{path}[{i}]")
    elif isinstance(instance, float) and not isfinite(instance):
        raise _refusal(path, f"{instance!r} is not a finite number")
    elif _TYPES["number"](instance):
        for keyword, fails, wording in _BOUNDS:
            if keyword in schema and fails(instance, schema[keyword]):
                raise _refusal(path, f"{instance!r} {wording} {schema[keyword]!r}")


# the binding through which ``_prepare`` validates each spec: the benchmark's
# tracer (``bench/tracing.py``) wraps ``cli.jsonschema.validate`` by name, so
# the name stays until the benchmark renames that span (ROADMAP item 10)
jsonschema = SimpleNamespace(validate=_validate)


@dataclasses.dataclass
class Report:
    kind: str
    spec: dict
    seed: Optional[int]
    items: list
    passed: bool
    error: Optional[str] = None
    tolerances: Tolerances = DEFAULT
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
            "tolerances": self.tolerances.as_dict(),
        }

    def to_json(self) -> str:
        return _dumps(self.to_dict()) + "\n"


_INFINITY = float("inf")


def _json_float(x: float) -> str:
    """A float as ``json`` writes it, non-finite values included."""
    if x != x:
        return "NaN"
    if x == _INFINITY:
        return "Infinity"
    if x == -_INFINITY:
        return "-Infinity"
    return float.__repr__(x)


def _write(value, out: list, indent: str) -> None:
    """Append the chunks of ``value`` written at ``indent`` to ``out``."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_json_float(value))
    elif isinstance(value, (list, tuple, dict)):
        if not value:
            out.append("{}" if isinstance(value, dict) else "[]")
            return
        inner = "\n" + indent + "  "
        if isinstance(value, dict):
            out.append("{")
            for key, item in sorted(value.items()):
                out.append(inner + _quote(key) + ": ")
                _write(item, out, indent + "  ")
                out.append(",")
            out[-1] = "\n" + indent + "}"
        else:
            out.append("[")
            for item in value:
                out.append(inner)
                _write(item, out, indent + "  ")
                out.append(",")
            out[-1] = "\n" + indent + "]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _dumps(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte, for
    str-keyed dicts, lists, tuples, str, int, float, bool and None; other
    values raise TypeError, as json's do, and so do other keys.  Given an
    indent, json runs its pure-Python encoder; this writer quotes strings
    with json's C ``encode_basestring_ascii`` and spells floats as json
    does."""
    out = []
    _write(value, out, "")
    return "".join(out)


def _item(name, value, oracle=None, residual=None, passed=True) -> dict:
    return {
        "name": name,
        "value": value,
        "oracle": oracle,
        "residual": residual,
        "passed": bool(passed),
    }


def _compare(name, value, oracle) -> dict:
    """An item that passes when ``value`` equals its exact ``oracle``."""
    return _item(name, value, oracle=oracle, residual=float(abs(value - oracle)),
                 passed=value == oracle)


def _bounded(name, value, bound) -> dict:
    """A residual item, oracle 0, that passes while below ``bound``."""
    return _item(name, value, oracle=0.0, residual=value, passed=value < bound)


def _expected_index(params: dict, index: int) -> list:
    """The ``expected_index`` item, when the spec names one."""
    if "expected_index" not in params:
        return []
    return [_compare("expected_index", index, int(params["expected_index"]))]


def _fixture(params: dict):
    return hypergeo.FIXTURES[params.get("fixture", "sphere")](params.get("fixture_params", {}))


# ---------------------------------------------------------------------------
# experiment kinds


# the most points of a grassmannian-dim spec measured as one stack: it bounds
# each array of perturbed bases in the rank Jacobian at about 3 MB (n = 6)
_POINTS_PER_STACK = 64


def _run_grassmannian_dim(params: dict, tol: Tolerances, seed: int) -> list:
    n, k = int(params["n"]), int(params["k"])
    points = int(params.get("points", 0))
    formula = symplin.grassmannian_dim(n, k)
    items = [_item("dimension_formula", formula)]
    gen = rng(seed, 1)
    # the points as stacks of at most _POINTS_PER_STACK, drawn in turn from
    # one generator: the stacks' members are the successive single draws,
    # certified as they are drawn and measured without a second certification
    for start in range(0, points, _POINTS_PER_STACK):
        c = symplin.random_coisotropic(
            n, k, gen, tol, size=(min(_POINTS_PER_STACK, points - start),))
        items += [_compare(f"measured_rank[{start + i}]", int(measured), formula)
                  for i, measured in enumerate(symplin._measured_dim(c, tol))]
    return items


def _maslov_pair(params: dict, tol: Tolerances, seed: int):
    """A prepared maslov-index spec's loop, family name, section winding w and
    section exp(i(w theta + phase0)) on the loop's grid (``fn`` resamples
    it)."""
    fam = params.get("family", "lagrangian-rotation")
    loop = grassmann.loop_from_family(
        int(params["k"]), params["generator"], samples=int(params.get("M", 64)), tol=tol)
    sec = params.get("section", {})
    w = int(sec.get("winding", 0))
    phase0 = float(sec.get("phase0", 0.0))
    section = maslov.MaslovSection.from_function(
        loop.thetas, lambda t: np.exp(1j * (w * t + phase0)))
    return loop, fam, w, section


def _run_maslov_index(params: dict, tol: Tolerances, seed: int) -> list:
    loop, fam, w, section = _maslov_pair(params, tol, seed)
    idx = maslov.maslov_index(loop, section, tol)
    items = [_item("maslov_index", idx)]
    # grid-doubling oracle: the integer must be stable under refinement
    loop2 = loop.resample(2 * loop.m, tol)
    section2 = maslov.MaslovSection.from_function(loop2.thetas, section.fn)
    idx2 = maslov.maslov_index(loop2, section2, tol)
    items.append(_compare("refined_index", idx2, idx))
    if fam == "lagrangian-rotation":
        turns = int(params.get("family_params", {}).get("turns", 1))
        # classical oracle: winding of the squared determinant of the
        # generating unitaries, computed away from the loop machinery
        gen_det = np.exp(1j * turns * loop.thetas / 2) ** (2 * loop.n)
        classical = maslov.winding(gen_det / np.abs(gen_det), tol)
        items.append(_compare("classical_magnitude", abs(idx - w), abs(classical)))
    return items + _expected_index(params, idx)


def _run_invariance_suite(params: dict, tol: Tolerances, seed: int) -> list:
    n, k = int(params["n"]), int(params["k"])
    trials = int(params.get("trials", 10))
    m = int(params.get("M", 64))
    items = []
    for t in range(trials):
        gen = grassmann.LOOP_FAMILIES["random-unitary-orbit"](n, k, {}, rng(seed, 10 + t))
        loop = grassmann.loop_from_family(k, gen, samples=m, tol=tol)
        g = rng(seed, 1000 + t)
        wsec = int(g.integers(-2, 3))
        section = maslov.MaslovSection.from_function(
            loop.thetas, lambda th, _w=wsec: np.exp(1j * _w * th)
        )
        mu = maslov.maslov_index(loop, section, tol)
        if t % 2 == 0:
            aloop = grassmann.random_unitary_matrix_loop(n, g, loop.m)
        else:
            aloop = grassmann.random_symplectic_matrix_loop(n, g, loop.m)
        out, moved = maslov.pushforward_section(aloop, loop, section, tol)
        items.append(_compare(f"pushforward_equality[{t}]",
                              maslov.maslov_index(out, moved, tol), mu))
    failures = sum(not it["passed"] for it in items)
    return [_compare("failures", failures, 0)] + items


def _run_disc_index(params: dict, tol: Tolerances, seed: int) -> list:
    y = params["surface"]
    boundary = maslov.BOUNDARY_FAMILIES[params.get("loop", "hopf")](params.get("loop_params", {}))
    m = int(params.get("M", 256))
    phase = float(params.get("grading_phase", 0.0))
    detail = maslov.disc_index_detail(
        y, boundary, lambda points: np.full(len(points), np.exp(1j * phase)), m, tol)
    return [
        _item("disc_index", detail["index"], residual=detail["residual"]),
        _compare("connection_index", detail["connection_index"], detail["index"]),
    ] + _expected_index(params, detail["index"])


def _run_hypersurface_report(params: dict, tol: Tolerances, seed: int) -> list:
    y = _fixture(params)
    pts = y.sample_points(int(params.get("points", 8)), rng(seed, 7))
    geo = hypergeo.point_geometry(y, pts, tol)
    mc = hypergeo.leafwise_mean_curvature(geo)
    levi = hypergeo.levi_form(geo)
    sff_route = hypergeo.transverse_curvature_sff(geo)
    bracket = hypergeo.transverse_curvature_bracket(geo)
    gaps = np.max(np.abs(sff_route.components - bracket.components),
                  axis=(-3, -2, -1), initial=0.0)
    type_11 = hypergeo.is_integrable_prekahler(sff_route, tol)
    symmetry = geo.blocks.symmetry_residual()
    items = []
    for i in range(len(pts)):
        items += [
            _bounded(f"sff_symmetry[{i}]", float(symmetry[i]), tol.sff_symmetry),
            _bounded(f"curvature_route_gap[{i}]", float(gaps[i]), tol.bracket_vs_sff),
            _item(f"type_11[{i}]", bool(type_11[i]), oracle=True, passed=type_11[i]),
            _item(f"levi_eigenvalues[{i}]", [float(v) for v in levi.eigenvalues[i]]),
            _item(f"alpha_norm[{i}]", float(mc.alpha_norm[i])),
            _item(f"levi_positive_definite[{i}]", bool(levi.positive_definite[i])),
        ]
    special = maslov.is_leafwise_special(pts, mc.alpha_norm, tol)
    items.append(_item("leafwise_special", bool(special.result)))
    items.append(_item("max_alpha_norm", float(special.max_alpha)))
    return items


def _run_minimality_scan(params: dict, tol: Tolerances, seed: int) -> list:
    y = _fixture(params)
    pts = y.sample_points(int(params.get("points", 8)), rng(seed, 11))
    res = hypergeo.leaf_minimality(hypergeo.point_geometry(y, pts, tol))
    items = []
    for i in range(len(pts)):
        norm = float(res.curvature_norm[i])
        items.append(_item(f"minimal[{i}]", bool(res.minimal[i]), residual=norm, passed=True))
        items.append(_bounded(
            f"contraction_residual[{i}]", float(res.consistency_residual[i]),
            tol.minimality_consistency * max(1.0, norm)))
    return items


_RUNNERS = {
    "grassmannian-dim": _run_grassmannian_dim,
    "maslov-index": _run_maslov_index,
    "invariance-suite": _run_invariance_suite,
    "disc-index": _run_disc_index,
    "hypersurface-report": _run_hypersurface_report,
    "minimality-scan": _run_minimality_scan,
}


# the n and k a kind's runner reads when the spec leaves them out
# (grassmannian-dim must name both)
_DEFAULT_N_K = {"grassmannian-dim": {}, "maslov-index": {"n": 1, "k": 0},
                "invariance-suite": {"n": 2, "k": 0}}
# the fixture parameters a fixture has no default for
_FIXTURE_NEEDS = {"ellipsoid": ["semi_axes"], "polynomial": ["n", "terms"]}


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise SpecError(message)


def _prepare(spec: dict, tol: Tolerances, seed_override: Optional[int]):
    """``(params, tol, seed)`` of a validated experiment: the parameters with
    the seed and default n and k filled in, a maslov-index spec's drawn
    loop family under ``generator`` and a disc-index spec's fixture under
    ``surface``; and the spec's tolerances merged over ``tol``.  Bad input
    raises SpecError.

    The schema holds each field's own rules; the rules that tie a field to
    another field's value are checked here, where they cost microseconds
    (each ``if``/``then`` of the schema costs a spec far more).
    """
    jsonschema.validate(spec, SCHEMA)
    kind = spec["kind"]
    params = dict(spec["parameters"])
    if kind in _DEFAULT_N_K:
        params = {**_DEFAULT_N_K[kind], **params}
        _require("n" in params and "k" in params, f"{kind} needs n and k")
        _require(params["k"] <= params["n"], f"k={params['k']} exceeds n={params['n']}")
    if kind in ("hypersurface-report", "minimality-scan"):
        _require(params.get("points", 1) >= 1, f"{kind} needs at least one point")
    family = params.get("family", "lagrangian-rotation")
    if family == "diag-unitary":
        _require("windings" in params.get("family_params", {}),
                 "the diag-unitary family needs family_params windings")
    if kind == "maslov-index" and family == "lagrangian-rotation":
        _require(params["k"] == 0, "a lagrangian-rotation loop has k = 0")
    if kind == "maslov-index" and family == "diag-unitary":
        windings = params["family_params"]["windings"]
        _require(len(windings) == params["n"], f"diag-unitary needs one winding per "
                 f"complex coordinate, got {len(windings)} for n={params['n']}")
    fixture = params.get("fixture")
    missing = [name for name in _FIXTURE_NEEDS.get(fixture, [])
               if name not in params.get("fixture_params", {})]
    _require(not missing, f"the {fixture} fixture needs fixture_params {missing}")
    if fixture == "polynomial":
        fp = params["fixture_params"]
        for term in fp["terms"]:
            _require(len(term["exponents"]) == 2 * fp["n"], f"a polynomial term needs "
                     f"2n = {2 * fp['n']} exponents, got {len(term['exponents'])}")
            _require(sum(term["exponents"]) <= 6, "a polynomial term has degree at most 6")
    if kind == "disc-index":
        # built once, here, since its n is checked; the runner reads it
        params["surface"] = y = _fixture(params)
        _require(y.n == 2, f"disc-index boundary loops lie in C^2, the fixture in C^{y.n}")
    tol = tol.replace(**params.get("tolerances", {}))
    seed = seed_override if seed_override is not None else int(params.get("seed", 0))
    # a seed keys a numpy SeedSequence, which takes no negative entropy
    _require(seed >= 0, f"seed {seed} is negative")
    params["seed"] = seed
    if kind == "maslov-index":
        # the family is drawn once, here, since the windings it draws bound
        # the grid: only the kernel coordinates j >= k move the subspace, and
        # a grid resolves a winding w while each step turns it by
        # |w| 2 pi / M <= pi / 2
        k = int(params["k"])
        gen = grassmann.LOOP_FAMILIES[family](
            int(params["n"]), k, params.get("family_params", {}), seed)
        if hasattr(gen, "windings"):
            fastest = float(np.max(np.abs(gen.windings[k:]), initial=0.0))
            m = int(params.get("M", 64))
            _require(m >= 4 * fastest, f"a grid of M={m} aliases the kernel winding "
                     f"{fastest:g} of {family}: it needs M >= {4 * fastest:g}")
        params["generator"] = gen
    return params, tol, seed


def run(spec: dict, tol: Tolerances = DEFAULT,
        seed_override: Optional[int] = None) -> Report:
    """Validate and execute one experiment; deterministic given the seed.
    Bad input raises SpecError."""
    return _execute(spec, *_prepare(spec, tol, seed_override))


def _execute(spec: dict, params: dict, tol: Tolerances, seed: int) -> Report:
    """Run a prepared experiment; a computation error becomes the report's
    error."""
    kind = spec["kind"]
    started = time.perf_counter()
    report = Report(kind=kind, spec=spec, seed=seed, items=[], passed=True, tolerances=tol)
    try:
        report.items = _RUNNERS[kind](params, tol, seed)
        report.passed = all(it["passed"] for it in report.items)
    except CoisoError as exc:
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
    unwrapped = np.concatenate([[np.angle(g[0])],
                                np.angle(g[0]) + np.cumsum(maslov._increments(g))])
    thetas = np.concatenate([loop.thetas, [2 * pi]])
    gg = np.concatenate([g, [g[0]]])
    lines = ["theta,re_g,im_g,unwrapped_phase"]
    for t, z, u in zip(thetas, gg, unwrapped):
        lines.append(f"{t:.17g},{z.real:.17g},{z.imag:.17g},{u:.17g}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _finite(literal: str) -> float:
    """A JSON number literal as a float; ``NaN``, ``Infinity``,
    ``-Infinity`` and a literal that overflows to infinity raise ValueError,
    since no range check refuses NaN and no parameter means infinity."""
    value = float(literal)
    if not isfinite(value):
        raise ValueError(f"non-finite number {literal}")
    return value


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
        print(_dumps(SCHEMA))
        return 0

    # a decoding error and a non-finite number are both ValueErrors
    try:
        with open(args.spec) as fh:
            spec = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except (OSError, ValueError) as exc:
        print(f"cannot read spec: {exc}", file=sys.stderr)
        return 2
    tol = DEFAULT
    if args.tol_file:
        try:
            with open(args.tol_file) as fh:
                overrides = json.load(fh, parse_float=_finite, parse_constant=_finite)
        except (OSError, ValueError) as exc:
            print(f"cannot read tolerance file: {exc}", file=sys.stderr)
            return 2
        try:
            _validate(overrides, _TOLERANCES_SCHEMA)
        except SpecError as exc:
            print(f"bad tolerance file: {exc}", file=sys.stderr)
            return 2
        tol = tol.replace(**overrides)
    try:
        prepared = _prepare(spec, tol, args.seed)
    except SpecError as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 2

    out_path = args.out or spec.get("output", {}).get("path")
    fmt = spec.get("output", {}).get("format", "json")
    # a ValueError out of the library is a computation error here too
    try:
        if fmt == "csv":
            if spec["kind"] != "maslov-index":
                print("csv output is only defined for maslov-index traces",
                      file=sys.stderr)
                return 2
            if not out_path:
                print("csv output needs a path", file=sys.stderr)
                return 2
            loop, _, _, section = _maslov_pair(*prepared)
            emit_phase_trace(loop, section, out_path, prepared[1])
            return 0
        report = _execute(spec, *prepared)
    except (CoisoError, ValueError) as exc:
        print(f"computation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
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
