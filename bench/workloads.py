"""Workload draws, the observed outcome of one spec, and its comparison with
the outcome committed in ``pool.json``.

Every spec a workload runs is committed in ``pool.json`` together with its
expected outcome.  A draw runs each spec of the workload in a seeded order,
with seeded values for the parameters that cannot change the outcome: the
constant phase of the section (``maslov-index``) or of the grading
(``disc-index``).  A constant unit factor does not change a winding
number, and ``capture.py`` checks that the outcome does not move with them.
The spec contents themselves are fixed: their costs differ by up to tenfold
(refinement, early failures), so a seeded choice among them would move the
timings more than the bounds allow.
"""

from __future__ import annotations

import copy
import json
import math
import random
from pathlib import Path

POOL_PATH = Path(__file__).with_name("pool.json")

WORKLOADS = ("loops", "disc", "pointwise")

# one small spec per kind, run untimed before measuring so that lru caches
# fill and lazy imports finish
WARMUP = [
    {"kind": "grassmannian-dim", "parameters": {"n": 3, "k": 1, "points": 1, "seed": 1}},
    {"kind": "maslov-index", "parameters": {"n": 2, "k": 1, "M": 64, "seed": 1,
                                            "family": "random-unitary-orbit"}},
    {"kind": "invariance-suite", "parameters": {"n": 2, "k": 1, "M": 64, "trials": 1,
                                                "seed": 1}},
    {"kind": "disc-index", "parameters": {"fixture": "sphere", "loop": "hopf", "M": 64}},
    {"kind": "hypersurface-report", "parameters": {"fixture": "sphere", "points": 2,
                                                   "seed": 1}},
    {"kind": "minimality-scan", "parameters": {"fixture": "sphere", "points": 2, "seed": 1}},
]


def load_pool() -> dict:
    with open(POOL_PATH) as fh:
        return json.load(fh)


def with_phase(spec: dict, phase: float) -> dict:
    """``spec`` with its outcome-neutral phase set, if its kind has one."""
    spec = copy.deepcopy(spec)
    params = spec["parameters"]
    if spec["kind"] == "disc-index":
        params["grading_phase"] = phase
    elif spec["kind"] == "maslov-index":
        params.setdefault("section", {})["phase0"] = phase
    return spec


def draw(workload: str, seed: int, pool: dict) -> list[tuple[str, dict]]:
    """The seeded batch of ``(pool key, spec)`` pairs, in run order."""
    gen = random.Random(seed)
    batch = [(key, with_phase(entry["spec"], round(gen.uniform(0, 2 * math.pi), 6)))
             for key, entry in sorted(pool[workload].items())]
    gen.shuffle(batch)
    return batch


def outcome(report, exc: BaseException | None = None) -> dict:
    """What the check compares: the verdict, integer and boolean outputs."""
    if exc is not None:
        return {"outcome": f"exception:{type(exc).__name__}"}
    if report.error is not None:
        verdict = "error:" + report.error.split(":", 1)[0]
    else:
        verdict = "passed" if report.passed else "failed"
    integers, booleans, failed = {}, {}, []
    for item in report.items:
        value = item["value"]
        if isinstance(value, bool):
            booleans[item["name"]] = value
        elif isinstance(value, int):
            integers[item["name"]] = value
        if not item["passed"]:
            failed.append(item["name"])
    return {"outcome": verdict, "items": len(report.items), "failed_items": failed,
            "integers": integers, "booleans": booleans}


def mismatches(expected: dict, observed: dict) -> int:
    """Number of committed values the observed outcome does not reproduce."""
    count = int(expected["outcome"] != observed["outcome"])
    count += int(expected.get("items") != observed.get("items"))
    count += len(set(expected.get("failed_items", [])) ^ set(observed.get("failed_items", [])))
    for key in ("integers", "booleans"):
        want, got = expected.get(key, {}), observed.get(key, {})
        count += sum(1 for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    return count
