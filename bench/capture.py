"""Build ``pool.json``: every spec a workload runs, with its expected outcome.

    python3 bench/capture.py

Specs are generated from fixed seeds, one random stream per stratum (kind,
dimensions, family or fixture), run once through ``coiso.cli.run``, and
their outcomes recorded as the expected values ("seed-captured").  Each spec
with an outcome-neutral phase is run again at two other phases, and the
capture stops if the outcome moves.

Integers that mathematics fixes are pinned to the known value instead, and
listed under ``pinned`` in the expectation:

* ``dimension_formula`` and ``measured_rank[i]``: the coisotropic subspaces
  of dimension n+k are the symplectic complements of the isotropic
  (n-k)-planes, a Grassmannian of dimension r(2n-r) - r(r-1)/2 with r = n-k;
* ``disc_index`` and ``connection_index`` of a planar circle on the
  hyperplane: 0 (the adapted frame extends over the disc);
* the same on the Hopf circle of power p on the unit sphere: -2p
  (-2 for p = 1; reversing the orientation negates the index);
* ``classical_magnitude`` of a lagrangian-rotation loop: n * turns.

Where the program reports a pinned integer with another value, the
disagreement is printed and the pinned value kept, so the benchmark reports
it as a mismatch.
"""

from __future__ import annotations

import json
import math
import sys
import zlib

import numpy as np

from run import git_commit, import_cli
from workloads import POOL_PATH, outcome, with_phase

POOL_SEED = 310482
# specs generated per stratum; invariance-suite specs are the costliest (0.3
# to 3 s each), so the loops workload runs one per (n, k) and each spec runs
# several times within one measurement
VARIANTS = {"maslov-index": 2, "invariance-suite": 1, "pointwise": 4}

# the 20 boundary loops of the disc-index acceptance test
PLANAR = [(0.5, 0.3), (0.8, 0.2), (0.3, 0.7), (1.1, 0.4), (0.6, 0.6),
          (0.2, 0.9), (0.9, 0.5), (0.4, 0.4), (0.7, 1.0), (1.0, 0.8)]
HOPF = [1, 2, -1, -2]
LATITUDE = [(1.25, 1, 0), (1.25, 2, 1), (0.25, 1, 0),
            (1.35, 1, -1), (1.3, 2, 0), (0.3, 1, 1)]


def isotropic_grassmannian_dim(n: int, k: int) -> int:
    r = n - k
    return r * (2 * n - r) - r * (r - 1) // 2


def stream(stratum: str) -> np.random.Generator:
    """The generator of one stratum, independent of every other stratum."""
    return np.random.default_rng([POOL_SEED, zlib.crc32(stratum.encode())])


def _section(g) -> dict:
    return {"winding": int(g.integers(-2, 3)),
            "phase0": round(float(g.uniform(0, 2 * math.pi)), 6)}


def loops_pool() -> dict:
    def orbit(g, n, k):
        seed = int(g.integers(0, 10 ** 6))
        return {"n": n, "k": k, "M": int(g.choice([8, 16, 32])), "seed": seed,
                "family": "random-unitary-orbit", "family_params": {"seed": seed},
                "section": _section(g)}

    def diag(g, n, k):
        windings = g.integers(-2, 3, size=k).tolist() + (g.integers(-4, 5, size=n - k) / 2).tolist()
        return {"n": n, "k": k, "M": int(g.choice([8, 16, 32])), "family": "diag-unitary",
                "family_params": {"windings": windings}, "section": _section(g)}

    def rotation(g, n, _):
        return {"n": n, "M": int(g.choice([8, 16, 32])), "family": "lagrangian-rotation",
                "family_params": {"turns": int(g.choice([1, 2]))}, "section": _section(g)}

    def invariance(g, n, k):
        return {"n": n, "k": k, "M": 128, "trials": 2, "seed": int(g.integers(0, 10 ** 6))}

    nk = [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]
    plan = ([(f"mi-orbit-n{n}k{k}", "maslov-index", orbit, n, k) for n, k in nk]
            + [(f"mi-diag-n{n}k{k}", "maslov-index", diag, n, k) for n, k in nk]
            + [(f"mi-rotation-n{n}", "maslov-index", rotation, n, 0) for n in (2, 3)]
            + [(f"inv-n{n}k{k}", "invariance-suite", invariance, n, k) for n, k in nk])
    strata = {}
    for name, kind, make, n, k in plan:
        g = stream(name)
        strata[name] = [{"kind": kind, "parameters": make(g, n, k)}
                        for _ in range(VARIANTS[kind])]
    return strata


def disc_pool() -> dict:
    strata = {}
    for i, (r1, r2) in enumerate(PLANAR):
        strata[f"planar-{i}"] = [{"fixture": "hyperplane", "loop": "planar-circle",
                                  "loop_params": {"r1": r1, "r2": r2}}]
    for p in HOPF:
        strata[f"hopf-p{p}"] = [{"fixture": "sphere", "loop": "hopf",
                                 "loop_params": {"power": p}}]
    for i, (alpha, p, q) in enumerate(LATITUDE):
        strata[f"latitude-{i}"] = [{"fixture": "sphere", "loop": "latitude",
                                    "loop_params": {"alpha": alpha, "p": p, "q": q}}]
    return {name: [{"kind": "disc-index", "parameters": {**params, "M": 256}}
                   for params in specs]
            for name, specs in strata.items()}


def _fixture(name: str, g) -> tuple[str, dict]:
    """Fixture name and seeded parameters for a pointwise fixture stratum."""
    def axes(n):
        return [round(float(a), 4) for a in g.uniform(0.7, 1.5, size=n)]

    if name.startswith("ellipsoid-n"):
        return "ellipsoid", {"semi_axes": axes(int(name[-1]))}
    if name == "polynomial":
        a = axes(2)
        # |z_1|^2/a_1^2 + |z_2|^2/a_2^2 + c x_1^4, in coordinates (x1, x2, y1, y2)
        terms = [{"exponents": e, "coeff": round(1 / a[j] ** 2, 6)}
                 for j, e in ((0, [2, 0, 0, 0]), (1, [0, 2, 0, 0]),
                              (0, [0, 0, 2, 0]), (1, [0, 0, 0, 2]))]
        terms.append({"exponents": [4, 0, 0, 0],
                      "coeff": round(float(g.uniform(0.05, 0.3)), 4)})
        return "polynomial", {"n": 2, "terms": terms}
    return name, {"r": round(float(g.uniform(0.6, 1.5)), 4)}


def pointwise_pool() -> dict:
    strata = {}
    fixtures = ["ellipsoid-n2", "ellipsoid-n3", "ellipsoid-n4", "polynomial", "cylinder", "sphere"]
    for kind, short in (("hypersurface-report", "report"), ("minimality-scan", "scan")):
        for name in fixtures:
            g = stream(f"{short}-{name}")
            specs = []
            for _ in range(VARIANTS["pointwise"]):
                fixture, params = _fixture(name, g)
                specs.append({"kind": kind, "parameters": {
                    "fixture": fixture, "fixture_params": params, "points": 8,
                    "seed": int(g.integers(0, 10 ** 6))}})
            strata[f"{short}-{name}"] = specs
    for n in (2, 3, 4, 5):
        g = stream(f"dim-n{n}")
        strata[f"dim-n{n}"] = [
            {"kind": "grassmannian-dim", "parameters": {
                "n": n, "k": int(g.integers(0, n)), "points": 2,
                "seed": int(g.integers(0, 10 ** 6))}}
            for _ in range(VARIANTS["pointwise"])]
    return strata


def pinned(spec: dict) -> dict:
    """The integers mathematics fixes for this spec, by item name."""
    kind, params = spec["kind"], spec["parameters"]
    if kind == "grassmannian-dim":
        dim = isotropic_grassmannian_dim(params["n"], params["k"])
        names = ["dimension_formula"] + [f"measured_rank[{i}]" for i in range(params["points"])]
        return dict.fromkeys(names, dim)
    if kind == "disc-index" and params["loop"] in ("hopf", "planar-circle"):
        index = -2 * params["loop_params"]["power"] if params["loop"] == "hopf" else 0
        return {"disc_index": index, "connection_index": index}
    if kind == "maslov-index" and params["family"] == "lagrangian-rotation":
        return {"classical_magnitude": params["n"] * params["family_params"]["turns"]}
    return {}


def capture(cli, spec: dict) -> dict:
    try:
        report = cli.run(spec)
        report.to_json()
    except Exception as exc:   # the outcome to reproduce, failures included
        return outcome(None, exc)
    return outcome(report)


def main() -> int:
    cli = import_cli()
    generated = {"loops": loops_pool(), "disc": disc_pool(), "pointwise": pointwise_pool()}
    pool = {"source": f"seed-captured at commit {git_commit()}, pool seed {POOL_SEED}"}
    disagreements = 0
    for workload, strata in generated.items():
        pool[workload] = {}
        for stratum, specs in strata.items():
            for i, spec in enumerate(specs):
                key = f"{stratum}-v{i}"
                got = capture(cli, spec)
                if with_phase(spec, 0.0) != spec:
                    for phase in (1.0, 4.0):
                        if capture(cli, with_phase(spec, phase)) != got:
                            raise SystemExit(f"{key}: outcome depends on the phase")
                # a pinned integer is compared where the program reports it; a
                # spec that fails keeps its failure as the expected outcome
                pins = {name: value for name, value in pinned(spec).items()
                        if name in got.get("integers", {})}
                for name, value in pins.items():
                    if got["integers"][name] != value:
                        disagreements += 1
                        print(f"{workload}/{key}: {name} is {got['integers'][name]}, "
                              f"pinned {value}")
                if pins:
                    got = {**got, "integers": {**got["integers"], **pins}, "pinned": sorted(pins)}
                pool[workload][key] = {"spec": spec, "expect": got}
                print(workload, key, got["outcome"], flush=True)
    with open(POOL_PATH, "w") as fh:
        json.dump(pool, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {POOL_PATH.name}; {disagreements} pinned values disagree with the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
