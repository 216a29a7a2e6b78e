"""Benchmark of coiso experiment runs, end to end and layer by layer.

    python3 bench/run.py --workload {loops,disc,pointwise} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from
``src/``, and the benchmark exits with status 1 when that is missing.  The
seed orders the workload's experiment specs from ``bench/pool.json`` and
draws their outcome-neutral phases (see ``workloads.py``); each spec goes
through ``coiso.cli.run`` and ``Report.to_json`` as ``coiso run`` does,
one at a time (a closed loop with one client).  The batch is repeated while
another pass fits in ``--seconds``.

``--trace 0`` reports the end-to-end metrics.  One unit of the reference
task in ``reference.py`` runs before every spec, and each pass's spec times
are scaled by the median unit time of that pass, so that they read as
seconds at a fixed machine speed: the host's speed drifts over minutes by
more than any bound, and the scaling takes that drift out.  A spec's time is
the median of its scaled runs over the passes.  ``wall_s`` is the time to
run the whole batch, the sum of those spec times (the specs run back to
back; the raw pass walls and unscaled sums are printed too).
``spec_p50_s`` and ``spec_tail_s`` are the (lower) median spec time and the
highest percentile with at least 10 specs beyond it.  ``peak_rss_mb`` is the
process's peak resident memory, and ``setup_s`` the median time for a fresh
interpreter to import ``coiso.cli``, each import scaled by the reference
units timed around it.  ``--trace 1`` alternates untraced and
traced passes and reports per-function calls and self time, errors per
module, loop refinement ratios, CPU per wall time and the tracing overhead.

Every run checks its outputs against the outcomes committed in the pool,
and every pass against the first.  Failed specs (report not passed, error
set, or an exception out of ``run``) are counted, not retried.  The last
line of standard output is one JSON object: correct, attempted, failed and
the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import reference
from tracing import LABELS, TARGETS, Tracer, instrument
from workloads import WARMUP, WORKLOADS, draw, load_pool, mismatches, outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
GAUGE_UNITS = 50   # reference units timed before and after each setup import
TAIL_BEYOND = 10

END_TO_END = {
    "wall_s": "s",
    "spec_p50_s": "s",
    "spec_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    **{f"{label}.{kind}": unit for label in LABELS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **{f"{module}.errors": "count" for module in TARGETS},
    "grassmann.refined_share": "ratio",
    "grassmann.samples_built": "count",
    "grassmann.classify_per_sample": "calls/sample",
    "process.cpu_per_wall": "s/s",
    "trace.overhead_s": "s",
    "check.failed_share": "ratio",
    "check.mismatch_count": "count",
}


def import_cli():
    """``coiso.cli`` from this checkout's ``src/``, never an installed copy."""
    if not (SRC / "coiso" / "cli.py").is_file():
        raise SystemExit(f"bench: no coiso sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import coiso.cli as cli
    if Path(cli.__file__).resolve().parent != (SRC / "coiso").resolve():
        raise SystemExit(f"bench: imported coiso from {cli.__file__}, not {SRC}")
    return cli


def setup_times(repeats: int = SETUP_REPEATS) -> list[tuple[float, float]]:
    """Wall times of fresh interpreters importing ``coiso.cli``, after one
    untimed import that warms the file cache, each with the median time of
    the reference units run just before and just after it."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    cmd = [sys.executable, "-c", "import coiso.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    times = []
    for _ in range(repeats):
        before = reference.units(GAUGE_UNITS)
        started = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        took = time.perf_counter() - started
        times.append((took, statistics.median(before + reference.units(GAUGE_UNITS))))
    return times


def run_pass(cli, batch, expected: dict, gauge: bool = False) -> dict:
    """One closed-loop pass over the batch: per-spec times, report digests,
    failures by outcome, and mismatches against the committed outcomes.
    With ``gauge``, one reference unit runs before each spec and its time is
    kept.  Nothing per report is kept beyond its digest, so memory does not
    grow with the number of passes."""
    times, units, digests, failures, mismatched = [], [], [], Counter(), {}
    cpu0, begin = time.process_time(), time.perf_counter()
    for key, spec in batch:
        if gauge:
            units.append(reference.unit())
        started = time.perf_counter()
        report = error = None
        try:
            report = cli.run(spec)
            text = report.to_json()
        except Exception as exc:   # a spec failure is a result to count
            error = exc
        times.append(time.perf_counter() - started)
        got = outcome(report, error)
        if got["outcome"] != "passed":
            failures[got["outcome"]] += 1
        if count := mismatches(expected[key], got):
            mismatched[key] = count
        digests.append(hashlib.sha256(
            (text if error is None else got["outcome"]).encode()).hexdigest())
    end = time.perf_counter()
    return {"begin": begin, "end": end, "wall": end - begin,
            "cpu": time.process_time() - cpu0, "times": times, "units": units,
            "digests": digests,
            "failures": failures, "mismatched": mismatched}


def traced_pass(cli, batch, expected: dict) -> tuple[dict, Tracer]:
    tracer = Tracer()
    restore = instrument(tracer)
    try:
        return run_pass(cli, batch, expected), tracer
    finally:
        restore()


def repeat(seconds: float, step) -> list:
    """Call ``step`` at least once, and again while another call is expected
    to end within ``seconds`` of the start."""
    results = []
    started = time.perf_counter()
    while True:
        results.append(step())
        elapsed = time.perf_counter() - started
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def check(passes: list) -> dict:
    """Mismatches of the first pass against the pool, runs whose report
    differs from the first pass, and failures over all passes."""
    first = passes[0]
    failures = sum((p["failures"] for p in passes), Counter())
    return {
        "mismatch_count": sum(first["mismatched"].values()),
        "mismatched": sorted(first["mismatched"]),
        "unrepeated": sum(a != b for p in passes[1:]
                          for a, b in zip(first["digests"], p["digests"])),
        "attempted": sum(len(p["times"]) for p in passes),
        "failed": sum(failures.values()),
        "failures": dict(failures),
    }


def tail(values: list[float]) -> tuple[float, int]:
    """Highest order statistic with TAIL_BEYOND values above it, and its rank."""
    ordered = sorted(values)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], rank


def end_to_end(cli, expected, batch, seconds) -> tuple[dict, dict, list[str]]:
    setup = setup_times()
    warm_up(cli)
    passes = repeat(seconds, lambda: run_pass(cli, batch, expected, gauge=True))
    result = check(passes)
    scales = [reference.NOMINAL_S / statistics.median(p["units"]) for p in passes]
    per_spec = [statistics.median(p["times"][i] * scale for p, scale in zip(passes, scales))
                for i in range(len(batch))]
    tail_s, rank = tail(per_spec)
    metrics = {
        "wall_s": sum(per_spec),
        "spec_p50_s": statistics.median_low(per_spec),
        "spec_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(t * reference.NOMINAL_S / u for t, u in setup),
    }
    notes = [
        f"passes {len(passes)}; pass walls " + " ".join(f"{p['wall']:.3f}" for p in passes)
        + "; unscaled spec sums " + " ".join(f"{sum(p['times']):.3f}" for p in passes)
        + "; scales " + " ".join(f"{scale:.3f}" for scale in scales),
        f"spec_tail_s is rank {rank} of {len(batch)} per-spec times "
        f"(p{100 * rank / len(batch):.1f}, {len(batch) - rank} beyond)",
        "setup_s runs (unscaled) " + " ".join(f"{t:.4f}" for t, _ in setup)
        + "; scales " + " ".join(f"{reference.NOMINAL_S / u:.3f}" for _, u in setup),
        *failure_notes(result),
        f"process.cpu_per_wall {cpu_per_wall(passes):.3f}",
    ]
    return metrics, result, notes


def per_layer(cli, expected, batch, seconds) -> tuple[dict, dict, list[str]]:
    warm_up(cli)
    pairs = repeat(seconds, lambda: (run_pass(cli, batch, expected),
                                     traced_pass(cli, batch, expected)))
    plain = [p for p, _ in pairs]
    traced = [t for _, (t, _) in pairs]
    tracers = [tr for _, (_, tr) in pairs]
    summaries = [tr.summary() for tr in tracers]
    result = check(plain + traced)
    # the self-test: tracing changes no report byte, and the self times plus
    # the time outside every span add up to the traced pass's wall time
    byte_identical = all(p["digests"] == t["digests"] for p, t in zip(plain, traced))
    calls_repeat = all(s["calls"] == summaries[0]["calls"] for s in summaries)
    gaps = [tr.uncovered(t["begin"], t["end"]) for tr, t in zip(tracers, traced)]
    accounted = all(gap is not None and abs(s["self_total"] + gap - t["wall"]) < 1e-6
                    for s, gap, t in zip(summaries, gaps, traced))
    result["trace_ok"] = byte_identical and calls_repeat and accounted

    first, tracer = summaries[0], tracers[0]
    metrics = {}
    for label in LABELS:
        metrics[f"{label}.calls"] = first["calls"].get(label, 0)
        metrics[f"{label}.self_s"] = statistics.median(s["self_s"].get(label, 0.0)
                                                       for s in summaries)
    for module in TARGETS:
        metrics[f"{module}.errors"] = sum(tracer.errors[module].values())
    built = sum(final for _, final in tracer.loops)
    metrics["grassmann.refined_share"] = (
        sum(final > asked for asked, final in tracer.loops) / len(tracer.loops)
        if tracer.loops else 0.0)
    metrics["grassmann.samples_built"] = built
    metrics["grassmann.classify_per_sample"] = (
        first["calls"].get("symplin.classify_coisotropic", 0) / built if built else 0.0)
    metrics["process.cpu_per_wall"] = cpu_per_wall(plain)
    metrics["trace.overhead_s"] = (statistics.median(t["wall"] for t in traced)
                                   - statistics.median(p["wall"] for p in plain))
    metrics["check.failed_share"] = result["failed"] / result["attempted"]
    metrics["check.mismatch_count"] = result["mismatch_count"]

    notes = [
        f"pairs {len(pairs)}; untraced walls " + " ".join(f"{p['wall']:.3f}" for p in plain)
        + "; traced walls " + " ".join(f"{t['wall']:.3f}" for t in traced),
        "errors by class " + json.dumps({m: dict(tracer.errors[m]) for m in TARGETS},
                                        sort_keys=True),
        f"loops built {len(tracer.loops)}; spans {first['spans']}",
        f"self-test: traced reports byte-identical to untraced: {byte_identical}; "
        f"calls repeat: {calls_repeat}; self {first['self_total']:.6f} s + untraced "
        f"remainder {gaps[0] or 0.0:.6f} s = traced wall {traced[0]['wall']:.6f} s: {accounted}",
        *failure_notes(result),
    ]
    return metrics, result, notes


def failure_notes(result: dict) -> list[str]:
    return [
        f"failed_share {result['failed'] / result['attempted']:.4f} ratio "
        f"({result['failed']} of {result['attempted']}: "
        f"{json.dumps(result['failures'], sort_keys=True)})",
        f"mismatch_count {result['mismatch_count']} count {result['mismatched']}; "
        f"runs that differ from the first pass: {result['unrepeated']}",
    ]


def cpu_per_wall(passes: list) -> float:
    return sum(p["cpu"] for p in passes) / sum(p["wall"] for p in passes)


def warm_up(cli) -> None:
    for spec in WARMUP:
        cli.run(spec).to_json()


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "coiso").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("openblas configuration", blas.get("name")),
        **{var: os.environ.get(var) for var in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "COISO_THREADS")},
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving the root."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    pool = load_pool()
    batch = draw(args.workload, args.seed, pool)
    expected = {key: entry["expect"] for key, entry in pool[args.workload].items()}
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(batch)} specs, "
          f"closed loop with 1 client, trace {args.trace}")
    measure, units = (per_layer, PER_LAYER) if args.trace else (end_to_end, END_TO_END)
    metrics, result, notes = measure(cli, expected, batch, args.seconds)
    for note in notes:
        print(note)
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]} {unit}")
    correct = (result["mismatch_count"] == 0 and result["unrepeated"] == 0
               and result.get("trace_ok", True))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
