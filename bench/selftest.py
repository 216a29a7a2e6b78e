"""Self-test of the benchmark harness.

    python3 bench/selftest.py

For every workload, one untraced and one traced pass over the seed-0 batch:

* the traced reports must be byte-identical to the untraced ones;
* the self times of all spans plus the time outside every span (the
  untraced remainder, found by sweeping span boundaries) must add up to the
  traced pass's wall time.

It also checks that every traced function is called by some workload, that
the untraced pass reproduces the committed outcomes, and that
``BENCHMARK.json`` declares exactly the metrics ``run.py`` reports.  Exits
with status 1 when a check fails.
"""

from __future__ import annotations

import json
import sys

from run import END_TO_END, PER_LAYER, ROOT, check, import_cli, run_pass, traced_pass, warm_up
from tracing import LABELS
from workloads import WORKLOADS, draw, load_pool


def main() -> int:
    cli = import_cli()
    pool = load_pool()
    warm_up(cli)
    failed = []
    called = set()
    for workload in WORKLOADS:
        batch = draw(workload, 0, pool)
        expected = {key: entry["expect"] for key, entry in pool[workload].items()}
        plain = run_pass(cli, batch, expected)
        traced, tracer = traced_pass(cli, batch, expected)
        summary = tracer.summary()
        gap = tracer.uncovered(traced["begin"], traced["end"])
        identical = plain["digests"] == traced["digests"]
        adds_up = gap is not None and abs(summary["self_total"] + gap - traced["wall"]) < 1e-6
        mismatch = check([plain])["mismatch_count"]
        print(f"{workload}: byte-identical {identical}; self {summary['self_total']:.6f} s "
              f"+ remainder {gap or 0.0:.6f} s vs wall {traced['wall']:.6f} s: {adds_up}; "
              f"mismatches {mismatch}")
        failed += [f"{workload}: {name}" for name, ok in
                   (("traced reports differ", identical), ("self times do not add up", adds_up),
                    ("outcomes differ from pool.json", mismatch == 0)) if not ok]
        called |= {label for label, calls in summary["calls"].items() if calls}
    failed += [f"never called: {label}" for label in LABELS if label not in called]

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for section, reported in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if {m["name"]: m["unit"] for m in declared[section]} != reported:
            failed.append(f"BENCHMARK.json {section} differs from run.py")
    if tuple(w["name"] for w in declared["workloads"]) != WORKLOADS:
        failed.append("BENCHMARK.json workloads differ from workloads.py")

    for line in failed:
        print("FAIL", line)
    print("selftest", "failed" if failed else "passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
