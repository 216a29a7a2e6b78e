"""The loops of the benchmark's ``loops`` workload take no classification.

Every named loop family hands over the splitting read off its unitaries,
and ``pushforward`` hands over the image's, read off A . K; both are
certified, not classified.  This test makes ``grassmann``'s
``classify_coisotropic`` raise and runs every ``maslov-index`` and
``invariance-suite`` spec of ``bench/pool.json`` through ``coiso.cli.run``:
each must still give the outcome committed there, compared as the
benchmark compares it (``bench/workloads.py``).
"""

import importlib.util
from pathlib import Path

import pytest

import coiso.cli
from coiso import grassmann

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
KINDS = ("maslov-index", "invariance-suite")


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_loops_specs_keep_their_outcomes_without_classification(monkeypatch):
    workloads = _workloads()
    entries = {key: entry for key, entry in workloads.load_pool()["loops"].items()
               if entry["spec"]["kind"] in KINDS}
    assert {entry["spec"]["kind"] for entry in entries.values()} == set(KINDS)

    def refuse(c, tol=None):
        raise AssertionError("a loop classified its samples")

    monkeypatch.setattr(grassmann, "classify_coisotropic", refuse)
    with pytest.raises(AssertionError, match="classified"):
        grassmann._certified(grassmann.standard_model(1, 0).space, None)
    mismatched = {}
    for key, entry in sorted(entries.items()):
        report = error = None
        try:
            report = coiso.cli.run(entry["spec"])
        except Exception as exc:   # a pinned outcome may be an exception
            error = exc
        if count := workloads.mismatches(entry["expect"], workloads.outcome(report, error)):
            mismatched[key] = count
    assert not mismatched
