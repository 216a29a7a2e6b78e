"""The loops of the benchmark's ``loops`` workload take no classification.

Every named loop family hands over the splitting read off its unitaries,
and ``pushforward`` hands over the image's, read off A . K; both are
certified, never classified.  This test makes every binding of
``symplin.classify_coisotropic`` in a ``coiso`` module namespace raise and
runs every ``loops`` spec of ``bench/pool.json`` through ``coiso.cli.run``:
each must still give the outcome committed there, compared as the
benchmark compares it (``bench/workloads.py``).
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import coiso.cli
from coiso import symplin

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_loops_specs_keep_their_outcomes_without_classification(monkeypatch):
    workloads = _workloads()
    entries = workloads.load_pool()["loops"]
    assert entries

    def refuse(c, tol=None):
        raise AssertionError("a loop classified its samples")

    classify = symplin.classify_coisotropic
    bindings = [module for name, module in list(sys.modules.items())
                if (name == "coiso" or name.startswith("coiso."))
                and vars(module).get("classify_coisotropic") is classify]
    assert {module.__name__ for module in bindings} >= {"coiso", "coiso.symplin"}
    for module in bindings:
        monkeypatch.setattr(module, "classify_coisotropic", refuse)
    with pytest.raises(AssertionError, match="classified"):
        coiso.classify_coisotropic(symplin.standard_model(1, 0).space)
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
