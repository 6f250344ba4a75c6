"""The benchmark's own modules under bench/ against the program: `correspond`
on every shipped corpus entry, in text, JSON and TPTP, against the golden
outputs in bench/golden/, the tracer's view of the check layer and of
the ALBA stages, and a traced benchmark run of the workloads that check
frames."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from sabcorr import alba, cli, fol, semantics

ROOT = Path(__file__).resolve().parent.parent


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_correspond_matches_golden_outputs():
    golden = _bench_module("golden")
    entries = golden.read_corpus(ROOT / "corpus" / "sahlqvist.txt")
    got = golden.capture(cli, entries)
    assert len(got) == 3 * len(entries)
    assert got == golden.load()


def test_tracer_sees_the_check_layer(capsys):
    # the tracer wraps the check where cli looks it up; a check that moved
    # out of cli's namespace would leave these spans and counts at zero
    tracer = _bench_module("spans").Tracer()
    restore = tracer.install({"cli": cli, "alba": alba, "fol": fol,
                              "semantics": semantics})
    try:
        argv = ["verify", "--formula", "[]p -> p", "--max-worlds", "2"]
        assert cli.main(argv) == 0
    finally:
        restore()
    # 18 labelled frames fall into 2 + 10 isomorphism classes; the modal
    # check runs once per class, the FO check once per world count
    assert "PASS over 18 frames" in capsys.readouterr().out
    assert cli.holds_on_frame is fol.holds_on_frame
    assert fol.eval_fo.__module__ == "sabcorr.fol"
    calls = tracer.calls()
    assert calls["fol.check"] == 2
    assert calls["semantics.check"] == 12
    # bench/run.py averages these returns as the valid share; a mask of
    # thousands of classes in place of a bool overflows that float
    assert all(type(out) is bool
               for out in tracer.returns["semantics.check"])
    assert tracer.counts["semantics.frames"] == 12
    # the correspondent has no predicate: one eval_fo per world count
    assert tracer.counts["fol.assignments"] == 2


def test_tracer_sees_every_alba_stage(capsys):
    # run_alba reaches each stage through alba's globals, where the tracer
    # wraps it; a stage called some other way would read zero in its metrics
    tracer = _bench_module("spans").Tracer()
    restore = tracer.install({"cli": cli, "alba": alba, "fol": fol,
                              "semantics": semantics})
    try:
        assert cli.main(["correspond", "--formula", "[]p -> p"]) == 0
        assert cli.main(["correspond", "--formula",
                         "[](p -> q) -> ([]p -> []q)"]) == 0
    finally:
        restore()
    assert "order type: p=1" in capsys.readouterr().out
    calls = tracer.calls()
    for stage in ("preprocess", "first_approximation", "reduce_outer",
                  "reduce_inner", "pack"):
        assert calls[f"alba.{stage}"] == 2, stage
    # one Ackermann pass per sub-problem, however many variables it has
    subproblems = sum(len(run.preprocessed)
                      for run in tracer.returns["alba.run"])
    assert subproblems == 2
    assert calls["alba.ackermann"] == subproblems


@pytest.mark.parametrize("workload", ["verify-n4", "corpus-n3"])
def test_traced_benchmark_runs(workload):
    # the traced run looks up the check and each ALBA stage by name and
    # reads their results; a renamed stage or a changed return type ends
    # it with a traceback.  A subprocess, since the benchmark re-imports
    # sabcorr.  correspond-gen takes about 16 s traced: run it by hand.
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["semantics.valuations"]["value"] > 0
    if workload == "verify-n4":
        # one modal evaluation per frame reads every valuation at once
        assert (metrics["semantics.valuations"]["value"]
                == metrics["semantics.frames"]["value"])
    assert metrics["fol.check_calls"]["value"] > 0
