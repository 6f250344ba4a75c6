"""The benchmark's own modules under bench/ against the program: `correspond`
on every shipped corpus entry, in text, JSON and TPTP, against the golden
outputs in bench/golden/, and the tracer's view of the check layer and of
the ALBA stages."""

import importlib.util
from pathlib import Path

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
    # 18 labelled frames fall into 2 + 10 isomorphism classes, and the
    # check runs once per class
    assert "PASS over 18 frames" in capsys.readouterr().out
    assert cli.holds_on_frame is fol.holds_on_frame
    assert fol.eval_fo.__module__ == "sabcorr.fol"
    calls = tracer.calls()
    assert calls["fol.check"] == 12
    assert calls["semantics.check"] == 12
    assert tracer.counts["semantics.frames"] == 12
    # the correspondent has no predicate: one eval_fo per frame
    assert tracer.counts["fol.assignments"] == 12


def test_tracer_sees_every_alba_stage(capsys):
    # run_alba reaches each stage through alba's globals, where the tracer
    # wraps it; a stage called some other way would read zero in its metrics
    tracer = _bench_module("spans").Tracer()
    restore = tracer.install({"cli": cli, "alba": alba, "fol": fol,
                              "semantics": semantics})
    try:
        assert cli.main(["correspond", "--formula", "[]p -> p"]) == 0
    finally:
        restore()
    assert "order type: p=1" in capsys.readouterr().out
    calls = tracer.calls()
    for stage in ("preprocess", "first_approximation", "reduce_outer",
                  "reduce_inner", "pack", "ackermann"):
        assert calls[f"alba.{stage}"] == 1, stage
