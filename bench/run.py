"""Benchmark for sabcorr, run from the repository root:

    python3 bench/run.py --workload corpus-n3 --seed 1 --seconds 30 --trace 0

Workloads (see NOTES.md for why each exists and for baseline numbers):

  corpus-n3       one `sabcorr corpus --file corpus/sahlqvist.txt
                  --max-worlds 3` per pass: 13 entries x 530 frames.
  verify-n4       one `sabcorr verify --formula "[]p -> p" --max-worlds 4`
                  per pass: 66066 frames.
  correspond-gen  GEN_INPUTS seeded inputs per pass, rotating through
                  `correspond` in text, json and tptp, and `classify`.

All three are closed loops with one caller that waits for each verdict,
in one process and one thread, driving `sabcorr.cli` in-process.  A run
repeats whole passes for about --seconds and reports medians over passes.

With --trace 0 it prints the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and prints the per-layer metrics,
and writes the spans of the last traced pass to .bench_out/.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
The program is imported from ./src, never from an installed copy, and
the run fails without a result when ./src/sabcorr is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import re
import resource
import statistics
import sys
import time
from collections import Counter

import gen
import golden
import oracle
import spans

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
CORPUS = os.path.join(ROOT, "corpus", "sahlqvist.txt")
OUT_DIR = os.path.join(ROOT, ".bench_out")

GEN_INPUTS = 5000
# Inputs per family given the independent output check after each run.
CHECK_SAMPLE = {"a": 16, "b": 12, "c": 4}
# The semantic part of that check enumerates every valuation, 4^vars on a
# two-world frame, so it skips inputs with more variables (family (c)).
CHECK_MAX_VARS = 3
CORPUS_ARGV = ["corpus", "--file", CORPUS, "--max-worlds", "3"]
VERIFY_FORMULA = "[]p -> p"
VERIFY_ARGV = ["verify", "--formula", VERIFY_FORMULA, "--max-worlds", "4"]
VERIFY_EXPECTED = "PASS over 66066 frames (n <= 4)\n"
MODULES = ("syntax", "semantics", "sahlqvist", "alba", "fol", "cli")

ALBA_STAGES = ("preprocess", "first_approximation", "reduce_outer",
               "reduce_inner", "pack", "ackermann")
TRACE_STAGES = ("preprocess", "first-approximation", "substage-1",
                "substage-2", "substage-3", "substage-4")
FAILURE_STAGES = ("classify", "stage-1", "substage-1", "substage-2",
                  "substage-3", "substage-4", "output")
_NOMINAL = re.compile(r"\bi[0-9]+\b")


def import_sabcorr() -> dict:
    """Import (or import again) every sabcorr module from ./src."""
    if not os.path.isfile(os.path.join(SRC, "sabcorr", "cli.py")):
        raise SystemExit(f"bench: no sabcorr sources under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m.split(".")[0] == "sabcorr"]:
        del sys.modules[name]
    import importlib
    mods = {m: importlib.import_module(f"sabcorr.{m}") for m in MODULES}
    if not mods["cli"].__file__.startswith(SRC + os.sep):
        raise SystemExit(f"bench: sabcorr imported from {mods['cli'].__file__}")
    return mods


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class LineClock(io.StringIO):
    """Captured stdout that notes the time each line is finished."""

    def __init__(self):
        super().__init__()
        self.stamps = []

    def write(self, s):
        n = super().write(s)
        if "\n" in s:
            self.stamps.append(time.perf_counter())
        return n


class Pass:
    def __init__(self, seconds, times, outputs):
        self.seconds = seconds     # wall time of the pass
        self.times = times         # seconds from each input to its verdict
        self.outputs = outputs     # (exit code or error text, stdout) per request


# ---------------------------------------------------------------------------
# workloads

class SingleCommand:
    """One in-process `sabcorr` command per pass."""

    setup_reps = 25  # set-up is an import of ~60 ms; the median needs many

    def __init__(self, seed):
        self.seed = seed  # the inputs are fixed files; the seed changes nothing

    def setup(self):
        self.mods = import_sabcorr()

    def run_pass(self, tracer=None):
        cli = self.mods["cli"]
        out = LineClock()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            try:
                if tracer is None:
                    code = cli.main(self.argv)
                else:
                    code = tracer.span("cli.main", cli.main, self.argv)
            except Exception as exc:  # a failed input, not a benchmark error
                code = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        return Pass(end - start, self.input_times(start, out.stamps, end),
                    [(code, out.getvalue())])

    def sample_failures(self, first):
        return 0, 0  # every output was checked against its known answer

    def correspondents(self, first):
        """Correspondents the workload checks, for fo_nodes_total."""
        cli = self.mods["cli"]
        for formula in self.formulas():
            code, out = golden.run_cli(cli, ["correspond", "--formula", formula,
                                             "--format", "json"])
            if code == 0:
                yield json.loads(out)["fo"]


class CorpusN3(SingleCommand):
    argv = CORPUS_ARGV

    def setup(self):
        super().setup()
        self.entries = golden.read_corpus(CORPUS)

    @property
    def inputs_per_pass(self):
        return len(self.entries)

    def input_times(self, start, stamps, end):
        marks = [start, *stamps]
        return [b - a for a, b in zip(marks, marks[1:])] or [end - start]

    def failures(self, p, first=None):
        code, out = p.outputs[0]
        lines = out.splitlines()
        if code != 0 or len(lines) != len(self.entries):
            return len(self.entries)
        return sum(not (line.split()[:2] == [label, "verified"])
                   for (label, _), line in zip(self.entries, lines))

    def formulas(self):
        return [formula for _, formula in self.entries]


class VerifyN4(SingleCommand):
    argv = VERIFY_ARGV
    inputs_per_pass = 1

    def input_times(self, start, stamps, end):
        return [end - start]

    def failures(self, p, first=None):
        return int(p.outputs[0] != (0, VERIFY_EXPECTED))

    def formulas(self):
        return [VERIFY_FORMULA]


class CorrespondGen:
    """GEN_INPUTS generated inputs; argv is parsed at set-up and the
    command body `args.func(args)` is timed per input."""

    inputs_per_pass = GEN_INPUTS
    setup_reps = 7

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        self.mods = import_sabcorr()
        self.inputs = gen.make_inputs(self.seed, GEN_INPUTS)
        parser = self.mods["cli"].build_parser()
        self.args = [parser.parse_args([command, "--formula", text]
                                       + (["--format", fmt] if fmt else []))
                     for _, _, text, command, fmt in self.inputs]

    def run_pass(self, tracer=None):
        parse_error = self.mods["syntax"].ParseError
        outputs = []
        times = []
        stdout = sys.stdout
        start = time.perf_counter()
        try:
            for i, args in enumerate(self.args):
                # One small buffer per input: a single buffer for the pass
                # and its copies would dominate the process's peak memory.
                sys.stdout = out = io.StringIO()
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        code = args.func(args)
                    else:
                        tracer.input_id = i
                        code = tracer.span(f"cli.{args.func.__name__}",
                                           args.func, args)
                except (parse_error, OSError):
                    code = 2  # what cli.main turns these into
                except Exception as exc:  # a failed input, not a benchmark error
                    code = f"{type(exc).__name__}: {exc}"
                times.append(time.perf_counter() - t0)
                outputs.append((code, out.getvalue()))
        finally:
            sys.stdout = stdout
        return Pass(time.perf_counter() - start, times, outputs)

    def output_error(self, i, code, out):
        """Why output i is wrong, or None."""
        family, _, _, command, fmt = self.inputs[i]
        if code not in (0, 1):
            return f"exit {code}"
        if code == 1 and family in ("a", "c"):
            return "honest negative on a Sahlqvist input"
        if command == "classify":
            first = out.split("\n", 1)[0]
            return None if first == ("sahlqvist" if code == 0 else "not sahlqvist") \
                else f"classify printed {first!r}"
        if code == 1:
            return None if out.startswith("failure (") else "bad failure line"
        try:
            oracle.parse_correspond(out, fmt)
        except ValueError as exc:
            return str(exc)
        return None

    def failures(self, p, first=None):
        if first is not None:
            return sum(a != b for a, b in zip(p.outputs, first.outputs))
        return sum(self.output_error(i, code, out) is not None
                   for i, (code, out) in enumerate(p.outputs))

    def correspondents(self, first):
        for (_, _, _, command, fmt), (code, out) in zip(self.inputs,
                                                        first.outputs):
            if command == "correspond" and code == 0:
                try:
                    yield oracle.parse_correspond(out, fmt)
                except ValueError:
                    continue  # already counted by failures()

    def sample_failures(self, first):
        """Independent check of a seeded sample of successful inputs: all
        three formats agree and, for inputs with at most CHECK_MAX_VARS
        variables, the correspondent agrees with the input on every frame
        with at most two worlds."""
        rng = random.Random(self.seed)
        ok = {fam: [] for fam in CHECK_SAMPLE}
        for i, ((family, _, _, command, _), (code, _)) in enumerate(
                zip(self.inputs, first.outputs)):
            if command == "correspond" and code == 0:
                ok[family].append(i)
        picked = [i for fam, size in CHECK_SAMPLE.items()
                  for i in rng.sample(ok[fam], min(size, len(ok[fam])))]
        cli = self.mods["cli"]
        failed = 0
        for i in picked:
            _, formula, text, _, _ = self.inputs[i]
            outs = {fmt: golden.run_cli(cli, ["correspond", "--formula", text,
                                              "--format", fmt])
                    for fmt in ("text", "json", "tptp")}
            if any(code != 0 for code, _ in outs.values()):
                failed += 1
                continue
            parsed = json.loads(outs["json"][1])
            if (oracle.render_correspond(parsed, oracle.TEXT) != outs["text"][1]
                    or oracle.render_correspond(parsed, oracle.TPTP) != outs["tptp"][1]):
                failed += 1
            elif (len(oracle.modal_props(formula)) <= CHECK_MAX_VARS
                  and oracle.disagreement(formula, parsed["fo"]) is not None):
                failed += 1
        return len(picked), failed


WORKLOADS = {"corpus-n3": CorpusN3, "verify-n4": VerifyN4,
             "correspond-gen": CorrespondGen}


# ---------------------------------------------------------------------------
# measuring

def timed_setup(workload):
    """Set the workload up `setup_reps` times; median seconds."""
    times = []
    for _ in range(workload.setup_reps):
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def repeat(seconds, one_round):
    """Run one_round() at least once and again while another round of the
    mean length still fits in `seconds`."""
    rounds = []
    start = time.perf_counter()
    while True:
        gc.collect()
        rounds.append(one_round())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > seconds:
            return rounds


class Checker:
    """Checks each pass as it ends.  Later passes must repeat the first
    pass's outputs exactly; only the first pass's outputs are kept, so
    memory does not grow with the number of passes."""

    def __init__(self, workload):
        self.workload = workload
        self.first = None
        self.attempted = 0
        self.failed = 0

    def add(self, p):
        self.attempted += self.workload.inputs_per_pass
        self.failed += self.workload.failures(p, self.first)
        if self.first is None:
            self.first = p
        else:
            p.outputs = None
        return p

    def finish(self):
        sampled, failed = self.workload.sample_failures(self.first)
        self.attempted += sampled
        self.failed += failed


def end_to_end(workload, seconds):
    setup_s = timed_setup(workload)
    checker = Checker(workload)
    passes = repeat(seconds, lambda: checker.add(workload.run_pass()))
    checker.finish()
    fo_nodes = sum(map(oracle.fo_nodes, workload.correspondents(checker.first)))
    metrics = {
        "setup_s": (setup_s, "s"),
        "verdict_s": (statistics.median(p.seconds for p in passes), "s"),
        "input_p50_ms": (statistics.median(
            statistics.median(p.times) * 1e3 for p in passes), "ms"),
        "input_p99_ms": (statistics.median(
            percentile(p.times, 99) * 1e3 for p in passes), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "fo_nodes_total": (fo_nodes, "count"),
    }
    notes = {"passes": len(passes),
             "inputs_per_pass": workload.inputs_per_pass,
             "input_samples": sum(len(p.times) for p in passes),
             "failed_ratio": checker.failed / checker.attempted}
    return checker, metrics, notes


def order_types_tried(props_of, ineq, eps):
    """Order types `find_order_type` tried before returning eps: it walks
    the variables' values in lexicographic order, '1' before 'd'."""
    names = sorted(props_of(ineq.lhs) | props_of(ineq.rhs))
    if eps is None:
        return 2 ** len(names)
    return int("".join("0" if eps[n] == "1" else "1" for n in names) or "0", 2) + 1


def layer_metrics(workload, tracer):
    """Per-layer metrics of one traced pass.  Times come from spans; the
    counters come from returned values, outside every timed region."""
    mods = workload.mods
    self_s = tracer.self_times()
    calls = tracer.calls()
    fos = [json.loads(mods["fol"].emit_fo(f, "json"))
           for f in tracer.returns["fol.translate"]]
    results = tracer.returns["alba.run"]
    failure = mods["alba"].AlbaFailure
    steps = Counter(s.stage for r in results for s in r.trace)
    failures = Counter(r.stage.replace(" ", "-") for r in results
                       if isinstance(r, failure))
    checks = tracer.returns["semantics.check"]
    searches = tracer.returns["sahlqvist.order_type"]
    m = {
        "fol.check_s": (self_s["fol.check"], "s"),
        "fol.check_calls": (calls["fol.check"], "count"),
        "fol.assignments": (tracer.counts["fol.assignments"], "count"),
        "fol.translate_s": (self_s["fol.translate"], "s"),
        "fol.emit_s": (self_s["fol.emit"], "s"),
        "fol.nodes": (sum(oracle.fo_nodes(f) for f in fos), "count"),
        "fol.free_names_total": (sum(len(oracle.fo_free(f)) for f in fos), "count"),
        "fol.quantifier_depth_max": (max(map(oracle.fo_quantifier_depth, fos),
                                         default=0), "count"),
        "semantics.check_s": (self_s["semantics.check"], "s"),
        "semantics.valuations": (tracer.counts["semantics.valuations"], "count"),
        "semantics.enumerate_s": (self_s["semantics.enumerate"], "s"),
        "semantics.frames": (tracer.counts["semantics.frames"], "count"),
        "semantics.valid_ratio": (sum(checks) / len(checks) if checks else 0.0,
                                  "share"),
    }
    for stage in ALBA_STAGES:
        m[f"alba.{stage}_s"] = (self_s[f"alba.{stage}"], "s")
    m["alba.run_self_s"] = (self_s["alba.run"], "s")
    m["alba.subproblems"] = (sum(len(r.preprocessed) for r in results
                                 if not isinstance(r, failure)), "count")
    m["alba.nominals_issued"] = (sum(
        len({n for s in r.trace for text in (*s.consumed, *s.produced)
             for n in _NOMINAL.findall(text)}) for r in results), "count")
    for stage in TRACE_STAGES:
        m[f"alba.trace_steps.{stage}"] = (steps[stage], "count")
    for stage in FAILURE_STAGES:
        m[f"alba.failures.{stage}"] = (failures[stage], "count")
    props_of = mods["syntax"].props_of
    m["sahlqvist.order_type_s"] = (self_s["sahlqvist.order_type"], "s")
    m["sahlqvist.order_types_tried"] = (sum(
        order_types_tried(props_of, args[0], eps) for args, eps in searches), "count")
    m["sahlqvist.order_type_calls_per_input"] = (
        calls["sahlqvist.order_type"] / workload.inputs_per_pass, "1/input")
    m["syntax.parse_s"] = (self_s["syntax.parse"], "s")
    m["syntax.parse_calls"] = (calls["syntax.parse"], "count")
    m["cli.self_s"] = (sum(v for k, v in self_s.items() if k.startswith("cli.")), "s")
    return m


def per_layer(workload, seconds, name, seed):
    """Alternate untraced and traced passes; per-layer metrics of the
    traced ones (medians of times, counts of the last pass)."""
    workload.setup()
    checker = Checker(workload)
    rounds = []

    def one_round():
        plain = checker.add(workload.run_pass())
        tracer = spans.Tracer()
        restore = tracer.install(workload.mods)
        try:
            traced = workload.run_pass(tracer)
        finally:
            restore()
        checker.add(traced)
        rounds.append((plain, traced, tracer))

    repeat(seconds, one_round)
    checker.finish()
    per_round = [layer_metrics(workload, tracer) for _, _, tracer in rounds]
    metrics = {}
    for key, (value, unit) in per_round[-1].items():
        if unit == "s":
            value = statistics.median(r[key][0] for r in per_round)
        metrics[key] = (value, unit)
    traced_s = statistics.median(t.seconds for _, t, _ in rounds)
    plain_s = statistics.median(p.seconds for p, _, _ in rounds)
    layer_s = statistics.median(
        sum(tr.self_times().values()) / t.seconds for _, t, tr in rounds)
    metrics["cli.golden_diffs"] = (
        golden.diffs(workload.mods["cli"], golden.read_corpus(CORPUS)), "count")
    metrics["trace.verdict_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["trace.accounted_share"] = (layer_s, "share")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl")
    rounds[-1][2].write(path)
    notes = {"traced_passes": len(rounds), "spans_per_pass": len(rounds[-1][2].spans),
             "spans_file": os.path.relpath(path, ROOT),
             "failed_ratio": checker.failed / checker.attempted}
    return checker, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        checker, metrics, notes = per_layer(workload, args.seconds,
                                            args.workload, args.seed)
    else:
        checker, metrics, notes = end_to_end(workload, args.seconds)
    for key, value in notes.items():
        print(f"# {key}: {value}")
    for key, (value, unit) in metrics.items():
        print(f"{key:40} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": checker.failed == 0, "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
