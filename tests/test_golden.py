"""`correspond` on every shipped corpus entry, in text, JSON and TPTP,
against the golden outputs kept with the benchmark in bench/golden/."""

import importlib.util
from pathlib import Path

from sabcorr import cli

ROOT = Path(__file__).resolve().parent.parent


def _golden_module():
    spec = importlib.util.spec_from_file_location(
        "bench_golden", ROOT / "bench" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_correspond_matches_golden_outputs():
    golden = _golden_module()
    entries = golden.read_corpus(ROOT / "corpus" / "sahlqvist.txt")
    got = golden.capture(cli, entries)
    assert len(got) == 3 * len(entries)
    assert got == golden.load()
