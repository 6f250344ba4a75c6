"""Golden `correspond` outputs for the entries of corpus/sahlqvist.txt.

`golden/<format>.txt` holds, for each entry, its exit code and stdout under
a `### <label> exit <code>` header.  The benchmark counts the outputs that
differ as `cli.golden_diffs`; an intended output change is explained in the
change that makes it, and the files are rewritten by running

    python3 bench/golden.py

from the repository root.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import sys

FORMATS = ("text", "json", "tptp")
_HEADER = re.compile(r"^### (.*) exit (-?[0-9]+)\n", re.M)
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def read_corpus(path):
    """(label, formula text) per entry, in file order.  A line is
    `name: <label> <formula>` or a bare formula, labelled by itself."""
    entries = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("name:"):
                label, line = line[len("name:"):].split(None, 1)
            else:
                label = line
            entries.append((label, line))
    return entries


def run_cli(cli, argv):
    """(exit code, stdout) of one in-process `sabcorr` command."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def capture(cli, entries) -> dict:
    return {(label, fmt): run_cli(cli, ["correspond", "--formula", formula,
                                        "--format", fmt])
            for label, formula in entries for fmt in FORMATS}


def _path(fmt):
    return os.path.join(GOLDEN_DIR, f"{fmt}.txt")


def write(outputs):
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for fmt in FORMATS:
        with open(_path(fmt), "w", encoding="utf-8") as fh:
            for (label, f), (code, out) in outputs.items():
                if f == fmt:
                    fh.write(f"### {label} exit {code}\n{out}")


def load() -> dict:
    outputs = {}
    for fmt in FORMATS:
        with open(_path(fmt), encoding="utf-8") as fh:
            parts = _HEADER.split(fh.read())[1:]
        for label, code, out in zip(parts[::3], parts[1::3], parts[2::3]):
            outputs[(label, fmt)] = (int(code), out)
    return outputs


def diffs(cli, entries) -> int:
    """Number of (entry, format) outputs that differ from the golden ones."""
    expected = load()
    got = capture(cli, entries)
    return sum(expected.get(key) != value for key, value in got.items())


if __name__ == "__main__":
    sys.path.insert(0, "src")
    from sabcorr import cli as _cli
    write(capture(_cli, read_corpus(os.path.join("corpus", "sahlqvist.txt"))))
