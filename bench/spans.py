"""Tracing from outside the program: spans around the public functions of
each `sabcorr` module, and plain counters on the hot inner calls.

Each function is wrapped in the namespace where its caller looks it up:
`cli` binds its names with `from .x import y`, and `run_alba` reaches its
stages and `find_order_type` through `alba`'s globals.  `install` swaps the
wrappers in and returns a function that puts the originals back, so an
untraced pass in the same process runs the unwrapped program.
"""

from __future__ import annotations

import json
import time
from collections import Counter

# (module, name looked up there, span name)
SPANS = (
    ("cli", "parse_inequality", "syntax.parse"),
    ("cli", "find_order_type", "sahlqvist.order_type"),
    ("cli", "run_alba", "alba.run"),
    ("cli", "correspondent", "fol.translate"),
    ("cli", "emit_fo", "fol.emit"),
    ("cli", "holds_on_frame", "fol.check"),
    ("cli", "frame_valid", "semantics.check"),
    ("alba", "find_order_type", "sahlqvist.order_type"),
    ("alba", "preprocess", "alba.preprocess"),
    ("alba", "first_approximation", "alba.first_approximation"),
    ("alba", "reduce_outer", "alba.reduce_outer"),
    ("alba", "reduce_inner", "alba.reduce_inner"),
    ("alba", "pack", "alba.pack"),
    ("alba", "ackermann_eliminate", "alba.ackermann"),
)
# Generators: one span per item drawn, so consumer work stays outside, and
# a count of the items yielded.
GENERATOR_SPANS = (
    ("cli", "enumerate_frames", "semantics.enumerate", "semantics.frames"),
)
# Hot inner calls, counted without spans.  eval_statement recurses through
# its module's globals, so only calls from outside it are counted.
COUNTS = (
    ("fol", "eval_fo", "fol.assignments", False),
    ("semantics", "eval_statement", "semantics.valuations", True),
)
# Return values kept for the output-derived counters; True keeps the
# arguments as well.
KEEP = {"fol.translate": False, "alba.run": False,
        "sahlqvist.order_type": True, "semantics.check": False}


class Tracer:
    def __init__(self):
        self.spans = []      # (name, start, end, parent index, input id)
        self.counts = Counter()
        self.returns = {name: [] for name in KEEP}
        self.input_id = None
        self._stack = []

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named `name`."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.input_id)
        if name in KEEP:
            self.returns[name].append((args, out) if KEEP[name] else out)
        return out

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def _wrap_generator(self, name, count, fn):
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = self.span(name, next, it)
                except StopIteration:
                    return
                self.counts[count] += 1
                yield item
        return wrapper

    def _wrap_count(self, name, fn, outermost):
        counts = self.counts
        depth = 0

        def wrapper(*args, **kwargs):
            nonlocal depth
            if not (outermost and depth):
                counts[name] += 1
            depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth -= 1
        return wrapper

    def install(self, modules):
        """Swap wrappers into `modules` (a dict of sabcorr module objects
        keyed by short name); returns the function that restores them."""
        saved = []

        def put(mod, attr, wrapper):
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrapper)

        for mod, attr, name in SPANS:
            put(modules[mod], attr, self._wrap(name, getattr(modules[mod], attr)))
        for mod, attr, name, count in GENERATOR_SPANS:
            put(modules[mod], attr,
                self._wrap_generator(name, count, getattr(modules[mod], attr)))
        for mod, attr, name, outermost in COUNTS:
            put(modules[mod], attr,
                self._wrap_count(name, getattr(modules[mod], attr), outermost))

        def restore():
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)
        return restore

    def self_times(self) -> Counter:
        """Seconds of self time per span name: each span's duration minus
        the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return out

    def calls(self) -> Counter:
        return Counter(s[0] for s in self.spans)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, input_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "input": input_id}))
                fh.write("\n")
