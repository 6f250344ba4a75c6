"""Seeded input generator for the `correspond-gen` workload.

Formulas are built as small tuples, ("p", name), ("top",), ("bot",),
("not", a), ("and", a, b), ("or", a, b), ("imp", a, b), ("box", a),
("dia", a), ("sbox", a), ("sdia", a), and rendered to the CLI's input
syntax.  The program under test receives only that text; the tuples stay
with the benchmark, whose own evaluator (`oracle.py`) reads them.

Families and why each exists:

(a) the Sahlqvist grammar of acceptance criterion 6 (outer part of
    <>, <!>, &, | over an inner part of [], [!], & over variables, against
    a positive right-hand side), depth <= 3, 1-3 variables.  Known answer:
    exit 0 for both `correspond` and `classify`.  This is the input class
    the paper's success theorem covers.
(b) arbitrary formulas over ~ & | -> [] <> [!] <!>.  Exit 0 or 1; the
    honest negatives run the whole order-type search before giving up.
(c) a conjunction of k = 3..6 disjunctions on the left.  Preprocessing
    distributes it into 2^k = 8..64 sub-problems, so these 1.8% of the
    inputs are the latency tail (p99) of the workload.  Known answer:
    exit 0.
"""

from __future__ import annotations

import random

VARS = ("p", "q", "r")
COMMANDS = (("correspond", "text"), ("correspond", "json"),
            ("correspond", "tptp"), ("classify", None))
# Family (c) exists for the preprocessing fan-out, which classify never
# reaches, so it rotates through the correspond formats only.
C_COMMANDS = COMMANDS[:3]
# One block of family (c) by k.  Measured on a 2-core x86 VM, correspond
# takes about 6, 16, 43 and 105 ms at k = 3, 4, 5, 6.  With 8 blocks in
# 5000 inputs the 99th percentile (the ~50th slowest input) falls in the
# middle of the k = 4 group, not on the edge between two groups or two
# families, where it would jump from seed to seed.
FAMILY_C_K = (6, 5, 5, 4, 4, 4, 4, 4, 4, 3, 3)
FAMILY_C_SHARE = 0.0176
FAMILY_B_SHARE = 0.35


def _inner(rng, depth, vars):
    if depth == 0 or rng.random() < 0.4:
        return ("p", rng.choice(vars))
    op = rng.choice(("box", "sbox", "and"))
    if op == "and":
        return ("and", _inner(rng, depth - 1, vars), _inner(rng, depth - 1, vars))
    return (op, _inner(rng, depth - 1, vars))


def _outer(rng, depth, vars):
    if depth == 0:
        return _inner(rng, rng.randint(0, 2), vars)
    op = rng.choice(("dia", "sdia", "and", "or", "stop"))
    if op == "stop":
        return _inner(rng, rng.randint(0, 2), vars)
    if op in ("and", "or"):
        return (op, _outer(rng, depth - 1, vars), _outer(rng, depth - 1, vars))
    return (op, _outer(rng, depth - 1, vars))


def _positive(rng, depth, vars):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([("p", v) for v in vars] + [("top",), ("bot",)])
    op = rng.choice(("and", "or", "box", "dia", "sbox", "sdia"))
    if op in ("and", "or"):
        return (op, _positive(rng, depth - 1, vars), _positive(rng, depth - 1, vars))
    return (op, _positive(rng, depth - 1, vars))


def _arbitrary(rng, depth, vars):
    if depth == 0 or rng.random() < 0.15:
        return rng.choice([("p", v) for v in vars] + [("top",), ("bot",)])
    op = rng.choice(("not", "and", "or", "imp", "box", "dia", "sbox", "sdia"))
    if op in ("and", "or", "imp"):
        return (op, _arbitrary(rng, depth - 1, vars), _arbitrary(rng, depth - 1, vars))
    return (op, _arbitrary(rng, depth - 1, vars))


def family_a(rng, i):
    vars = VARS[:1 + i % 3]
    return ("imp", _outer(rng, i // 3 % 4, vars), _positive(rng, i // 12 % 4, vars))


def family_b(rng, i):
    vars = VARS[:1 + i % 3]
    return ("imp", _arbitrary(rng, 2 + i // 3 % 2, vars),
            _arbitrary(rng, 1 + i // 6 % 3, vars))


def family_c(rng, k):
    """k disjunctions over 2k distinct variables, so preprocessing always
    yields exactly 2^k sub-problems and the cost depends on k alone."""
    vars = [f"v{j}" for j in range(2 * k)]

    def atom(v):
        return rng.choice((("p", v), ("box", ("p", v)), ("sbox", ("p", v))))

    lhs = None
    for j in range(k):
        part = ("or", atom(vars[2 * j]), atom(vars[2 * j + 1]))
        lhs = part if lhs is None else ("and", lhs, part)
    return ("imp", lhs, _positive(rng, 1, vars[:2]))


_UNARY = {"not": "~", "box": "[]", "dia": "<>", "sbox": "[!]", "sdia": "<!>"}
_BINARY = {"and": "&", "or": "|", "imp": "->"}


def render(f) -> str:
    """The formula in the CLI's input syntax, every binary connective
    parenthesised; a top-level implication is left bare, so the CLI reads
    it as an inequality lhs <= rhs."""
    if f[0] == "imp":
        return f"{_render(f[1])} -> {_render(f[2])}"
    return _render(f)


def _render(f) -> str:
    tag = f[0]
    if tag == "p":
        return f[1]
    if tag in ("top", "bot"):
        return tag
    if tag in _UNARY:
        return _UNARY[tag] + _render(f[1])
    return f"({_render(f[1])} {_BINARY[tag]} {_render(f[2])})"


def make_inputs(seed: int, count: int):
    """`count` inputs as (family, formula tuple, text, command, format),
    in a seeded order; classify takes no format.

    Family sizes, the k values of (c), and within (a) and (b) the variable
    counts and depths cycle instead of being drawn, and each family
    rotates through its commands on its own, so every seed has the same mix
    and the seed changes only the shapes drawn inside it."""
    rng = random.Random(seed)
    blocks = max(1, round(count * FAMILY_C_SHARE / len(FAMILY_C_K)))
    n_c = blocks * len(FAMILY_C_K)
    n_b = round(count * FAMILY_B_SHARE)
    made = [("c", family_c(rng, k), C_COMMANDS[i % len(C_COMMANDS)])
            for i in range(blocks) for k in FAMILY_C_K]
    made += [("b", family_b(rng, i), COMMANDS[i % len(COMMANDS)])
             for i in range(n_b)]
    made += [("a", family_a(rng, i), COMMANDS[i % len(COMMANDS)])
             for i in range(count - n_c - n_b)]
    rng.shuffle(made)
    return [(fam, f, render(f), *command) for fam, f, command in made]
