"""Finite Kripke semantics with edge deletion, on a frame read as its
world count n and the tuple of its arrows, as `enumerate_frames` yields
it: the base-language evaluator, valuation layouts and frame enumeration.

`extension` evaluates a formula of the base language, the one the parser
accepts, to the bit mask of the worlds where it holds, in one walk that
reads each node by its class.  Its state is the tuple of live arrows: []
<> read them, and [!] <!> read their child once per live arrow, with that
arrow taken out.  ALBA's expanded language gets its meaning from the
standard translation, `fol.st_statement`; here it raises EvalError.

A mask holds one block of `width` bits per world, world w's at bit w*width,
and bit v of a block reads valuation v; width 1 is the plain mask.  As in
`fol`, masks are unbounded (every world is -1, negation is ~), and
`eval_statement` alone cuts one to the frame's n*width bits.  A valuation
maps each proposition to its mask (read by `value_of`).  `frame_valid`
takes an inequality as its two sides, so none of ALBA's statements (in
`syntax`) reaches the check, and reads every valuation of a
`valuation_blocks` layout, built once per world count.
"""

from __future__ import annotations

import itertools

from .syntax import (
    And, Bot, Formula, Iff, Imp, Not, Or, Prop, Top, CONNECTIVES,
    print_formula,
)

FRAME_CAP = 4
# One block of a mask reads at most 2^BLOCK_BITS valuations.
BLOCK_BITS = 16


class EvalError(ValueError):
    pass


def value_of(val: dict, name: str) -> int:
    """A name's value in a valuation: a proposition's mask of worlds, or,
    for `fol.eval_fo`, a nominal's world."""
    try:
        return val[name]
    except KeyError:
        msg = f"no value for {name!r} in the valuation"
        raise EvalError(msg) from None


def _pre(width: int, edges, mask: int) -> int:
    """The worlds u with an arrow (u, v) in edges to some v in mask: world
    v's block of mask moved to world u's, per valuation."""
    block = (1 << width) - 1
    out = 0
    for u, v in edges:
        out |= (mask >> v * width & block) << u * width
    return out


# The boolean connectives: a node's mask from its two children's.
_BOOLEAN = {
    And: lambda a, b: a & b,
    Or: lambda a, b: a | b,
    Imp: lambda a, b: ~a | b,
    Iff: lambda a, b: ~(a ^ b),
}


def extension(edges: tuple, width: int, val: dict, f: Formula) -> int:
    """The unbounded mask of the worlds where f, in the base language,
    holds on the live arrows edges, with width bits per world."""
    t = type(f)
    if t is Prop:
        return value_of(val, f.name)
    if t is Not:
        return ~extension(edges, width, val, f.child)
    if t is Top:
        return -1
    if t is Bot:
        return 0
    op = _BOOLEAN.get(t)
    if op:
        return op(extension(edges, width, val, f.left),
                  extension(edges, width, val, f.right))
    # a modality: the union of the child's masks over its range; if it is
    # universal, each mask and the union are complemented (not exists not)
    row = CONNECTIVES[t]
    flip = 0 if row.quantifier == "exists" else -1
    if row.range == "succ":
        out = _pre(width, edges, extension(edges, width, val, f.child) ^ flip)
    elif row.range == "edge":
        out = 0
        for k in range(len(edges)):
            out |= extension(edges[:k] + edges[k + 1:], width, val,
                             f.child) ^ flip
    else:
        msg = f"the modal check has no rule for {print_formula(f)}"
        raise EvalError(msg)
    return out ^ flip


def eval_statement(n: int, edges: tuple, width: int, val: dict,
                   lhs: Formula, rhs: Formula) -> bool:
    """Whether no world of lhs lies outside rhs under val on the frame
    (n, edges): one chunk of `frame_valid`, where masks are cut to the
    frame.  It keeps its old name because `bench/spans.py` counts it."""
    return not (extension(edges, width, val, lhs)
                & ~extension(edges, width, val, rhs)
                & (1 << n * width) - 1)


def valuation_blocks(n: int, vars) -> tuple:
    """The valuations of names vars on n worlds as (width, low, high).  The
    j-th of k names holds at the worlds in bits n*(k-1-j) .. of valuation v,
    so the first name varies slowest.  A width-bit block reads the
    valuations that share the bits of v past the first BLOCK_BITS: bit b of
    v has runs of 2^b ones every 2^(b+1) bits.  low maps each name to its
    mask from those bits; high lists per later bit its (name, world)."""
    k = len(vars)
    runs, width = [], 1  # each block doubled, and one more bit
    for _ in range(min(n * k, BLOCK_BITS)):
        runs = [r | r << width for r in runs] + [(1 << width) - 1 << width]
        width *= 2
    low = dict.fromkeys(vars, 0)
    for i, run in enumerate(runs):
        low[vars[k - 1 - i // n]] |= run << i % n * width
    high = [(vars[k - 1 - i // n], i % n) for i in range(len(runs), n * k)]
    return width, low, high


def frame_valid(n: int, edges: tuple, lhs: Formula, rhs: Formula,
                layout: tuple) -> bool:
    """True iff lhs <= rhs holds on the frame (n, edges) under every
    valuation of layout, the `valuation_blocks` of n and the propositions
    of both sides.  Each `eval_statement` call reads one chunk c of them at
    once: low, with the all-ones block of high[i] ORed in for each set bit
    i of c."""
    width, low, high = layout
    ones = (1 << width) - 1
    for chunk in range(1 << len(high)):
        val = dict(low) if chunk else low  # the layout is shared: no writes
        for c, (name, w) in enumerate(high):
            if chunk >> c & 1:
                val[name] |= ones << w * width
        if not eval_statement(n, edges, width, val, lhs, rhs):
            return False
    return True


def _subset_sums(units, zero):
    """Per mask m of len(units) bits, the sum of units[k] over the set bits
    k of m, each entry filled from the one without its lowest set bit.  The
    units are tuples to concatenate or ints with no bit in common."""
    out = [zero] * (1 << len(units))
    for m in range(1, len(out)):
        low = m & -m
        out[m] = out[m ^ low] + units[low.bit_length() - 1]
    return out


def _relabellings(n: int, h: int):
    """Per permutation pi of the worlds, two tables that map the low h bits
    and the remaining high bits of an edge mask to their images under pi,
    which sends cell (i,j) to (pi(i),pi(j)); a mask's image is the union of
    its halves' images."""
    out = []
    for pi in itertools.permutations(range(n)):
        image = [1 << (pi[k // n] * n + pi[k % n]) for k in range(n * n)]
        out.append((_subset_sums(image[:h], 0), _subset_sums(image[h:], 0)))
    return out


def enumerate_frames(n: int):
    """One frame per isomorphism class on {0..n-1}, as (edges, orbit).

    An edge set is read as an n*n-bit mask, cell (i,j) at bit i*n+j.  edges
    holds the arrows of the class member with the least mask, each once and
    unsorted; classes come in ascending mask order, and orbit is the number
    of labelled frames in the class, so the orbits sum to 2^(n*n).
    """
    if not 1 <= n <= FRAME_CAP:
        msg = f"world count {n} outside 1..{FRAME_CAP}"
        raise ValueError(msg)
    # the tables are indexed by the low h bits of a mask or by the rest;
    # they are built per call, since a kept table would outlive the command
    h = (n * n + 1) // 2
    low_half = (1 << h) - 1
    cells = [((i, j),) for i in range(n) for j in range(n)]
    edges_low, edges_high = (_subset_sums(cells[:h], ()),
                             _subset_sums(cells[h:], ()))
    relabellings = _relabellings(n, h)
    # a class is marked seen when its first member is met, and masks are
    # met in ascending order, so that first member is its least
    seen = bytearray(1 << (n * n))
    mask = 0
    while mask >= 0:
        lo, hi = mask & low_half, mask >> h
        orbit = {table_lo[lo] | table_hi[hi]
                 for table_lo, table_hi in relabellings}
        for image in orbit:
            seen[image] = 1
        yield edges_low[lo] + edges_high[hi], len(orbit)
        mask = seen.find(0, mask + 1)
