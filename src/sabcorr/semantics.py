"""Finite Kripke semantics with edge deletion, and ALBA's statements.

`extension` evaluates a formula of the base language, the one the parser
accepts, to the bit mask of the worlds where it holds, in one walk that
reads each node by its class.  [] <> [!] <!> read the current relation (r0
minus the accumulated deleted edges).  ALBA's expanded language and its
statements other than an unlabelled Ineq get their meaning from the
standard translation, `fol.st_statement`; here they raise EvalError.

A mask holds one block of `frame.width` bits per world, world w's at bit
w*width, and bit v of a block reads valuation v; width 1 is the plain mask,
world w at bit w.  A valuation maps each proposition to its mask (read by
`value_of`; an unbound name raises EvalError).  `valuation_blocks` lays out
every valuation of some names once per world count, for `frame_valid`.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass, field

from .syntax import (
    And, Bot, Formula, Iff, Imp, Not, Or, Prop, Top,
    CONNECTIVES, EMPTY_EDGES, EdgeLabelSet, print_edge_set, print_formula,
    props_of,
)

FRAME_CAP = 4
# One block of a mask reads at most 2^BLOCK_BITS valuations.
BLOCK_BITS = 16


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class KripkeFrame:
    n: int
    r0: frozenset
    width: int = 1  # bits per world: one per valuation read at once
    full: int = field(init=False, repr=False, compare=False)  # every world

    def __post_init__(self):
        if self.n < 1:
            msg = f"frame needs at least one world, got n={self.n}"
            raise ValueError(msg)
        for (a, b) in self.r0:
            if not (0 <= a < self.n and 0 <= b < self.n):
                msg = f"edge ({a},{b}) out of range for n={self.n}"
                raise ValueError(msg)
        object.__setattr__(self, "full", (1 << self.n * self.width) - 1)


def value_of(val: dict, name: str) -> int:
    """A name's value in a valuation: a proposition's mask of worlds, or,
    for `fol.eval_fo`, a nominal's world."""
    try:
        return val[name]
    except KeyError:
        msg = f"no value for {name!r} in the valuation"
        raise EvalError(msg) from None


def _pre(frame, pairs, mask: int) -> int:
    """The worlds u with an arrow (u, v) in pairs to some v in mask: world
    v's block of mask moved to world u's, per valuation."""
    width = frame.width
    block = (1 << width) - 1
    out = 0
    for u, v in pairs:
        out |= (mask >> v * width & block) << u * width
    return out


# The boolean connectives: a node's mask from its two children's.
_BOOLEAN = {
    And: lambda a, b, full: a & b,
    Or: lambda a, b, full: a | b,
    Imp: lambda a, b, full: a ^ full | b,
    Iff: lambda a, b, full: a ^ b ^ full,
}


def extension(frame: KripkeFrame, val: dict, deleted: frozenset,
              f: Formula) -> int:
    """The bit mask of the worlds where f holds, the edges in deleted taken
    out of the current relation; f is in the base language."""
    t = type(f)
    if t is Prop:
        return value_of(val, f.name)
    if t is Not:
        return extension(frame, val, deleted, f.child) ^ frame.full
    if t is Top:
        return frame.full
    if t is Bot:
        return 0
    op = _BOOLEAN.get(t)
    if op:
        return op(extension(frame, val, deleted, f.left),
                  extension(frame, val, deleted, f.right), frame.full)
    # a modality: the union of the child's masks over its range; if it is
    # universal, each mask and the union are complemented (not exists not)
    row = CONNECTIVES[t]
    flip = 0 if row.quantifier == "exists" else frame.full
    if row.range == "succ":
        out = _pre(frame, frame.r0 - deleted if deleted else frame.r0,
                   extension(frame, val, deleted, f.child) ^ flip)
    elif row.range == "edge":
        out = 0
        for e in frame.r0 - deleted:
            out |= extension(frame, val, deleted | {e}, f.child) ^ flip
    else:
        msg = f"the modal check has no rule for {print_formula(f)}"
        raise EvalError(msg)
    return out ^ flip


# ---------------------------------------------------------------------------
# statements

class Statement:
    __slots__ = ()


@dataclass(frozen=True)
class Ineq(Statement):
    lhs: Formula
    rhs: Formula
    sup: EdgeLabelSet = EMPTY_EDGES
    sub: EdgeLabelSet = EMPTY_EDGES


@dataclass(frozen=True)
class MegaGuard(Statement):
    """forall i0 forall i1 (i0 <=^S_S dia^S i1 => body)."""

    m0: str
    m1: str
    s: EdgeLabelSet
    body: Statement


@dataclass(frozen=True)
class UQIneq(Statement):
    binders: tuple
    body: Statement


@dataclass(frozen=True)
class QuasiUQ(Statement):
    premises: tuple
    conclusion: Statement


def eval_statement(frame: KripkeFrame, val: dict, s: Statement) -> bool:
    """Whether the unlabelled inequality s holds under val.  Any other
    statement raises EvalError: its meaning is `fol.st_statement`'s."""
    if type(s) is not Ineq or s.sup or s.sub:
        msg = ("the modal check reads unlabelled inequalities only, not "
               f"{print_statement(s)}")
        raise EvalError(msg)
    return not (extension(frame, val, EMPTY_EDGES, s.lhs)
                & ~extension(frame, val, EMPTY_EDGES, s.rhs))


# The statement table: per class, its formulas, its sub-statements, and how
# to copy a statement with new formulas and sub-statements.
_Row = namedtuple("_Row", "formulas parts rebuild")


def _none(s):
    return ()


STATEMENTS = {
    Ineq: _Row(lambda s: (s.lhs, s.rhs), _none,
               lambda s, fs, ps: Ineq(*fs, s.sup, s.sub)),
    MegaGuard: _Row(_none, lambda s: (s.body,),
                    lambda s, fs, ps: MegaGuard(s.m0, s.m1, s.s, *ps)),
    UQIneq: _Row(_none, lambda s: (s.body,),
                 lambda s, fs, ps: UQIneq(s.binders, *ps)),
    QuasiUQ: _Row(_none, lambda s: (*s.premises, s.conclusion),
                  lambda s, fs, ps: QuasiUQ(ps[:-1], ps[-1])),
}


def statement_props(s: Statement) -> frozenset:
    row = STATEMENTS[type(s)]
    return frozenset().union(*map(props_of, row.formulas(s)),
                             *map(statement_props, row.parts(s)))


def map_formulas(s: Statement, fn) -> Statement:
    """s with fn applied to every formula in it, at any depth."""
    row = STATEMENTS[type(s)]
    return row.rebuild(s, tuple(map(fn, row.formulas(s))),
                       tuple(map_formulas(p, fn) for p in row.parts(s)))


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


def frame_valid(frame: KripkeFrame, s: Statement, layout=None) -> bool:
    """True iff the unlabelled inequality s holds under every valuation of
    a `valuation_blocks` layout for frame.n, by default of its propositions.
    Each `eval_statement` call reads one chunk c of them at once: low, with
    the all-ones block of high[i] ORed in for each set bit i of c."""
    width, low, high = layout or valuation_blocks(
        frame.n, sorted(statement_props(s)))
    wide = KripkeFrame(frame.n, frame.r0, width)
    ones = (1 << width) - 1
    for chunk in range(1 << len(high)):
        val = dict(low) if chunk else low  # the layout is shared: no writes
        for c, (name, w) in enumerate(high):
            if chunk >> c & 1:
                val[name] |= ones << w * width
        if not eval_statement(wide, val, s):
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
    """One frame per isomorphism class on {0..n-1}, as (frame, orbit).

    An edge set is read as an n*n-bit mask, cell (i,j) at bit i*n+j.  The
    frame is the class member with the least mask, classes come in
    ascending mask order, and orbit is the number of labelled frames in the
    class, so the orbits sum to 2^(n*n).
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
        yield (KripkeFrame(n, frozenset(edges_low[lo] + edges_high[hi])),
               len(orbit))
        mask = seen.find(0, mask + 1)


# ---------------------------------------------------------------------------
# printing

def print_statement(s: Statement) -> str:
    if isinstance(s, Ineq):
        sup = print_edge_set(s.sup)
        sub = print_edge_set(s.sub)
        return (f"{print_formula(s.lhs)} <=^{sup}_{sub} "
                f"{print_formula(s.rhs)}")
    if isinstance(s, MegaGuard):
        es = print_edge_set(s.s)
        guard = f"{s.m0} <=^{es}_{es} dia^{es} {s.m1}"
        return (f"forall {s.m0} forall {s.m1} ({guard} => "
                f"{print_statement(s.body)})")
    if isinstance(s, UQIneq):
        binders = " ".join(f"forall {b}" for b in s.binders)
        return f"{binders} ({print_statement(s.body)})"
    if isinstance(s, QuasiUQ):
        prems = " & ".join(f"[{print_statement(p)}]" for p in s.premises)
        if not prems:
            prems = "[]"
        return f"{prems} => [{print_statement(s.conclusion)}]"
    msg = f"cannot print statement {s!r}"
    raise EvalError(msg)
