"""Finite Kripke semantics with edge deletion, for formulas and statements.

The evaluation of [] <> [!] <!> reads the current relation (r0 minus the
accumulated deleted edges); labeled modalities box^S / dia^S and their
inverses read r0 minus the edges denoted by S, ignoring deletions; A/E
quantify over all worlds under the current relation.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass, field

from .syntax import (
    And, Bot, Box, Dia, ExistsNom, ForallNom, Formula, GBox, GDia, Iff, Imp,
    InvLBox, InvLDia, LBox, LDia, Nom, Not, Or, Prop, SBox, SDia, Top,
    EMPTY_EDGES, EdgeLabelSet, nominals_of, print_edge_set, print_formula,
    props_of,
)

FRAME_CAP = 4


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class KripkeFrame:
    n: int
    r0: frozenset

    def __post_init__(self):
        if self.n < 1:
            msg = f"frame needs at least one world, got n={self.n}"
            raise ValueError(msg)
        for (a, b) in self.r0:
            if not (0 <= a < self.n and 0 <= b < self.n):
                msg = f"edge ({a},{b}) out of range for n={self.n}"
                raise ValueError(msg)

    @property
    def worlds(self):
        return range(self.n)


@dataclass(frozen=True)
class Valuation:
    props: dict = field(default_factory=dict)  # name -> bit mask of worlds
    noms: dict = field(default_factory=dict)   # name -> world

    @staticmethod
    def make(props=None, noms=None) -> "Valuation":
        """A valuation from world sets for props and worlds for noms."""
        return Valuation({k: sum(1 << w for w in set(v))
                          for k, v in (props or {}).items()}, dict(noms or {}))

    def nom(self, name: str) -> int:
        try:
            return self.noms[name]
        except KeyError:
            msg = f"uninterpreted nominal {name!r}"
            raise EvalError(msg) from None

    def with_nom(self, name: str, world: int) -> "Valuation":
        return Valuation(self.props, {**self.noms, name: world})


def edges_of(val: Valuation, s: EdgeLabelSet) -> frozenset:
    return frozenset((val.nom(a), val.nom(b)) for a, b in s)


def satisfies(frame: KripkeFrame, val: Valuation, deleted: frozenset,
              w: int, f: Formula) -> bool:
    current = frame.r0 - deleted
    if isinstance(f, Bot):
        return False
    if isinstance(f, Top):
        return True
    if isinstance(f, Prop):
        return bool(val.props.get(f.name, 0) >> w & 1)
    if isinstance(f, Nom):
        return w == val.nom(f.name)
    if isinstance(f, Not):
        return not satisfies(frame, val, deleted, w, f.child)
    if isinstance(f, And):
        return (satisfies(frame, val, deleted, w, f.left)
                and satisfies(frame, val, deleted, w, f.right))
    if isinstance(f, Or):
        return (satisfies(frame, val, deleted, w, f.left)
                or satisfies(frame, val, deleted, w, f.right))
    if isinstance(f, Imp):
        return (not satisfies(frame, val, deleted, w, f.left)
                or satisfies(frame, val, deleted, w, f.right))
    if isinstance(f, Iff):
        return (satisfies(frame, val, deleted, w, f.left)
                == satisfies(frame, val, deleted, w, f.right))
    if isinstance(f, Dia):
        return any(satisfies(frame, val, deleted, v, f.child)
                   for (u, v) in current if u == w)
    if isinstance(f, Box):
        return all(satisfies(frame, val, deleted, v, f.child)
                   for (u, v) in current if u == w)
    if isinstance(f, SDia):
        return any(satisfies(frame, val, deleted | {e}, w, f.child)
                   for e in current)
    if isinstance(f, SBox):
        return all(satisfies(frame, val, deleted | {e}, w, f.child)
                   for e in current)
    if isinstance(f, LDia):
        rel = frame.r0 - edges_of(val, f.s)
        return any(satisfies(frame, val, deleted, v, f.child)
                   for (u, v) in rel if u == w)
    if isinstance(f, LBox):
        rel = frame.r0 - edges_of(val, f.s)
        return all(satisfies(frame, val, deleted, v, f.child)
                   for (u, v) in rel if u == w)
    if isinstance(f, InvLDia):
        rel = frame.r0 - edges_of(val, f.s)
        return any(satisfies(frame, val, deleted, u, f.child)
                   for (u, v) in rel if v == w)
    if isinstance(f, InvLBox):
        rel = frame.r0 - edges_of(val, f.s)
        return all(satisfies(frame, val, deleted, u, f.child)
                   for (u, v) in rel if v == w)
    if isinstance(f, GDia):
        return any(satisfies(frame, val, deleted, v, f.child)
                   for v in frame.worlds)
    if isinstance(f, GBox):
        return all(satisfies(frame, val, deleted, v, f.child)
                   for v in frame.worlds)
    if isinstance(f, ExistsNom):
        return any(satisfies(frame, val.with_nom(f.nom, v), deleted, w, f.child)
                   for v in frame.worlds)
    if isinstance(f, ForallNom):
        return all(satisfies(frame, val.with_nom(f.nom, v), deleted, w, f.child)
                   for v in frame.worlds)
    msg = f"cannot evaluate {f!r}"
    raise EvalError(msg)


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
class MegaAnd(Statement):
    parts: tuple


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


def eval_statement(frame: KripkeFrame, val: Valuation, s: Statement) -> bool:
    if isinstance(s, Ineq):
        del_sup = edges_of(val, s.sup) & frame.r0
        del_sub = edges_of(val, s.sub) & frame.r0
        return all(satisfies(frame, val, del_sub, w, s.rhs)
                   for w in frame.worlds
                   if satisfies(frame, val, del_sup, w, s.lhs))
    if isinstance(s, MegaAnd):
        return all(eval_statement(frame, val, p) for p in s.parts)
    if isinstance(s, MegaGuard):
        rel = frame.r0 - edges_of(val, s.s)
        return all(eval_statement(frame,
                                  val.with_nom(s.m0, w).with_nom(s.m1, v),
                                  s.body)
                   for (w, v) in rel)
    if isinstance(s, UQIneq):
        for worlds in itertools.product(frame.worlds, repeat=len(s.binders)):
            v = val
            for name, w in zip(s.binders, worlds):
                v = v.with_nom(name, w)
            if not eval_statement(frame, v, s.body):
                return False
        return True
    if isinstance(s, QuasiUQ):
        if all(eval_statement(frame, val, p) for p in s.premises):
            return eval_statement(frame, val, s.conclusion)
        return True
    msg = f"cannot evaluate statement {s!r}"
    raise EvalError(msg)


# The statement table: per class, its formulas, its sub-statements, the
# nominal pairs of its edge labels, the names it binds, and how to copy a
# statement with new formulas and sub-statements.
_Row = namedtuple("_Row", "formulas parts edges binds rebuild")


def _none(s):
    return ()


STATEMENTS = {
    Ineq: _Row(lambda s: (s.lhs, s.rhs), _none, lambda s: (*s.sup, *s.sub),
               _none, lambda s, fs, ps: Ineq(*fs, s.sup, s.sub)),
    MegaAnd: _Row(_none, lambda s: s.parts, _none, _none,
                  lambda s, fs, ps: MegaAnd(ps)),
    MegaGuard: _Row(_none, lambda s: (s.body,), lambda s: s.s,
                    lambda s: (s.m0, s.m1),
                    lambda s, fs, ps: MegaGuard(s.m0, s.m1, s.s, *ps)),
    UQIneq: _Row(_none, lambda s: (s.body,), _none, lambda s: s.binders,
                 lambda s, fs, ps: UQIneq(s.binders, *ps)),
    QuasiUQ: _Row(_none, lambda s: (*s.premises, s.conclusion), _none, _none,
                  lambda s, fs, ps: QuasiUQ(ps[:-1], ps[-1])),
}


def statement_props(s: Statement) -> frozenset:
    row = STATEMENTS[type(s)]
    return frozenset().union(*map(props_of, row.formulas(s)),
                             *map(statement_props, row.parts(s)))


def statement_nominals(s: Statement) -> frozenset:
    """Free nominal names of a statement."""
    row = STATEMENTS[type(s)]
    names = frozenset(n for pair in row.edges(s) for n in pair)
    names = names.union(*map(nominals_of, row.formulas(s)),
                        *map(statement_nominals, row.parts(s)))
    return names - set(row.binds(s))


def map_formulas(s: Statement, fn) -> Statement:
    """s with fn applied to every formula in it, at any depth."""
    row = STATEMENTS[type(s)]
    return row.rebuild(s, tuple(map(fn, row.formulas(s))),
                       tuple(map_formulas(p, fn) for p in row.parts(s)))


def valuations(frame: KripkeFrame, props):
    """Every valuation of `props` on the frame, with no nominals.  Each name
    maps to a bit mask of worlds, ascending; the first name varies slowest."""
    for masks in itertools.product(range(1 << frame.n), repeat=len(props)):
        yield Valuation(dict(zip(props, masks)))


def frame_valid(frame: KripkeFrame, s, vars=None) -> bool:
    """True iff s holds under every valuation of vars and every assignment
    of worlds to the free nominals of s, which are closed by a UQIneq.

    A bare formula phi is checked as top <= phi.
    """
    if isinstance(s, Formula):
        s = Ineq(Top(), s)
    free_noms = tuple(sorted(statement_nominals(s)))
    if free_noms:
        s = UQIneq(free_noms, s)
    vars = sorted(statement_props(s) if vars is None else vars)
    return all(eval_statement(frame, val, s)
               for val in valuations(frame, vars))


def enumerate_frames(n: int):
    """All 2^(n*n) frames on {0..n-1}, edge set read as an ascending
    n*n-bit integer."""
    if not 1 <= n <= FRAME_CAP:
        msg = f"world count {n} outside 1..{FRAME_CAP}"
        raise ValueError(msg)
    cells = [(i, j) for i in range(n) for j in range(n)]
    for mask in range(1 << (n * n)):
        edges = frozenset(cells[k] for k in range(n * n) if mask >> k & 1)
        yield KripkeFrame(n, edges)


# ---------------------------------------------------------------------------
# printing

def print_statement(s: Statement) -> str:
    if isinstance(s, Ineq):
        sup = print_edge_set(s.sup)
        sub = print_edge_set(s.sub)
        return (f"{print_formula(s.lhs)} <=^{sup}_{sub} "
                f"{print_formula(s.rhs)}")
    if isinstance(s, MegaAnd):
        return " AND ".join(f"({print_statement(p)})" for p in s.parts)
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
