"""Variable-elimination rewrite engine for sabotage modal inequalities.

Pipeline: order-type search -> preprocessing (distribution, splitting,
monotone variable elimination) -> first approximation -> outer decomposition
-> inner decomposition -> packing -> Ackermann elimination -> assembly of
pure quasi-inequalities.  Every rewrite is recorded as a DerivationStep,
which keeps the statements themselves and prints them only when read.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import reduce
from operator import attrgetter

from .syntax import (
    And, Bot, Box, Dia, ExistsNom, ForallNom, Formula, GBox, Imp, Ineq,
    InvLBox, InvLDia, LBox, LDia, MegaGuard, Nom, Not, Or, Prop, QuasiUQ,
    SBox, SDia, Statement, Top, UQIneq, CONNECTIVES, EMPTY_EDGES, _rebuild,
    children, eliminate_iff, is_fixed, occurrence_signs, print_statement,
    props_of, substitute_prop,
)
from .sahlqvist import (
    JOIN, find_order_type, has_critical_occurrence, is_definite,
    is_inner_sahlqvist, not_excellent,
)


class StageError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


@dataclass(frozen=True)
class DerivationStep:
    """One rewrite.  It holds the immutable items it consumed and produced
    (statements and work items); `consumed` and `produced` print them
    on each read."""

    stage: str
    rule: str
    consumed_items: tuple
    produced_items: tuple

    @property
    def consumed(self) -> tuple:
        return tuple(map(_show, self.consumed_items))

    @property
    def produced(self) -> tuple:
        return tuple(map(_show, self.produced_items))

    def as_dict(self) -> dict:
        return {"stage": self.stage, "rule": self.rule,
                "consumed": list(self.consumed),
                "produced": list(self.produced)}


@dataclass(frozen=True)
class Guard:
    m0: str
    m1: str
    s: frozenset


@dataclass(frozen=True)
class WorkItem:
    guards: tuple
    ineq: Ineq
    active: str  # 'lhs', 'rhs' or 'none' (parked)

    def statement(self) -> Statement:
        body: Statement = self.ineq
        for g in reversed(self.guards):
            body = MegaGuard(g.m0, g.m1, g.s, body)
        return body


def _mk(guards: tuple, ineq: Ineq, active: str) -> WorkItem:
    if not guards and is_fixed(ineq.lhs) and is_fixed(ineq.rhs):
        active = "none"
    return WorkItem(guards, ineq, active)


def _show(item) -> str:
    if isinstance(item, WorkItem):
        return print_statement(item.statement())
    return print_statement(item)


@dataclass
class System:
    items: list
    goal: Ineq
    gen: Iterator  # fresh nominals i0, i1, ... in order
    eps: dict
    trace: list


def record(trace, stage, rule, consumed, produced):
    """Append one rewrite to the derivation trace."""
    if trace is not None:
        trace.append(DerivationStep(stage, rule, tuple(consumed),
                                    tuple(produced)))


# ---------------------------------------------------------------------------
# stage 1: preprocessing

# Per sign, the node classes distributed over the join that preprocessing
# splits (+or, -and): the outer ones other than the join itself.
_DISTRIBUTED = {sign: {cls for cls, row in CONNECTIVES.items()
                       if sign in row.outer} - {join}
                for sign, join in JOIN.items()}


def distribute(f: Formula, sign: str) -> Formula:
    """Push every distributed node below a child that is a join at the
    child's sign, to fixpoint: +dia, +sdia, +not and +and over +or; -box,
    -sbox, -not, -or and -imp over -and."""
    row = CONNECTIVES[type(f)]
    kids = row.children(f)
    if not kids:
        return f
    signs = row.signs[sign]
    kids = tuple([distribute(c, s) for c, s in zip(kids, signs)])
    f = row.rebuild(f, kids)
    if type(f) in _DISTRIBUTED[sign]:
        for k, (c, s) in enumerate(zip(kids, signs)):
            if type(c) is JOIN[s]:
                before, after = kids[:k], kids[k + 1:]
                return distribute(JOIN[sign](
                    row.rebuild(f, before + (c.left,) + after),
                    row.rebuild(f, before + (c.right,) + after)), sign)
    return f


# The unit and the zero of each binary boolean node.
_UNIT_ZERO = {And: (Top, Bot), Or: (Bot, Top)}


def _simplify_bool(f: Formula) -> Formula:
    kids = tuple(_simplify_bool(c) for c in children(f))
    f = _rebuild(f, kids)
    if isinstance(f, Not):
        if isinstance(f.child, Bot):
            return Top()
        if isinstance(f.child, Top):
            return Bot()
    if type(f) in _UNIT_ZERO:
        unit, zero = _UNIT_ZERO[type(f)]
        if isinstance(f.left, zero) or isinstance(f.right, zero):
            return zero()
        if isinstance(f.left, unit):
            return f.right
        if isinstance(f.right, unit):
            return f.left
    return f


# Per side of an inequality, read as the active side of a work item that
# the other side anchors: the side and the other, its sign, the order type
# of a variable that packs alone there, the join a split cuts at, the
# anchor a nominal makes on the other side (i or ~i), how an inequality
# reads from this side (the side, the anchor and their edge labels: 'sub'
# on the right, 'sup' on the left) and is built back, per node class the
# approximation and the residuation rule with its labelled modality
# (None: a sabotage rule), and the packing rule with its kind of bound,
# binder and packing of guards and bound.  The 'lhs' row is the order
# dual of the 'rhs' row; approx-imp has no dual.
_Side = namedtuple("_Side", "name other sign packs join anchor view make "
                   "approx residuate pack")

_SIDES = {
    "rhs": _Side("rhs", "lhs", "+", "1", And, lambda i: i,
                 attrgetter("rhs", "lhs", "sub", "sup"),
                 lambda f, a, s, t: Ineq(a, f, t, s),
                 {Dia: ("approx-dia", LDia), SDia: ("approx-sdia", None)},
                 {Box: ("res-box", InvLDia), SBox: ("res-sbox", None)},
                 ("pack-1", "minimal", ExistsNom,
                  lambda gs, b: _and_chain(gs + [b]))),
    "lhs": _Side("lhs", "rhs", "-", "d", Or, Not,
                 attrgetter("lhs", "rhs", "sup", "sub"), Ineq,
                 {Box: ("approx-box", LBox), SBox: ("approx-sbox", None)},
                 {Dia: ("res-dia", InvLBox), SDia: ("res-sdia", None)},
                 ("pack-2", "maximal", ForallNom,
                  lambda gs, b: Imp(_and_chain(gs), b) if gs else b)),
}


def split(q: Ineq, side: str):
    """Split q at the join of its `side` ('lhs' or 'rhs') into one
    inequality per argument, keeping the edge labels; None if that side is
    not a join."""
    f = getattr(q, side)
    if type(f) is not _SIDES[side].join:
        return None
    return [replace(q, **{side: half}) for half in (f.left, f.right)]


def preprocess(ineq: Ineq, trace=None) -> list:
    """Stage 1: distribution, then splitting and monotone variable
    elimination, exhaustively.  Returns the list of resulting inequalities.

    The input is distributed once, as no later rule puts a distributed
    node over a join.  A split keeps the children of a join.  Uniform
    elimination only lets a child Y take the place of an & or | node X at
    Y's sign; were Y a join there, either X over Y was a pair that
    distribution removes, or X was that join too, under the same parent."""
    cur = Ineq(distribute(ineq.lhs, "+"), distribute(ineq.rhs, "-"))
    if cur != ineq:
        record(trace, "preprocess", "distribute", [ineq], [cur])
    pending, out = [cur], []
    while pending:
        cur = pending.pop(0)
        halves = split(cur, "rhs") or split(cur, "lhs")
        if halves:
            record(trace, "preprocess", "split", [cur], halves)
            pending[:0] = halves
            continue
        lhs = occurrence_signs(cur.lhs, "+")
        rhs = occurrence_signs(cur.rhs, "-")
        for p in sorted(lhs.keys() & rhs.keys()):
            signs = lhs[p] | rhs[p]
            if signs == {"-"}:
                repl: Formula = Bot()
            elif signs == {"+"}:
                repl = Top()
            else:
                continue
            new = Ineq(_simplify_bool(substitute_prop(cur.lhs, p, repl)),
                       _simplify_bool(substitute_prop(cur.rhs, p, repl)))
            record(trace, "preprocess", "eliminate-uniform", [cur], [new])
            pending.insert(0, new)
            break
        else:
            if cur in out:
                record(trace, "preprocess", "dedupe", [cur], [])
            else:
                out.append(cur)
    return out


# ---------------------------------------------------------------------------
# first approximation

def first_approximation(pre: Ineq, gen: Iterator, eps: dict,
                        i0: str, i1: str, trace: list) -> System:
    a = _mk((), Ineq(Nom(i0), pre.lhs), "rhs")
    b = _mk((), Ineq(pre.rhs, Not(Nom(i1))), "lhs")
    sys = System([a, b], Ineq(Nom(i0), Not(Nom(i1))), gen, eps, trace)
    record(sys.trace, "first-approximation", "first-approx", [pre], [a, b])
    return sys


# ---------------------------------------------------------------------------
# substage 1: outer decomposition

def _view(item: WorkItem):
    """An active item's row, active side, anchor and their edge labels."""
    row = _SIDES[item.active]
    return (row, *row.view(item.ineq))


def _anchor_nominal(row: _Side, a: Formula):
    """The nominal i whose anchor for row is a, or None: a is i or ~i, and
    the row's anchor of i has the same form."""
    nom = a.child if isinstance(a, Not) else a
    if isinstance(nom, Nom) and type(row.anchor(nom)) is type(a):
        return nom
    return None


def _res_not(item: WorkItem, view, anchor: Formula):
    """res-not: the active ~c of the item's view moves to the other side
    as c, with its edge label, and `anchor` with the other label takes its
    place."""
    row, f, _, s, s2 = view
    new = _SIDES[row.other]
    return "res-not", [_mk(item.guards, new.make(f.child, anchor, s, s2),
                           new.name)]


def _outer_step(item: WorkItem, view, gen: Iterator):
    row, f, a, s, s2 = view
    i = _anchor_nominal(row, a)
    if i is None:
        return None
    if isinstance(f, Not):
        return _res_not(item, view, _SIDES[row.other].anchor(i))
    if isinstance(f, Imp) and item.active == "lhs":
        j, k = next(gen), next(gen)
        return "approx-imp", [
            _mk((), Ineq(Nom(j), f.left, s, s), "rhs"),
            _mk((), Ineq(f.right, Not(Nom(k)), s, s), "lhs"),
            _mk((), Ineq(Imp(Nom(j), Not(Nom(k))), a, s, s2), "lhs")]
    if type(f) not in row.approx:
        return None
    rule, modality = row.approx[type(f)]
    if modality:
        j = row.anchor(Nom(next(gen)))  # j or ~j for a fresh j
        return rule, [_mk((), row.make(f.child, j, s, s), row.name),
                      _mk((), row.make(modality(s, j), a, s, s2), row.name)]
    m0, m1 = next(gen), next(gen)
    return rule, [
        _mk((), Ineq(Nom(m0), LDia(s, Nom(m1)), s, s), "rhs"),
        _mk((), row.make(f.child, a, s | {(m0, m1)}, s2), row.name)]


def _rewrite(sys: System, step, stage: str, failure: str, problem: str,
             ok) -> System:
    """Replace the first active item that a split at its active side or
    `step` rewrites by what it produces, recording the rule, until no
    active item is rewritten; then raise a StageError at `failure` for
    the first active item whose view `ok` rejects.

    A step that returns None draws no nominal and items never change, so
    the items before a rewrite stay unrewritable, the scan goes on at the
    rewritten index, and an item it passes is final: `ok` reads it then."""
    idx, stuck = 0, None
    while idx < len(sys.items):
        item = sys.items[idx]
        if item.active != "none":
            view = _view(item)
            halves = split(item.ineq, item.active)
            out = (("split", [_mk(item.guards, h, item.active)
                              for h in halves]) if halves
                   else step(item, view, sys.gen))
            if out:
                rule, new_items = out
                sys.items[idx:idx + 1] = new_items
                record(sys.trace, stage, rule, [item], new_items)
                continue
            if stuck is None and not ok(*view):
                stuck = item
        idx += 1
    if stuck:
        raise StageError(failure, f"{problem} {_show(stuck)}")
    return sys


def reduce_outer(sys: System) -> System:
    return _rewrite(sys, _outer_step, "substage-1", "substage 1",
                    "stuck item",
                    lambda row, f, a, *_: _anchor_nominal(row, a) is not None
                    and is_inner_sahlqvist(f, row.sign, sys.eps))


# ---------------------------------------------------------------------------
# substage 2: inner decomposition

def _inner_step(item: WorkItem, view, gen: Iterator):
    row, f, a, s, s2 = view
    if isinstance(f, Not):
        return _res_not(item, view, Not(a))
    if type(f) not in row.residuate:
        return None
    rule, modality = row.residuate[type(f)]
    if modality:
        return rule, [_mk(item.guards,
                          row.make(f.child, modality(s, a), s, s2), row.name)]
    m0, m1 = next(gen), next(gen)
    return rule, [_mk(item.guards + (Guard(m0, m1, s),),
                      row.make(f.child, a, s | {(m0, m1)}, s2), row.name)]


def reduce_inner(sys: System) -> System:
    return _rewrite(sys, _inner_step, "substage-2", "substage 2",
                    "non-reducible head",
                    lambda row, f, *_: _packs(row, f, sys.eps)
                    or not has_critical_occurrence(f, row.sign, sys.eps))


# ---------------------------------------------------------------------------
# substage 3: packing

def _packs(row: _Side, f: Formula, eps: dict) -> bool:
    """Whether f is a variable that packs alone on row's side."""
    return isinstance(f, Prop) and eps.get(f.name) == row.packs


def _and_chain(parts):
    return reduce(lambda rest, part: And(part, rest), reversed(parts))


def pack(sys: System) -> System:
    eps = sys.eps
    packed = []
    for item in sys.items:
        if item.active == "none" and not item.guards:
            packed.append(item.ineq)
            continue
        q = item.ineq
        guard_fs = [GBox(Imp(Nom(g.m0), LDia(g.s, Nom(g.m1))))
                    for g in item.guards]
        binders = [n for g in item.guards for n in (g.m0, g.m1)]
        for row in _SIDES.values():
            var, bound = getattr(q, row.name), getattr(q, row.other)
            if _packs(row, var, eps):
                break
        else:
            row = None
        if row:
            rule, extreme, binder, wrap = row.pack
            if not is_fixed(bound):
                raise StageError("substage 3",
                                 f"impure {extreme} bound in {_show(item)}")
            form = reduce(lambda f, b: binder(b, f), reversed(binders),
                          wrap(guard_fs, bound))
            out: Statement = row.make(var, form, EMPTY_EDGES, EMPTY_EDGES)
        elif (fixed_lhs := is_fixed(q.lhs)) or is_fixed(q.rhs):
            # the deletion context of the side that is not fixed
            body = Ineq(Top(), Imp(_and_chain(guard_fs + [q.lhs]), q.rhs),
                        EMPTY_EDGES, q.sub if fixed_lhs else q.sup)
            out = UQIneq(tuple(binders), body) if binders else body
            rule = "pack-3" if fixed_lhs else "pack-4"
        else:
            raise StageError("substage 3", "head fails purity side "
                             f"condition in {_show(item)}")
        record(sys.trace, "substage-3", rule, [item], [out])
        packed.append(out)
    sys.items = packed
    return sys


# ---------------------------------------------------------------------------
# substage 4: Ackermann elimination

# Per order type: the handedness, the side where a variable of that type
# stands alone, the side of its bound, the join of the bounds and the join
# of none, and the one sign it may carry in every other item, read with the
# lhs at + and the rhs at -.
_ACKERMANN = {
    "1": ("right", "rhs", "lhs", Or, Bot, "+"),
    "d": ("left", "lhs", "rhs", And, Top, "-"),
}


def _substitute(st: Statement, p: str, repl: Formula) -> Statement:
    """A packed item, an Ineq or a UQIneq over one, with repl for p."""
    q = st.body if isinstance(st, UQIneq) else st
    out = Ineq(substitute_prop(q.lhs, p, repl), substitute_prop(q.rhs, p, repl),
               q.sup, q.sub)
    return UQIneq(st.binders, out) if q is not st else out


def ackermann_eliminate(sys: System) -> System:
    """Eliminate every variable of the packed system, in name order, with
    one step each.  Right-handed (order type 1) collects the items
    alpha <= p and substitutes their join for p; left-handed is the dual.

    Each item's signs are read once, up front, as those of lhs -> rhs at
    -.  Every bound is pure (`pack` checks it), so a substitution adds no
    variable and moves no occurrence of another one."""
    items = []
    for st in sys.items:
        q = st.body if isinstance(st, UQIneq) else st
        items.append((st, occurrence_signs(Imp(q.lhs, q.rhs), "-")))
    for p in sorted(set().union(*(signs for _, signs in items))):
        hand, var_side, bound_side, join, empty, sign = _ACKERMANN[sys.eps[p]]
        alphas, rest = [], []
        for st, signs in items:
            if (isinstance(st, Ineq) and getattr(st, var_side) == Prop(p)
                    and not st.sup and not st.sub):
                alphas.append(st)
                continue
            if signs.get(p, {sign}) != {sign}:
                raise StageError(
                    "substage 4",
                    f"{p} occurs with the wrong polarity in {_show(st)}")
            rest.append((st, signs))
        bounds = [getattr(st, bound_side) for st in alphas]
        repl = reduce(join, bounds) if bounds else empty()
        items = [(_substitute(st, p, repl) if p in signs else st, signs)
                 for st, signs in rest]
        record(sys.trace, "substage-4", f"ackermann-{hand}",
               alphas + [st for st, signs in rest if p in signs],
               [st for st, signs in items if p in signs])
    sys.items = [st for st, _ in items]
    return sys


# ---------------------------------------------------------------------------
# the full run

@dataclass(frozen=True)
class AlbaSuccess:
    order_type: dict
    preprocessed: tuple
    quasis: tuple
    trace: tuple


@dataclass(frozen=True)
class AlbaFailure:
    reason: str
    stage: str
    trace: tuple


def run_alba(ineq: Ineq, order_type=None):
    """ALBA on ineq, a base-language Ineq as the parser returns it, under
    order_type or, when it is None, the one `find_order_type` picks: an
    AlbaSuccess or an AlbaFailure naming the stage.  The input has no
    nominal, so the fresh ones are i0, i1, ... in order.  Each sub-problem
    is packed and then rid of every variable in one Ackermann pass, each
    by a pure bound, so its quasi-inequality comes out pure."""
    ineq = Ineq(eliminate_iff(ineq.lhs), eliminate_iff(ineq.rhs))
    trace: list = []
    eps = dict(order_type) if order_type is not None else find_order_type(ineq)
    if eps is None:
        return AlbaFailure("no order type makes the input Sahlqvist",
                           "classify", tuple(trace))
    missing = (props_of(ineq.lhs) | props_of(ineq.rhs)) - set(eps)
    if missing:
        return AlbaFailure(f"order type misses variables {sorted(missing)}",
                           "classify", tuple(trace))
    gen = map("i{}".format, itertools.count())
    i0, i1 = next(gen), next(gen)
    pre = preprocess(ineq, trace)
    try:
        # pre is Iff-free and `missing` found eps covering its variables
        for q in pre:
            sides = ((q.lhs, "+"), (q.rhs, "-"))
            if not_excellent(sides, eps):
                raise StageError("stage 1",
                                 f"{print_statement(q)} is not Sahlqvist "
                                 f"for the chosen order type")
            if not all(is_definite(f, sign, eps) for f, sign in sides):
                raise StageError("stage 1",
                                 f"{print_statement(q)} is not definite")
        quasis = []
        for q in pre:
            sys = first_approximation(q, gen, eps, i0, i1, trace)
            reduce_outer(sys)
            reduce_inner(sys)
            pack(sys)
            ackermann_eliminate(sys)
            quasis.append(QuasiUQ(tuple(sys.items), sys.goal))
    except StageError as exc:
        return AlbaFailure(str(exc), exc.stage, tuple(trace))
    return AlbaSuccess(eps, tuple(pre), tuple(quasis), tuple(trace))
