"""Variable-elimination rewrite engine for sabotage modal inequalities.

Pipeline: order-type search -> preprocessing (distribution, splitting,
monotone variable elimination) -> first approximation -> outer decomposition
-> inner decomposition -> packing -> Ackermann elimination -> assembly of
pure quasi-inequalities.  Every rewrite is recorded as a DerivationStep,
which keeps the statements themselves and prints them only when read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce

from .syntax import (
    And, Bot, Box, Dia, ExistsNom, ForallNom, Formula, GBox, Imp, InvLBox,
    InvLDia, LBox, LDia, Nom, Not, Or, Prop, SBox, SDia, Top,
    CONNECTIVES, EMPTY_EDGES, FreshNominals, _rebuild, all_names_of, children,
    eliminate_iff, is_fixed, occurrence_signs, polarity, props_of,
    substitute_prop,
)
from .semantics import (
    Ineq, MegaGuard, QuasiUQ, Statement, UQIneq, map_formulas,
    print_statement, statement_props,
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
    gen: FreshNominals
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


# Each side of an inequality read at its sign, so that a split is at the
# side's JOIN: +or on the left, -and on the right.
_SIDE_SIGN = {"lhs": "+", "rhs": "-"}


def split(q: Ineq, side: str):
    """Split q at the join of its `side` ('lhs' or 'rhs') into one
    inequality per argument, keeping the edge labels; None if that side is
    not a join."""
    f = getattr(q, side)
    if type(f) is not JOIN[_SIDE_SIGN[side]]:
        return None
    return [replace(q, **{side: half}) for half in (f.left, f.right)]


def preprocess(ineq: Ineq, trace=None) -> list:
    """Stage 1: distribution, splitting and monotone variable elimination,
    exhaustively.  Returns the list of resulting inequalities."""
    pending = [ineq]
    out = []
    while pending:
        cur = pending.pop(0)
        dl = distribute(cur.lhs, "+")
        dr = distribute(cur.rhs, "-")
        if dl != cur.lhs or dr != cur.rhs:
            new = Ineq(dl, dr)
            record(trace, "preprocess", "distribute", [cur], [new])
            cur = new
        halves = split(cur, "rhs") or split(cur, "lhs")
        if halves:
            record(trace, "preprocess", "split", [cur], halves)
            pending[:0] = halves
            continue
        for p in sorted(props_of(cur.lhs) & props_of(cur.rhs)):
            signs = set(occurrence_signs(cur.lhs, p, "+"))
            signs |= set(occurrence_signs(cur.rhs, p, "-"))
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
            out.append(cur)
    return list(dict.fromkeys(out))


# ---------------------------------------------------------------------------
# first approximation

def first_approximation(pre: Ineq, gen: FreshNominals, eps: dict,
                        i0: str, i1: str, trace: list) -> System:
    a = _mk((), Ineq(Nom(i0), pre.lhs), "rhs")
    b = _mk((), Ineq(pre.rhs, Not(Nom(i1))), "lhs")
    sys = System([a, b], Ineq(Nom(i0), Not(Nom(i1))), gen, eps, trace)
    record(sys.trace, "first-approximation", "first-approx", [pre], [a, b])
    return sys


# ---------------------------------------------------------------------------
# substage 1: outer decomposition

def _outer_step(item: WorkItem, gen: FreshNominals):
    q = item.ineq
    s, s2 = q.sup, q.sub
    if item.active == "rhs":
        f = q.rhs
        if isinstance(q.lhs, Nom):
            i = q.lhs
            if isinstance(f, Dia):
                j = gen.fresh()
                return "approx-dia", [
                    _mk((), Ineq(Nom(j), f.child, s2, s2), "rhs"),
                    _mk((), Ineq(i, LDia(s2, Nom(j)), s, s2), "rhs")]
            if isinstance(f, SDia):
                m0, m1 = gen.fresh(), gen.fresh()
                return "approx-sdia", [
                    _mk((), Ineq(Nom(m0), LDia(s2, Nom(m1)), s2, s2), "rhs"),
                    _mk((), Ineq(i, f.child, s, s2 | {(m0, m1)}), "rhs")]
            if isinstance(f, Not):
                return "res-not", [_mk((), Ineq(f.child, Not(i), s2, s), "lhs")]
    else:
        f = q.lhs
        if isinstance(q.rhs, Not) and isinstance(q.rhs.child, Nom):
            ni = q.rhs
            if isinstance(f, Box):
                j = gen.fresh()
                return "approx-box", [
                    _mk((), Ineq(f.child, Not(Nom(j)), s, s), "lhs"),
                    _mk((), Ineq(LBox(s, Not(Nom(j))), ni, s, s2), "lhs")]
            if isinstance(f, SBox):
                m0, m1 = gen.fresh(), gen.fresh()
                return "approx-sbox", [
                    _mk((), Ineq(Nom(m0), LDia(s, Nom(m1)), s, s), "rhs"),
                    _mk((), Ineq(f.child, ni, s | {(m0, m1)}, s2), "lhs")]
            if isinstance(f, Imp):
                j, k = gen.fresh(), gen.fresh()
                return "approx-imp", [
                    _mk((), Ineq(Nom(j), f.left, s, s), "rhs"),
                    _mk((), Ineq(f.right, Not(Nom(k)), s, s), "lhs"),
                    _mk((), Ineq(Imp(Nom(j), Not(Nom(k))), ni, s, s2), "lhs")]
            if isinstance(f, Not):
                return "res-not", [
                    _mk((), Ineq(ni.child, f.child, s2, s), "rhs")]
    return None


def _split_item(item: WorkItem):
    halves = split(item.ineq, item.active)
    return halves and ("split", [_mk(item.guards, h, item.active)
                                 for h in halves])


def _rewrite(sys: System, step, stage: str) -> System:
    """Replace the first active item that a split at its active side or
    `step` rewrites by what it produces, recording the rule, until no
    active item is rewritten.

    A step that returns None draws no nominal and items never change, so
    the items before a rewrite stay unrewritable and the scan goes on at
    the rewritten index."""
    idx = 0
    while idx < len(sys.items):
        item = sys.items[idx]
        out = item.active != "none" and (_split_item(item)
                                         or step(item, sys.gen))
        if out:
            rule, new_items = out
            sys.items[idx:idx + 1] = new_items
            record(sys.trace, stage, rule, [item], new_items)
        else:
            idx += 1
    return sys


def reduce_outer(sys: System) -> System:
    _check_substage1(_rewrite(sys, _outer_step, "substage-1"))
    return sys


def _check_substage1(sys: System):
    for item in sys.items:
        if item.active == "none":
            continue
        q = item.ineq
        if item.active == "rhs":
            ok = (isinstance(q.lhs, Nom)
                  and is_inner_sahlqvist(q.rhs, "+", sys.eps))
        else:
            ok = (isinstance(q.rhs, Not) and isinstance(q.rhs.child, Nom)
                  and is_inner_sahlqvist(q.lhs, "-", sys.eps))
        if not ok:
            raise StageError("substage 1",
                             f"stuck item {print_statement(item.statement())}")


# ---------------------------------------------------------------------------
# substage 2: inner decomposition

def _inner_step(item: WorkItem, gen: FreshNominals):
    q = item.ineq
    s, s2 = q.sup, q.sub
    g = item.guards
    if item.active == "rhs":
        f = q.rhs
        if isinstance(f, Not):
            return "res-not", [_mk(g, Ineq(f.child, Not(q.lhs), s2, s), "lhs")]
        if isinstance(f, Box):
            return "res-box", [
                _mk(g, Ineq(InvLDia(s2, q.lhs), f.child, s, s2), "rhs")]
        if isinstance(f, SBox):
            m0, m1 = gen.fresh(), gen.fresh()
            return "res-sbox", [
                _mk(g + (Guard(m0, m1, s2),),
                    Ineq(q.lhs, f.child, s, s2 | {(m0, m1)}), "rhs")]
    else:
        f = q.lhs
        if isinstance(f, Not):
            return "res-not", [_mk(g, Ineq(Not(q.rhs), f.child, s2, s), "rhs")]
        if isinstance(f, Dia):
            return "res-dia", [
                _mk(g, Ineq(f.child, InvLBox(s, q.rhs), s, s2), "lhs")]
        if isinstance(f, SDia):
            m0, m1 = gen.fresh(), gen.fresh()
            return "res-sdia", [
                _mk(g + (Guard(m0, m1, s),),
                    Ineq(f.child, q.rhs, s | {(m0, m1)}, s2), "lhs")]
    return None


def reduce_inner(sys: System) -> System:
    _check_substage2(_rewrite(sys, _inner_step, "substage-2"))
    return sys


def _is_critical_prop(f: Formula, sign: str, eps: dict) -> bool:
    return (isinstance(f, Prop)
            and eps.get(f.name) == ("1" if sign == "+" else "d"))


def _check_substage2(sys: System):
    for item in sys.items:
        if item.active == "none":
            continue
        q = item.ineq
        f = q.rhs if item.active == "rhs" else q.lhs
        sign = "+" if item.active == "rhs" else "-"
        if _is_critical_prop(f, sign, sys.eps):
            continue
        if not has_critical_occurrence(f, sign, sys.eps):
            continue
        raise StageError("substage 2",
                         f"non-reducible head {print_statement(item.statement())}")


# ---------------------------------------------------------------------------
# substage 3: packing

def _and_chain(parts):
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = And(part, out)
    return out


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
        if isinstance(q.rhs, Prop) and eps.get(q.rhs.name) == "1":
            if not is_fixed(q.lhs):
                raise StageError("substage 3",
                                 f"impure minimal bound in "
                                 f"{print_statement(item.statement())}")
            form: Formula = _and_chain(guard_fs + [q.lhs])
            for b in reversed(binders):
                form = ExistsNom(b, form)
            out: Statement = Ineq(form, q.rhs)
            rule = "pack-1"
        elif isinstance(q.lhs, Prop) and eps.get(q.lhs.name) == "d":
            if not is_fixed(q.rhs):
                raise StageError("substage 3",
                                 f"impure maximal bound in "
                                 f"{print_statement(item.statement())}")
            if guard_fs:
                form = Imp(_and_chain(guard_fs), q.rhs)
                for b in reversed(binders):
                    form = ForallNom(b, form)
            else:
                form = q.rhs
            out = Ineq(q.lhs, form)
            rule = "pack-2"
        elif (fixed_lhs := is_fixed(q.lhs)) or is_fixed(q.rhs):
            # the deletion context of the side that is not fixed
            body = Ineq(Top(), Imp(_and_chain(guard_fs + [q.lhs]), q.rhs),
                        EMPTY_EDGES, q.sub if fixed_lhs else q.sup)
            out = UQIneq(tuple(binders), body) if binders else body
            rule = "pack-3" if fixed_lhs else "pack-4"
        else:
            raise StageError("substage 3",
                             f"head fails purity side condition in "
                             f"{print_statement(item.statement())}")
        record(sys.trace, "substage-3", rule, [item], [out])
        packed.append(out)
    sys.items = packed
    return sys


# ---------------------------------------------------------------------------
# substage 4: Ackermann elimination

# Per handedness: the side where p stands alone, the side of its bound,
# the join of the bounds and the join of none, and the polarity p may have,
# besides absent, on the lhs and on the rhs of every other item.
_ACKERMANN = {
    "right": ("rhs", "lhs", Or, Bot, ("positive", "negative")),
    "left": ("lhs", "rhs", And, Top, ("negative", "positive")),
}


def ackermann_eliminate(sys: System, p: str, handedness: str) -> System:
    """Eliminate p from the packed system.  Right-handed collects items
    alpha <= p and substitutes their join; left-handed is the dual."""
    var_side, bound_side, join, empty, (ok_l, ok_r) = _ACKERMANN[handedness]
    alphas = []
    rest = []
    for st in sys.items:
        if (isinstance(st, Ineq) and getattr(st, var_side) == Prop(p)
                and not st.sup and not st.sub):
            alphas.append(st)
        else:
            rest.append(st)
    bounds = [getattr(st, bound_side) for st in alphas]
    for b in bounds:
        if not is_fixed(b):
            raise StageError(
                "substage 4", f"bound {print_statement(Ineq(b, Prop(p)))} "
                f"is not pure and context-free")
    repl = reduce(join, bounds) if bounds else empty()
    new_items = []
    changed_from = []
    changed_to = []
    for st in rest:
        q = st.body if isinstance(st, UQIneq) else st
        pol_l, pol_r = polarity(q.lhs, p), polarity(q.rhs, p)
        if pol_l == pol_r == "absent":
            new_items.append(st)
            continue
        if pol_l not in (ok_l, "absent") or pol_r not in (ok_r, "absent"):
            raise StageError(
                "substage 4",
                f"{p} occurs with the wrong polarity in {_show(st)}")
        # p occurs and the pure bound has no variable, so st changes
        new = map_formulas(st, lambda f: substitute_prop(f, p, repl))
        changed_from.append(st)
        changed_to.append(new)
        new_items.append(new)
    record(sys.trace, "substage-4", f"ackermann-{handedness}",
           alphas + changed_from, changed_to)
    sys.items = new_items
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
    reserved = set(all_names_of(ineq.lhs)) | set(all_names_of(ineq.rhs))
    gen = FreshNominals(reserved)
    i0, i1 = gen.fresh(), gen.fresh()
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
            for p in sorted({v for st in sys.items
                             for v in statement_props(st)}):
                handed = "right" if eps[p] == "1" else "left"
                ackermann_eliminate(sys, p, handed)
            for st in sys.items:
                if statement_props(st):
                    raise StageError("output", f"impure item {_show(st)}")
            quasis.append(QuasiUQ(tuple(sys.items), sys.goal))
    except StageError as exc:
        return AlbaFailure(str(exc), exc.stage, tuple(trace))
    return AlbaSuccess(eps, tuple(pre), tuple(quasis), tuple(trace))
