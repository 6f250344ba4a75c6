"""First-order correspondence language: standard translation, evaluation
over finite frames, and text/JSON/TPTP emission.

Terms are plain strings: domain variables (x, y0, y1, ...) and nominal
names (i0, i1, ...), which are treated as quantifiable variables so the
frame-validity harness can close them universally.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

from .syntax import (
    And, Bot, Box, Dia, ExistsNom, ForallNom, Formula, GBox, GDia, Iff, Imp,
    InvLBox, InvLDia, LBox, LDia, Nom, Not, Or, Prop, SBox, SDia, Top,
)
from .semantics import (
    Ineq, KripkeFrame, MegaAnd, MegaGuard, QuasiUQ, Statement, UQIneq,
    Valuation, valuations,
)


class FOFormula:
    __slots__ = ()


@dataclass(frozen=True)
class Eq(FOFormula):
    a: str
    b: str


@dataclass(frozen=True)
class Rel(FOFormula):
    a: str
    b: str


@dataclass(frozen=True)
class Pred(FOFormula):
    name: str
    t: str


@dataclass(frozen=True)
class FONot(FOFormula):
    child: FOFormula


@dataclass(frozen=True)
class FOAnd(FOFormula):
    parts: tuple


@dataclass(frozen=True)
class FOOr(FOFormula):
    parts: tuple


@dataclass(frozen=True)
class FOImp(FOFormula):
    left: FOFormula
    right: FOFormula


@dataclass(frozen=True)
class FOForall(FOFormula):
    var: str
    body: FOFormula


@dataclass(frozen=True)
class FOExists(FOFormula):
    var: str
    body: FOFormula


def fo_and(parts) -> FOFormula:
    parts = tuple(parts)
    if len(parts) == 1:
        return parts[0]
    return FOAnd(parts)


def fo_or(parts) -> FOFormula:
    parts = tuple(parts)
    if len(parts) == 1:
        return parts[0]
    return FOOr(parts)


class _VarGen:
    def __init__(self):
        self.count = 0

    def fresh(self) -> str:
        name = f"y{self.count}"
        self.count += 1
        return name


def _exclusions(e, a: str, b: str):
    """One conjunct per pair in e: the edge (a,b) is not that deleted pair."""
    return [FONot(FOAnd((Eq(a, v), Eq(b, w)))) for (v, w) in e]


def _label_pairs(s) -> tuple:
    return tuple(sorted(s))


def st_formula(f: Formula, x: str, e: tuple, gen: _VarGen) -> FOFormula:
    if isinstance(f, Bot):
        return FONot(Eq(x, x))
    if isinstance(f, Top):
        return Eq(x, x)
    if isinstance(f, Prop):
        return Pred(f.name, x)
    if isinstance(f, Nom):
        return Eq(x, f.name)
    if isinstance(f, Not):
        return FONot(st_formula(f.child, x, e, gen))
    if isinstance(f, And):
        return FOAnd((st_formula(f.left, x, e, gen),
                      st_formula(f.right, x, e, gen)))
    if isinstance(f, Or):
        return FOOr((st_formula(f.left, x, e, gen),
                     st_formula(f.right, x, e, gen)))
    if isinstance(f, Imp):
        return FOImp(st_formula(f.left, x, e, gen),
                     st_formula(f.right, x, e, gen))
    if isinstance(f, Iff):
        a = st_formula(f.left, x, e, gen)
        b = st_formula(f.right, x, e, gen)
        return FOAnd((FOImp(a, b), FOImp(b, a)))
    if isinstance(f, Dia):
        y = gen.fresh()
        return FOExists(y, fo_and([Rel(x, y), *_exclusions(e, x, y),
                                   st_formula(f.child, y, e, gen)]))
    if isinstance(f, Box):
        y = gen.fresh()
        return FOForall(y, FOImp(fo_and([Rel(x, y), *_exclusions(e, x, y)]),
                                 st_formula(f.child, y, e, gen)))
    if isinstance(f, SDia):
        y, z = gen.fresh(), gen.fresh()
        return FOExists(y, FOExists(z, fo_and(
            [Rel(y, z), *_exclusions(e, y, z),
             st_formula(f.child, x, e + ((y, z),), gen)])))
    if isinstance(f, SBox):
        y, z = gen.fresh(), gen.fresh()
        return FOForall(y, FOForall(z, FOImp(
            fo_and([Rel(y, z), *_exclusions(e, y, z)]),
            st_formula(f.child, x, e + ((y, z),), gen))))
    if isinstance(f, LDia):
        y = gen.fresh()
        return FOExists(y, fo_and(
            [Rel(x, y), *_exclusions(_label_pairs(f.s), x, y),
             st_formula(f.child, y, e, gen)]))
    if isinstance(f, LBox):
        y = gen.fresh()
        return FOForall(y, FOImp(
            fo_and([Rel(x, y), *_exclusions(_label_pairs(f.s), x, y)]),
            st_formula(f.child, y, e, gen)))
    if isinstance(f, InvLDia):
        y = gen.fresh()
        return FOExists(y, fo_and(
            [Rel(y, x), *_exclusions(_label_pairs(f.s), y, x),
             st_formula(f.child, y, e, gen)]))
    if isinstance(f, InvLBox):
        y = gen.fresh()
        return FOForall(y, FOImp(
            fo_and([Rel(y, x), *_exclusions(_label_pairs(f.s), y, x)]),
            st_formula(f.child, y, e, gen)))
    if isinstance(f, GDia):
        y = gen.fresh()
        return FOExists(y, st_formula(f.child, y, e, gen))
    if isinstance(f, GBox):
        y = gen.fresh()
        return FOForall(y, st_formula(f.child, y, e, gen))
    if isinstance(f, ForallNom):
        return FOForall(f.nom, st_formula(f.child, x, e, gen))
    if isinstance(f, ExistsNom):
        return FOExists(f.nom, st_formula(f.child, x, e, gen))
    msg = f"cannot translate {f!r}"
    raise ValueError(msg)


def translate_formula(f: Formula, x: str = "x", e: tuple = ()) -> FOFormula:
    return st_formula(f, x, e, _VarGen())


def _st_statement(s: Statement, gen: _VarGen) -> FOFormula:
    if isinstance(s, Ineq):
        return FOForall("x", FOImp(
            st_formula(s.lhs, "x", _label_pairs(s.sup), gen),
            st_formula(s.rhs, "x", _label_pairs(s.sub), gen)))
    if isinstance(s, MegaAnd):
        return fo_and([_st_statement(p, gen) for p in s.parts])
    if isinstance(s, MegaGuard):
        guard = fo_and([Rel(s.m0, s.m1),
                        *_exclusions(_label_pairs(s.s), s.m0, s.m1)])
        return FOForall(s.m0, FOForall(
            s.m1, FOImp(guard, _st_statement(s.body, gen))))
    if isinstance(s, UQIneq):
        out = _st_statement(s.body, gen)
        for b in reversed(s.binders):
            out = FOForall(b, out)
        return out
    if isinstance(s, QuasiUQ):
        prems = fo_and([_st_statement(p, gen) for p in s.premises])
        return FOImp(prems, _st_statement(s.conclusion, gen))
    msg = f"cannot translate statement {s!r}"
    raise ValueError(msg)


def st_statement(s: Statement) -> FOFormula:
    return _st_statement(s, _VarGen())


def correspondent(quasis) -> FOFormula:
    return fo_and([st_statement(q) for q in quasis])


# ---------------------------------------------------------------------------
# evaluation

class FOEvalError(ValueError):
    pass


class _Slots:
    """The list environment of one compiled formula.  Slots 0 and 1 hold
    the frame's relation and worlds; each other slot holds a free name or
    a predicate, filled on each call, or the world of one binder."""

    def __init__(self):
        self.size = 2
        self.names, self.preds = {}, {}

    def new(self) -> int:
        self.size += 1
        return self.size - 1

    def input(self, table: dict, name: str) -> int:
        if name not in table:
            table[name] = self.new()
        return table[name]

    def term(self, name: str, scope: dict) -> int:
        if name in scope:
            return scope[name]
        return self.input(self.names, name)

    def node(self, g: FOFormula, scope: dict):
        return _COMPILE[type(g)](self, g, scope)


def _conjoin(run, rest):
    return lambda env: run(env) and rest(env)


def _disjoin(run, rest):
    return lambda env: run(env) or rest(env)


def _compile_eq(c, g, scope):
    a, b = c.term(g.a, scope), c.term(g.b, scope)
    return lambda env: env[a] == env[b]


def _compile_rel(c, g, scope):
    a, b = c.term(g.a, scope), c.term(g.b, scope)
    return lambda env: (env[a], env[b]) in env[0]


def _compile_pred(c, g, scope):
    mask, t = c.input(c.preds, g.name), c.term(g.t, scope)
    return lambda env: env[mask] >> env[t] & 1


def _compile_not(c, g, scope):
    child = c.node(g.child, scope)
    return lambda env: not child(env)


def _compile_junction(unit, join):
    # parts fold into nested two-way closures: all() or any() over a
    # generator made the whole check up to twice as slow
    def compile_parts(c, g, scope):
        runs = [c.node(p, scope) for p in g.parts]
        out = runs.pop() if runs else (lambda env: unit)
        for run in reversed(runs):
            out = join(run, out)
        return out
    return compile_parts


def _compile_imp(c, g, scope):
    left, right = c.node(g.left, scope), c.node(g.right, scope)
    return lambda env: not left(env) or right(env)


def _compile_forall(c, g, scope):
    i = c.new()
    body = c.node(g.body, {**scope, g.var: i})

    def forall(env):
        for w in env[1]:
            env[i] = w
            if not body(env):
                return False
        return True
    return forall


def _compile_exists(c, g, scope):
    i = c.new()
    body = c.node(g.body, {**scope, g.var: i})

    def exists(env):
        for w in env[1]:
            env[i] = w
            if body(env):
                return True
        return False
    return exists


_COMPILE = {
    Eq: _compile_eq, Rel: _compile_rel, Pred: _compile_pred,
    FONot: _compile_not, FOAnd: _compile_junction(True, _conjoin),
    FOOr: _compile_junction(False, _disjoin), FOImp: _compile_imp,
    FOForall: _compile_forall, FOExists: _compile_exists,
}


@functools.lru_cache(maxsize=256)
def _compile(f: FOFormula):
    """f as (run, size, names, preds): run(env) is its truth on a list
    environment of `size` slots, where names and preds give the slot of
    each free name and predicate.  A bound name reads the slot of its
    nearest binder."""
    slots = _Slots()
    run = slots.node(f, {})
    return (run, slots.size, tuple(slots.names.items()),
            tuple(slots.preds.items()))


def eval_fo(frame: KripkeFrame, val: Valuation, assignment: dict,
            f: FOFormula) -> bool:
    """Truth of f under the valuation's nominals overlaid with assignment."""
    run, size, names, preds = _compile(f)
    env = [None] * size
    env[0], env[1] = frame.r0, frame.worlds
    for name, i in names:
        if name in assignment:
            env[i] = assignment[name]
        elif name in val.noms:
            env[i] = val.noms[name]
        else:
            msg = f"unbound name {name!r}"
            raise FOEvalError(msg)
    for name, i in preds:
        env[i] = val.props.get(name, 0)
    return bool(run(env))


# The FO node table: per class, its JSON key, its names (terms, a
# predicate's name, a bound variable) and its subformulas.
_FO_NODES = {
    Eq: ("eq", lambda f: (f.a, f.b), lambda f: ()),
    Rel: ("r", lambda f: (f.a, f.b), lambda f: ()),
    Pred: ("pred", lambda f: (f.name, f.t), lambda f: ()),
    FONot: ("not", lambda f: (), lambda f: (f.child,)),
    FOAnd: ("and", lambda f: (), lambda f: f.parts),
    FOOr: ("or", lambda f: (), lambda f: f.parts),
    FOImp: ("imp", lambda f: (), lambda f: (f.left, f.right)),
    FOForall: ("forall", lambda f: (f.var,), lambda f: (f.body,)),
    FOExists: ("exists", lambda f: (f.var,), lambda f: (f.body,)),
}


def _fo_children(f: FOFormula) -> tuple:
    return _FO_NODES[type(f)][2](f)


def free_names(f: FOFormula) -> frozenset:
    if isinstance(f, (Eq, Rel)):
        return frozenset({f.a, f.b})
    if isinstance(f, Pred):
        return frozenset({f.t})
    out = frozenset()
    for g in _fo_children(f):
        out |= free_names(g)
    if isinstance(f, (FOForall, FOExists)):
        out -= {f.var}
    return out


def pred_names(f: FOFormula) -> frozenset:
    if isinstance(f, Pred):
        return frozenset({f.name})
    out = frozenset()
    for g in _fo_children(f):
        out |= pred_names(g)
    return out


def closure(f: FOFormula) -> FOFormula:
    """f with one FOForall per free name, the first sorted name outermost."""
    for name in sorted(free_names(f), reverse=True):
        f = FOForall(name, f)
    return f


def holds_on_frame(frame: KripkeFrame, sentence: FOFormula, vars=None) -> bool:
    """Truth of a sentence on the frame under every valuation of vars, by
    default its predicates; free names are the caller's to close."""
    vars = sorted(pred_names(sentence)) if vars is None else vars
    return all(eval_fo(frame, val, {}, sentence)
               for val in valuations(frame, vars))


# ---------------------------------------------------------------------------
# emission

# How each text dialect writes terms, atoms, connectives and binders; the
# format strings take their parts in reading order.
_DIALECTS = {
    "text": {"term": str, "rel": "R({},{})", "pred": "P_{}({})",
             "neg": "~{}", "true": "true", "false": "false", "imp": "->",
             "forall": "forall {}. ", "exists": "exists {}. ",
             "document": "{}"},
    "tptp": {"term": str.upper, "rel": "r({},{})", "pred": "p_{}({})",
             "neg": "~({})", "true": "$true", "false": "$false", "imp": "=>",
             "forall": "![{}]: ", "exists": "?[{}]: ",
             "document": "fof(corr, axiom, {})."},
}


def _emit(f: FOFormula, d: dict) -> str:
    term = d["term"]
    if isinstance(f, Eq):
        return f"{term(f.a)} = {term(f.b)}"
    if isinstance(f, Rel):
        return d["rel"].format(term(f.a), term(f.b))
    if isinstance(f, Pred):
        return d["pred"].format(f.name, term(f.t))
    if isinstance(f, FONot):
        if isinstance(f.child, Eq):
            return f"{term(f.child.a)} != {term(f.child.b)}"
        return d["neg"].format(_emit(f.child, d))
    if isinstance(f, FOAnd):
        if not f.parts:
            return d["true"]
        return "(" + " & ".join(_emit(p, d) for p in f.parts) + ")"
    if isinstance(f, FOOr):
        if not f.parts:
            return d["false"]
        return "(" + " | ".join(_emit(p, d) for p in f.parts) + ")"
    if isinstance(f, FOImp):
        return f"({_emit(f.left, d)} {d['imp']} {_emit(f.right, d)})"
    if isinstance(f, FOForall):
        return d["forall"].format(term(f.var)) + _emit(f.body, d)
    if isinstance(f, FOExists):
        return d["exists"].format(term(f.var)) + _emit(f.body, d)
    msg = f"cannot emit {f!r}"
    raise ValueError(msg)


def _as_json(f: FOFormula):
    key, names, kids = _FO_NODES[type(f)]
    return {key: [*names(f), *map(_as_json, kids(f))]}


def emit_fo(f: FOFormula, format: str = "text") -> str:
    if format == "json":
        return json.dumps(_as_json(f))
    if format in _DIALECTS:
        d = _DIALECTS[format]
        return d["document"].format(_emit(f, d))
    msg = f"unknown format {format!r}"
    raise ValueError(msg)
