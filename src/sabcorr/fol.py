"""First-order correspondence language: standard translation, evaluation
over finite frames, and text/JSON/TPTP emission.

Terms are plain strings: domain variables (x, y0, y1, ...) and nominal
names (i0, i1, ...), which are treated as quantifiable variables so the
frame-validity harness can close them universally.
"""

from __future__ import annotations

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


def eval_fo(frame: KripkeFrame, val: Valuation, assignment: dict,
            f: FOFormula) -> bool:
    """Truth of f under the valuation's nominals overlaid with assignment."""
    def ev(g: FOFormula, env: dict) -> bool:
        if isinstance(g, Eq):
            return env[g.a] == env[g.b]
        if isinstance(g, Rel):
            return (env[g.a], env[g.b]) in frame.r0
        if isinstance(g, Pred):
            return bool(val.props.get(g.name, 0) >> env[g.t] & 1)
        if isinstance(g, FONot):
            return not ev(g.child, env)
        if isinstance(g, FOAnd):
            return all(ev(p, env) for p in g.parts)
        if isinstance(g, FOOr):
            return any(ev(p, env) for p in g.parts)
        if isinstance(g, FOImp):
            return not ev(g.left, env) or ev(g.right, env)
        if isinstance(g, FOForall):
            return all(ev(g.body, {**env, g.var: w}) for w in frame.worlds)
        if isinstance(g, FOExists):
            return any(ev(g.body, {**env, g.var: w}) for w in frame.worlds)
        msg = f"cannot evaluate {g!r}"
        raise FOEvalError(msg)

    try:
        return ev(f, {**val.noms, **assignment})
    except KeyError as exc:
        msg = f"unbound name {exc.args[0]!r}"
        raise FOEvalError(msg) from None


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
