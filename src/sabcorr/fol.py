"""First-order correspondence language: standard translation,
simplification, evaluation over finite frames, and text/JSON/TPTP
emission.

Terms are plain strings: domain variables (x, y0, y1, ...) and nominal
names (i0, i1, ...), which are treated as quantifiable variables so the
frame-validity harness can close them universally; `simplify` closes them
and removes them by the one-point rule.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

from .syntax import (
    And, Bot, Formula, Iff, Imp, Nom, Not, Or, Prop, Top, CONNECTIVES,
)
from .semantics import (
    Ineq, KripkeFrame, MegaGuard, QuasiUQ, Statement, UQIneq, valuations,
)


class FOFormula:
    __slots__ = ()

    @functools.cached_property
    def compiled(self):
        """The formula as (run, size, names, preds), compiled on first use
        and kept on this object: run(env) is its truth on a list environment
        of `size` slots, where names and preds give the slot of each free
        name and predicate.  A bound name reads the slot of its nearest
        binder."""
        slots = _Slots()
        run = slots.node(self, {})
        return (run, slots.size, tuple(slots.names.items()),
                tuple(slots.preds.items()))


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


class _VarGen:
    def __init__(self):
        self.count = 0

    def fresh(self) -> str:
        name = f"y{self.count}"
        self.count += 1
        return name


def _label_pairs(s) -> tuple:
    return tuple(sorted(s))


def _guard(x: str, y: str, pairs) -> list:
    """The atoms saying that (x,y) is an edge of r0 and none of the pairs."""
    return [Rel(x, y), *(FONot(FOAnd((Eq(x, v), Eq(y, w))))
                         for (v, w) in pairs)]


# One rule per range of a quantifying connective (`syntax.Connective.range`):
# for the node f translated at x under the deleted pairs e, the names it
# binds, drawn in order, the guard atoms on them, and the point and the
# deleted pairs at which its child is translated.

def _succ(gen, x, e, f):
    y = gen.fresh()
    return (y,), _guard(x, y, e), y, e


def _edge(gen, x, e, f):
    y, z = gen.fresh(), gen.fresh()
    return (y, z), _guard(y, z, e), x, e + ((y, z),)


def _label(gen, x, e, f):
    y = gen.fresh()
    return (y,), _guard(x, y, _label_pairs(f.s)), y, e


def _inv(gen, x, e, f):
    y = gen.fresh()
    return (y,), _guard(y, x, _label_pairs(f.s)), y, e


def _world(gen, x, e, f):
    y = gen.fresh()
    return (y,), [], y, e


def _nom(gen, x, e, f):
    return (f.nom,), [], x, e


RANGES = {"succ": _succ, "edge": _edge, "label": _label, "inv": _inv,
          "world": _world, "nom": _nom}


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
    row = CONNECTIVES[type(f)]
    # exists b. (guard & body), or forall b. (guard -> body)
    binders, guard, point, deleted = RANGES[row.range](gen, x, e, f)
    out = st_formula(f.child, point, deleted, gen)
    exists = row.quantifier == "exists"
    if guard:
        out = FOAnd((*guard, out)) if exists else FOImp(fo_and(guard), out)
    for b in reversed(binders):
        out = FOExists(b, out) if exists else FOForall(b, out)
    return out


def _st_statement(s: Statement, gen: _VarGen) -> FOFormula:
    if isinstance(s, Ineq):
        return FOForall("x", FOImp(
            st_formula(s.lhs, "x", _label_pairs(s.sup), gen),
            st_formula(s.rhs, "x", _label_pairs(s.sub), gen)))
    if isinstance(s, MegaGuard):
        guard = fo_and(_guard(s.m0, s.m1, _label_pairs(s.s)))
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


def eval_fo(frame: KripkeFrame, val: dict, f: FOFormula) -> bool:
    """Truth of f, its free names and predicates read from the valuation."""
    run, size, names, preds = f.compiled
    env = [None] * size
    env[0], env[1] = frame.r0, frame.worlds
    for name, i in names:
        if name in val:
            env[i] = val[name]
        else:
            msg = f"unbound name {name!r}"
            raise FOEvalError(msg)
    for name, i in preds:
        env[i] = val.get(name, 0)
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


def closure(f: FOFormula) -> FOFormula:
    """f with one FOForall per free name, the first sorted name outermost."""
    for name in sorted(free_names(f), reverse=True):
        f = FOForall(name, f)
    return f


def holds_on_frame(frame: KripkeFrame, sentence: FOFormula, vars=None) -> bool:
    """Truth of a sentence on the frame under every valuation of vars, by
    default the predicates of its compiled form, sorted; free names are the
    caller's to close."""
    if vars is None:
        vars = sorted(name for name, _ in sentence.compiled[3])
    return all(eval_fo(frame, val, sentence)
               for val in valuations(frame, vars))


# ---------------------------------------------------------------------------
# simplification

def simplify(f: FOFormula) -> FOFormula:
    """A closed sentence true on exactly the frames where closure(f) is
    true, every domain being non-empty: the negation normal form with each
    nominal removed by the one-point rule, constants folded, quantifiers
    miniscoped and bound variables named x, y, z, ... by depth."""
    simp = _Simplifier()
    g = simp.walk(f, True, {})
    # close as `closure` does, the first sorted name outermost
    for name in sorted(simp.names(g), reverse=True):
        g = simp.quantify(True, name, g)
    return _name_by_depth(g, 0, {})


_TRUE, _FALSE = FOAnd(()), FOOr(())
_LITERALS = (Eq, Rel, Pred, FONot)


class _Simplifier:
    """One bottom-up pass over a formula.  Each node it builds has its
    free names noted at construction, from those of its parts; the table
    holds the node too, so its id is never reused while in use."""

    def __init__(self):
        self.free = {id(_TRUE): (_TRUE, frozenset()),
                     id(_FALSE): (_FALSE, frozenset())}
        self.count = 0

    def note(self, g: FOFormula, free) -> FOFormula:
        self.free[id(g)] = (g, free)
        return g

    def names(self, g: FOFormula) -> frozenset:
        return self.free[id(g)][1]

    def walk(self, f: FOFormula, positive: bool, env: dict) -> FOFormula:
        """f, or its negation, in simplified negation normal form, each
        name read through env; a name not in env stands for itself."""
        t = type(f)
        if t is FONot:
            return self.walk(f.child, not positive, env)
        if t is FOImp:
            return self.junction(not positive, (
                self.walk(f.left, not positive, env),
                self.walk(f.right, positive, env)))
        if t is FOAnd or t is FOOr:
            return self.junction(positive == (t is FOAnd),
                                 [self.walk(p, positive, env) for p in f.parts])
        if t is FOForall or t is FOExists:
            # a fresh name per binder keeps bound variables apart
            var = f"#{self.count}"
            self.count += 1
            body = self.walk(f.body, positive, {**env, f.var: var})
            return self.quantify(positive == (t is FOForall), var, body)
        if t is Pred:
            term = env.get(f.t, f.t)
            atom, free = Pred(f.name, term), frozenset((term,))
        else:
            a, b = env.get(f.a, f.a), env.get(f.b, f.b)
            if t is Eq and a == b:
                return _TRUE if positive else _FALSE
            atom, free = t(a, b), frozenset((a, b))
        return self.note(atom if positive else FONot(atom), free)

    def junction(self, conjunction: bool, parts) -> FOFormula:
        """The flattened conjunction or disjunction of simplified parts,
        without units or repeated literals; a zero absorbs it."""
        kind, dual = (FOAnd, FOOr) if conjunction else (FOOr, FOAnd)
        out, seen, free = [], set(), set()
        for g in parts:
            for h in g.parts if type(g) is kind else (g,):
                if type(h) is dual and not h.parts:
                    return h
                if type(h) in _LITERALS:
                    if h in seen:
                        continue
                    seen.add(h)
                out.append(h)
                free |= self.names(h)
        if len(out) == 1:
            return out[0]
        return self.note(kind(tuple(out)), frozenset(free))

    def quantify(self, forall: bool, var: str, body: FOFormula) -> FOFormula:
        """forall var. body, or exists var. body, over a simplified body."""
        free = self.names(body)
        if var not in free:
            return body
        # forall v (v != t | A) and exists v (v = t & A) are both A[t/v]
        inner, outer = (FOOr, FOAnd) if forall else (FOAnd, FOOr)
        parts = body.parts if type(body) is inner else (body,)
        for k, part in enumerate(parts):
            point = _one_point(part, var, forall)
            if point is not None:
                return self.junction(not forall, [
                    self.substitute(p, var, point)
                    for p in parts[:k] + parts[k + 1:]])
        # forall goes through &, exists through |; parts without var leave
        if type(body) is outer:
            return self.junction(forall, [self.quantify(forall, var, p)
                                          for p in body.parts])
        inside = [p for p in parts if var in self.names(p)]
        if len(inside) < len(parts):
            outside = [p for p in parts if var not in self.names(p)]
            scoped = self.junction(not forall, inside)
            return self.junction(not forall, [
                *outside, self.quantify(forall, var, scoped)])
        node = (FOForall if forall else FOExists)(var, body)
        return self.note(node, free - {var})

    def substitute(self, g: FOFormula, var: str, term: str) -> FOFormula:
        """Simplified g with term for the free var, simplified again; term
        is free where var is, and bound variables are apart, so nothing is
        captured."""
        if var not in self.names(g):
            return g
        t = type(g)
        if t is FOAnd or t is FOOr:
            return self.junction(t is FOAnd, [self.substitute(p, var, term)
                                              for p in g.parts])
        if t is FOForall or t is FOExists:
            return self.quantify(t is FOForall, g.var,
                                 self.substitute(g.body, var, term))
        return self.walk(g, True, {var: term})


def _one_point(literal: FOFormula, var: str, forall: bool):
    """t where literal is var != t under forall, or var = t under exists."""
    if forall:
        if type(literal) is not FONot:
            return None
        literal = literal.child
    if type(literal) is not Eq:
        return None
    if literal.a == var:
        return literal.b
    if literal.b == var:
        return literal.a
    return None


_BOUND_NAMES = ("x", "y", "z")


def _name_by_depth(g: FOFormula, depth: int, names: dict) -> FOFormula:
    t = type(g)
    if t is Eq or t is Rel:
        return t(names[g.a], names[g.b])
    if t is Pred:
        return Pred(g.name, names[g.t])
    if t is FONot:
        return FONot(_name_by_depth(g.child, depth, names))
    if t is FOAnd or t is FOOr:
        return t(tuple(_name_by_depth(p, depth, names) for p in g.parts))
    var = _BOUND_NAMES[depth] if depth < len(_BOUND_NAMES) else f"x{depth}"
    return t(var, _name_by_depth(g.body, depth + 1, {**names, g.var: var}))


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


def as_json(f: FOFormula):
    """The formula as nested JSON values: {key: [names..., children...]}."""
    key, names, kids = _FO_NODES[type(f)]
    return {key: [*names(f), *map(as_json, kids(f))]}


def emit_fo(f: FOFormula, format: str = "text") -> str:
    if format == "json":
        return json.dumps(as_json(f))
    if format in _DIALECTS:
        d = _DIALECTS[format]
        return d["document"].format(_emit(f, d))
    msg = f"unknown format {format!r}"
    raise ValueError(msg)
