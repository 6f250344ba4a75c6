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
import itertools
import json
import operator
from collections import defaultdict, namedtuple
from dataclasses import dataclass

from .syntax import (
    And, Bot, Formula, Iff, Imp, Nom, Not, Or, Prop, Top, CONNECTIVES,
)
from .semantics import (
    Ineq, MegaGuard, QuasiUQ, Statement, UQIneq, value_of,
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


def _guard(x: str, y: str, pairs) -> list:
    """The atoms saying that (x,y) is an edge of r0 and none of the pairs."""
    return [Rel(x, y), *(FONot(FOAnd((Eq(x, v), Eq(y, w))))
                         for (v, w) in pairs)]


# One rule per range of a quantifying connective (`syntax.Connective.range`):
# for the node f translated at x under the deleted pairs e, the names it
# binds, drawn in order, the guard atoms on them, and the point and the
# deleted pairs at which its child is translated.

def _succ(gen, x, e, f):
    y = next(gen)
    return (y,), _guard(x, y, e), y, e


def _edge(gen, x, e, f):
    y, z = next(gen), next(gen)
    return (y, z), _guard(y, z, e), x, e + ((y, z),)


def _label(gen, x, e, f):
    y = next(gen)
    return (y,), _guard(x, y, tuple(sorted(f.s))), y, e


def _inv(gen, x, e, f):
    y = next(gen)
    return (y,), _guard(y, x, tuple(sorted(f.s))), y, e


def _world(gen, x, e, f):
    y = next(gen)
    return (y,), [], y, e


def _nom(gen, x, e, f):
    return (f.nom,), [], x, e


RANGES = {"succ": _succ, "edge": _edge, "label": _label, "inv": _inv,
          "world": _world, "nom": _nom}

# The binary connectives, from the translations of their two sides.
_BINARY = {And: lambda a, b: FOAnd((a, b)), Or: lambda a, b: FOOr((a, b)),
           Imp: FOImp, Iff: lambda a, b: FOAnd((FOImp(a, b), FOImp(b, a)))}


def st_formula(f: Formula, x: str, e: tuple, gen) -> FOFormula:
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
    if type(f) in _BINARY:
        # each side is translated once, the left first
        return _BINARY[type(f)](st_formula(f.left, x, e, gen),
                                st_formula(f.right, x, e, gen))
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


def _st_statement(s: Statement, gen) -> FOFormula:
    if isinstance(s, Ineq):
        return FOForall("x", FOImp(
            st_formula(s.lhs, "x", tuple(sorted(s.sup)), gen),
            st_formula(s.rhs, "x", tuple(sorted(s.sub)), gen)))
    if isinstance(s, MegaGuard):
        guard = fo_and(_guard(s.m0, s.m1, tuple(sorted(s.s))))
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
    return _st_statement(s, map("y{}".format, itertools.count()))


def correspondent(quasis) -> FOFormula:
    return fo_and([st_statement(q) for q in quasis])


# ---------------------------------------------------------------------------
# evaluation

# Evaluation reads every frame of one size at once.  A subformula's table
# is (names, masks): names are its free names that a quantifier above it
# binds, sorted, and masks holds one int per assignment of them, the first
# name varying slowest, with bit k set where it holds on frame k.  A mask is
# read as an unbounded bit string, so every frame is -1 and negation is ~.
# Each subformula costs n^len(names) masks, whatever its quantifier depth.
_Frames = namedtuple("_Frames", "n cells val")


def _atom(frames, bound, terms, truth):
    """The table of an atom on terms; truth gives its mask at their
    worlds, read from the valuation where no quantifier binds them."""
    names = tuple(sorted(set(terms) & bound))
    fixed = {t: value_of(frames.val, t) for t in terms if t not in bound}
    return names, [
        truth(*({**fixed, **dict(zip(names, worlds))}[t] for t in terms))
        for worlds in itertools.product(range(frames.n), repeat=len(names))]


def _spread(n: int, table, names: tuple) -> list:
    """The masks of table over the assignments of names, which include its
    own."""
    own, masks = table
    index = [0]
    for name in names:
        stride = n ** (len(own) - 1 - own.index(name)) if name in own else 0
        index = [i + w * stride for i in index for w in range(n)]
    return [masks[i] for i in index]


# Each connective's op on its parts' masks; a quantifier's folds its variable.
_OPS = {
    FONot: operator.invert,
    FOAnd: lambda *ms: functools.reduce(operator.and_, ms, -1),
    FOOr: lambda *ms: functools.reduce(operator.or_, ms, 0),
    FOImp: lambda a, b: ~a | b,
    FOForall: operator.and_,
    FOExists: operator.or_,
}


def _table(frames: _Frames, bound: frozenset, f: FOFormula):
    """The table of f; quantifiers above it bind the names in bound."""
    t = type(f)
    if t is Eq:  # every frame or none
        return _atom(frames, bound, (f.a, f.b), lambda a, b: -(a == b))
    if t is Rel:
        return _atom(frames, bound, (f.a, f.b),
                     lambda a, b: frames.cells.get((a, b), 0))
    if t is Pred:
        return _atom(frames, bound, (f.t,), lambda w: (
            -1 if value_of(frames.val, f.name) >> w & 1 else 0))
    op = _OPS[t]
    if t is FOForall or t is FOExists:
        # no domain is empty, so a vacuous binder keeps the body's table
        names, masks = _table(frames, bound | {f.var}, f.body)
        if f.var not in names:
            return names, masks
        k = names.index(f.var)
        inner = frames.n ** (len(names) - k - 1)
        block = inner * frames.n
        return names[:k] + names[k + 1:], [
            functools.reduce(op, masks[start + lo:start + block:inner])
            for start in range(0, len(masks), block) for lo in range(inner)]
    # op across the parts' masks, spread over the union of their names
    tables = [_table(frames, bound, g) for g in _fo_children(f)]
    names = tuple(sorted(set().union(*(own for own, _ in tables))))
    columns = [_spread(frames.n, table, names) for table in tables]
    return names, [op(*(column[i] for column in columns))
                   for i in range(frames.n ** len(names))]


def eval_fo(frames, val: dict, f: FOFormula) -> int:
    """The mask of the frames where f holds, frame k at bit k.  The frames
    are at least one and have one size; f's free names and predicates are
    read from the valuation."""
    (n,) = {frame.n for frame in frames}
    cells = defaultdict(int)
    for k, frame in enumerate(frames):
        for cell in frame.r0:
            cells[cell] |= 1 << k
    _, (mask,) = _table(_Frames(n, cells, val), frozenset(), f)
    return mask & (1 << len(frames)) - 1


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


def holds_on_frame(frames, sentence: FOFormula) -> int:
    """The mask of the frames, all of one size, where the sentence holds,
    frame k at bit k.  It has no free name and reads no predicate."""
    return eval_fo(frames, {}, sentence)


# ---------------------------------------------------------------------------
# simplification

def simplify(f: FOFormula) -> FOFormula:
    """A closed sentence true on exactly the frames where f holds under
    every assignment of its free names, every domain being non-empty: the
    negation normal form with each nominal removed by the one-point rule,
    constants folded, quantifiers miniscoped and bound variables named x,
    y, z, ... by depth."""
    simp = _Simplifier()
    g = simp.walk(f, True, {})
    # bind each free name universally, the first sorted name outermost
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
    if isinstance(f, (FOAnd, FOOr)):
        conjunction = isinstance(f, FOAnd)
        if not f.parts:
            return d["true" if conjunction else "false"]
        join = " & " if conjunction else " | "
        return "(" + join.join(_emit(p, d) for p in f.parts) + ")"
    if isinstance(f, FOImp):
        return f"({_emit(f.left, d)} {d['imp']} {_emit(f.right, d)})"
    if isinstance(f, (FOForall, FOExists)):
        # the dialect's binder is under the node's JSON key
        binder = d[_FO_NODES[type(f)][0]]
        return binder.format(term(f.var)) + _emit(f.body, d)
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
