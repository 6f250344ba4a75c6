"""Abstract syntax, the connective table, parsing, printing and structural
queries.

The parser accepts the base sabotage modal language only.  The expanded
constructors (nominals, labeled modalities, inverses, global modalities,
nominal quantifiers) are produced internally by the rewrite engine and are
printable but not parseable; the parser rejects the nominal names i0, i1,
..., so the engine issues them in order without reading its input for
them.

`CONNECTIVES` is the one place that says what each node class is: its label
in signed generation trees, the sign of each child, the signs at which it
is an outer or an inner node, how it is printed and parsed, and, for a
modality or a nominal quantifier, its quantifier and the range it
quantifies over.  Adding a connective means adding its class and
its row here; a new range also needs its translation rule in `fol.RANGES`,
and a new range in the base language its branch in `semantics.extension`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields

# An EdgeLabelSet is a frozenset of (nominal, nominal) pairs.  Order inside a
# pair is significant (directed edge); distinct pairs may denote the same
# concrete edge.
EdgeLabelSet = frozenset

EMPTY_EDGES: EdgeLabelSet = frozenset()


class Formula:
    """Base class for all formula constructors."""

    __slots__ = ()


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Prop(Formula):
    name: str


@dataclass(frozen=True)
class Nom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Imp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Box(Formula):
    child: Formula


@dataclass(frozen=True)
class Dia(Formula):
    child: Formula


@dataclass(frozen=True)
class SBox(Formula):
    """[!] : after every single deletion of a current edge."""

    child: Formula


@dataclass(frozen=True)
class SDia(Formula):
    """<!> : after some single deletion of a current edge."""

    child: Formula


@dataclass(frozen=True)
class LBox(Formula):
    """box^S : universal over r0 minus the edges labeled by S."""

    s: EdgeLabelSet
    child: Formula


@dataclass(frozen=True)
class LDia(Formula):
    s: EdgeLabelSet
    child: Formula


@dataclass(frozen=True)
class InvLBox(Formula):
    """inv-box^S : universal over the converse of r0 minus S."""

    s: EdgeLabelSet
    child: Formula


@dataclass(frozen=True)
class InvLDia(Formula):
    s: EdgeLabelSet
    child: Formula


@dataclass(frozen=True)
class GBox(Formula):
    """A : global universal modality."""

    child: Formula


@dataclass(frozen=True)
class ForallNom(Formula):
    nom: str
    child: Formula


@dataclass(frozen=True)
class ExistsNom(Formula):
    nom: str
    child: Formula


# ---------------------------------------------------------------------------
# the connective table

_FLIP = {"+": "-", "-": "+"}

# Binding strength of the operand of a prefix operator; infix connectives
# bind from 0 (loosest) up to PREFIX - 1.
PREFIX = 4

# Child getters by arity: a unary node keeps its child in `child`, a binary
# one in `left` and `right`.
_CHILDREN = (lambda f: (), lambda f: (f.child,), lambda f: (f.left, f.right))


class Connective:
    """One row of the connective table.

    label: the node's name in the critical branches `classify` reports.
    signs: per sign of the node, the signs of its children; in the row,
    '=' keeps the parent's sign and '~' flips it.
    outer, inner: the signs at which the node is outer (may sit on the
    root side of an excellent branch) and inner (may sit on its leaf
    side); empty for nodes that are neither, which no critical branch of
    a Sahlqvist inequality crosses.
    token: what the parser reads for the node, if it is in the base
    language: a constant, a prefix operator or an infix symbol.
    prec, right_assoc: the binding strength and grouping of a binary node,
    which is printed and parsed infix.
    head: for any other node, the text printed before its child, as a
    function of the node; a string stands for itself, and the default is
    the token.
    quantifier, range: given together as `quantifies` by a modality or a
    nominal quantifier, 'exists' or 'forall' and the name of the points
    it quantifies over (succ, edge, label, inv, world, nom); per range,
    `fol.RANGES` gives its standard translation, and `semantics.extension`
    reads the base ranges succ and edge, one branch each, as the union of
    the child's masks over the range.  None for other nodes.
    children, rebuild: read the children of a node, and copy a node with
    new children.
    """

    __slots__ = ("cls", "label", "signs", "outer", "inner", "token", "prec",
                 "right_assoc", "head", "quantifier", "range", "children",
                 "rebuild")

    def __init__(self, cls, label, signs="", *, outer="", inner="",
                 token=None, prec=PREFIX, right_assoc=False, head=None,
                 quantifies=(None, None)):
        self.cls = cls
        self.label = label
        self.signs = {s: tuple(s if c == "=" else _FLIP[s] for c in signs)
                      for s in _FLIP}
        self.outer = outer
        self.inner = inner
        self.token = token
        self.prec = prec
        self.right_assoc = right_assoc
        head = token if head is None else head
        self.head = head if callable(head) else (lambda f: head)
        self.quantifier, self.range = quantifies
        self.children = _CHILDREN[len(signs)]
        names = [fl.name for fl in fields(cls)]
        if len(names) > len(signs):  # an edge label set or a binder first
            self.rebuild = lambda f, new: cls(getattr(f, names[0]), *new)
        else:
            self.rebuild = lambda f, new: cls(*new)


def _labeled(name):
    return lambda f: f"{name}^{print_edge_set(f.s)} "


CONNECTIVES = {row.cls: row for row in (
    Connective(Bot, "bot", token="bot"),
    Connective(Top, "top", token="top"),
    Connective(Prop, "prop", head=lambda f: f.name),
    Connective(Nom, "nom", head=lambda f: f.name),
    Connective(Iff, "iff", "==", token="<->", prec=0, right_assoc=True),
    Connective(Imp, "imp", "~=", outer="-", token="->", prec=1,
               right_assoc=True),
    Connective(Or, "or", "==", outer="+-", inner="-", token="|", prec=2),
    Connective(And, "and", "==", outer="+-", inner="+", token="&", prec=3),
    Connective(Not, "not", "~", outer="+-", inner="+-", token="~"),
    Connective(Dia, "dia", "=", outer="+", inner="-", token="<>",
               quantifies=("exists", "succ")),
    Connective(Box, "box", "=", outer="-", inner="+", token="[]",
               quantifies=("forall", "succ")),
    Connective(SDia, "sdia", "=", outer="+", inner="-", token="<!>",
               quantifies=("exists", "edge")),
    Connective(SBox, "sbox", "=", outer="-", inner="+", token="[!]",
               quantifies=("forall", "edge")),
    Connective(LDia, "ldia", "=", head=_labeled("dia"),
               quantifies=("exists", "label")),
    Connective(LBox, "lbox", "=", head=_labeled("box"),
               quantifies=("forall", "label")),
    Connective(InvLDia, "inv-ldia", "=", head=_labeled("inv-dia"),
               quantifies=("exists", "inv")),
    Connective(InvLBox, "inv-lbox", "=", head=_labeled("inv-box"),
               quantifies=("forall", "inv")),
    Connective(GBox, "gbox", "=", head="A ", quantifies=("forall", "world")),
    Connective(ForallNom, "forallnom", "=",
               head=lambda f: f"forall {f.nom}. ",
               quantifies=("forall", "nom")),
    Connective(ExistsNom, "existsnom", "=",
               head=lambda f: f"exists {f.nom}. ",
               quantifies=("exists", "nom")),
)}


# Ranges that read the current relation.
_CONTEXTUAL = ("succ", "edge")


def children(f: Formula) -> tuple:
    return CONNECTIVES[type(f)].children(f)


def _rebuild(f: Formula, kids: tuple) -> Formula:
    return CONNECTIVES[type(f)].rebuild(f, kids) if kids else f


# ---------------------------------------------------------------------------
# parsing

class ParseError(ValueError):
    def __init__(self, message: str, position: int, expected=()):
        super().__init__(f"{message} at position {position}")
        self.position = position
        self.expected = tuple(expected)


def _parsed(arity):
    return {row.token: cls for cls, row in CONNECTIVES.items()
            if row.token and len(row.signs["+"]) == arity}


_CONSTANTS, _PREFIX_OPS = _parsed(0), _parsed(1)
# (symbol, class, right-associative), loosest first
_INFIX = sorted(((sym, cls, CONNECTIVES[cls].right_assoc)
                 for sym, cls in _parsed(2).items()),
                key=lambda op: CONNECTIVES[op[1]].prec)
# longest first, so that a symbol is never read as a prefix of a longer one
_SYMBOLS = sorted([op for op, _, _ in _INFIX] + list(_PREFIX_OPS)
                  + ["<=", "(", ")"], key=len, reverse=True)
_IDENT_RE = re.compile(r"[a-z][A-Za-z0-9]*")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, pos):
                tokens.append((sym, pos))
                pos += len(sym)
                break
        else:
            m = _IDENT_RE.match(text, pos)
            if m is None:
                raise ParseError(f"unexpected character {ch!r}", pos)
            tokens.append(("ident:" + m.group(), pos))
            pos = m.end()
    tokens.append(("$end", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.idx = 0

    def peek(self) -> str:
        return self.tokens[self.idx][0]

    def pos(self) -> int:
        return self.tokens[self.idx][1]

    def advance(self) -> str:
        tok = self.tokens[self.idx][0]
        self.idx += 1
        return tok

    def expect(self, tok: str):
        if self.peek() != tok:
            raise ParseError(f"expected {tok!r}, found {self.peek()!r}",
                             self.pos(), expected=(tok,))
        self.advance()

    def formula(self, level: int = 0) -> Formula:
        """A formula whose infix connectives bind at `level` or tighter."""
        if level == len(_INFIX):
            return self.unary()
        sym, cls, right_assoc = _INFIX[level]
        left = self.formula(level + 1)
        while self.peek() == sym:
            self.advance()
            if right_assoc:
                return cls(left, self.formula(level))
            left = cls(left, self.formula(level + 1))
        return left

    def unary(self) -> Formula:
        cls = _PREFIX_OPS.get(self.peek())
        if cls is None:
            return self.atom()
        self.advance()
        return cls(self.unary())

    def atom(self) -> Formula:
        tok = self.peek()
        if tok == "(":
            self.advance()
            f = self.formula()
            self.expect(")")
            return f
        if tok.startswith("ident:"):
            name = tok[len("ident:"):]
            if name in _CONSTANTS:
                self.advance()
                return _CONSTANTS[name]()
            if name[0] == "i" and len(name) > 1 and name[1].isdigit():
                raise ParseError(
                    f"identifier {name!r} is reserved for nominals", self.pos())
            self.advance()
            return Prop(name)
        raise ParseError(f"unexpected token {tok!r}", self.pos(),
                         expected=("bot", "top", "ident", "(", "~"))


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    f = p.formula()
    p.expect("$end")
    return f


def parse_inequality(text: str):
    """Parse `phi <= psi`, or a bare `phi -> psi` read as phi <= psi.

    A bare formula phi without a top-level implication is read as top <= phi.
    Returns a (lhs, rhs) pair of formulas.
    """
    p = _Parser(text)
    lhs = p.formula()
    if p.peek() == "<=":
        p.advance()
        rhs = p.formula()
        p.expect("$end")
        return lhs, rhs
    p.expect("$end")
    if isinstance(lhs, Imp):
        return lhs.left, lhs.right
    return Top(), lhs


# ---------------------------------------------------------------------------
# printing

def print_edge_set(s: EdgeLabelSet) -> str:
    pairs = ",".join(f"({a},{b})" for a, b in sorted(s))
    return "{" + pairs + "}"


def _print(f: Formula, prec: int) -> str:
    row = CONNECTIVES[type(f)]
    kids = row.children(f)
    if len(kids) < 2:
        head = row.head(f)
        return head + _print(kids[0], PREFIX) if kids else head
    tight = row.prec + 1
    left, right = ((tight, row.prec) if row.right_assoc
                   else (row.prec, tight))
    text = f"{_print(kids[0], left)} {row.token} {_print(kids[1], right)}"
    return f"({text})" if prec > row.prec else text


def print_formula(f: Formula) -> str:
    return _print(f, 0)


# ---------------------------------------------------------------------------
# structural queries

def props_of(f: Formula) -> frozenset:
    out = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Prop):
            out.add(g.name)
        stack.extend(children(g))
    return frozenset(out)


def occurrence_signs(f: Formula, sign: str) -> dict:
    """Map each variable of f signed `sign` to the signs of its
    occurrences, read off the connective table; both children of Iff
    carry both signs, as either side of an equivalence is both an
    antecedent and a consequent."""
    out = {}
    stack = [(f, sign)]
    while stack:
        g, s = stack.pop()
        if type(g) is Prop:
            out.setdefault(g.name, set()).add(s)
        elif type(g) is Iff:
            stack += [(c, t) for c in (g.left, g.right) for t in "+-"]
        else:
            row = CONNECTIVES[type(g)]
            stack += zip(row.children(g), row.signs[s])
    return out


def is_fixed(f: Formula) -> bool:
    """True iff f is pure and context-free: it has no propositional
    variable and none of the contextual connectives [] <> [!] <!>, so its
    value depends neither on a valuation nor on the deletion context."""
    stack = [f]
    while stack:
        g = stack.pop()
        row = CONNECTIVES[type(g)]
        if row.cls is Prop or row.range in _CONTEXTUAL:
            return False
        stack.extend(row.children(g))
    return True


def eliminate_iff(f: Formula) -> Formula:
    if isinstance(f, Iff):
        left = eliminate_iff(f.left)
        right = eliminate_iff(f.right)
        return And(Imp(left, right), Imp(right, left))
    return _rebuild(f, tuple(eliminate_iff(c) for c in children(f)))


def substitute_prop(f: Formula, name: str, g: Formula) -> Formula:
    if isinstance(f, Prop) and f.name == name:
        return g
    kids = children(f)
    if not kids:
        return f
    return _rebuild(f, tuple(substitute_prop(c, name, g) for c in kids))

