"""Independent output checks for the benchmark.

Nothing here imports `sabcorr`.  It holds:

- a modal evaluator with edge deletion for the generator's formula tuples
  (`gen.py`), giving frame validity on every frame with at most two worlds;
- an evaluator for the JSON form of a first-order correspondent, with free
  names and predicates closed universally;
- a printer and a parser for the two text dialects of that form, `text` and
  `tptp`, driven by one table per dialect.
"""

from __future__ import annotations

import itertools
import re

MAX_CHECK_WORLDS = 2


def frames(max_n=MAX_CHECK_WORLDS):
    """Every frame (n, edges) with 1..max_n worlds."""
    for n in range(1, max_n + 1):
        cells = [(a, b) for a in range(n) for b in range(n)]
        for mask in range(1 << len(cells)):
            yield n, frozenset(c for k, c in enumerate(cells) if mask >> k & 1)


def _subsets(n):
    return [frozenset(w for w in range(n) if mask >> w & 1)
            for mask in range(1 << n)]


# ---------------------------------------------------------------------------
# modal side

def modal_props(f) -> set:
    if f[0] == "p":
        return {f[1]}
    out = set()
    for child in f[1:]:
        if isinstance(child, tuple):
            out |= modal_props(child)
    return out


def holds(edges, val, deleted, w, f) -> bool:
    """Truth of f at world w: [] and <> follow the edges not yet deleted;
    [!] and <!> delete one more of those edges and stay at w."""
    tag = f[0]
    if tag == "p":
        return w in val[f[1]]
    if tag == "top":
        return True
    if tag == "bot":
        return False
    if tag == "not":
        return not holds(edges, val, deleted, w, f[1])
    if tag == "and":
        return holds(edges, val, deleted, w, f[1]) and holds(edges, val, deleted, w, f[2])
    if tag == "or":
        return holds(edges, val, deleted, w, f[1]) or holds(edges, val, deleted, w, f[2])
    if tag == "imp":
        return not holds(edges, val, deleted, w, f[1]) or holds(edges, val, deleted, w, f[2])
    current = edges - deleted
    if tag == "box":
        return all(holds(edges, val, deleted, v, f[1]) for u, v in current if u == w)
    if tag == "dia":
        return any(holds(edges, val, deleted, v, f[1]) for u, v in current if u == w)
    if tag == "sbox":
        return all(holds(edges, val, deleted | {e}, w, f[1]) for e in current)
    if tag == "sdia":
        return any(holds(edges, val, deleted | {e}, w, f[1]) for e in current)
    msg = f"unknown connective {tag!r}"
    raise ValueError(msg)


def modal_valid(n, edges, f) -> bool:
    props = sorted(modal_props(f))
    for choice in itertools.product(_subsets(n), repeat=len(props)):
        val = dict(zip(props, choice))
        if not all(holds(edges, val, frozenset(), w, f) for w in range(n)):
            return False
    return True


# ---------------------------------------------------------------------------
# first-order side, over the JSON form {"eq": [a, b]}, {"r": [a, b]},
# {"pred": [name, t]}, {"not": [f]}, {"and": [...]}, {"or": [...]},
# {"imp": [f, g]}, {"forall": [v, f]}, {"exists": [v, f]}

def _op(node):
    (key, args), = node.items()
    return key, args


def fo_free(node) -> set:
    key, args = _op(node)
    if key in ("eq", "r"):
        return set(args)
    if key == "pred":
        return {args[1]}
    if key in ("forall", "exists"):
        return fo_free(args[1]) - {args[0]}
    out = set()
    for child in args:
        out |= fo_free(child)
    return out


def fo_preds(node) -> set:
    key, args = _op(node)
    if key == "pred":
        return {args[0]}
    if key in ("eq", "r"):
        return set()
    if key in ("forall", "exists"):
        return fo_preds(args[1])
    out = set()
    for child in args:
        out |= fo_preds(child)
    return out


def fo_nodes(node) -> int:
    key, args = _op(node)
    if key in ("eq", "r", "pred"):
        return 1
    if key in ("forall", "exists"):
        return 1 + fo_nodes(args[1])
    return 1 + sum(fo_nodes(child) for child in args)


def fo_quantifier_depth(node) -> int:
    key, args = _op(node)
    if key in ("eq", "r", "pred"):
        return 0
    if key in ("forall", "exists"):
        return 1 + fo_quantifier_depth(args[1])
    return max((fo_quantifier_depth(child) for child in args), default=0)


def fo_eval(node, n, edges, preds, env) -> bool:
    key, args = _op(node)
    if key == "eq":
        return env[args[0]] == env[args[1]]
    if key == "r":
        return (env[args[0]], env[args[1]]) in edges
    if key == "pred":
        return env[args[1]] in preds[args[0]]
    if key == "not":
        return not fo_eval(args[0], n, edges, preds, env)
    if key == "and":
        return all(fo_eval(c, n, edges, preds, env) for c in args)
    if key == "or":
        return any(fo_eval(c, n, edges, preds, env) for c in args)
    if key == "imp":
        return (not fo_eval(args[0], n, edges, preds, env)
                or fo_eval(args[1], n, edges, preds, env))
    var, body = args
    test = all if key == "forall" else any
    return test(fo_eval(body, n, edges, preds, {**env, var: w}) for w in range(n))


def _conjuncts(node):
    key, args = _op(node)
    if key == "and":
        for child in args:
            yield from _conjuncts(child)
    else:
        yield node


def fo_valid(n, edges, node) -> bool:
    """Truth on the frame with free names and predicates closed universally.

    The closure distributes over the top-level conjuncts, so each conjunct
    is closed over its own names only."""
    for part in _conjuncts(node):
        names = sorted(fo_free(part))
        preds = sorted(fo_preds(part))
        for choice in itertools.product(_subsets(n), repeat=len(preds)):
            pval = dict(zip(preds, choice))
            for picks in itertools.product(range(n), repeat=len(names)):
                if not fo_eval(part, n, edges, pval, dict(zip(names, picks))):
                    return False
    return True


def disagreement(formula, fo):
    """The first frame with at most two worlds on which the modal input and
    its correspondent disagree, as (n, sorted edges), or None."""
    for n, edges in frames():
        if modal_valid(n, edges, formula) != fo_valid(n, edges, fo):
            return n, sorted(edges)
    return None


# ---------------------------------------------------------------------------
# the text and TPTP dialects

class Dialect:
    def __init__(self, name, *, forall, exists, neg, neg_parens, imp, true,
                 false, rel, pred, term):
        self.name = name
        self.forall, self.exists = forall, exists
        self.neg, self.neg_parens = neg, neg_parens
        self.imp, self.true, self.false = imp, true, false
        self.rel, self.pred, self.term = rel, pred, term
        literals = [*forall, *exists, neg, imp, true, false, rel, "!=", "=",
                    "(", ")", "&", "|", ","]
        literals = sorted({s.strip() or s for s in literals}, key=len, reverse=True)
        self._token = re.compile(
            r"\s*(?:(?P<pred>" + re.escape(pred) + r"[A-Za-z0-9]+\()"
            r"|(?P<lit>" + "|".join(re.escape(s) for s in literals) + r")"
            r"|(?P<name>[A-Za-z0-9]+))")

    def render(self, node) -> str:
        key, args = _op(node)
        if key == "eq":
            return f"{self.term(args[0])} = {self.term(args[1])}"
        if key == "r":
            return f"{self.rel}{self.term(args[0])},{self.term(args[1])})"
        if key == "pred":
            return f"{self.pred}{args[0]}({self.term(args[1])})"
        if key == "not":
            (child,) = args
            if _op(child)[0] == "eq":
                a, b = _op(child)[1]
                return f"{self.term(a)} != {self.term(b)}"
            inner = self.render(child)
            return self.neg + (f"({inner})" if self.neg_parens else inner)
        if key in ("and", "or"):
            if not args:
                return self.true if key == "and" else self.false
            joiner = " & " if key == "and" else " | "
            return "(" + joiner.join(self.render(c) for c in args) + ")"
        if key == "imp":
            return f"({self.render(args[0])} {self.imp} {self.render(args[1])})"
        head, tail = self.forall if key == "forall" else self.exists
        return f"{head}{self.term(args[0])}{tail}{self.render(args[1])}"

    def parse(self, text: str):
        """Inverse of `render`; raises ValueError on text it cannot read."""
        tokens = []
        pos = 0
        text = text.rstrip()
        while pos < len(text):
            m = self._token.match(text, pos)
            if m is None:
                msg = f"{self.name}: cannot read {text[pos:pos + 20]!r}"
                raise ValueError(msg)
            kind = m.lastgroup
            tokens.append((kind, m.group(kind)))
            pos = m.end()
        tokens.append(("end", ""))
        node, i = self._formula(tokens, 0)
        if tokens[i][0] != "end":
            msg = f"{self.name}: trailing {tokens[i][1]!r}"
            raise ValueError(msg)
        return node

    def _expect(self, tokens, i, lit):
        if tokens[i] != ("lit", lit):
            msg = f"{self.name}: expected {lit!r}, found {tokens[i][1]!r}"
            raise ValueError(msg)
        return i + 1

    def _name(self, tokens, i):
        if tokens[i][0] != "name":
            msg = f"{self.name}: expected a name, found {tokens[i][1]!r}"
            raise ValueError(msg)
        return tokens[i][1].lower(), i + 1

    def _formula(self, tokens, i):
        kind, tok = tokens[i]
        for key, (head, tail) in (("forall", self.forall), ("exists", self.exists)):
            if (kind, tok) == ("lit", head.strip()):
                var, i = self._name(tokens, i + 1)
                i = self._expect(tokens, i, tail.strip())
                body, i = self._formula(tokens, i)
                return {key: [var, body]}, i
        if kind == "pred":
            name, i = self._name(tokens, i + 1)
            i = self._expect(tokens, i, ")")
            return {"pred": [tok[len(self.pred):-1], name]}, i
        if (kind, tok) == ("lit", self.rel):
            a, i = self._name(tokens, i + 1)
            i = self._expect(tokens, i, ",")
            b, i = self._name(tokens, i)
            return {"r": [a, b]}, self._expect(tokens, i, ")")
        if (kind, tok) == ("lit", self.neg):
            if self.neg_parens:
                child, i = self._formula(tokens, self._expect(tokens, i + 1, "("))
                return {"not": [child]}, self._expect(tokens, i, ")")
            child, i = self._formula(tokens, i + 1)
            return {"not": [child]}, i
        if (kind, tok) == ("lit", self.true):
            return {"and": []}, i + 1
        if (kind, tok) == ("lit", self.false):
            return {"or": []}, i + 1
        if (kind, tok) == ("lit", "("):
            first, i = self._formula(tokens, i + 1)
            if tokens[i] == ("lit", self.imp):
                second, i = self._formula(tokens, i + 1)
                return {"imp": [first, second]}, self._expect(tokens, i, ")")
            parts, op = [first], None
            while tokens[i] in (("lit", "&"), ("lit", "|")):
                if op not in (None, tokens[i][1]):
                    msg = f"{self.name}: mixed & and | in one group"
                    raise ValueError(msg)
                op = tokens[i][1]
                part, i = self._formula(tokens, i + 1)
                parts.append(part)
            key = "or" if op == "|" else "and"
            return {key: parts}, self._expect(tokens, i, ")")
        a, i = self._name(tokens, i)
        if tokens[i] == ("lit", "="):
            b, i = self._name(tokens, i + 1)
            return {"eq": [a, b]}, i
        if tokens[i] == ("lit", "!="):
            b, i = self._name(tokens, i + 1)
            return {"not": [{"eq": [a, b]}]}, i
        msg = f"{self.name}: expected = or != after {a!r}"
        raise ValueError(msg)


TEXT = Dialect("text", forall=("forall ", ". "), exists=("exists ", ". "),
               neg="~", neg_parens=False, imp="->", true="true",
               false="false", rel="R(", pred="P_", term=str)
TPTP = Dialect("tptp", forall=("![", "]: "), exists=("?[", "]: "),
               neg="~", neg_parens=True, imp="=>", true="$true",
               false="$false", rel="r(", pred="p_", term=str.upper)

TPTP_HEAD, TPTP_TAIL = "fof(corr, axiom, ", ")."


def render_correspond(out: dict, dialect: Dialect) -> str:
    """The stdout of `correspond --format text|tptp`, rebuilt from the
    parsed stdout of `correspond --format json`."""
    ot = ", ".join(f"{k}={v}" for k, v in sorted(out["order_type"].items()))
    fo = dialect.render(out["fo"])
    if dialect is TPTP:
        fo = TPTP_HEAD + fo + TPTP_TAIL
    return "\n".join([f"order type: {ot or '(empty)'}", *out["quasis"], fo]) + "\n"


def parse_correspond(stdout: str, fmt: str):
    """The correspondent of one successful `correspond` stdout, as JSON."""
    if fmt == "json":
        import json
        return json.loads(stdout)["fo"]
    last = stdout.rstrip("\n").rsplit("\n", 1)[-1]
    if fmt == "tptp":
        if not (last.startswith(TPTP_HEAD) and last.endswith(TPTP_TAIL)):
            msg = f"tptp: not an fof line: {last[:40]!r}"
            raise ValueError(msg)
        return TPTP.parse(last[len(TPTP_HEAD):-len(TPTP_TAIL)])
    return TEXT.parse(last)
