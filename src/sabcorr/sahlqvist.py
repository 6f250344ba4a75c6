"""Signed generation trees and the Sahlqvist / definite / inner classifiers.

Signs propagate from the root as the connective table in `syntax` says:
flipped under not and for the first child of imp, kept everywhere else.
An order type maps each variable to '1' or 'd' (for the dual order); a leaf
+p with eps(p)='1' or -p with eps(p)='d' is critical.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .syntax import CONNECTIVES, Formula, eliminate_iff, props_of
from .semantics import Ineq

_OUTER = {
    ("or", "+"), ("and", "+"), ("dia", "+"), ("sdia", "+"), ("not", "+"),
    ("and", "-"), ("or", "-"), ("box", "-"), ("sbox", "-"), ("not", "-"),
    ("imp", "-"),
}

_INNER = {
    ("and", "+"), ("box", "+"), ("sbox", "+"), ("not", "+"),
    ("or", "-"), ("dia", "-"), ("sdia", "-"), ("not", "-"),
}


@dataclass(frozen=True)
class NodeClass:
    is_outer: bool
    is_inner: bool


def classify_node(connective: str, sign: str) -> NodeClass:
    key = (connective, sign)
    return NodeClass(key in _OUTER, key in _INNER)


@dataclass(frozen=True)
class SignedTree:
    label: str
    sign: str
    children: tuple
    formula: Formula


def build_signed_tree(f: Formula, root_sign: str) -> SignedTree:
    row = CONNECTIVES[type(f)]
    kids = row.children(f)
    if kids:
        kids = tuple([build_signed_tree(c, s)
                      for c, s in zip(kids, row.signs[root_sign])])
    return SignedTree(row.label, root_sign, kids, f)


def critical_branches(tree: SignedTree, eps: dict):
    """Yield (variable, branch) for every eps-critical leaf.

    The branch is the leaf-to-root sequence of ancestor nodes, leaf side
    first, excluding the variable leaf itself.
    """
    # ancestors is root-to-leaf; reversed gives leaf-to-root
    def walk(node, ancestors):
        if node.label == "prop":
            name = node.formula.name
            critical_sign = "+" if eps.get(name) == "1" else "-"
            if name in eps and node.sign == critical_sign:
                yield name, tuple(reversed(ancestors))
            return
        for child in node.children:
            yield from walk(child, ancestors + [node])

    yield from walk(tree, [])


def is_excellent_branch(branch) -> bool:
    """branch: leaf-to-root sequence of SignedTree nodes (leaf excluded).

    Excellent = an inner segment on the leaf side followed by an outer
    segment on the root side; every split point is tried.
    """
    classes = [classify_node(n.label, n.sign) for n in branch]
    for k in range(len(classes) + 1):
        if (all(c.is_inner for c in classes[:k])
                and all(c.is_outer for c in classes[k:])):
            return True
    return False


def _signed_trees(ineq: Ineq) -> tuple:
    """The Iff-free signed trees of both sides; no order type is needed."""
    return (build_signed_tree(eliminate_iff(ineq.lhs), "+"),
            build_signed_tree(eliminate_iff(ineq.rhs), "-"))


def all_excellent(trees, eps: dict) -> bool:
    """Every eps-critical branch of the signed trees is excellent."""
    return all(is_excellent_branch(branch) for tree in trees
               for _, branch in critical_branches(tree, eps))


def is_epsilon_sahlqvist(ineq: Ineq, eps: dict) -> bool:
    """eps covers every variable and makes every critical branch excellent."""
    return (props_of(ineq.lhs) | props_of(ineq.rhs) <= eps.keys()
            and all_excellent(_signed_trees(ineq), eps))


def find_order_type(ineq: Ineq):
    """First order type (lexicographic, '1' before 'd') making the
    inequality Sahlqvist, or None."""
    names = sorted(props_of(ineq.lhs) | props_of(ineq.rhs))
    trees = _signed_trees(ineq)
    for values in itertools.product("1d", repeat=len(names)):
        eps = dict(zip(names, values))
        if all_excellent(trees, eps):
            return eps
    return None


def is_definite(tree: SignedTree, eps: dict) -> bool:
    """No +or / -and on any critical branch.

    Those two node shapes are outer-only, so on an excellent branch they can
    only sit in the outer part.
    """
    for _, branch in critical_branches(tree, eps):
        for node in branch:
            if (node.label, node.sign) in {("or", "+"), ("and", "-")}:
                return False
    return True


def is_inner_sahlqvist(tree: SignedTree, eps: dict) -> bool:
    """Every critical branch consists of inner-capable nodes only."""
    for _, branch in critical_branches(tree, eps):
        if not all(classify_node(n.label, n.sign).is_inner for n in branch):
            return False
    return True


def has_critical_occurrence(f: Formula, sign: str, eps: dict) -> bool:
    """True iff the signed tree of f rooted with sign contains a critical
    variable occurrence.  A formula with no critical occurrences is
    eps-dual-uniform."""
    tree = build_signed_tree(f, sign)
    return any(True for _ in critical_branches(tree, eps))


def parse_order_type(spec: str) -> dict:
    """Parse an override such as `p=1,q=d`."""
    eps = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            msg = f"bad order-type entry {part!r}"
            raise ValueError(msg)
        name, value = (x.strip() for x in part.split("=", 1))
        if value not in ("1", "d"):
            msg = f"order-type value must be 1 or d, got {value!r}"
            raise ValueError(msg)
        eps[name] = value
    return eps
