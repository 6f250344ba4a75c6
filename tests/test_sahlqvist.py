"""Signed-tree construction, node table, branch analysis and classifiers."""

import pytest

from sabcorr.syntax import (
    And, Box, Dia, Iff, Imp, Not, Or, Prop, SBox, SDia, Top, parse_inequality,
)
from sabcorr.semantics import Ineq
from sabcorr.sahlqvist import (
    build_signed_tree, classify_node, critical_branches, find_order_type,
    has_critical_occurrence, is_definite, is_epsilon_sahlqvist,
    is_excellent_branch, is_inner_sahlqvist, parse_order_type,
)

p, q = Prop("p"), Prop("q")


def ineq(text):
    lhs, rhs = parse_inequality(text)
    return Ineq(lhs, rhs)


# ---------------------------------------------------------------------------
# the node table

# (connective, sign) -> (is_outer, is_inner), all 16 entries
_TABLE = {
    ("or", "+"): (True, False),
    ("and", "+"): (True, True),
    ("dia", "+"): (True, False),
    ("sdia", "+"): (True, False),
    ("not", "+"): (True, True),
    ("box", "+"): (False, True),
    ("sbox", "+"): (False, True),
    ("imp", "+"): (False, False),
    ("or", "-"): (True, True),
    ("and", "-"): (True, False),
    ("dia", "-"): (False, True),
    ("sdia", "-"): (False, True),
    ("not", "-"): (True, True),
    ("box", "-"): (True, False),
    ("sbox", "-"): (True, False),
    ("imp", "-"): (True, False),
}


def test_node_table_complete():
    for (conn, sign), (outer, inner) in _TABLE.items():
        cls = classify_node(conn, sign)
        assert (cls.is_outer, cls.is_inner) == (outer, inner), (conn, sign)


def test_expanded_connectives_are_neither():
    for conn in ("lbox", "ldia", "gbox", "gdia", "forallnom"):
        cls = classify_node(conn, "+")
        assert not cls.is_outer and not cls.is_inner


# ---------------------------------------------------------------------------
# signed trees

def test_build_signed_tree_examples():
    t = build_signed_tree(Imp(p, q), "+")
    assert t.label == "imp" and t.sign == "+"
    assert [(c.label, c.sign) for c in t.children] == \
        [("prop", "-"), ("prop", "+")]
    t2 = build_signed_tree(Not(p), "-")
    assert (t2.label, t2.sign) == ("not", "-")
    assert (t2.children[0].label, t2.children[0].sign) == ("prop", "+")
    t3 = build_signed_tree(SDia(p), "+")
    assert (t3.label, t3.sign) == ("sdia", "+")
    assert t3.children[0].sign == "+"


def _recompute_signs(tree):
    """Recompute every node's sign from the root and compare."""
    def walk(node):
        if node.label == "not":
            expect = "-" if node.sign == "+" else "+"
            assert node.children[0].sign == expect
        elif node.label == "imp":
            first = "-" if node.sign == "+" else "+"
            assert node.children[0].sign == first
            assert node.children[1].sign == node.sign
        else:
            for c in node.children:
                assert c.sign == node.sign
        for c in node.children:
            walk(c)
    walk(tree)


def test_sign_correctness():
    for f in (Imp(Not(p), Box(Or(p, q))), SBox(Imp(p, SDia(Not(q)))),
              And(Dia(p), Not(Imp(q, p)))):
        for sign in ("+", "-"):
            _recompute_signs(build_signed_tree(f, sign))


# ---------------------------------------------------------------------------
# branches

def oracle_excellent(branch):
    """Independent formulation: a leaf-to-root branch is excellent iff no
    non-inner node sits at or before a non-outer node."""
    classes = [classify_node(n.label, n.sign) for n in branch]
    for a in range(len(classes)):
        for b in range(a, len(classes)):
            if not classes[a].is_inner and not classes[b].is_outer:
                return False
    return True


def _branch(f, sign, eps, var="p"):
    tree = build_signed_tree(f, sign)
    found = [b for name, b in critical_branches(tree, eps) if name == var]
    assert len(found) == 1
    return found[0]


def test_excellent_branch_examples():
    eps = {"p": "1"}
    b1 = _branch(Box(p), "+", eps)
    assert [n.label for n in b1] == ["box"]
    assert is_excellent_branch(b1)
    b2 = _branch(SDia(Box(p)), "+", eps)
    assert [n.label for n in b2] == ["box", "sdia"]
    assert is_excellent_branch(b2)
    b3 = _branch(Box(Dia(p)), "+", eps)
    assert [n.label for n in b3] == ["dia", "box"]
    assert not is_excellent_branch(b3)


def test_excellent_matches_oracle_on_many_branches():
    eps = {"p": "1", "q": "1"}
    shapes = [
        Box(p), Dia(p), SDia(Box(p)), Box(Dia(p)), Dia(Box(p)),
        Not(Not(p)), And(Box(p), q), Or(Dia(p), q), SBox(SDia(p)),
        Dia(And(Box(p), Not(q))), Box(Box(Dia(p))), Not(Imp(p, q)),
        SDia(SBox(And(p, q))), Box(Or(p, q)), Imp(Not(p), q),
    ]
    for f in shapes:
        for sign in ("+", "-"):
            tree = build_signed_tree(f, sign)
            for _, branch in critical_branches(tree, eps):
                assert is_excellent_branch(branch) == \
                    oracle_excellent(branch), (f, sign, branch)


def test_critical_branch_selection():
    eps = {"p": "1", "q": "d"}
    tree = build_signed_tree(Imp(p, q), "+")  # -p, +q: neither critical
    assert list(critical_branches(tree, eps)) == []
    tree2 = build_signed_tree(And(p, Not(q)), "+")  # +p and -q critical
    assert sorted(name for name, _ in critical_branches(tree2, eps)) == \
        ["p", "q"]


# ---------------------------------------------------------------------------
# classifiers

def test_is_epsilon_sahlqvist_examples():
    assert is_epsilon_sahlqvist(ineq("[]p <= p"), {"p": "1"})
    assert is_epsilon_sahlqvist(ineq("<!>[]p <= []<!>p"), {"p": "1"})
    assert not is_epsilon_sahlqvist(ineq("[]<>p <= <>[]p"), {"p": "1"})
    assert not is_epsilon_sahlqvist(ineq("[]<>p <= <>[]p"), {"p": "d"})


def test_order_type_must_cover_every_variable():
    # an unassigned variable has no critical leaf, so the trees alone would
    # pass; run_alba rejects such an order type at stage classify
    assert not is_epsilon_sahlqvist(ineq("[]p <= p"), {"q": "1"})
    assert not is_epsilon_sahlqvist(ineq("[]<>p <= <>[]p"), {})
    assert is_epsilon_sahlqvist(Ineq(Top(), SDia(Top())), {})


def test_iff_is_eliminated_before_classification():
    # p <-> q expands to implications; critical leaves then sit under a
    # +imp node, which is neither inner nor outer, so no order type works
    assert not is_epsilon_sahlqvist(Ineq(Iff(p, q), Top()),
                                    {"p": "1", "q": "1"})
    assert find_order_type(Ineq(Iff(p, q), Top())) is None


def test_find_order_type():
    assert find_order_type(ineq("<>p <= p")) == {"p": "1"}
    assert find_order_type(ineq("[]<>p <= <>[]p")) is None
    assert find_order_type(Ineq(Top(), SDia(Top()))) == {}
    assert find_order_type(ineq("p <= <>p")) == {"p": "1"}
    # p <= <>[]p is Sahlqvist only with the first lexicographic choice 1
    assert find_order_type(ineq("p <= <>[]p")) == {"p": "1"}


def test_definite_and_inner():
    eps = {"p": "1", "q": "1"}
    t = build_signed_tree(Or(Dia(p), Dia(q)), "+")
    assert not is_definite(t, eps)
    t2 = build_signed_tree(Dia(p), "+")
    assert is_definite(t2, eps)
    assert not is_inner_sahlqvist(t2, eps)
    t3 = build_signed_tree(Box(p), "+")
    assert is_inner_sahlqvist(t3, eps)
    # non-critical branches are unconstrained
    t4 = build_signed_tree(Or(Dia(p), Dia(q)), "+")
    assert is_definite(t4, {"p": "d", "q": "d"})


def test_uniformity_detection():
    eps = {"p": "1"}
    assert has_critical_occurrence(p, "+", eps)
    assert not has_critical_occurrence(p, "-", eps)
    assert has_critical_occurrence(Not(p), "-", eps)
    assert not has_critical_occurrence(Not(p), "+", eps)
    assert not has_critical_occurrence(Top(), "+", eps)
    assert has_critical_occurrence(Box(Imp(p, q)), "+", {"p": "d", "q": "x"})


def test_monotone_consistency_on_absent_variables():
    base = ineq("[]p <= p")
    for val in ("1", "d"):
        assert is_epsilon_sahlqvist(base, {"p": "1", "r": val})
    bad = ineq("[]<>p <= <>[]p")
    for val in ("1", "d"):
        assert not is_epsilon_sahlqvist(bad, {"p": "1", "r": val})


def test_parse_order_type():
    assert parse_order_type("p=1,q=d") == {"p": "1", "q": "d"}
    assert parse_order_type("") == {}
    with pytest.raises(ValueError):
        parse_order_type("p=2")
    with pytest.raises(ValueError):
        parse_order_type("p")
