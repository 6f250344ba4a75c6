"""The node table's outer and inner columns, signs and critical branches,
branch analysis, the classifiers and the order-type search."""

import itertools
import random

import pytest

from sabcorr.syntax import (
    CONNECTIVES, And, Bot, Box, Dia, Iff, Imp, Ineq, Not, Or, Prop, SBox, SDia,
    Top, parse_inequality, props_of,
)
from sabcorr.sahlqvist import (
    JOIN, critical_branches, find_order_type, has_critical_occurrence,
    is_definite, is_epsilon_sahlqvist, is_excellent_branch, is_inner_sahlqvist,
    parse_order_type,
)
from sabcorr.alba import _DISTRIBUTED
from test_golden import _bench_module

p, q, r = Prop("p"), Prop("q"), Prop("r")


def ineq(text):
    lhs, rhs = parse_inequality(text)
    return Ineq(lhs, rhs)


# ---------------------------------------------------------------------------
# the node table

_ROWS = {row.label: row for row in CONNECTIVES.values()}

# (label, sign) -> (is_outer, is_inner), all 16 entries
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
    for (label, sign), (outer, inner) in _TABLE.items():
        row = _ROWS[label]
        assert (sign in row.outer, sign in row.inner) == (outer, inner), \
            (label, sign)


def test_expanded_connectives_are_neither():
    neither = {label for label in _ROWS} - {label for label, _ in _TABLE}
    assert {"lbox", "ldia", "inv-lbox", "gbox", "forallnom", "iff"} <= neither
    for label in neither:
        assert _ROWS[label].outer == _ROWS[label].inner == "", label


def test_distribution_reads_the_outer_column():
    assert JOIN == {"+": Or, "-": And}
    assert _DISTRIBUTED == {"+": {Dia, SDia, Not, And},
                            "-": {Box, SBox, Not, Or, Imp}}


# ---------------------------------------------------------------------------
# signs, read through the critical branches

def _leaves(f, sign):
    """Sorted (variable, leaf sign, branch) for every variable leaf of f
    signed `sign`, the branch as signed labels, leaf side first.  Every
    positive leaf is critical when all variables are '1', every negative
    one when all are 'd'."""
    out = []
    for value, leaf_sign in (("1", "+"), ("d", "-")):
        eps = dict.fromkeys(props_of(f), value)
        out += [(name, leaf_sign, tuple(f"{s}{row.label}" for row, s in branch))
                for name, branch in critical_branches(f, sign, eps)]
    return sorted(out)


_LABELS = {Not: "not", And: "and", Or: "or", Imp: "imp", Box: "box",
           Dia: "dia", SBox: "sbox", SDia: "sdia"}
_FLIP = {"+": "-", "-": "+"}


def _oracle_leaves(f, sign, branch=()):
    """The same, from the definition rather than the table: the sign flips
    under not and for the first child of imp and is kept everywhere else."""
    if isinstance(f, Prop):
        return [(f.name, sign, branch)]
    if isinstance(f, (Top, Bot)):
        return []
    branch = (sign + _LABELS[type(f)], *branch)
    if isinstance(f, Not):
        return _oracle_leaves(f.child, _FLIP[sign], branch)
    if isinstance(f, Imp):
        return (_oracle_leaves(f.left, _FLIP[sign], branch)
                + _oracle_leaves(f.right, sign, branch))
    if isinstance(f, (And, Or)):
        return (_oracle_leaves(f.left, sign, branch)
                + _oracle_leaves(f.right, sign, branch))
    return _oracle_leaves(f.child, sign, branch)


def test_signed_leaf_examples():
    assert _leaves(Imp(p, q), "+") == [("p", "-", ("+imp",)),
                                       ("q", "+", ("+imp",))]
    assert _leaves(Not(p), "-") == [("p", "+", ("-not",))]
    assert _leaves(SDia(p), "+") == [("p", "+", ("+sdia",))]
    assert _leaves(p, "-") == [("p", "-", ())]


def _rand_formula(rng, depth):
    """A random base formula over p, q, r, <-> included."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice((p, q, r, Top(), Bot()))
    cls = rng.choice((Not, And, Or, Imp, Iff, Box, Dia, SBox, SDia))
    if cls in (And, Or, Imp, Iff):
        return cls(_rand_formula(rng, depth - 1), _rand_formula(rng, depth - 1))
    return cls(_rand_formula(rng, depth - 1))


def test_sign_correctness():
    rng = random.Random(5)
    shapes = [Imp(Not(p), Box(Or(p, q))), SBox(Imp(p, SDia(Not(q)))),
              And(Dia(p), Not(Imp(q, p)))]
    # the walk reads signs off the table, which has an iff row; the oracle
    # has none, so the random shapes are Iff-free
    shapes += [f for f in (_rand_formula(rng, 4) for _ in range(300))
               if "Iff" not in repr(f)]
    for f in shapes:
        for sign in ("+", "-"):
            assert _leaves(f, sign) == sorted(_oracle_leaves(f, sign)), f


# ---------------------------------------------------------------------------
# branches

def oracle_excellent(branch):
    """Independent formulation: a leaf-to-root branch is excellent iff no
    non-inner node sits at or before a non-outer node."""
    for a, (row_a, sign_a) in enumerate(branch):
        for row_b, sign_b in branch[a:]:
            if sign_a not in row_a.inner and sign_b not in row_b.outer:
                return False
    return True


def _branch(f, sign, eps, var="p"):
    found = [b for name, b in critical_branches(f, sign, eps) if name == var]
    assert len(found) == 1
    return found[0]


def test_excellent_branch_examples():
    eps = {"p": "1"}
    b1 = _branch(Box(p), "+", eps)
    assert [row.label for row, _ in b1] == ["box"]
    assert is_excellent_branch(b1)
    b2 = _branch(SDia(Box(p)), "+", eps)
    assert [row.label for row, _ in b2] == ["box", "sdia"]
    assert is_excellent_branch(b2)
    b3 = _branch(Box(Dia(p)), "+", eps)
    assert [row.label for row, _ in b3] == ["dia", "box"]
    assert not is_excellent_branch(b3)


def test_excellent_matches_oracle_on_many_branches():
    eps = {"p": "1", "q": "1", "r": "1"}
    shapes = [
        Box(p), Dia(p), SDia(Box(p)), Box(Dia(p)), Dia(Box(p)),
        Not(Not(p)), And(Box(p), q), Or(Dia(p), q), SBox(SDia(p)),
        Dia(And(Box(p), Not(q))), Box(Box(Dia(p))), Not(Imp(p, q)),
        SDia(SBox(And(p, q))), Box(Or(p, q)), Imp(Not(p), q),
    ]
    rng = random.Random(7)
    shapes += [_rand_formula(rng, 4) for _ in range(300)]
    for f in shapes:
        for sign in ("+", "-"):
            for _, branch in critical_branches(f, sign, eps):
                assert is_excellent_branch(branch) == \
                    oracle_excellent(branch), (f, sign, branch)


def test_critical_branch_selection():
    eps = {"p": "1", "q": "d"}
    # -p, +q: neither critical
    assert list(critical_branches(Imp(p, q), "+", eps)) == []
    # +p and -q critical
    assert sorted(name for name, _ in
                  critical_branches(And(p, Not(q)), "+", eps)) == ["p", "q"]


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
    # p is Sahlqvist at d only; q, listed after it, takes its first value
    assert list(find_order_type(ineq("[]<>p & q <= p")).items()) == \
        [("p", "d"), ("q", "1")]


def oracle_order_type(ineq):
    """The exhaustive search: every order type in lexicographic order, '1'
    before 'd', until one makes the inequality Sahlqvist."""
    names = sorted(props_of(ineq.lhs) | props_of(ineq.rhs))
    for values in itertools.product("1d", repeat=len(names)):
        eps = dict(zip(names, values))
        if is_epsilon_sahlqvist(ineq, eps):
            return eps
    return None


def test_find_order_type_matches_the_exhaustive_search():
    rng = random.Random(11)
    cases = [ineq(text) for _, _, text, *_ in
             _bench_module("gen").make_inputs(7919, 5000)]
    cases += [Ineq(_rand_formula(rng, 3), _rand_formula(rng, 3))
              for _ in range(5000)]
    verdicts = []
    for case in cases:
        found = find_order_type(case)
        expected = oracle_order_type(case)
        # the same order type, its variables in sorted order
        assert (found and list(found.items())) == \
            (expected and list(expected.items())), case
        verdicts.append("none" if found is None else "".join(found.values()))
    # every kind of answer occurs: none, all 1, and some d
    assert "none" in verdicts
    assert any(v and set(v) == {"1"} for v in verdicts)
    assert any("d" in v for v in verdicts if v != "none")


def test_definite_and_inner():
    eps = {"p": "1", "q": "1"}
    assert not is_definite(Or(Dia(p), Dia(q)), "+", eps)
    assert not is_definite(And(Box(p), Box(q)), "-", {"p": "d", "q": "d"})
    assert is_definite(Dia(p), "+", eps)
    assert not is_inner_sahlqvist(Dia(p), "+", eps)
    assert is_inner_sahlqvist(Box(p), "+", eps)
    # non-critical branches are unconstrained
    assert is_definite(Or(Dia(p), Dia(q)), "+", {"p": "d", "q": "d"})


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
    # an empty name, a name the parser does not read as a variable, and a
    # variable given twice
    for spec in ("=1", " =d", "1p=1", "top=1", "i1=1", "p q=1", "p=1,p=d"):
        with pytest.raises(ValueError):
            parse_order_type(spec)
    assert parse_order_type(" p = 1 , q1=d ,") == {"p": "1", "q1": "d"}
