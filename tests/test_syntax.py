"""Connective-table, parser, printer, structural-query and sign-map
tests."""

import pytest
from hypothesis import given, strategies as st

from sabcorr import fol, semantics
from sabcorr.syntax import (
    And, Bot, Box, Dia, ExistsNom, ForallNom, GBox, Iff, Imp, InvLBox,
    InvLDia, LBox, LDia, Nom, Not, Or, Prop, SBox, SDia, Top,
    CONNECTIVES, EMPTY_EDGES, PREFIX, Formula, ParseError, children,
    eliminate_iff, is_fixed, occurrence_signs, parse_formula,
    parse_inequality, print_formula, props_of, substitute_prop,
)

from fo_equiv import translate_formula

p, q, r = Prop("p"), Prop("q"), Prop("r")


# ---------------------------------------------------------------------------
# the connective table

def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_formula_class_has_a_row():
    classes = set(_subclasses(Formula))
    assert classes == set(CONNECTIVES)
    for cls in classes:
        row = CONNECTIVES[cls]
        assert row.cls is cls
        arity = sum(fl.type == "Formula"
                    for fl in cls.__dataclass_fields__.values())
        assert len(row.signs["+"]) == len(row.signs["-"]) == arity, cls
        assert (row.prec < PREFIX) == (arity == 2), cls
    quantifying = {cls for cls, row in CONNECTIVES.items() if row.range}
    assert quantifying == {Dia, Box, SDia, SBox, LDia, LBox, InvLDia,
                           InvLBox, GBox, ForallNom, ExistsNom}
    for cls in quantifying:
        assert CONNECTIVES[cls].quantifier in ("exists", "forall"), cls
    # the standard translation reads every quantifying node: on 0 -> 1 with
    # p at world 1, i0 at world 0 and i1 at world 1, the mask of the worlds
    # x where it holds; the label (i0, i1) is the arrow, (i1, i0) is none,
    # and a sabotage node reads its child with the arrow deleted
    frame = semantics.KripkeFrame(2, frozenset({(0, 1)}))
    arrow, none = frozenset({("i0", "i1")}), frozenset({("i1", "i0")})
    translated = {
        Dia(p): 0b01, Box(p): 0b11, SDia(Dia(p)): 0b00,
        SBox(Box(Not(p))): 0b11, LDia(arrow, p): 0b00,
        LBox(arrow, Not(p)): 0b11, InvLDia(none, Not(p)): 0b10,
        InvLBox(arrow, p): 0b11, GBox(p): 0b00,
        ForallNom("i1", Imp(Nom("i1"), p)): 0b10,
        ExistsNom("i0", And(Nom("i0"), p)): 0b10,
    }
    assert {type(f) for f in translated} == quantifying
    for f, expected in translated.items():
        fo = translate_formula(f)
        assert sum(fol.eval_fo([frame], {"p": 0b10, "i0": 0, "i1": 1, "x": w},
                               fo) << w for w in range(2)) == expected, f
    # the modal check evaluates the modalities the parser reads and no other
    # quantifying node, on the same frame
    read = {Dia(p): 0b01, Box(p): 0b11, SDia(p): 0b10, SBox(p): 0b10}
    unread = [LDia(EMPTY_EDGES, p), LBox(EMPTY_EDGES, p),
              InvLDia(EMPTY_EDGES, p), InvLBox(EMPTY_EDGES, p), GBox(p),
              ForallNom("i0", p), ExistsNom("i0", p)]
    assert {type(f) for f in [*read, *unread]} == quantifying
    edges = tuple(frame.r0)
    for f in [*read, *unread]:
        if CONNECTIVES[type(f)].token:
            assert semantics.extension(
                edges, 1, {"p": 0b10}, f) & 0b11 == read[f], f
        else:
            with pytest.raises(semantics.EvalError, match="no rule for"):
                semantics.extension(edges, 1, {"p": 0b10}, f)
    assert all(row.quantifier is None for cls, row in CONNECTIVES.items()
               if cls not in quantifying)


def test_child_signs():
    # each child's sign comes from its parent's row
    assert occurrence_signs(Imp(p, q), "+") == {"p": {"-"}, "q": {"+"}}
    assert occurrence_signs(Imp(p, q), "-") == {"p": {"+"}, "q": {"-"}}
    assert occurrence_signs(Not(p), "-") == {"p": {"+"}}
    assert occurrence_signs(SDia(p), "-") == {"p": {"-"}}
    assert occurrence_signs(p, "+") == {"p": {"+"}}
    assert children(ForallNom("i1", p)) == (p,)


# ---------------------------------------------------------------------------
# parsing

def test_parse_examples():
    assert parse_formula("<>p -> p") == Imp(Dia(p), p)
    assert parse_formula("[!]bot") == SBox(Bot())
    assert parse_formula("~(p & <!>q)") == Not(And(p, SDia(q)))


def test_parse_precedence():
    assert parse_formula("p & q | r") == Or(And(p, q), r)
    assert parse_formula("p | q & r") == Or(p, And(q, r))
    assert parse_formula("p -> q -> r") == Imp(p, Imp(q, r))
    assert parse_formula("p <-> q -> r") == Iff(p, Imp(q, r))
    assert parse_formula("~<>p") == Not(Dia(p))
    assert parse_formula("[]p & q") == And(Box(p), q)
    assert parse_formula("<!>[]p") == SDia(Box(p))


def test_parse_error_position_and_expected():
    with pytest.raises(ParseError) as exc:
        parse_formula("p -> (")
    assert exc.value.position == 6
    assert "(" in exc.value.expected
    with pytest.raises(ParseError) as exc:
        parse_formula("(p")
    assert exc.value.expected == (")",)
    with pytest.raises(ParseError):
        parse_formula("p @ q")


def test_parse_rejects_reserved_nominal_idents():
    with pytest.raises(ParseError):
        parse_formula("i0")
    with pytest.raises(ParseError):
        parse_formula("<>i17 -> p")
    # `i` alone and `ia` are ordinary variables
    assert parse_formula("i") == Prop("i")
    assert parse_formula("ia") == Prop("ia")


def test_expanded_nodes_print_but_do_not_parse():
    # every node with no parser token but a proposition is ALBA's alone:
    # the modal check reads the base language only
    s12 = frozenset({("i1", "i2")})
    samples = [Nom("i1"), LDia(s12, p), LBox(EMPTY_EDGES, p),
               InvLDia(s12, p), InvLBox(EMPTY_EDGES, p), GBox(p),
               ForallNom("i1", Nom("i1")), ExistsNom("i1", p)]
    assert {type(f) for f in samples} == {
        cls for cls, row in CONNECTIVES.items()
        if row.token is None and cls is not Prop}
    for f in samples:
        with pytest.raises(ParseError):
            parse_formula(print_formula(f))


def test_parse_inequality_forms():
    assert parse_inequality("p <= q") == (p, q)
    assert parse_inequality("<>p -> p") == (Dia(p), p)
    assert parse_inequality("p") == (Top(), p)
    assert parse_inequality("p & q") == (Top(), And(p, q))
    with pytest.raises(ParseError):
        parse_inequality("p <= q <= r")


# ---------------------------------------------------------------------------
# printing

def test_print_examples():
    assert print_formula(Imp(Dia(p), p)) == "<>p -> p"
    assert print_formula(LDia(frozenset({("i1", "i2")}), Top())) == \
        "dia^{(i1,i2)} top"
    assert print_formula(GBox(Nom("i"))) == "A i"


def test_print_parenthesization():
    assert print_formula(And(Or(p, q), r)) == "(p | q) & r"
    assert print_formula(Dia(Imp(p, q))) == "<>(p -> q)"
    assert print_formula(Imp(Imp(p, q), r)) == "(p -> q) -> r"


_names = st.sampled_from(["p", "q", "r"])

_base_formulas = st.recursive(
    st.one_of(st.builds(Bot), st.builds(Top), st.builds(Prop, _names)),
    lambda sub: st.one_of(
        st.builds(Not, sub), st.builds(Box, sub), st.builds(Dia, sub),
        st.builds(SBox, sub), st.builds(SDia, sub),
        st.builds(And, sub, sub), st.builds(Or, sub, sub),
        st.builds(Imp, sub, sub), st.builds(Iff, sub, sub)),
    max_leaves=25)


@given(_base_formulas)
def test_print_parse_round_trip(f):
    assert parse_formula(print_formula(f)) == f


# ---------------------------------------------------------------------------
# structural queries

def test_props_and_nominals():
    f = And(p, SDia(Or(q, Nom("i1"))))
    assert props_of(f) == {"p", "q"}
    g = ExistsNom("i2", And(Nom("i2"), LDia(frozenset({("i3", "i4")}), Top())))
    assert props_of(g) == frozenset()
    h = And(LBox(frozenset({("i1", "i2")}), p),
            InvLDia(frozenset({("i3", "i1")}), Nom("i6")))
    assert props_of(h) == {"p"}
    k = ForallNom("i7", InvLBox(frozenset({("i7", "i8")}),
                                GBox(Or(q, Nom("i9")))))
    assert props_of(k) == {"q"}


def test_classification_predicates():
    # is_fixed: pure (no variable) and context-free (no [] <> [!] <!>)
    s12 = frozenset({("i1", "i2")})
    assert not is_fixed(SDia(Nom("i1"))) and not is_fixed(p)
    assert is_fixed(Nom("i1")) and is_fixed(Top()) and is_fixed(Bot())
    assert is_fixed(Not(And(Nom("i1"), Top())))
    assert not is_fixed(Not(And(Nom("i1"), p)))
    assert is_fixed(Or(Nom("i1"), Imp(Bot(), Iff(Nom("i2"), Top()))))
    assert not is_fixed(Or(Nom("i1"), Imp(Bot(), Iff(Nom("i2"), q))))
    assert not is_fixed(Dia(Top()))
    assert not is_fixed(SDia(Top()))
    assert not is_fixed(Box(Nom("i1"))) and not is_fixed(SBox(Nom("i1")))
    assert is_fixed(LDia(EMPTY_EDGES, Top()))
    assert not is_fixed(LDia(EMPTY_EDGES, p))
    assert not is_fixed(LBox(s12, p)) and is_fixed(LBox(s12, Nom("i1")))
    assert is_fixed(InvLDia(EMPTY_EDGES, Nom("i1")))
    assert not is_fixed(InvLDia(EMPTY_EDGES, Dia(Nom("i1"))))
    assert not is_fixed(InvLBox(EMPTY_EDGES, p))
    assert is_fixed(InvLBox(EMPTY_EDGES, Nom("i2")))
    assert is_fixed(GBox(Nom("i1")))
    assert is_fixed(ForallNom("i1", LDia(s12, Nom("i1"))))
    assert not is_fixed(ForallNom("i1", LDia(s12, p)))
    assert not is_fixed(GBox(Box(p))) and not is_fixed(GBox(Box(Nom("i1"))))
    assert not is_fixed(InvLBox(EMPTY_EDGES, SBox(p)))
    assert not is_fixed(InvLBox(EMPTY_EDGES, SBox(Nom("i1"))))
    assert not is_fixed(ExistsNom("i1", Dia(Nom("i1"))))
    assert is_fixed(ExistsNom("i1", InvLDia(s12, Nom("i1"))))


def test_eliminate_iff_and_substitution():
    assert eliminate_iff(Iff(p, q)) == And(Imp(p, q), Imp(q, p))
    assert eliminate_iff(Box(Iff(p, q))) == Box(And(Imp(p, q), Imp(q, p)))
    assert substitute_prop(And(p, Dia(p)), "p", Bot()) == \
        And(Bot(), Dia(Bot()))
    assert substitute_prop(q, "p", Bot()) == q
    s = frozenset({("i1", "i2")})
    assert substitute_prop(ForallNom("i1", LDia(s, p)), "p", q) == \
        ForallNom("i1", LDia(s, q))


# ---------------------------------------------------------------------------
# sign maps

BOTH = {"+", "-"}


def test_occurrence_sign_examples():
    assert occurrence_signs(Imp(Dia(p), p), "+") == {"p": BOTH}
    assert occurrence_signs(Box(p), "+") == {"p": {"+"}}
    assert occurrence_signs(Not(p), "+") == {"p": {"-"}}
    assert "p" not in occurrence_signs(Box(q), "+")
    assert occurrence_signs(Iff(p, q), "+") == {"p": BOTH, "q": BOTH}


def test_occurrence_signs():
    assert occurrence_signs(Imp(p, p), "+") == {"p": BOTH}
    assert occurrence_signs(Not(Not(p)), "+") == {"p": {"+"}}
    assert occurrence_signs(Top(), "+") == {}
    # either side of an equivalence is both an antecedent and a
    # consequent, at either sign of the equivalence
    for sign in "+-":
        assert occurrence_signs(Iff(p, q), sign) == {"p": BOTH, "q": BOTH}
        assert occurrence_signs(Box(Iff(Not(p), q)), sign) == \
            {"p": BOTH, "q": BOTH}


def _flipped(signs: dict) -> dict:
    return {name: {"-" if s == "+" else "+" for s in found}
            for name, found in signs.items()}


@given(_base_formulas)
def test_occurrence_signs_composition(f):
    signs = occurrence_signs(f, "+")
    assert occurrence_signs(f, "-") == _flipped(signs)
    assert occurrence_signs(Not(f), "+") == _flipped(signs)
    for wrap in (Box, Dia, SBox, SDia):
        assert occurrence_signs(wrap(f), "+") == signs
    assert occurrence_signs(And(f, Top()), "+") == signs
    assert occurrence_signs(Or(f, Bot()), "+") == signs

