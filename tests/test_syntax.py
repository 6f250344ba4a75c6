"""Parser, printer, polarity and fresh-name tests."""

import pytest
from hypothesis import given, strategies as st

from sabcorr import fol, semantics
from sabcorr.syntax import (
    And, Bot, Box, Dia, ExistsNom, ForallNom, GBox, Iff, Imp, InvLBox,
    InvLDia, LBox, LDia, Nom, Not, Or, Prop, SBox, SDia, Top,
    CONNECTIVES, EMPTY_EDGES, PREFIX, Formula, FreshNominals, ParseError,
    all_names_of, children, eliminate_iff, is_fixed, nominals_of,
    occurrence_signs, parse_formula, parse_inequality, polarity,
    print_formula, props_of, signed_children, substitute_prop,
)

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
        row = CONNECTIVES[cls]
        assert row.quantifier in ("exists", "forall"), cls
        assert row.range in semantics.RANGES, cls
        assert row.range in fol.RANGES, cls
    assert all(row.quantifier is None for cls, row in CONNECTIVES.items()
               if cls not in quantifying)


def test_signed_children():
    assert list(signed_children(Imp(p, q), "+")) == [(p, "-"), (q, "+")]
    assert list(signed_children(Imp(p, q), "-")) == [(p, "+"), (q, "-")]
    assert list(signed_children(Not(p), "-")) == [(p, "+")]
    assert list(signed_children(SDia(p), "-")) == [(p, "-")]
    assert list(signed_children(p, "+")) == []
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
    assert nominals_of(f) == {"i1"}
    g = ExistsNom("i2", And(Nom("i2"), LDia(frozenset({("i3", "i4")}), Top())))
    assert nominals_of(g) == {"i3", "i4"}
    assert all_names_of(g) == {"i2", "i3", "i4"}
    assert nominals_of(ForallNom("i5", Nom("i5"))) == frozenset()
    h = And(LBox(frozenset({("i1", "i2")}), p),
            InvLDia(frozenset({("i3", "i1")}), Nom("i6")))
    assert props_of(h) == {"p"}
    assert nominals_of(h) == all_names_of(h) == {"i1", "i2", "i3", "i6"}
    k = ForallNom("i7", InvLBox(frozenset({("i7", "i8")}),
                                GBox(Or(q, Nom("i9")))))
    assert props_of(k) == {"q"}
    assert nominals_of(k) == {"i8", "i9"}
    assert all_names_of(k) == {"i7", "i8", "i9"}


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
# polarity

def test_polarity_examples():
    assert polarity(Imp(Dia(p), p), "p") == "both"
    assert polarity(Box(p), "p") == "positive"
    assert polarity(Not(p), "p") == "negative"
    assert polarity(Box(q), "p") == "absent"
    assert polarity(Iff(p, q), "p") == "both"


def test_occurrence_signs():
    assert list(occurrence_signs(Imp(p, p), "p")) == ["-", "+"]
    assert list(occurrence_signs(Not(Not(p)), "p")) == ["+"]


_FLIP = {"positive": "negative", "negative": "positive",
         "both": "both", "absent": "absent"}


@given(_base_formulas)
def test_polarity_composition(f):
    pol = polarity(f, "p")
    assert polarity(Not(f), "p") == _FLIP[pol]
    for wrap in (Box, Dia, SBox, SDia):
        assert polarity(wrap(f), "p") == pol
    assert polarity(And(f, Top()), "p") == pol
    assert polarity(Or(f, Bot()), "p") == pol


# ---------------------------------------------------------------------------
# fresh nominals

def test_fresh_nominals():
    gen = FreshNominals()
    assert gen.fresh() == "i0"
    gen2 = FreshNominals({"i0", "i1"})
    assert gen2.fresh() == "i2"
    gen3 = FreshNominals()
    issued = [gen3.fresh() for _ in range(5)]
    assert issued[-1] == "i4"
    assert len(set(issued)) == 5


def test_fresh_skips_reserved_mid_run():
    gen = FreshNominals({"i1"})
    assert [gen.fresh() for _ in range(3)] == ["i0", "i2", "i3"]
