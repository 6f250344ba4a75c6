"""Standard translation, first-order evaluation and emission tests."""

import json
import re
from pathlib import Path

import pytest

from sabcorr.syntax import (
    And, Bot, Box, Dia, Iff, Imp, Nom, Or, Prop, SDia, Top, EMPTY_EDGES,
    parse_inequality,
)
from sabcorr.semantics import (
    Ineq, KripkeFrame, MegaAnd, MegaGuard, QuasiUQ, UQIneq, Valuation,
    closure as close_statement, frame_valid, statement_props,
)
from sabcorr.alba import AlbaSuccess, run_alba
from sabcorr.cli import load_corpus
from sabcorr.fol import (
    Eq, FOAnd, FOEvalError, FOExists, FOForall, FOImp, FONot, FOOr, Pred,
    Rel, closure, correspondent, emit_fo, eval_fo, fo_and, fo_or, free_names,
    holds_on_frame, pred_names, st_formula, st_statement, translate_formula,
    _VarGen,
)

from fo_equiv import fo_equiv_on_small_frames
from frames import labelled_frames
from test_golden import _bench_module

CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "sahlqvist.txt"

p = Prop("p")


def ineq(text):
    lhs, rhs = parse_inequality(text)
    return Ineq(lhs, rhs)


# ---------------------------------------------------------------------------
# translation of formulas

def test_st_formula_examples():
    assert emit_fo(translate_formula(Dia(p))) == \
        "exists y0. (R(x,y0) & P_p(y0))"
    assert emit_fo(translate_formula(SDia(p))) == \
        "exists y0. exists y1. (R(y0,y1) & P_p(x))"
    gen = _VarGen()
    gen.fresh(), gen.fresh()
    out = st_formula(Dia(Top()), "x", (("y0", "y1"),), gen)
    assert emit_fo(out) == "exists y2. (R(x,y2) & ~(x = y0 & y2 = y1) & y2 = y2)"


def test_st_constants_and_nominals():
    assert translate_formula(Bot()) == FONot(Eq("x", "x"))
    assert translate_formula(Top()) == Eq("x", "x")
    assert translate_formula(Nom("i4")) == Eq("x", "i4")


def test_st_iff_translates_each_side_once():
    out = translate_formula(Iff(Dia(p), Box(p)))
    a, b = out.parts[0].left, out.parts[0].right
    assert out == FOAnd((FOImp(a, b), FOImp(b, a)))
    assert emit_fo(a) == "exists y0. (R(x,y0) & P_p(y0))"
    assert emit_fo(b) == "forall y1. (R(x,y1) -> P_p(y1))"


def test_st_empty_exclusion_dropped():
    out = translate_formula(Dia(Top()))
    assert out == FOExists("y0", FOAnd((Rel("x", "y0"), Eq("y0", "y0"))))


# ---------------------------------------------------------------------------
# translation of statements

def test_st_statement_examples():
    assert emit_fo(st_statement(Ineq(Bot(), Top()))) == \
        "forall x. (x != x -> x = x)"
    s = Ineq(Nom("i"), Prop("p"))
    assert emit_fo(st_statement(s)) == "forall x. (x = i -> P_p(x))"
    mg = MegaGuard("i2", "i3", EMPTY_EDGES, Ineq(Nom("i2"), Nom("i3")))
    assert emit_fo(st_statement(mg)) == \
        "forall i2. forall i3. (R(i2,i3) -> forall x. (x = i2 -> x = i3))"
    uq = UQIneq(("i5",), Ineq(Nom("i5"), Top()))
    assert emit_fo(st_statement(uq)) == \
        "forall i5. forall x. (x = i5 -> x = x)"


def test_st_quasi():
    quasi = QuasiUQ((Ineq(Top(), Top()),), Ineq(Bot(), Top()))
    out = st_statement(quasi)
    assert isinstance(out, FOImp)
    mega = MegaAnd((Ineq(Top(), Top()), Ineq(Bot(), Bot())))
    assert isinstance(st_statement(mega), FOAnd)


# ---------------------------------------------------------------------------
# evaluation

def test_eval_fo_basics():
    empty = KripkeFrame(1, frozenset())
    loop = KripkeFrame(1, frozenset({(0, 0)}))
    v = Valuation.make({}, {})
    assert eval_fo(empty, v, {}, FOForall("x", Eq("x", "x")))
    f = FOExists("y0", FOExists("y1", Rel("y0", "y1")))
    assert not eval_fo(empty, v, {}, f)
    assert eval_fo(loop, v, {}, f)
    st = st_statement(Ineq(Top(), SDia(Top())))
    assert eval_fo(loop, v, {}, st)
    assert not eval_fo(empty, v, {}, st)


def test_eval_fo_reads_nominals_from_valuation():
    loop = KripkeFrame(1, frozenset({(0, 0)}))
    v = Valuation.make({}, {"i1": 0})
    assert eval_fo(loop, v, {}, Rel("i1", "i1"))
    with pytest.raises(FOEvalError):
        eval_fo(loop, Valuation.make({}, {}), {}, Rel("i9", "i9"))


def test_eval_fo_matches_the_independent_oracle():
    # bench/oracle.py evaluates the JSON form with its own closure; it
    # shares no code with sabcorr
    oracle = _bench_module("oracle")
    sentences = [correspondent(run_alba(iq).quasis)
                 for _, iq in load_corpus(CORPUS)]
    sentences += [
        # y re-bound inside its own scope, then read again outside it
        FOForall("x", FOExists("y", FOAnd((
            Rel("x", "y"),
            FOForall("y", FOImp(Rel("y", "x"), Pred("p", "y"))),
            Pred("q", "y"))))),
        # some world has a loop and some has none; every world has a loop
        # if one has
        FOExists("x", FOAnd((FOExists("x", Rel("x", "x")),
                             FONot(Rel("x", "x"))))),
        FOForall("x", FOImp(FOExists("x", Rel("x", "x")), Rel("x", "x"))),
        FOImp(FOAnd(()), FOOr(())),
        FOOr((FOAnd(()), Rel("i1", "i2"))),
        FOImp(Rel("i1", "i2"), FONot(FOOr((Pred("p", "i2"), FOOr(()))))),
    ]
    verdicts = set()
    for fo in sentences:
        data = json.loads(emit_fo(fo, "json"))
        sentence, preds = closure(fo), sorted(pred_names(fo))
        for n, edges in oracle.frames(2):
            frame = KripkeFrame(n, edges)
            got = holds_on_frame(frame, sentence, preds)
            assert got == oracle.fo_valid(n, edges, data), (fo, frame)
            verdicts.add(got)
    assert verdicts == {True, False}


def test_free_and_pred_names():
    f = FOForall("x", FOImp(Rel("x", "i1"), Pred("p", "y3")))
    assert free_names(f) == {"i1", "y3"}
    assert pred_names(f) == {"p"}
    assert free_names(FOExists("i1", Rel("i1", "i1"))) == frozenset()


def test_holds_on_frame():
    loop = KripkeFrame(1, frozenset({(0, 0)}))
    empty = KripkeFrame(1, frozenset())
    refl = FOForall("x", Rel("x", "x"))
    assert holds_on_frame(loop, refl)
    assert not holds_on_frame(empty, refl)
    # free names are closed universally
    two = KripkeFrame(2, frozenset({(0, 0)}))
    assert not holds_on_frame(two, closure(Rel("i1", "i1")))


def test_closure_binds_free_names_first_sorted_outermost():
    f = FOExists("y", FOImp(Rel("i2", "y"), Pred("p", "i1")))
    assert closure(f) == FOForall("i1", FOForall("i2", f))
    assert closure(closure(f)) == closure(f)


def test_modal_and_fo_closures_agree():
    # closure binds free nominals with a UQIneq, fol.closure binds free
    # names with FOForall; both checks quantify over valuations;
    # every statement here has a proposition and a free nominal
    statements = [
        Ineq(And(Nom("i1"), p), Dia(p)),
        Ineq(Nom("i1"), Box(p), sup=frozenset({("i1", "i2")})),
        MegaGuard("i2", "i3", frozenset({("i1", "i1")}),
                  Ineq(Nom("i3"), Box(p))),
        UQIneq(("i2",), Ineq(And(Nom("i2"), p), Dia(Or(p, Nom("i1"))))),
        QuasiUQ((Ineq(Nom("i1"), p),), Ineq(Nom("i2"), Dia(p))),
    ]
    for s in statements:
        vars = sorted(statement_props(s))
        fo = st_statement(s)
        verdicts = set()
        for frame in (f for n in (1, 2) for f in labelled_frames(n)):
            valid = frame_valid(frame, close_statement(s), vars)
            assert holds_on_frame(frame, closure(fo), vars) == valid, \
                (s, frame)
            verdicts.add(valid)
        assert verdicts == {True, False}, s


def test_fo_equiv_on_small_frames():
    refl = FOForall("x", Rel("x", "x"))
    refl2 = FOForall("z", FOAnd((Rel("z", "z"), Eq("z", "z"))))
    assert fo_equiv_on_small_frames(refl, refl2, max_n=2)
    some = FOExists("x", Rel("x", "x"))
    assert not fo_equiv_on_small_frames(refl, some, max_n=2)


def test_empty_connectives():
    f = KripkeFrame(1, frozenset())
    v = Valuation.make({}, {})
    assert eval_fo(f, v, {}, fo_and([]))
    assert not eval_fo(f, v, {}, fo_or([]))
    assert fo_and([Eq("x", "x")]) == Eq("x", "x")


# ---------------------------------------------------------------------------
# emission

def test_emit_formats():
    refl = FOForall("x", Rel("x", "x"))
    assert emit_fo(refl, "text") == "forall x. R(x,x)"
    assert emit_fo(refl, "tptp") == "fof(corr, axiom, ![X]: r(X,X))."
    assert emit_fo(Eq("i0", "i0"), "json") == '{"eq": ["i0", "i0"]}'
    assert emit_fo(FONot(Eq("a", "b")), "text") == "a != b"
    assert emit_fo(FOOr(()), "tptp") == "fof(corr, axiom, $false)."
    with pytest.raises(ValueError):
        emit_fo(refl, "latex")


def test_emit_json_round_structure():
    f = FOImp(FOExists("y0", Pred("p", "y0")), FOAnd((Eq("x", "x"),)))
    data = json.loads(emit_fo(f, "json"))
    assert data == {"imp": [{"exists": ["y0", {"pred": ["p", "y0"]}]},
                            {"and": [{"eq": ["x", "x"]}]}]}


def _check_tptp(text):
    """Mini-validator: fof wrapper, balanced parens, declared arities."""
    assert text.startswith("fof(corr, axiom, ") and text.endswith(").")
    depth = 0
    for ch in text:
        depth += ch == "("
        depth -= ch == ")"
        assert depth >= 0
    assert depth == 0
    for m in re.finditer(r"\b(r|p_[a-z][A-Za-z0-9]*)\(([^()]*)\)", text):
        args = [a for a in m.group(2).split(",") if a]
        assert len(args) == (2 if m.group(1) == "r" else 1)
    # only upper-case variable tokens inside quantifier brackets
    for m in re.finditer(r"[!?]\[([A-Za-z0-9]+)\]", text):
        assert m.group(1).isupper() or m.group(1)[0].isupper()


def test_tptp_well_formed_on_corpus_outputs():
    for text in ["[]p <= p", "<>p <= p", "[]p <= [!]p", "<!>[]p <= []<!>p",
                 "top <= <!>top"]:
        result = run_alba(ineq(text))
        assert isinstance(result, AlbaSuccess)
        _check_tptp(emit_fo(correspondent(result.quasis), "tptp"))


def _check_no_shadowing(f, bound):
    if isinstance(f, (FOForall, FOExists)):
        assert f.var not in bound, f
        _check_no_shadowing(f.body, bound | {f.var})
    elif isinstance(f, FONot):
        _check_no_shadowing(f.child, bound)
    elif isinstance(f, (FOAnd, FOOr)):
        for part in f.parts:
            _check_no_shadowing(part, bound)
    elif isinstance(f, FOImp):
        _check_no_shadowing(f.left, bound)
        _check_no_shadowing(f.right, bound)


def test_variable_hygiene():
    for text in ["[]p <= p", "<!>[]p <= []<!>p", "[!]p <= p",
                 "top <= <!>top", "<>[]p <= []<>p"]:
        result = run_alba(ineq(text))
        assert isinstance(result, AlbaSuccess)
        _check_no_shadowing(correspondent(result.quasis), frozenset())
    f = translate_formula(SDia(SDia(Box(p))))
    _check_no_shadowing(f, frozenset())


def test_known_equivalence_box_p_le_p():
    result = run_alba(ineq("[]p <= p"))
    corr = correspondent(result.quasis)
    for name in sorted(free_names(corr)):
        corr = FOForall(name, corr)
    assert fo_equiv_on_small_frames(corr, FOForall("x", Rel("x", "x")),
                                    max_n=2)
