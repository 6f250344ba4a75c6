"""Standard translation, first-order evaluation, simplification and
emission tests."""

import functools
import itertools
import json
import re
from pathlib import Path

import pytest

from sabcorr.syntax import (
    And, Bot, Box, Dia, GBox, Iff, Ineq, MegaGuard, Nom, Or, Prop, QuasiUQ,
    SDia, Top, UQIneq, CONNECTIVES, EMPTY_EDGES, parse_inequality,
)
from sabcorr.semantics import EvalError
from sabcorr.alba import AlbaSuccess, run_alba
from sabcorr.cli import load_corpus
from sabcorr.fol import (
    Eq, FOAnd, FOExists, FOForall, FOImp, FONot, FOOr, Pred,
    Rel, as_json, correspondent, emit_fo, eval_fo, fo_and, holds_on_frame,
    simplify, st_formula, st_statement,
)

from fo_equiv import (
    closure, fo_equiv_on_small_frames, free_names, pred_names,
    translate_formula,
)
from frames import (
    fo_mask, labelled_frames, oracle_holds, statement_props, valuations,
)
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
    gen = map("y{}".format, itertools.count(2))
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


def test_st_unknown_range_fails_loudly(monkeypatch):
    # a range st_formula has no branch for is not read as another
    monkeypatch.setattr(CONNECTIVES[GBox], "range", "bogus")
    with pytest.raises(ValueError, match="cannot translate GBox"):
        translate_formula(GBox(p))


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


# ---------------------------------------------------------------------------
# evaluation

def test_eval_fo_basics():
    # a frame is its arrow tuple; the world count is given once
    empty, loop = (), ((0, 0),)
    v = {}
    assert eval_fo(1, [empty], v, FOForall("x", Eq("x", "x"))) == 1
    f = FOExists("y0", FOExists("y1", Rel("y0", "y1")))
    assert eval_fo(1, [empty], v, f) == 0
    assert eval_fo(1, [loop], v, f) == 1
    st = st_statement(Ineq(Top(), SDia(Top())))
    assert eval_fo(1, [loop], v, st) == 1
    assert eval_fo(1, [empty], v, st) == 0
    # frame k at bit k, and no bit without a frame
    assert eval_fo(1, [empty, loop, empty, loop], v, f) == 0b1010
    assert eval_fo(1, [], v, FOForall("x", Eq("x", "x"))) == 0


def test_eval_fo_reads_nominals_from_valuation():
    loop = ((0, 0),)
    v = {"i1": 0}
    assert eval_fo(1, [loop], v, Rel("i1", "i1")) == 1
    with pytest.raises(EvalError):
        eval_fo(1, [loop], {}, Rel("i9", "i9"))
    # a predicate with no valuation is an error, not the empty set
    with pytest.raises(EvalError):
        eval_fo(1, [loop], v, Pred("p", "i1"))


HAND_WRITTEN = [
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


def _holds_under_every_valuation(frames, sentence, preds):
    """The mask of the frames, all of one size, where the sentence holds
    under every valuation of preds."""
    out = (1 << len(frames)) - 1
    for val in valuations(frames[0], preds):
        out &= fo_mask(frames, val, sentence)
    return out


def test_eval_fo_matches_the_independent_oracle():
    # bench/oracle.py evaluates the JSON form with its own closure; it
    # shares no code with sabcorr.  Bit k of one call over every labelled
    # frame of a size is the one-frame call on frame k, and the oracle's
    # verdict on it.
    oracle = _bench_module("oracle")
    sentences = [correspondent(run_alba(iq).quasis)
                 for _, iq in load_corpus(CORPUS)]
    sentences += HAND_WRITTEN
    verdicts = set()
    for fo in sentences:
        data = json.loads(emit_fo(fo, "json"))
        sentence, preds = closure(fo), sorted(pred_names(fo))
        for n in (1, 2):
            frames = list(labelled_frames(n))
            mask = _holds_under_every_valuation(frames, sentence, preds)
            for k, frame in enumerate(frames):
                got = mask >> k & 1
                assert got == _holds_under_every_valuation(
                    [frame], sentence, preds), (fo, frame)
                assert got == oracle.fo_valid(n, frame.r0, data), (fo, frame)
                verdicts.add(got)
    assert verdicts == {0, 1}


def test_free_and_pred_names():
    f = FOForall("x", FOImp(Rel("x", "i1"), Pred("p", "y3")))
    assert free_names(f) == {"i1", "y3"}
    assert pred_names(f) == {"p"}
    assert free_names(FOExists("i1", Rel("i1", "i1"))) == frozenset()


def test_holds_on_frame():
    loop, empty = ((0, 0),), ()
    refl = FOForall("x", Rel("x", "x"))
    assert holds_on_frame(1, [loop, empty, loop], refl) == 0b101
    # free names are closed universally, by the caller
    assert holds_on_frame(2, [loop], closure(Rel("i1", "i1"))) == 0
    with pytest.raises(EvalError):
        holds_on_frame(2, [loop], Rel("i1", "i1"))
    with pytest.raises(EvalError):
        holds_on_frame(2, [loop], FOForall("x", Pred("p", "x")))


def test_closure_binds_free_names_first_sorted_outermost():
    f = FOExists("y", FOImp(Rel("i2", "y"), Pred("p", "i1")))
    assert closure(f) == FOForall("i1", FOForall("i2", f))
    assert closure(closure(f)) == closure(f)


def test_modal_and_fo_closures_agree():
    # the oracle reads a UQIneq binding i1 and i2, the free nominals here
    # or unread; closure binds the free names of the translation with
    # FOForall; both checks quantify over valuations; every statement here
    # has a proposition and a free nominal
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
        closed = UQIneq(("i1", "i2"), s)
        verdicts = set()
        for n in (1, 2):
            frames = list(labelled_frames(n))
            mask = _holds_under_every_valuation(frames, closure(fo), vars)
            for k, frame in enumerate(frames):
                valid = all(oracle_holds(frame, val, closed)
                            for val in valuations(frame, vars))
                assert bool(mask >> k & 1) == valid, (s, frame)
                verdicts.add(valid)
        assert verdicts == {True, False}, s


def test_fo_equiv_on_small_frames():
    refl = FOForall("x", Rel("x", "x"))
    refl2 = FOForall("z", FOAnd((Rel("z", "z"), Eq("z", "z"))))
    assert fo_equiv_on_small_frames(refl, refl2, max_n=2)
    some = FOExists("x", Rel("x", "x"))
    assert not fo_equiv_on_small_frames(refl, some, max_n=2)


def test_eval_fo_leaves_the_valuation_alone():
    val = {"i1": 0, "p": 0b01}
    f = FOForall("x", FOImp(Pred("p", "x"), FOExists("y", Rel("y", "i1"))))
    assert eval_fo(2, [((0, 0), (1, 0))], val, f) == 1
    assert val == {"i1": 0, "p": 0b01}


def test_empty_connectives():
    v = {}
    assert eval_fo(1, [()], v, fo_and([])) == 1
    assert eval_fo(1, [()], v, FOOr(())) == 0
    assert fo_and([Eq("x", "x")]) == Eq("x", "x")


# ---------------------------------------------------------------------------
# simplification

@pytest.mark.parametrize("fo, printed", [
    # one-point rule under forall, then the closure of i1
    (FOForall("v", FOImp(Eq("v", "i1"), Rel("v", "v"))), "forall x. R(x,x)"),
    # one-point rule under exists, with the name on the right
    (FOExists("v", FOAnd((Eq("i1", "v"), Rel("v", "i2")))),
     "forall x. forall y. R(x,y)"),
    # t = t is true and absorbs the disjunction
    (FOImp(Rel("i1", "i2"), FOOr((Eq("i2", "i2"), Pred("p", "i1")))), "true"),
    (FOForall("v", FOAnd((Rel("v", "v"), FONot(Eq("v", "v"))))), "false"),
    # units vanish, repeated literals go, a vacuous quantifier is dropped
    (FOExists("v", FOAnd((Rel("i1", "i1"), FOAnd(()), FOOr(()),
                          Rel("i1", "i1")))), "false"),
    (FOOr((Rel("i1", "i1"), FOOr(()), Rel("i1", "i1"))), "forall x. R(x,x)"),
    # forall through &, exists through |, and a part without the bound
    # name pulled out; a name re-bound in its own scope is renamed apart
    (FOForall("u", FOAnd((Rel("u", "u"), FOExists("v", Rel("u", "v"))))),
     "(forall x. R(x,x) & forall x. exists y. R(x,y))"),
    (FOForall("u", FOExists("v", FOOr((Rel("u", "u"), Rel("v", "v"))))),
     "(exists x. R(x,x) | forall x. R(x,x))"),
    (FOForall("a", FOExists("b", FOForall("c", FOExists("a", FOAnd((
        Rel("a", "b"), Rel("b", "c"), Rel("c", "a"))))))),
     "exists x. (forall y. R(x,y) & forall y. exists z. (R(z,x) & R(y,z)))"),
    # bound names follow depth, past z too
    (FOForall("d", FOOr((Rel("i1", "d"), Rel("i2", "d"), Rel("i3", "d")))),
     "forall x. forall y. forall z. forall x3. (R(x,x3) | R(y,x3) | R(z,x3))"),
])
def test_simplify_rules(fo, printed):
    assert emit_fo(simplify(fo)) == printed
    assert fo_equiv_on_small_frames(simplify(fo), closure(fo), max_n=2)


def test_simplify_handles_rebinding_and_predicates():
    # names re-bound inside their own scope, predicates closed over every
    # valuation, and empty junctions
    for fo in HAND_WRITTEN:
        assert free_names(simplify(fo)) == frozenset()
        assert fo_equiv_on_small_frames(simplify(fo), closure(fo), max_n=3)


@functools.lru_cache(maxsize=None)
def _generated_correspondents():
    """(formula tuple, raw correspondent) for 250 distinct inputs of
    families a and b of bench/gen.py, seed 1, that ALBA solves with at most
    six free names in the raw correspondent."""
    gen = _bench_module("gen")
    out, seen = [], set()
    for family, formula, text, *_ in gen.make_inputs(1, 400):
        if family == "c" or text in seen:
            continue
        seen.add(text)
        result = run_alba(ineq(text))
        if isinstance(result, AlbaSuccess):
            fo = correspondent(result.quasis)
            if len(free_names(fo)) <= 6:
                out.append((formula, fo))
    return tuple(out[:250])


def test_simplify_agrees_with_closure():
    # corpus on every frame with n <= 3, generated inputs with n <= 2
    cases = [(correspondent(run_alba(iq).quasis), 3)
             for _, iq in load_corpus(CORPUS)]
    assert len(cases) == 13
    cases += [(fo, 2) for _, fo in _generated_correspondents()]
    assert len(cases) >= 13 + 200
    for fo, max_n in cases:
        sentence = simplify(fo)
        assert free_names(sentence) == frozenset()
        closed = closure(fo)
        for n in range(1, max_n + 1):
            frames = list(labelled_frames(n))
            assert fo_mask(frames, {}, sentence) == \
                fo_mask(frames, {}, closed), (emit_fo(fo), n)


def test_simplify_matches_the_independent_oracle():
    # bench/oracle.py reads the input formula and the simplified sentence
    # with its own evaluators, on every frame with n <= 2
    oracle = _bench_module("oracle")
    for formula, fo in _generated_correspondents():
        found = oracle.disagreement(formula, as_json(simplify(fo)))
        assert found is None, (formula, found)


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
