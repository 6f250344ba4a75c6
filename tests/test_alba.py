"""Rewrite-engine tests: preprocessing, approximation, residuation,
packing, Ackermann elimination, full runs and trace replay."""

import functools
import hashlib
import itertools
import json
import re
from collections import Counter

import pytest
from hypothesis import given, settings

from sabcorr.syntax import (
    And, Bot, Box, Dia, ExistsNom, GBox, Imp, Ineq, InvLBox, InvLDia, LBox,
    LDia, Nom, Not, Or, Prop, SBox, SDia, Top, UQIneq, EMPTY_EDGES,
    eliminate_iff, occurrence_signs, parse_inequality, print_statement,
)
from sabcorr.semantics import frame_valid, valuation_blocks
from sabcorr import alba
from sabcorr.alba import (
    AlbaFailure, AlbaSuccess, Guard, StageError, System,
    WorkItem, ackermann_eliminate, distribute, first_approximation, pack,
    preprocess, reduce_inner, reduce_outer, run_alba, _mk,
)
from sabcorr.cli import load_corpus
from sabcorr.fol import correspondent, emit_fo

from frames import arrows, frame_holds, labelled_frames, statement_props
from test_golden import ROOT, _bench_module
from test_syntax import _base_formulas

p, q, r = Prop("p"), Prop("q"), Prop("r")


def ineq(text):
    lhs, rhs = parse_inequality(text)
    return Ineq(lhs, rhs)


def _sys(items, eps=None):
    gen = map("i{}".format, itertools.count(2))  # past the goal's i0, i1
    return System(list(items), Ineq(Nom("i0"), Not(Nom("i1"))), gen,
                  eps or {"p": "1"}, [])


# ---------------------------------------------------------------------------
# stage 1

def test_distribute_examples():
    assert distribute(Dia(Or(p, q)), "+") == Or(Dia(p), Dia(q))
    assert distribute(SDia(Or(p, q)), "+") == Or(SDia(p), SDia(q))
    assert distribute(Not(And(p, q)), "+") == Or(Not(p), Not(q))
    assert distribute(And(Or(p, q), r), "+") == Or(And(p, r), And(q, r))
    assert distribute(Box(And(p, q)), "-") == And(Box(p), Box(q))
    assert distribute(SBox(And(p, q)), "-") == And(SBox(p), SBox(q))
    assert distribute(Not(Or(p, q)), "-") == And(Not(p), Not(q))
    assert distribute(Or(And(p, q), r), "-") == And(Or(p, r), Or(q, r))
    assert distribute(Imp(Or(p, q), r), "-") == And(Imp(p, r), Imp(q, r))
    assert distribute(Imp(p, And(q, r)), "-") == And(Imp(p, q), Imp(p, r))
    # nested: dia over or produced by an inner distribution
    assert distribute(Dia(Dia(Or(p, q))), "+") == \
        Or(Dia(Dia(p)), Dia(Dia(q)))
    assert distribute(And(p, Or(q, r)), "+") == Or(And(p, q), And(p, r))
    assert distribute(Or(p, And(q, r)), "-") == And(Or(p, q), Or(p, r))
    # no rule at the opposite sign, nor for inner-only or joined nodes
    assert distribute(Dia(Or(p, q)), "-") == Dia(Or(p, q))
    assert distribute(Box(Or(p, q)), "+") == Box(Or(p, q))
    assert distribute(Or(And(p, q), r), "+") == Or(And(p, q), r)
    assert distribute(Imp(Or(p, q), r), "+") == Imp(Or(p, q), r)


def test_distribution_preserves_meaning():
    cases = [(Dia(Or(p, q)), "+"), (Not(And(p, q)), "+"),
             (And(Or(p, q), r), "+"), (Box(And(p, q)), "-"),
             (Not(Or(p, q)), "-"), (Imp(Or(p, q), r), "-"),
             (SDia(Or(p, q)), "+"), (SBox(And(p, q)), "-")]
    for f, sign in cases:
        g = distribute(f, sign)
        assert g != f
        for n in (1, 2):
            for frame in labelled_frames(n):
                assert frame_holds(frame, Ineq(f, g))
                assert frame_holds(frame, Ineq(g, f))


def test_preprocess_examples():
    assert preprocess(ineq("<>(p | q) <= r")) == \
        [Ineq(Dia(p), r), Ineq(Dia(q), r)]
    assert preprocess(ineq("~p <= p")) == [Ineq(Top(), Bot())]
    assert preprocess(ineq("[]p <= p")) == [Ineq(Box(p), p)]


def test_preprocess_split_rhs_and_dedupe():
    assert preprocess(ineq("p <= q & q")) == [Ineq(p, q)]
    assert preprocess(ineq("p | q <= r")) == [Ineq(p, r), Ineq(q, r)]
    # the repeat is consumed by a recorded step that produces nothing
    trace = []
    assert preprocess(ineq("p | p <= []p"), trace) == [Ineq(p, Box(p))]
    one = "p <=^{}_{} []p"
    assert [(s.rule, s.consumed, s.produced) for s in trace] == [
        ("split", ("p | p <=^{}_{} []p",), (one, one)),
        ("dedupe", (one,), ())]


def test_preprocess_uniform_elimination_polarity():
    # all occurrences carry sign + in {+lhs, -rhs}: p := top
    assert preprocess(ineq("p <= ~p")) == [Ineq(Top(), Bot())]
    # all occurrences carry sign -: p := bot (the ~p <= p example)
    assert preprocess(ineq("~p <= p")) == [Ineq(Top(), Bot())]
    # elimination needs occurrences on both sides: q stays put here
    assert preprocess(ineq("p & ~q <= p")) == [Ineq(And(p, Not(q)), p)]


@settings(max_examples=250, deadline=None)
@given(_base_formulas.map(eliminate_iff), _base_formulas.map(eliminate_iff))
def test_preprocess_distributes_once(lhs, rhs):
    # splitting and uniform elimination never make a pair that distribution
    # removes, so the one distribution of the input is the only one needed
    trace = []
    for sub in preprocess(Ineq(lhs, rhs), trace):
        assert distribute(sub.lhs, "+") == sub.lhs
        assert distribute(sub.rhs, "-") == sub.rhs
    rules = [s.rule for s in trace]
    assert "distribute" not in rules[1:]


def test_preprocess_equivalent_on_small_frames():
    for text in ["<>(p | q) <= r", "~p <= p", "p & ~q <= p",
                 "<>(p | <>q) <= r", "[](p -> q) <= []q | <>~p"]:
        src = ineq(text)
        out = preprocess(src)
        for n in (1, 2):
            layout = valuation_blocks(n, sorted(statement_props(src)))
            for frame in labelled_frames(n):
                edges = arrows(frame)
                lhs = frame_valid(n, edges, src.lhs, src.rhs, layout)
                rhs = all(frame_valid(n, edges, o.lhs, o.rhs, layout)
                          for o in out)
                assert lhs == rhs, (text, frame)


# ---------------------------------------------------------------------------
# first approximation

def test_first_approximation():
    gen = map("i{}".format, itertools.count())
    i0, i1 = next(gen), next(gen)
    sys = first_approximation(ineq("[]p <= p"), gen, {"p": "1"}, i0, i1, [])
    assert [it.ineq for it in sys.items] == \
        [Ineq(Nom("i0"), Box(p)), Ineq(p, Not(Nom("i1")))]
    assert [it.active for it in sys.items] == ["rhs", "lhs"]
    assert sys.goal == Ineq(Nom("i0"), Not(Nom("i1")))


def test_first_approximation_parks_pure_sides():
    gen = map("i{}".format, itertools.count())
    i0, i1 = next(gen), next(gen)
    sys = first_approximation(Ineq(Top(), SDia(Top())), gen, {}, i0, i1, [])
    assert sys.items[0].active == "none"  # i0 <= top is pure, context-free
    assert sys.items[1].active == "lhs"   # <!>top is contextual


# ---------------------------------------------------------------------------
# substage 1

def test_outer_approx_dia():
    sys = _sys([_mk((), Ineq(Nom("i0"), Dia(p)), "rhs")])
    reduce_outer(sys)
    assert [it.ineq for it in sys.items] == [
        Ineq(Nom("i2"), p),
        Ineq(Nom("i0"), LDia(EMPTY_EDGES, Nom("i2")))]


def test_outer_approx_sbox():
    sys = _sys([_mk((), Ineq(SBox(p), Not(Nom("i1"))), "lhs")])
    reduce_outer(sys)
    assert [it.ineq for it in sys.items] == [
        Ineq(Nom("i2"), LDia(EMPTY_EDGES, Nom("i3"))),
        Ineq(p, Not(Nom("i1")), frozenset({("i2", "i3")}), EMPTY_EDGES)]


def test_outer_approx_box():
    sys = _sys([_mk((), Ineq(Box(p), Not(Nom("i1"))), "lhs")])
    reduce_outer(sys)
    assert [it.ineq for it in sys.items] == [
        Ineq(p, Not(Nom("i2"))),
        Ineq(LBox(EMPTY_EDGES, Not(Nom("i2"))), Not(Nom("i1")))]


def test_outer_approx_imp():
    sys = _sys([_mk((), Ineq(Imp(p, q), Not(Nom("i1"))), "lhs")],
               eps={"p": "d", "q": "1"})
    reduce_outer(sys)
    ineqs = [it.ineq for it in sys.items]
    assert Ineq(Nom("i2"), p) in ineqs
    assert Ineq(q, Not(Nom("i3"))) in ineqs
    assert Ineq(Imp(Nom("i2"), Not(Nom("i3"))), Not(Nom("i1"))) in ineqs


def test_outer_leaves_left_sdia_to_substage2():
    item = _mk((), Ineq(SDia(Top()), Not(Nom("i1"))), "lhs")
    sys = _sys([item], eps={})
    reduce_outer(sys)
    assert sys.items == [item]


def test_outer_splitting_and_res_not():
    sys = _sys([_mk((), Ineq(Nom("i0"), And(p, Not(q))), "rhs")],
               eps={"p": "1", "q": "d"})
    reduce_outer(sys)
    ineqs = [it.ineq for it in sys.items]
    assert Ineq(Nom("i0"), p) in ineqs
    assert Ineq(q, Not(Nom("i0"))) in ineqs  # via res-not


def test_outer_stage_error_on_stuck_item():
    # +or on the right has no substage-1 rule and +or is not inner, so a
    # critical variable under it leaves the item stuck.  The scan still
    # rewrites the item after it, and names the first of two stuck items
    sys = _sys([_mk((), Ineq(Nom("i0"), Or(p, p)), "rhs"),
                _mk((), Ineq(Nom("i0"), Dia(q)), "rhs"),
                _mk((), Ineq(Nom("i0"), Or(q, q)), "rhs")],
               eps={"p": "1", "q": "1"})
    with pytest.raises(StageError) as exc:
        reduce_outer(sys)
    assert exc.value.stage == "substage 1"
    assert str(exc.value) == "substage 1: stuck item i0 <=^{}_{} p | p"
    assert [step.as_dict() for step in sys.trace] == [
        {"stage": "substage-1", "rule": "approx-dia",
         "consumed": ["i0 <=^{}_{} <>q"],
         "produced": ["i2 <=^{}_{} q", "i0 <=^{}_{} dia^{} i2"]}]


# ---------------------------------------------------------------------------
# substage 2

def test_inner_res_box():
    sys = _sys([_mk((), Ineq(Nom("i0"), Box(p)), "rhs")])
    reduce_inner(sys)
    assert [it.ineq for it in sys.items] == [
        Ineq(InvLDia(EMPTY_EDGES, Nom("i0")), p)]


def test_inner_res_dia():
    sys = _sys([_mk((), Ineq(Dia(p), Not(Nom("i1"))), "lhs")],
               eps={"p": "d"})
    reduce_inner(sys)
    assert [it.ineq for it in sys.items] == [
        Ineq(p, InvLBox(EMPTY_EDGES, Not(Nom("i1"))))]


def test_inner_res_sdia_guards():
    sys = _sys([_mk((), Ineq(SDia(Top()), Not(Nom("i1"))), "lhs")], eps={})
    reduce_inner(sys)
    item = sys.items[0]
    assert item.guards == (Guard("i2", "i3", EMPTY_EDGES),)
    assert item.ineq == Ineq(Top(), Not(Nom("i1")),
                             frozenset({("i2", "i3")}), EMPTY_EDGES)
    assert print_statement(item.statement()) == (
        "forall i2 forall i3 (i2 <=^{}_{} dia^{} i3 => "
        "top <=^{(i2,i3)}_{} ~i1)")


def test_inner_res_sbox_guards():
    sys = _sys([_mk((), Ineq(Nom("i0"), SBox(p)), "rhs")])
    reduce_inner(sys)
    item = sys.items[0]
    assert item.guards == (Guard("i2", "i3", EMPTY_EDGES),)
    assert item.ineq == Ineq(Nom("i0"), p, EMPTY_EDGES,
                             frozenset({("i2", "i3")}))


def test_inner_terminal_head_untouched():
    item = _mk((), Ineq(Nom("i0"), p), "rhs")
    sys = _sys([item])
    reduce_inner(sys)
    assert sys.items == [item]


def test_inner_stage_error_on_bad_head():
    # +dia head with a critical variable cannot be decomposed in substage
    # 2.  The scan still rewrites the item after it, and names the first
    # of two bad heads
    sys = _sys([_mk((), Ineq(Nom("i0"), Dia(p)), "rhs"),
                _mk((), Ineq(Nom("i0"), Box(q)), "rhs"),
                _mk((), Ineq(Nom("i0"), Dia(q)), "rhs")],
               eps={"p": "1", "q": "1"})
    with pytest.raises(StageError) as exc:
        reduce_inner(sys)
    assert exc.value.stage == "substage 2"
    assert str(exc.value) == (
        "substage 2: non-reducible head i0 <=^{}_{} <>p")
    assert [step.as_dict() for step in sys.trace] == [
        {"stage": "substage-2", "rule": "res-box",
         "consumed": ["i0 <=^{}_{} []q"],
         "produced": ["inv-dia^{} i0 <=^{}_{} q"]}]


# ---------------------------------------------------------------------------
# packing

def test_pack_rule_1_guarded():
    g = Guard("i2", "i3", EMPTY_EDGES)
    item = WorkItem((g,), Ineq(Nom("i4"), p,
                               frozenset({("i2", "i3")}), EMPTY_EDGES), "rhs")
    sys = _sys([item])
    pack(sys)
    expect = Ineq(ExistsNom("i2", ExistsNom("i3", And(
        GBox(Imp(Nom("i2"), LDia(EMPTY_EDGES, Nom("i3")))), Nom("i4")))), p)
    assert sys.items == [expect]


def test_pack_rule_1_degenerate_erases_contexts():
    s = frozenset({("i2", "i3")})
    item = WorkItem((), Ineq(Nom("i4"), p, s, s), "rhs")
    sys = _sys([item])
    pack(sys)
    assert sys.items == [Ineq(Nom("i4"), p)]


def test_pack_rule_2():
    item = WorkItem((), Ineq(p, Not(Nom("i1"))), "lhs")
    sys = _sys([item], eps={"p": "d"})
    pack(sys)
    assert sys.items == [Ineq(p, Not(Nom("i1")))]


def test_pack_rule_3_guarded():
    g = Guard("i2", "i3", EMPTY_EDGES)
    item = WorkItem((g,), Ineq(Top(), Not(Nom("i1")),
                               frozenset({("i2", "i3")}), EMPTY_EDGES), "lhs")
    sys = _sys([item], eps={})
    pack(sys)
    expect = UQIneq(("i2", "i3"), Ineq(
        Top(),
        Imp(And(GBox(Imp(Nom("i2"), LDia(EMPTY_EDGES, Nom("i3")))), Top()),
            Not(Nom("i1")))))
    assert sys.items == [expect]


def test_pack_rule_4_uniform_head():
    # head p <=^{S}_{} ~i1 with eps(p)=1: -p is non-critical, rhs is pure
    s = frozenset({("i2", "i3")})
    item = WorkItem((), Ineq(p, Not(Nom("i1")), s, EMPTY_EDGES), "lhs")
    sys = _sys([item])
    pack(sys)
    assert sys.items == [
        Ineq(Top(), Imp(p, Not(Nom("i1"))), EMPTY_EDGES, s)]


def test_pack_stage_error_on_impure_bound():
    item = WorkItem((Guard("i2", "i3", EMPTY_EDGES),),
                    Ineq(Dia(q), p, frozenset({("i2", "i3")}), EMPTY_EDGES),
                    "rhs")
    sys = _sys([item], eps={"p": "1", "q": "1"})
    with pytest.raises(StageError) as exc:
        pack(sys)
    assert exc.value.stage == "substage 3"


# ---------------------------------------------------------------------------
# Ackermann

def test_ackermann_right_example():
    sys = _sys([Ineq(Nom("i2"), p), Ineq(Top(), Imp(p, Not(Nom("i1"))))])
    ackermann_eliminate(sys)
    assert sys.items == [Ineq(Top(), Imp(Nom("i2"), Not(Nom("i1"))))]


def test_ackermann_right_joins_bounds():
    sys = _sys([Ineq(Nom("i2"), p), Ineq(Nom("i3"), p),
                Ineq(Top(), Imp(p, Not(Nom("i1"))))])
    ackermann_eliminate(sys)
    assert sys.items == [
        Ineq(Top(), Imp(Or(Nom("i2"), Nom("i3")), Not(Nom("i1"))))]


def test_ackermann_right_empty_join_is_bot():
    sys = _sys([Ineq(Top(), Imp(p, Not(Nom("i1"))))])
    ackermann_eliminate(sys)
    assert sys.items == [Ineq(Top(), Imp(Bot(), Not(Nom("i1"))))]


def test_ackermann_left_example():
    sys = _sys([Ineq(p, Not(Nom("i1"))), Ineq(Top(), Imp(Nom("i0"), p))],
               eps={"p": "d"})
    ackermann_eliminate(sys)
    assert sys.items == [Ineq(Top(), Imp(Nom("i0"), Not(Nom("i1"))))]


def test_ackermann_polarity_precondition():
    sys = _sys([Ineq(Nom("i2"), p), Ineq(p, Not(Nom("i1")),
                                         EMPTY_EDGES, EMPTY_EDGES),
                Ineq(Top(), Imp(Not(p), Not(Nom("i1"))))])
    # the third item has p positive on the right: wrong for right-handed
    with pytest.raises(StageError) as exc:
        ackermann_eliminate(sys)
    assert exc.value.stage == "substage 4"


def _two_variable_sys(q_item):
    # p (order type 1) packs against i2, q (order type d) against ~i3, and
    # the last item holds both
    return _sys([Ineq(q, Not(Nom("i3"))), Ineq(Nom("i2"), p), q_item],
                eps={"p": "1", "q": "d"})


def test_ackermann_two_variables_in_name_order():
    sys = _two_variable_sys(Ineq(Top(), Imp(And(p, Nom("i0")), q)))
    ackermann_eliminate(sys)
    assert sys.items == [
        Ineq(Top(), Imp(And(Nom("i2"), Nom("i0")), Not(Nom("i3"))))]
    assert [(s.stage, s.rule, s.consumed, s.produced) for s in sys.trace] == [
        ("substage-4", "ackermann-right",
         ("i2 <=^{}_{} p", "top <=^{}_{} p & i0 -> q"),
         ("top <=^{}_{} i2 & i0 -> q",)),
        ("substage-4", "ackermann-left",
         ("q <=^{}_{} ~i3", "top <=^{}_{} i2 & i0 -> q"),
         ("top <=^{}_{} i2 & i0 -> ~i3",))]


def test_ackermann_wrong_polarity_names_the_substituted_item():
    # +q on the right of top <= ... is wrong for q with order type d; the
    # reason shows the item with p already replaced by its bound
    sys = _two_variable_sys(Ineq(Top(), Imp(And(p, q), Not(Nom("i1")))))
    with pytest.raises(StageError) as exc:
        ackermann_eliminate(sys)
    assert str(exc.value) == ("substage 4: q occurs with the wrong polarity "
                              "in top <=^{}_{} i2 & q -> ~i1")
    assert [s.rule for s in sys.trace] == ["ackermann-right"]


def test_ackermann_reads_each_items_signs_once(monkeypatch):
    # one sign walk per packed item, however many variables are eliminated
    walks = []

    def counted(f, sign):
        walks.append(f)
        return occurrence_signs(f, sign)

    monkeypatch.setattr(alba, "occurrence_signs", counted)
    sys = _two_variable_sys(Ineq(Top(), Imp(And(p, Nom("i0")), q)))
    ackermann_eliminate(sys)
    assert len(walks) == 3


def test_ackermann_keeps_items_without_p():
    other = UQIneq(("i2",), Ineq(Top(), Imp(Nom("i2"), Not(Nom("i1")))))
    sys = _sys([Ineq(Nom("i3"), p), other,
                Ineq(Top(), Imp(p, Not(Nom("i1"))))])
    ackermann_eliminate(sys)
    assert sys.items[0] is other
    step = sys.trace[-1]
    assert step.stage == "substage-4"
    assert all(st is not other for st in step.consumed_items)
    assert step.consumed == ("i3 <=^{}_{} p", "top <=^{}_{} p -> ~i1")


def test_ackermann_substitutes_into_uq_bodies():
    # besides a plain body, the shapes pack-3 and pack-4 make: a labelled
    # body under its guards' binders, and a bare labelled Ineq; binders,
    # sup and sub all survive the substitution
    s23 = frozenset({("i2", "i3")})
    uq = UQIneq(("i2",), Ineq(Top(), Imp(p, Nom("i2"))))
    guarded = UQIneq(("i2", "i3"), Ineq(
        Top(), Imp(And(Nom("i2"), p), Nom("i3")), EMPTY_EDGES, s23))
    bare = Ineq(Top(), Imp(p, Not(Nom("i1"))), EMPTY_EDGES, s23)
    sys = _sys([Ineq(Nom("i4"), p), uq, guarded, bare])
    ackermann_eliminate(sys)
    assert sys.items == [
        UQIneq(("i2",), Ineq(Top(), Imp(Nom("i4"), Nom("i2")))),
        UQIneq(("i2", "i3"), Ineq(Top(), Imp(And(Nom("i2"), Nom("i4")),
                                             Nom("i3")), EMPTY_EDGES, s23)),
        Ineq(Top(), Imp(Nom("i4"), Not(Nom("i1"))), EMPTY_EDGES, s23)]


# ---------------------------------------------------------------------------
# full runs

def test_run_alba_dia_p_le_p():
    result = run_alba(ineq("<>p <= p"))
    assert isinstance(result, AlbaSuccess)
    assert result.order_type == {"p": "1"}
    assert len(result.quasis) == 1
    prems = [print_statement(s) for s in result.quasis[0].premises]
    assert prems == ["i0 <=^{}_{} dia^{} i2", "top <=^{}_{} i2 -> ~i1"]
    assert print_statement(result.quasis[0].conclusion) == "i0 <=^{}_{} ~i1"


def test_run_alba_sdia_top():
    result = run_alba(Ineq(Top(), SDia(Top())))
    assert isinstance(result, AlbaSuccess)
    prems = [print_statement(s) for s in result.quasis[0].premises]
    assert prems == [
        "i0 <=^{}_{} top",
        "forall i2 forall i3 (top <=^{}_{} A (i2 -> dia^{} i3) & top -> ~i1)"]


def test_run_alba_failure_no_order_type():
    result = run_alba(ineq("[]<>p <= <>[]p"))
    assert isinstance(result, AlbaFailure)
    assert result.stage == "classify"


def test_run_alba_output_is_pure():
    for text in ["[]p <= p", "<!>[]p <= []<!>p", "[!]p <= p",
                 "p <= []<>p", "<>[]p <= []<>p"]:
        result = run_alba(ineq(text))
        assert isinstance(result, AlbaSuccess)
        for quasi in result.quasis:
            assert not statement_props(quasi)


def test_run_alba_left_handed_order_type():
    result = run_alba(ineq("p <= <>p"), {"p": "d"})
    assert isinstance(result, AlbaSuccess)
    assert result.order_type == {"p": "d"}
    assert any(step.rule == "ackermann-left" for step in result.trace)


def test_run_alba_rejects_partial_override():
    result = run_alba(ineq("p & q <= p"), {"p": "1"})
    assert isinstance(result, AlbaFailure)
    assert result.stage == "classify"


def test_run_alba_preprocessing_to_constants():
    result = run_alba(ineq("~p <= p"))
    assert isinstance(result, AlbaSuccess)
    assert result.preprocessed == (Ineq(Top(), Bot()),)


# ---------------------------------------------------------------------------
# traces

# Inputs of bench/gen.py drawn for the trace replay; their family a and b
# members take about a second to replay.
REPLAY_SAMPLE = 1500


def _replay_inputs():
    """The inequalities of the trace-replay test, each with whether ALBA
    must succeed on it: the hand-picked inputs, the two of the newer
    reference traces and the corpus entries must; the distinct family a
    and b inputs of a bench/gen.py sample, seed 1, may fail."""
    texts = ["<>p <= p", "[]p <= [!]p", "<!>[]p <= []<!>p",
             "<>(p | q) <= <>p | <>q", "top <= <!>top",
             "<!>[!](p & p) -> (~p | ((p | p) & ~bot))",
             "[](top & q) -> (((top -> p) | (top & p)) -> p)"]
    corpus = [iq for _, iq in load_corpus(ROOT / "corpus" / "sahlqvist.txt")]
    inputs = dict.fromkeys(corpus + [ineq(t) for t in texts], True)
    for family, _, text, *_ in _bench_module("gen").make_inputs(
            1, REPLAY_SAMPLE):
        if family != "c":
            inputs.setdefault(ineq(text), False)
    return inputs.items()


@functools.lru_cache(maxsize=None)
def _replay_runs():
    return [(src, must_succeed, run_alba(src))
            for src, must_succeed in _replay_inputs()]


def test_fresh_nominals_in_order():
    # one counter per run issues i0, i1, ... and every name it issues shows
    # in the trace, so the nominals of a run are i0 .. i(m-1)
    for src, _, result in _replay_runs():
        issued = {int(n) for step in result.trace
                  for text in (*step.consumed, *step.produced)
                  for n in re.findall(r"\bi([0-9]+)\b", text)}
        assert issued == set(range(len(issued))), print_statement(src)


def test_trace_replay():
    # each step consumes items of the current state and adds what it
    # produces; a successful run ends at the premises of its quasis
    successes = 0
    for src, must_succeed, result in _replay_runs():
        assert isinstance(result, AlbaSuccess) or not must_succeed, src
        state = Counter([print_statement(src)])
        for step in result.trace:
            for c in step.consumed:
                assert state[c] > 0, (src, step)
                state[c] -= 1
            for prod in step.produced:
                state[prod] += 1
        if isinstance(result, AlbaFailure):
            continue
        successes += 1
        final = Counter()
        for quasi in result.quasis:
            final.update(print_statement(s) for s in quasi.premises)
        assert +state == +final, src
    assert successes >= 1000


def test_reference_traces_pin_every_replayed_rule():
    # a rule the replay fires but no file in tests/traces shows could
    # change its output unseen
    fired = {(step.stage, step.rule)
             for _, _, result in _replay_runs() for step in result.trace}
    pinned = {(step["stage"], step["rule"])
              for path in (ROOT / "tests" / "traces").glob("*.json")
              for step in json.loads(path.read_text())}
    assert fired - pinned == set()


# sha256 of the replayed runs' output; a change meant to keep ALBA's
# output byte for byte keeps it
REPLAY_DIGEST = (
    "9f861a9fc3350188e149c9adf404cc13ee1d301f45ad840b772baed903cd1d5a")


def test_replayed_output_is_pinned():
    # one hash over every replayed run: each trace step, then the failure
    # stage and reason, or each quasi and the text correspondent; a
    # refactor that changes any of them, even the numbering of a nominal,
    # changes the hash
    digest = hashlib.sha256()
    for _, _, result in _replay_runs():
        for step in result.trace:
            digest.update(json.dumps(step.as_dict(), sort_keys=True).encode())
        if isinstance(result, AlbaFailure):
            digest.update(f"{result.stage}: {result.reason}".encode())
            continue
        for quasi in result.quasis:
            digest.update(print_statement(quasi).encode())
        digest.update(emit_fo(correspondent(result.quasis), "text").encode())
    assert digest.hexdigest() == REPLAY_DIGEST


def test_trace_is_printed_only_when_read(monkeypatch):
    printed = []
    printer = alba.print_statement

    def counting(st):
        printed.append(st)
        return printer(st)

    monkeypatch.setattr(alba, "print_statement", counting)
    result = run_alba(ineq("<!>[]p <= []<!>p"))
    assert isinstance(result, AlbaSuccess)
    assert not printed
    first = [(step.consumed, step.produced) for step in result.trace]
    assert printed
    assert [(step.consumed, step.produced) for step in result.trace] == first


def test_trace_json_shape():
    result = run_alba(ineq("<>p <= p"))
    step = result.trace[0].as_dict()
    assert list(step.keys()) == ["stage", "rule", "consumed", "produced"]
    assert step["stage"] == "first-approximation"
    assert all(isinstance(x, str) for x in step["consumed"] + step["produced"])
