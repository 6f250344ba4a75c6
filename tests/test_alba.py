"""Rewrite-engine tests: preprocessing, approximation, residuation,
packing, Ackermann elimination, full runs and trace replay."""

from collections import Counter

import pytest

from sabcorr.syntax import (
    And, Bot, Box, Dia, ExistsNom, GBox, Imp, InvLBox, InvLDia, LBox, LDia,
    Nom, Not, Or, Prop, SBox, SDia, Top, EMPTY_EDGES, FreshNominals,
    parse_inequality,
)
from sabcorr.semantics import (
    Ineq, UQIneq, frame_valid, print_statement,
    statement_props,
)
from sabcorr import alba
from sabcorr.alba import (
    AlbaFailure, AlbaSuccess, Guard, StageError, System,
    WorkItem, ackermann_eliminate, distribute, first_approximation, pack,
    preprocess, reduce_inner, reduce_outer, run_alba, _mk,
)
from sabcorr.cli import load_corpus

from frames import labelled_frames
from test_golden import ROOT, _bench_module

p, q, r = Prop("p"), Prop("q"), Prop("r")


def ineq(text):
    lhs, rhs = parse_inequality(text)
    return Ineq(lhs, rhs)


def _sys(items, eps=None, reserved=("i0", "i1")):
    gen = FreshNominals(set(reserved))
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
                assert frame_valid(frame, Ineq(f, g))
                assert frame_valid(frame, Ineq(g, f))


def test_preprocess_examples():
    assert preprocess(ineq("<>(p | q) <= r")) == \
        [Ineq(Dia(p), r), Ineq(Dia(q), r)]
    assert preprocess(ineq("~p <= p")) == [Ineq(Top(), Bot())]
    assert preprocess(ineq("[]p <= p")) == [Ineq(Box(p), p)]


def test_preprocess_split_rhs_and_dedupe():
    assert preprocess(ineq("p <= q & q")) == [Ineq(p, q)]
    assert preprocess(ineq("p | q <= r")) == [Ineq(p, r), Ineq(q, r)]


def test_preprocess_uniform_elimination_polarity():
    # all occurrences carry sign + in {+lhs, -rhs}: p := top
    assert preprocess(ineq("p <= ~p")) == [Ineq(Top(), Bot())]
    # all occurrences carry sign -: p := bot (the ~p <= p example)
    assert preprocess(ineq("~p <= p")) == [Ineq(Top(), Bot())]
    # elimination needs occurrences on both sides: q stays put here
    assert preprocess(ineq("p & ~q <= p")) == [Ineq(And(p, Not(q)), p)]


def test_preprocess_equivalent_on_small_frames():
    for text in ["<>(p | q) <= r", "~p <= p", "p & ~q <= p",
                 "<>(p | <>q) <= r", "[](p -> q) <= []q | <>~p"]:
        src = ineq(text)
        out = preprocess(src)
        for n in (1, 2):
            for frame in labelled_frames(n):
                vars = sorted(statement_props(src))
                lhs = frame_valid(frame, src, vars)
                rhs = all(frame_valid(frame, o, vars) for o in out)
                assert lhs == rhs, (text, frame)


# ---------------------------------------------------------------------------
# first approximation

def test_first_approximation():
    gen = FreshNominals()
    i0, i1 = gen.fresh(), gen.fresh()
    sys = first_approximation(ineq("[]p <= p"), gen, {"p": "1"}, i0, i1, [])
    assert [it.ineq for it in sys.items] == \
        [Ineq(Nom("i0"), Box(p)), Ineq(p, Not(Nom("i1")))]
    assert [it.active for it in sys.items] == ["rhs", "lhs"]
    assert sys.goal == Ineq(Nom("i0"), Not(Nom("i1")))


def test_first_approximation_parks_pure_sides():
    gen = FreshNominals()
    i0, i1 = gen.fresh(), gen.fresh()
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
    # critical variable under it leaves the item stuck
    sys = _sys([_mk((), Ineq(Nom("i0"), Or(p, p)), "rhs")], eps={"p": "1"})
    with pytest.raises(StageError) as exc:
        reduce_outer(sys)
    assert exc.value.stage == "substage 1"


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
    # +dia head with a critical variable cannot be decomposed in substage 2
    sys = _sys([_mk((), Ineq(Nom("i0"), Dia(p)), "rhs")])
    with pytest.raises(StageError) as exc:
        reduce_inner(sys)
    assert exc.value.stage == "substage 2"


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
    ackermann_eliminate(sys, "p", "right")
    assert sys.items == [Ineq(Top(), Imp(Nom("i2"), Not(Nom("i1"))))]


def test_ackermann_right_joins_bounds():
    sys = _sys([Ineq(Nom("i2"), p), Ineq(Nom("i3"), p),
                Ineq(Top(), Imp(p, Not(Nom("i1"))))])
    ackermann_eliminate(sys, "p", "right")
    assert sys.items == [
        Ineq(Top(), Imp(Or(Nom("i2"), Nom("i3")), Not(Nom("i1"))))]


def test_ackermann_right_empty_join_is_bot():
    sys = _sys([Ineq(Top(), Imp(p, Not(Nom("i1"))))])
    ackermann_eliminate(sys, "p", "right")
    assert sys.items == [Ineq(Top(), Imp(Bot(), Not(Nom("i1"))))]


def test_ackermann_left_example():
    sys = _sys([Ineq(p, Not(Nom("i1"))), Ineq(Top(), Imp(Nom("i0"), p))],
               eps={"p": "d"})
    ackermann_eliminate(sys, "p", "left")
    assert sys.items == [Ineq(Top(), Imp(Nom("i0"), Not(Nom("i1"))))]


def test_ackermann_polarity_precondition():
    sys = _sys([Ineq(Nom("i2"), p), Ineq(p, Not(Nom("i1")),
                                         EMPTY_EDGES, EMPTY_EDGES),
                Ineq(Top(), Imp(Not(p), Not(Nom("i1"))))])
    # the third item has p positive on the right: wrong for right-handed
    with pytest.raises(StageError) as exc:
        ackermann_eliminate(sys, "p", "right")
    assert exc.value.stage == "substage 4"


def test_ackermann_keeps_items_without_p():
    other = UQIneq(("i2",), Ineq(Top(), Imp(Nom("i2"), Not(Nom("i1")))))
    sys = _sys([Ineq(Nom("i3"), p), other,
                Ineq(Top(), Imp(p, Not(Nom("i1"))))])
    ackermann_eliminate(sys, "p", "right")
    assert sys.items[0] is other
    step = sys.trace[-1]
    assert step.stage == "substage-4"
    assert all(st is not other for st in step.consumed_items)
    assert step.consumed == ("i3 <=^{}_{} p", "top <=^{}_{} p -> ~i1")


def test_ackermann_substitutes_into_uq_bodies():
    uq = UQIneq(("i2",), Ineq(Top(), Imp(p, Nom("i2"))))
    sys = _sys([Ineq(Nom("i3"), p), uq])
    ackermann_eliminate(sys, "p", "right")
    assert sys.items == [
        UQIneq(("i2",), Ineq(Top(), Imp(Nom("i3"), Nom("i2"))))]


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


def test_trace_replay():
    # each step consumes items of the current state and adds what it
    # produces; a successful run ends at the premises of its quasis.
    # preprocess keeps one copy of a repeated sub-problem and records no
    # step for it, so the state is made a set when stage 1 ends.
    successes = 0
    for src, must_succeed in _replay_inputs():
        result = run_alba(src)
        assert isinstance(result, AlbaSuccess) or not must_succeed, src
        state = Counter([print_statement(src)])
        preprocessing = True
        for step in result.trace:
            if preprocessing and step.stage != "preprocess":
                preprocessing = False
                state = Counter(set(+state))
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
