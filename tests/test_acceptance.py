"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (with its runtime) directly to the
terminal and enforces a pinned wall-clock bound.
"""

import itertools
import random
import time
from pathlib import Path

from sabcorr.syntax import (
    And, Bot, Box, Dia, ExistsNom, ForallNom, GBox, Imp, Ineq, InvLBox,
    InvLDia, LBox, LDia, MegaGuard, Nom, Not, Or, Prop, QuasiUQ, SBox, SDia,
    Top, UQIneq, EMPTY_EDGES, is_fixed, parse_inequality,
)
from sabcorr.semantics import frame_valid, valuation_blocks
from sabcorr.sahlqvist import (
    find_order_type, has_critical_occurrence, is_definite, is_epsilon_sahlqvist,
)
from sabcorr.alba import (
    AlbaSuccess, first_approximation, pack, preprocess, reduce_inner,
    reduce_outer, run_alba,
)
from sabcorr.fol import (
    FOExists, FOForall, Rel, correspondent, emit_fo, simplify, st_statement,
)
from sabcorr.cli import load_corpus

from fo_equiv import (
    closure, fo_equiv_on_small_frames, free_names, translate_formula,
)
from frames import (
    KripkeFrame, arrows, fo_mask, frame_holds, labelled_frames, oracle_holds,
    satisfies, statement_props, valuation,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "sahlqvist.txt"

p, q = Prop("p"), Prop("q")


def _report(capsys, label, limit, fn):
    t0 = time.monotonic()
    try:
        fn()
        dt = time.monotonic() - t0
        ok = dt < limit
    except BaseException:
        dt = time.monotonic() - t0
        with capsys.disabled():
            print(f"\n{label}: FAIL ({dt:.1f}s, bound {limit:.0f}s)")
        raise
    with capsys.disabled():
        print(f"\n{label}: {'PASS' if ok else 'FAIL'} "
              f"({dt:.1f}s, bound {limit:.0f}s)")
    assert ok, f"exceeded time bound: {dt:.1f}s >= {limit:.0f}s"


def _rand_frame(rng, max_n=3):
    n = rng.randint(1, max_n)
    edges = frozenset((i, j) for i in range(n) for j in range(n)
                      if rng.random() < 0.4)
    return KripkeFrame(n, edges)


def _rand_val(rng, frame, prop_names, nom_names):
    props = {v: {w for w in range(frame.n) if rng.random() < 0.5}
             for v in prop_names}
    noms = {n: rng.randrange(frame.n) for n in nom_names}
    return valuation(props, noms)


def _rand_base(rng, depth):
    leaves = [p, q, Top(), Bot()]
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(leaves)
    op = rng.choice(["not", "and", "or", "imp", "box", "dia", "sbox", "sdia"])
    if op == "not":
        return Not(_rand_base(rng, depth - 1))
    if op in ("and", "or", "imp"):
        cls = {"and": And, "or": Or, "imp": Imp}[op]
        return cls(_rand_base(rng, depth - 1), _rand_base(rng, depth - 1))
    cls = {"box": Box, "dia": Dia, "sbox": SBox, "sdia": SDia}[op]
    return cls(_rand_base(rng, depth - 1))


# ---------------------------------------------------------------------------
# criterion 1: translation correctness for formulas

def test_criterion_1_formula_translation(capsys):
    def run():
        rng = random.Random(1)
        for _ in range(1000):
            frame = _rand_frame(rng)
            val = _rand_val(rng, frame, ("p", "q"), ())
            f = _rand_base(rng, 3)
            w = rng.randrange(frame.n)
            direct = satisfies(frame, val, frozenset(), w, f)
            fo = fo_mask([frame], {**val, "x": w}, translate_formula(f))
            assert direct == bool(fo), (frame, val, w, f)
    _report(capsys, "criterion 1 (formula translation, 1000 random triples)",
            10.0, run)


# ---------------------------------------------------------------------------
# criterion 2: translation correctness for statements

def _rand_expanded(rng, depth):
    leaves = [p, q, Top(), Bot(), Nom("i1"), Nom("i2"), Nom("i4"), Nom("i5")]
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(leaves)
    pairs = [("i1", "i2"), ("i2", "i1")]
    s = frozenset(rng.sample(pairs, rng.randint(0, 2)))
    op = rng.choice(["not", "and", "or", "imp", "box", "dia", "sbox", "sdia",
                     "ldia", "lbox", "invldia", "invlbox", "gbox",
                     "existsnom", "forallnom"])
    if op in ("and", "or", "imp"):
        cls = {"and": And, "or": Or, "imp": Imp}[op]
        return cls(_rand_expanded(rng, depth - 1),
                   _rand_expanded(rng, depth - 1))
    child = _rand_expanded(rng, depth - 1)
    if op in ("ldia", "lbox", "invldia", "invlbox"):
        cls = {"ldia": LDia, "lbox": LBox,
               "invldia": InvLDia, "invlbox": InvLBox}[op]
        return cls(s, child)
    if op in ("existsnom", "forallnom"):
        cls = ExistsNom if op == "existsnom" else ForallNom
        return cls(rng.choice(["i1", "i2"]), child)
    cls = {"not": Not, "box": Box, "dia": Dia, "sbox": SBox, "sdia": SDia,
           "gbox": GBox}[op]
    return cls(child)


def _rand_ineq(rng, depth=2):
    pairs = [("i1", "i2"), ("i2", "i1")]
    sup = frozenset(rng.sample(pairs, rng.randint(0, 1)))
    sub = frozenset(rng.sample(pairs, rng.randint(0, 1)))
    return Ineq(_rand_expanded(rng, depth), _rand_expanded(rng, depth),
                sup, sub)


def _rand_statement(rng, kind):
    if kind == 0:
        return _rand_ineq(rng)
    if kind == 1:
        pairs = [("i1", "i2")]
        s = frozenset(rng.sample(pairs, rng.randint(0, 1)))
        return MegaGuard("i4", "i5", s, _rand_ineq(rng, 1))
    if kind == 2:
        return UQIneq(("i4",), _rand_ineq(rng, 1))
    return QuasiUQ((UQIneq(("i4",), _rand_ineq(rng, 1)),),
                   UQIneq(("i5",), _rand_ineq(rng, 1)))


def test_criterion_2_statement_translation(capsys):
    def run():
        rng = random.Random(2)
        for k in range(500):
            frame = _rand_frame(rng)
            val = _rand_val(rng, frame, ("p", "q"),
                            ("i1", "i2", "i4", "i5"))
            s = _rand_statement(rng, k % 4)
            direct = oracle_holds(frame, val, s)
            fo = fo_mask([frame], val, st_statement(s))
            assert direct == bool(fo), (frame, val, s)
    _report(capsys, "criterion 2 (statement translation, 500 random, "
            "all four forms)", 10.0, run)


# ---------------------------------------------------------------------------
# criterion 3: per-rule soundness

def _frames2():
    for n in (1, 2):
        yield from labelled_frames(n)


def _all_vals(frame, prop_names, nom_names):
    worlds = range(frame.n)
    subsets = [frozenset(c) for k in range(len(worlds) + 1)
               for c in itertools.combinations(worlds, k)]
    for pv in itertools.product(subsets, repeat=len(prop_names)):
        for nv in itertools.product(worlds, repeat=len(nom_names)):
            yield valuation(dict(zip(prop_names, pv)),
                            dict(zip(nom_names, nv)))


def _rule_equiv(premises, conclusions, fresh=(), prop_names=("p", "q"),
                nom_names=()):
    """Premise set holds iff some assignment of the fresh nominals makes
    every conclusion hold; checked on every frame n <= 2, every valuation."""
    for frame in _frames2():
        worlds = range(frame.n)
        for val in _all_vals(frame, prop_names, nom_names):
            lhs = all(oracle_holds(frame, val, s) for s in premises)
            rhs = False
            for picks in itertools.product(worlds, repeat=len(fresh)):
                v2 = {**val, **dict(zip(fresh, picks))}
                if all(oracle_holds(frame, v2, s) for s in conclusions):
                    rhs = True
                    break
            assert lhs == rhs, (frame, val, premises, conclusions)


def _formula_equiv(f, g, deleted_too=True):
    for frame in _frames2():
        for val in _all_vals(frame, ("p", "q", "r"), ()):
            dels = [frozenset()]
            if deleted_too:
                dels = [frozenset(c) for k in range(len(frame.r0) + 1)
                        for c in itertools.combinations(frame.r0, k)]
            for dele in dels:
                for w in range(frame.n):
                    assert satisfies(frame, val, dele, w, f) == \
                        satisfies(frame, val, dele, w, g)


S1 = frozenset({("i8", "i9")})
r = Prop("r")


def test_criterion_3_per_rule_soundness(capsys):
    def run():
        # stage 1: the twelve distribution equivalences, in any context
        for f, g in [
            (Dia(Or(p, q)), Or(Dia(p), Dia(q))),
            (SDia(Or(p, q)), Or(SDia(p), SDia(q))),
            (Not(And(p, q)), Or(Not(p), Not(q))),
            (And(Or(p, q), r), Or(And(p, r), And(q, r))),
            (And(r, Or(p, q)), Or(And(r, p), And(r, q))),
            (Box(And(p, q)), And(Box(p), Box(q))),
            (SBox(And(p, q)), And(SBox(p), SBox(q))),
            (Not(Or(p, q)), And(Not(p), Not(q))),
            (Or(And(p, q), r), And(Or(p, r), Or(q, r))),
            (Or(r, And(p, q)), And(Or(r, p), Or(r, q))),
            (Imp(Or(p, q), r), And(Imp(p, r), Imp(q, r))),
            (Imp(r, And(p, q)), And(Imp(r, p), Imp(r, q))),
        ]:
            _formula_equiv(f, g)

        # stage 1: splitting
        _rule_equiv([Ineq(p, And(q, r))], [Ineq(p, q), Ineq(p, r)],
                    prop_names=("p", "q", "r"))
        _rule_equiv([Ineq(Or(p, q), r)], [Ineq(p, r), Ineq(q, r)],
                    prop_names=("p", "q", "r"))

        # stage 1: uniform variable elimination (scripted instances)
        for frame in _frames2():
            assert frame_holds(frame, Ineq(Not(p), p)) == \
                frame_holds(frame, Ineq(Top(), Bot()))
            assert frame_holds(frame, Ineq(p, Not(p))) == \
                frame_holds(frame, Ineq(Top(), Bot()))

        # first approximation (i0/i1 closed universally)
        for lhs, rhs in [(Box(p), p), (Dia(p), p), (Top(), SDia(Top()))]:
            quasi = QuasiUQ((Ineq(Nom("i0"), lhs), Ineq(rhs, Not(Nom("i1")))),
                            Ineq(Nom("i0"), Not(Nom("i1"))))
            _rule_equiv([Ineq(lhs, rhs)], [UQIneq(("i0", "i1"), quasi)])

        i0, ni1 = Nom("i0"), Not(Nom("i1"))
        noms = ("i0", "i1", "i8", "i9")

        # substage 1 approximation rules (fresh-name, set-to-set)
        _rule_equiv([Ineq(i0, Dia(p), EMPTY_EDGES, S1)],
                    [Ineq(Nom("i2"), p, S1, S1),
                     Ineq(i0, LDia(S1, Nom("i2")), EMPTY_EDGES, S1)],
                    fresh=("i2",), nom_names=noms)
        _rule_equiv([Ineq(Box(p), ni1, S1, EMPTY_EDGES)],
                    [Ineq(p, Not(Nom("i2")), S1, S1),
                     Ineq(LBox(S1, Not(Nom("i2"))), ni1, S1, EMPTY_EDGES)],
                    fresh=("i2",), nom_names=noms)
        _rule_equiv([Ineq(i0, SDia(Dia(p)), EMPTY_EDGES, S1)],
                    [Ineq(Nom("i2"), LDia(S1, Nom("i3")), S1, S1),
                     Ineq(i0, Dia(p), EMPTY_EDGES, S1 | {("i2", "i3")})],
                    fresh=("i2", "i3"), nom_names=noms)
        _rule_equiv([Ineq(SBox(Box(p)), ni1, S1, EMPTY_EDGES)],
                    [Ineq(Nom("i2"), LDia(S1, Nom("i3")), S1, S1),
                     Ineq(Box(p), ni1, S1 | {("i2", "i3")}, EMPTY_EDGES)],
                    fresh=("i2", "i3"), nom_names=noms)
        _rule_equiv([Ineq(Imp(p, q), ni1, S1, EMPTY_EDGES)],
                    [Ineq(Nom("i2"), p, S1, S1),
                     Ineq(q, Not(Nom("i3")), S1, S1),
                     Ineq(Imp(Nom("i2"), Not(Nom("i3"))), ni1, S1,
                          EMPTY_EDGES)],
                    fresh=("i2", "i3"), nom_names=noms)

        # residuation for negation, both directions
        _rule_equiv([Ineq(i0, Not(Dia(p)), EMPTY_EDGES, S1)],
                    [Ineq(Dia(p), Not(Nom("i0")), S1, EMPTY_EDGES)],
                    nom_names=noms)
        _rule_equiv([Ineq(Not(Dia(p)), ni1, S1, EMPTY_EDGES)],
                    [Ineq(Nom("i1"), Dia(p), EMPTY_EDGES, S1)],
                    nom_names=noms)

        # substage 2 residuation rules
        _rule_equiv([Ineq(Dia(p), q, S1, EMPTY_EDGES)],
                    [Ineq(p, InvLBox(S1, q), S1, EMPTY_EDGES)],
                    nom_names=noms)
        _rule_equiv([Ineq(q, Box(p), EMPTY_EDGES, S1)],
                    [Ineq(InvLDia(S1, q), p, EMPTY_EDGES, S1)],
                    nom_names=noms)
        _rule_equiv([Ineq(SDia(p), q, S1, EMPTY_EDGES)],
                    [MegaGuard("i2", "i3", S1,
                               Ineq(p, q, S1 | {("i2", "i3")}, EMPTY_EDGES))],
                    nom_names=noms)
        _rule_equiv([Ineq(q, SBox(p), EMPTY_EDGES, S1)],
                    [MegaGuard("i2", "i3", S1,
                               Ineq(q, p, EMPTY_EDGES, S1 | {("i2", "i3")}))],
                    nom_names=noms)

        # second splitting rule, under a guard
        _rule_equiv([MegaGuard("i2", "i3", EMPTY_EDGES,
                               Ineq(p, And(q, r), S1, EMPTY_EDGES))],
                    [MegaGuard("i2", "i3", EMPTY_EDGES,
                               Ineq(p, q, S1, EMPTY_EDGES)),
                     MegaGuard("i2", "i3", EMPTY_EDGES,
                               Ineq(p, r, S1, EMPTY_EDGES))],
                    prop_names=("p", "q", "r"), nom_names=("i8", "i9"))

        # packing rules 1-4
        guard = GBox(Imp(Nom("i2"), LDia(EMPTY_EDGES, Nom("i3"))))
        s23 = frozenset({("i2", "i3")})
        _rule_equiv([MegaGuard("i2", "i3", EMPTY_EDGES,
                               Ineq(Nom("i8"), p, s23, EMPTY_EDGES))],
                    [Ineq(ExistsNom("i2", ExistsNom(
                        "i3", And(guard, Nom("i8")))), p)],
                    nom_names=("i8",))
        _rule_equiv([MegaGuard("i2", "i3", EMPTY_EDGES,
                               Ineq(p, Not(Nom("i8")), EMPTY_EDGES, s23))],
                    [Ineq(p, ForallNom("i2", ForallNom(
                        "i3", Imp(guard, Not(Nom("i8"))))))],
                    nom_names=("i8",))
        _rule_equiv([MegaGuard("i2", "i3", EMPTY_EDGES,
                               Ineq(Top(), Not(Nom("i8")), s23,
                                    EMPTY_EDGES))],
                    [UQIneq(("i2", "i3"),
                            Ineq(Top(), Imp(And(guard, Top()),
                                            Not(Nom("i8")))))],
                    nom_names=("i8",))
        _rule_equiv([Ineq(p, Not(Nom("i8")), S1, EMPTY_EDGES)],
                    [Ineq(Top(), Imp(p, Not(Nom("i8"))), EMPTY_EDGES, S1)],
                    nom_names=("i8", "i9"))

        # Ackermann, right- and left-handed (existential over the variable)
        def ackermann_case(with_p, without_p, var="p"):
            for frame in _frames2():
                worlds = range(frame.n)
                subsets = [frozenset(c) for k in range(len(worlds) + 1)
                           for c in itertools.combinations(worlds, k)]
                for val in _all_vals(frame, ("q",), ("i1", "i2", "i3")):
                    lhs = any(
                        all(oracle_holds(
                            frame,
                            {**val, var: sum(1 << w for w in choice)},
                            s) for s in with_p)
                        for choice in subsets)
                    rhs = all(oracle_holds(frame, val, s)
                              for s in without_p)
                    assert lhs == rhs, (frame, val)

        ackermann_case(
            [Ineq(Nom("i2"), p), Ineq(Nom("i3"), p),
             Ineq(Top(), Imp(p, Not(Nom("i1"))))],
            [Ineq(Top(), Imp(Or(Nom("i2"), Nom("i3")), Not(Nom("i1"))))])
        ackermann_case(
            [Ineq(p, Not(Nom("i2"))), Ineq(Top(), Imp(Nom("i3"), p))],
            [Ineq(Top(), Imp(Nom("i3"), Not(Nom("i2"))))])
        # empty bound set: the join is bot
        ackermann_case(
            [Ineq(Top(), Imp(p, q))],
            [Ineq(Top(), Imp(Bot(), q))])
    _report(capsys, "criterion 3 (per-rule soundness, all frames n <= 2)",
            60.0, run)


# ---------------------------------------------------------------------------
# criteria 4 and 7: end-to-end soundness and purity

_SUCCESSES = []


def test_criterion_4_end_to_end_soundness(capsys):
    def run():
        entries = load_corpus(CORPUS)
        assert len(entries) >= 12
        required = ["[]p -> p", "<>p -> p", "p -> <>p", "<><>p -> <>p",
                    "[]p -> [!]p", "<!>[]p -> []<!>p", "top -> <!>top",
                    "<!>top -> <>top", "<!>p -> <>p"]
        shipped = {Ineq(*parse_inequality(t)) for t in required}
        assert shipped <= {iq for _, iq in entries}
        sizes = [list(labelled_frames(n)) for n in (1, 2, 3)]
        assert sum(map(len, sizes)) == 530
        for label, iq in entries:
            result = run_alba(iq)
            assert isinstance(result, AlbaSuccess), label
            _SUCCESSES.append((label, result))
            fo = correspondent(result.quasis)
            vars = sorted(statement_props(iq))
            for n, frames in enumerate(sizes, 1):
                holds = fo_mask(frames, {}, closure(fo))
                layout = valuation_blocks(n, vars)
                for k, frame in enumerate(frames):
                    assert frame_valid(n, arrows(frame), iq.lhs, iq.rhs,
                                       layout) == bool(holds >> k & 1), \
                        (label, frame)
    _report(capsys, "criterion 4 (end-to-end soundness, corpus x 530 frames)",
            300.0, run)


# ---------------------------------------------------------------------------
# criterion 5: known correspondents

def _closed(fo):
    for name in sorted(free_names(fo), reverse=True):
        fo = FOForall(name, fo)
    return fo


def test_criterion_5_known_correspondents(capsys):
    def run():
        from sabcorr.fol import Eq, FOImp
        refl = FOForall("x", Rel("x", "x"))
        partial_fn = FOForall("x", FOForall("y", FOImp(Rel("x", "y"),
                                                       Eq("x", "y"))))
        nonempty = FOExists("y", FOExists("z", Rel("y", "z")))
        refl_if_nonempty = FOImp(nonempty, refl)
        cases = [("[]p -> p", refl), ("<>p -> p", partial_fn),
                 ("[]p -> [!]p", refl_if_nonempty)]
        for text, expected in cases:
            iq = Ineq(*parse_inequality(text))
            result = run_alba(iq)
            assert isinstance(result, AlbaSuccess), text
            fo = _closed(correspondent(result.quasis))
            assert fo_equiv_on_small_frames(fo, expected, max_n=3), text
        # the simplified sentences read as the textbook conditions
        reflexive = "forall x. R(x,x)"
        nonempty = "exists x. exists y. R(x,y)"
        printed = {
            "[]p -> p": reflexive,
            "p -> <>p": reflexive,
            "p -> []<>p": "forall x. forall y. (R(y,x) | ~R(x,y))",
            "[]p -> [][]p":
                "forall x. forall y. (~R(x,y) | forall z. (R(x,z) | ~R(y,z)))",
            "top -> <!>top": nonempty,
            "[!]p -> p": nonempty,
        }
        for text, expected in printed.items():
            result = run_alba(Ineq(*parse_inequality(text)))
            assert isinstance(result, AlbaSuccess), text
            assert emit_fo(simplify(correspondent(result.quasis))) == \
                expected, text
    _report(capsys, "criterion 5 (known first-order correspondents, n <= 3)",
            60.0, run)


# ---------------------------------------------------------------------------
# criterion 6: the success theorem

def _gen_inner(rng, depth, vars):
    if depth == 0 or rng.random() < 0.4:
        return Prop(rng.choice(vars))
    op = rng.choice(["box", "sbox", "and"])
    if op == "and":
        return And(_gen_inner(rng, depth - 1, vars),
                   _gen_inner(rng, depth - 1, vars))
    return (Box if op == "box" else SBox)(_gen_inner(rng, depth - 1, vars))


def _gen_outer(rng, depth, vars):
    if depth == 0:
        return _gen_inner(rng, rng.randint(0, 2), vars)
    op = rng.choice(["dia", "sdia", "and", "or", "stop"])
    if op == "stop":
        return _gen_inner(rng, rng.randint(0, 2), vars)
    if op in ("and", "or"):
        cls = And if op == "and" else Or
        return cls(_gen_outer(rng, depth - 1, vars),
                   _gen_outer(rng, depth - 1, vars))
    return (Dia if op == "dia" else SDia)(_gen_outer(rng, depth - 1, vars))


def _gen_positive(rng, depth, vars):
    leaves = [Prop(v) for v in vars] + [Top(), Bot()]
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(leaves)
    op = rng.choice(["and", "or", "box", "dia", "sbox", "sdia"])
    if op in ("and", "or"):
        cls = And if op == "and" else Or
        return cls(_gen_positive(rng, depth - 1, vars),
                   _gen_positive(rng, depth - 1, vars))
    cls = {"box": Box, "dia": Dia, "sbox": SBox, "sdia": SDia}[op]
    return cls(_gen_positive(rng, depth - 1, vars))


def test_criterion_6_success_theorem(capsys):
    def run():
        entries = load_corpus(CORPUS)
        for label, iq in entries:
            if find_order_type(iq) is None:
                continue
            result = run_alba(iq)
            assert isinstance(result, AlbaSuccess), label
        rng = random.Random(6)
        made = 0
        while made < 200:
            vars = ["p", "q"][:rng.randint(1, 2)]
            iq = Ineq(_gen_outer(rng, rng.randint(0, 2), vars),
                      _gen_positive(rng, rng.randint(0, 2), vars))
            eps = {v: "1" for v in vars if v in
                   sorted(statement_props(iq))}
            if not is_epsilon_sahlqvist(iq, eps):
                continue
            result = run_alba(iq)
            assert isinstance(result, AlbaSuccess), iq
            _SUCCESSES.append(("generated", result))
            made += 1
    _report(capsys, "criterion 6 (success on Sahlqvist inputs, corpus + 200 "
            "generated)", 60.0, run)


# ---------------------------------------------------------------------------
# criterion 7: purity of every successful output

def test_criterion_7_purity(capsys):
    def run():
        assert len(_SUCCESSES) >= 200 + 13
        for label, result in _SUCCESSES:
            for quasi in result.quasis:
                assert not statement_props(quasi), label
    _report(capsys, "criterion 7 (purity of all successful outputs)",
            60.0, run)


# ---------------------------------------------------------------------------
# criterion 8: stage postconditions

def test_criterion_8_stage_postconditions(capsys):
    def run():
        entries = load_corpus(CORPUS)
        for label, iq in entries:
            eps = find_order_type(iq)
            assert eps is not None, label
            gen = map("i{}".format, itertools.count())
            i0, i1 = next(gen), next(gen)
            pre = preprocess(iq)
            for one in pre:
                # after stage 1: definite epsilon-Sahlqvist
                assert is_epsilon_sahlqvist(one, eps), label
                for side, sign in ((one.lhs, "+"), (one.rhs, "-")):
                    assert is_definite(side, sign, eps), label
            for one in pre:
                sys = first_approximation(one, gen, eps, i0, i1, [])
                reduce_outer(sys)
                # after substage 1: parked (pure and context-free), or
                # nominal-headed with an inner-Sahlqvist active side
                # (checked inside reduce_outer; re-checked structurally
                # here)
                for item in sys.items:
                    if item.active == "none":
                        assert is_fixed(item.ineq.lhs)
                        assert is_fixed(item.ineq.rhs)
                    elif item.active == "rhs":
                        assert isinstance(item.ineq.lhs, Nom)
                    else:
                        assert isinstance(item.ineq.rhs, Not)
                        assert isinstance(item.ineq.rhs.child, Nom)
                reduce_inner(sys)
                # after substage 2: heads are critical variables or
                # epsilon-dual-uniform with one pure side
                for item in sys.items:
                    if item.active == "none":
                        continue
                    head = (item.ineq.rhs if item.active == "rhs"
                            else item.ineq.lhs)
                    other = (item.ineq.lhs if item.active == "rhs"
                             else item.ineq.rhs)
                    sign = "+" if item.active == "rhs" else "-"
                    packs = "1" if sign == "+" else "d"
                    if isinstance(head, Prop) and eps.get(head.name) == packs:
                        assert is_fixed(other)
                    else:
                        assert not has_critical_occurrence(head, sign, eps)
                pack(sys)
                # after substage 3: Ackermann-ready shapes
                for st in sys.items:
                    assert isinstance(st, (Ineq, UQIneq))
                    body = st.body if isinstance(st, UQIneq) else st
                    for v, h in sorted(eps.items()):
                        bound_side = body.rhs if h == "1" else body.lhs
                        if bound_side == Prop(v):
                            other = body.lhs if h == "1" else body.rhs
                            assert is_fixed(other)
                            assert not st.sup and not st.sub \
                                if isinstance(st, Ineq) else True
    _report(capsys, "criterion 8 (stage postconditions on corpus inputs)",
            60.0, run)
