"""Kripke semantics tests against an independent extension-set oracle.

The oracle computes the extension (set of satisfying worlds) of a formula
bottom-up over an explicit relation, recursing on the relation itself for
the deletion modalities.  It shares no code with sabcorr.semantics.
"""

import itertools
from collections import Counter

import pytest

from sabcorr.syntax import (
    And, Bot, Box, Dia, ExistsNom, ForallNom, GBox, GDia, Imp, InvLBox,
    InvLDia, LBox, LDia, Nom, Not, Or, Prop, SBox, SDia, Top, EMPTY_EDGES,
)
from sabcorr.semantics import (
    EvalError, Ineq, KripkeFrame, MegaAnd, MegaGuard, QuasiUQ, UQIneq,
    Valuation, closure, edges_of, enumerate_frames, eval_statement,
    frame_valid, STATEMENTS, Statement, map_formulas, print_statement,
    satisfies, statement_nominals, statement_props, valuations,
)

from frames import labelled_frames

p, q = Prop("p"), Prop("q")


# ---------------------------------------------------------------------------
# independent oracle

def oracle_ext(f, worlds, r0, rel, props, noms):
    """Worlds where f holds; rel is the current relation, r0 the baseline."""
    if isinstance(f, Bot):
        return set()
    if isinstance(f, Top):
        return set(worlds)
    if isinstance(f, Prop):
        return set(props.get(f.name, set()))
    if isinstance(f, Nom):
        return {noms[f.name]}
    if isinstance(f, Not):
        return set(worlds) - oracle_ext(f.child, worlds, r0, rel, props, noms)
    if isinstance(f, And):
        return (oracle_ext(f.left, worlds, r0, rel, props, noms)
                & oracle_ext(f.right, worlds, r0, rel, props, noms))
    if isinstance(f, Or):
        return (oracle_ext(f.left, worlds, r0, rel, props, noms)
                | oracle_ext(f.right, worlds, r0, rel, props, noms))
    if isinstance(f, Imp):
        return ((set(worlds)
                 - oracle_ext(f.left, worlds, r0, rel, props, noms))
                | oracle_ext(f.right, worlds, r0, rel, props, noms))
    if isinstance(f, Dia):
        good = oracle_ext(f.child, worlds, r0, rel, props, noms)
        return {w for w in worlds if any((w, v) in rel for v in good)}
    if isinstance(f, Box):
        good = oracle_ext(f.child, worlds, r0, rel, props, noms)
        return {w for w in worlds
                if all(v in good for (u, v) in rel if u == w)}
    if isinstance(f, SDia):
        return {w for w in worlds
                if any(w in oracle_ext(f.child, worlds, r0, rel - {e},
                                       props, noms) for e in rel)}
    if isinstance(f, SBox):
        return {w for w in worlds
                if all(w in oracle_ext(f.child, worlds, r0, rel - {e},
                                       props, noms) for e in rel)}
    if isinstance(f, (LDia, LBox, InvLDia, InvLBox)):
        labeled = r0 - {(noms[a], noms[b]) for (a, b) in f.s}
        good = oracle_ext(f.child, worlds, r0, rel, props, noms)
        if isinstance(f, LDia):
            return {w for w in worlds
                    if any((w, v) in labeled for v in good)}
        if isinstance(f, LBox):
            return {w for w in worlds
                    if all(v in good for (u, v) in labeled if u == w)}
        if isinstance(f, InvLDia):
            return {w for w in worlds
                    if any((v, w) in labeled for v in good)}
        return {w for w in worlds
                if all(u in good for (u, v) in labeled if v == w)}
    if isinstance(f, GDia):
        good = oracle_ext(f.child, worlds, r0, rel, props, noms)
        return set(worlds) if good else set()
    if isinstance(f, GBox):
        good = oracle_ext(f.child, worlds, r0, rel, props, noms)
        return set(worlds) if good == set(worlds) else set()
    if isinstance(f, ExistsNom):
        out = set()
        for v in worlds:
            out |= oracle_ext(f.child, worlds, r0, rel, props,
                              {**noms, f.nom: v})
        return out
    if isinstance(f, ForallNom):
        out = set(worlds)
        for v in worlds:
            out &= oracle_ext(f.child, worlds, r0, rel, props,
                              {**noms, f.nom: v})
        return out
    raise AssertionError(f)


_POOL = [
    Top(), Bot(), p, Not(p), And(p, q), Or(p, Not(q)), Imp(p, q),
    Dia(p), Box(p), SDia(p), SBox(p), Dia(Box(p)), SDia(Top()),
    SBox(Dia(p)), SDia(SDia(Top())), Box(SDia(Top())), Nom("i1"),
    LDia(frozenset({("i1", "i2")}), Top()),
    LBox(frozenset({("i1", "i2")}), p),
    InvLDia(EMPTY_EDGES, Nom("i1")), InvLBox(EMPTY_EDGES, p),
    GBox(Imp(Nom("i1"), Dia(p))), GDia(Nom("i2")),
    ExistsNom("i3", And(Nom("i3"), p)), ForallNom("i3", Or(Nom("i3"), Top())),
]


def _frames(max_n):
    for n in range(1, max_n + 1):
        yield from labelled_frames(n)


def _valuations(frame, prop_names=("p", "q"), nom_names=("i1", "i2")):
    worlds = list(frame.worlds)
    subsets = [frozenset(c) for k in range(len(worlds) + 1)
               for c in itertools.combinations(worlds, k)]
    for pv in itertools.product(subsets, repeat=len(prop_names)):
        for nv in itertools.product(worlds, repeat=len(nom_names)):
            yield Valuation.make(dict(zip(prop_names, pv)),
                                 dict(zip(nom_names, nv)))


def test_satisfies_matches_oracle_exhaustively():
    for frame in _frames(2):
        worlds = set(frame.worlds)
        for val in _valuations(frame):
            props = {k: {w for w in worlds if m >> w & 1}
                     for k, m in val.props.items()}
            noms = dict(val.noms)
            for f in _POOL:
                ext = oracle_ext(f, worlds, frame.r0, set(frame.r0),
                                 props, noms)
                for w in worlds:
                    assert satisfies(frame, val, frozenset(), w, f) == \
                        (w in ext), (frame, val, f, w)


def test_satisfies_examples():
    loop = KripkeFrame(1, frozenset({(0, 0)}))
    empty = KripkeFrame(1, frozenset())
    v = Valuation.make({}, {})
    assert satisfies(loop, v, frozenset(), 0, SDia(Top()))
    assert satisfies(empty, v, frozenset(), 0, SBox(Bot()))
    v2 = Valuation.make({}, {"i1": 0, "i2": 0})
    assert not satisfies(loop, v2, frozenset(), 0,
                         LDia(frozenset({("i1", "i2")}), Top()))


def test_uninterpreted_nominal_raises():
    f = KripkeFrame(1, frozenset())
    with pytest.raises(EvalError):
        satisfies(f, Valuation.make({}, {}), frozenset(), 0, Nom("i9"))


def test_frame_validation():
    with pytest.raises(ValueError):
        KripkeFrame(0, frozenset())
    with pytest.raises(ValueError):
        KripkeFrame(1, frozenset({(0, 1)}))


# ---------------------------------------------------------------------------
# statements

def test_eval_statement_examples():
    for frame in _frames(2):
        assert eval_statement(frame, Valuation.make({}, {}),
                              Ineq(Bot(), Top()))
    frame = KripkeFrame(2, frozenset({(0, 1)}))
    val = Valuation.make({}, {"i": 0, "j": 1})
    assert eval_statement(frame, val,
                          Ineq(Nom("i"), LDia(EMPTY_EDGES, Nom("j"))))
    loop = KripkeFrame(1, frozenset({(0, 0)}))
    mg = MegaGuard("i", "j", EMPTY_EDGES, Ineq(Nom("i"), Nom("j")))
    assert eval_statement(loop, Valuation.make({}, {}), mg)


def test_inequality_proposition_bullets():
    """The three bullets: nominal pair membership, pointwise evaluation,
    and the global guard shape all coincide with (V(i),V(j)) in r0 minus S."""
    s_label = frozenset({("i1", "i2")})
    for frame in _frames(2):
        for val in _valuations(frame):
            pair = (val.nom("i1"), val.nom("i2"))
            in_reduced = pair in (frame.r0 - edges_of(val, s_label))
            # (a) i <=^S_S dia^S j iff the pair is in r0 minus S
            ineq_a = Ineq(Nom("i1"), LDia(s_label, Nom("i2")),
                          s_label, s_label)
            assert eval_statement(frame, val, ineq_a) == in_reduced
            # (c) A(i -> dia^S j) iff the pair is in r0 minus S
            g = GBox(Imp(Nom("i1"), LDia(s_label, Nom("i2"))))
            assert satisfies(frame, val, frozenset(), 0, g) == in_reduced
            # (b) i <=^S_{S'} alpha iff alpha holds at V(i) under S'
            for alpha in (Dia(p), SDia(Top()), Box(q)):
                ineq_b = Ineq(Nom("i1"), alpha, EMPTY_EDGES, s_label)
                deleted = edges_of(val, s_label) & frame.r0
                assert eval_statement(frame, val, ineq_b) == \
                    satisfies(frame, val, deleted, val.nom("i1"), alpha)


def test_uq_and_quasi():
    frame = KripkeFrame(2, frozenset({(0, 1), (1, 0)}))
    val = Valuation.make({}, {})
    uq = UQIneq(("i1",), Ineq(Nom("i1"), Dia(Top())))
    assert eval_statement(frame, val, uq)
    one_way = KripkeFrame(2, frozenset({(0, 1)}))
    assert not eval_statement(one_way, val, uq)
    quasi = QuasiUQ((uq,), Ineq(Top(), Dia(Top())))
    assert eval_statement(frame, val, quasi)
    assert eval_statement(one_way, val, quasi)  # premise fails


def test_statement_inventories():
    mg = MegaGuard("i1", "i2", frozenset({("i3", "i4")}),
                   Ineq(p, Nom("i1"), EMPTY_EDGES, frozenset({("i5", "i6")})))
    assert statement_props(mg) == {"p"}
    assert statement_nominals(mg) == {"i3", "i4", "i5", "i6"}
    uq = UQIneq(("i5",), Ineq(Nom("i5"), Nom("i7")))
    assert statement_nominals(uq) == {"i7"}


def test_every_statement_class_has_a_row():
    assert set(STATEMENTS) == set(Statement.__subclasses__())


def test_table_walks_reach_every_form():
    mg = MegaGuard("i1", "i2", frozenset({("i3", "i4")}),
                   Ineq(p, Nom("i1"), EMPTY_EDGES, frozenset({("i5", "i6")})))
    quasi = QuasiUQ((mg, Ineq(q, p)),
                    MegaAnd((UQIneq(("i5",), Ineq(Nom("i5"), p)),
                             Ineq(Nom("i7"), p))))
    assert statement_props(quasi) == {"p", "q"}
    assert statement_nominals(quasi) == {"i3", "i4", "i5", "i6", "i7"}
    swapped = map_formulas(quasi, lambda f: q if f == p else f)
    assert swapped == QuasiUQ(
        (MegaGuard("i1", "i2", frozenset({("i3", "i4")}),
                   Ineq(q, Nom("i1"), EMPTY_EDGES, frozenset({("i5", "i6")}))),
         Ineq(q, q)),
        MegaAnd((UQIneq(("i5",), Ineq(Nom("i5"), q)), Ineq(Nom("i7"), q))))
    assert map_formulas(quasi, lambda f: f) == quasi


# ---------------------------------------------------------------------------
# frame validity

def test_frame_valid_examples():
    loop = KripkeFrame(1, frozenset({(0, 0)}))
    empty = KripkeFrame(1, frozenset())
    assert frame_valid(loop, closure(Imp(Box(p), p)))
    assert not frame_valid(empty, closure(Imp(Box(p), p)))
    assert frame_valid(empty, closure(Imp(SDia(Top()), Dia(Top()))))
    one_way = KripkeFrame(2, frozenset({(0, 1)}))
    assert not frame_valid(one_way, closure(Imp(Box(p), SBox(p))))


def test_frame_valid_closes_nominals_universally():
    loop = KripkeFrame(1, frozenset({(0, 0)}))
    two = KripkeFrame(2, frozenset({(0, 0)}))
    s = Ineq(Nom("i1"), Dia(Top()))
    assert closure(s) == UQIneq(("i1",), s)
    assert closure(Dia(p)) == Ineq(Top(), Dia(p))
    assert frame_valid(loop, closure(s))
    assert not frame_valid(two, closure(s))  # i1 = 1 has no successor


def test_valuations_count_and_mask_order():
    frame = KripkeFrame(2, frozenset())
    subsets = [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})]
    got = [tuple(frozenset(w for w in frame.worlds if v.props[k] >> w & 1)
                 for k in "pq") for v in valuations(frame, ["p", "q"])]
    assert got == list(itertools.product(subsets, repeat=2))
    for n in (1, 2, 3):
        frame = KripkeFrame(n, frozenset())
        for k in (0, 1, 2):
            vals = list(valuations(frame, ["p", "q"][:k]))
            assert len(vals) == 2 ** (n * k)
            assert all(v.noms == {} for v in vals)


def _edge_mask(n, edges):
    return sum(1 << (i * n + j) for i, j in edges)


def test_enumerate_frames():
    # one frame per isomorphism class, against every labelled frame
    ones = list(enumerate_frames(1))
    assert [(f.r0, orbit) for f, orbit in ones] == \
        [(frozenset(), 1), (frozenset({(0, 0)}), 1)]
    for n, count in zip((1, 2, 3, 4), (2, 10, 104, 3044)):
        classes = list(enumerate_frames(n))
        assert len(classes) == count
        assert sum(orbit for _, orbit in classes) == 2 ** (n * n)
        masks = [_edge_mask(n, f.r0) for f, _ in classes]
        assert masks == sorted(masks) and all(f.n == n for f, _ in classes)
    for n in (1, 2, 3):
        orbits = {f.r0: orbit for f, orbit in enumerate_frames(n)}
        perms = list(itertools.permutations(range(n)))
        members = Counter()
        for frame in labelled_frames(n):
            cls = {frozenset((pi[a], pi[b]) for a, b in frame.r0)
                   for pi in perms}
            reps = cls & orbits.keys()
            assert len(reps) == 1, frame
            rep, = reps
            assert _edge_mask(n, rep) == min(_edge_mask(n, e) for e in cls)
            assert orbits[rep] == len(cls)
            members[rep] += 1
        assert members == orbits
    with pytest.raises(ValueError):
        list(enumerate_frames(5))
    with pytest.raises(ValueError):
        list(enumerate_frames(0))


# ---------------------------------------------------------------------------
# semantic invariants

def test_sabotage_duality():
    for frame in _frames(2):
        for val in _valuations(frame):
            for f in (p, Dia(p), SDia(Top()), And(p, q)):
                for w in frame.worlds:
                    assert satisfies(frame, val, frozenset(), w, SDia(f)) == \
                        (not satisfies(frame, val, frozenset(), w,
                                       SBox(Not(f))))


def test_context_irrelevance_for_context_free_formulas():
    cf = [Top(), p, Not(And(p, Nom("i1"))),
          LDia(frozenset({("i1", "i2")}), p), GBox(p),
          InvLBox(EMPTY_EDGES, q), ExistsNom("i3", Nom("i3"))]
    for frame in _frames(2):
        for val in _valuations(frame):
            for f in cf:
                for w in frame.worlds:
                    base = satisfies(frame, val, frozenset(), w, f)
                    for k in range(len(frame.r0) + 1):
                        for dele in itertools.combinations(frame.r0, k):
                            assert satisfies(frame, val, frozenset(dele),
                                             w, f) == base


def test_monotonicity():
    pos = [p, Dia(p), Box(p), SDia(p), SBox(p), And(p, q), Or(p, q)]
    for frame in _frames(2):
        worlds = list(frame.worlds)
        subsets = [frozenset(c) for k in range(len(worlds) + 1)
                   for c in itertools.combinations(worlds, k)]
        for small in subsets:
            for big in subsets:
                if not small <= big:
                    continue
                v_small = Valuation.make({"p": small, "q": {0}}, {})
                v_big = Valuation.make({"p": big, "q": {0}}, {})
                for f in pos:
                    for w in worlds:
                        if satisfies(frame, v_small, frozenset(), w, f):
                            assert satisfies(frame, v_big, frozenset(), w, f)


def test_print_statement():
    s = Ineq(Dia(p), p)
    assert print_statement(s) == "<>p <=^{}_{} p"
    mg = MegaGuard("i2", "i3", EMPTY_EDGES, Ineq(Top(), Not(Nom("i1"))))
    assert print_statement(mg) == \
        "forall i2 forall i3 (i2 <=^{}_{} dia^{} i3 => top <=^{}_{} ~i1)"
    uq = UQIneq(("i2", "i3"), Ineq(Top(), Not(Nom("i1"))))
    assert print_statement(uq) == "forall i2 forall i3 (top <=^{}_{} ~i1)"
    quasi = QuasiUQ((s,), Ineq(Nom("i0"), Not(Nom("i1"))))
    assert print_statement(quasi) == \
        "[<>p <=^{}_{} p] => [i0 <=^{}_{} ~i1]"
