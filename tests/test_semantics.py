"""Kripke semantics tests against the independent extension-set oracle
`frames.oracle_ext`: the mask evaluator on the base language, and ALBA's
expanded language and statements through their standard translation,
`fol.st_statement`, the one place the program gives them a meaning.
"""

import itertools
from collections import Counter

import pytest

from sabcorr import semantics

from sabcorr.syntax import (
    And, Bot, Box, Dia, ExistsNom, ForallNom, GBox, Imp, Ineq, InvLBox,
    InvLDia, LDia, MegaGuard, Nom, Not, Or, Prop, QuasiUQ, SBox, SDia, Top,
    UQIneq, EMPTY_EDGES, print_statement,
)
from sabcorr.semantics import (
    EvalError, enumerate_frames, eval_statement, extension, frame_valid,
    valuation_blocks,
)
from sabcorr.cli import load_corpus
from sabcorr.fol import simplify, st_statement

from fo_equiv import translate_formula
from frames import (
    KripkeFrame, arrows, fo_mask, frame_holds, labelled_frames, oracle_ext,
    oracle_holds, satisfies, statement_props, valuation, valuations,
)
from test_golden import ROOT

p, q = Prop("p"), Prop("q")


_POOL = [
    Top(), Bot(), p, Not(p), And(p, q), Or(p, Not(q)), Imp(p, q),
    Dia(p), Box(p), SDia(p), SBox(p), Dia(Box(p)), SDia(Top()),
    SBox(Dia(p)), SDia(SDia(Top())), Box(SDia(Top())),
]


def _frames(max_n):
    for n in range(1, max_n + 1):
        yield from labelled_frames(n)


def _subsets(items):
    items = sorted(items)
    return [frozenset(c) for k in range(len(items) + 1)
            for c in itertools.combinations(items, k)]


def _valuations(frame, prop_names=("p", "q"), nom_names=()):
    worlds = range(frame.n)
    for pv in itertools.product(_subsets(worlds), repeat=len(prop_names)):
        for nv in itertools.product(worlds, repeat=len(nom_names)):
            yield valuation(dict(zip(prop_names, pv)),
                            dict(zip(nom_names, nv)))


def _sizes(max_n):
    for n in range(1, max_n + 1):
        yield list(labelled_frames(n))


def _meaning(frames, val, s):
    """The mask of the frames, all of one size, where s holds under val by
    its standard translation, checked frame by frame against the oracle."""
    mask = fo_mask(frames, val, st_statement(s))
    for k, frame in enumerate(frames):
        assert mask >> k & 1 == oracle_holds(frame, val, s), (frame, val, s)
    return mask


def test_satisfies_matches_oracle_exhaustively():
    # extension under every deleted set, not only the empty one: the
    # oracle reads the current relation r0 minus the deleted edges
    for frame in _frames(2):
        worlds = set(range(frame.n))
        for val in _valuations(frame):
            props = {k: {w for w in worlds if val[k] >> w & 1} for k in "pq"}
            for deleted in _subsets(frame.r0):
                rel = set(frame.r0 - deleted)
                for f in _POOL:
                    ext = oracle_ext(f, worlds, frame.r0, rel, props, {})
                    mask = extension(tuple(rel), 1, val, f)
                    assert mask & (1 << frame.n) - 1 == \
                        sum(1 << w for w in ext), (frame, val, deleted, f)
                    if not deleted:
                        for w in worlds:
                            assert satisfies(frame, val, deleted, w, f) == \
                                (w in ext), (frame, val, f, w)


def test_ineq_with_edge_labels_matches_oracle():
    # lhs <=^sup_sub rhs: lhs under r0 minus sup inside rhs under r0 minus
    # sub, the labels read through the nominals, by the translation
    labels = [EMPTY_EDGES, frozenset({("i1", "i2")}),
              frozenset({("i2", "i1"), ("i1", "i1")})]
    sides = [(Dia(p), p), (Nom("i1"), SDia(Top())), (SBox(Dia(p)), Box(q)),
             (p, LDia(frozenset({("i1", "i2")}), Nom("i2")))]
    for frames in _sizes(2):
        for val in _valuations(frames[0], nom_names=("i1", "i2")):
            for sup, sub in itertools.product(labels, repeat=2):
                if sup or sub:
                    for lhs, rhs in sides:
                        _meaning(frames, val, Ineq(lhs, rhs, sup, sub))


def test_satisfies_examples():
    loop = KripkeFrame(1, frozenset({(0, 0)}))
    empty = KripkeFrame(1, frozenset())
    v = {}
    assert satisfies(loop, v, frozenset(), 0, SDia(Top()))
    assert satisfies(empty, v, frozenset(), 0, SBox(Bot()))


def test_uninterpreted_nominal_raises():
    # the modal check reads the base language only, so a nominal raises
    # even where the valuation binds it
    f = KripkeFrame(1, frozenset())
    for val in ({}, {"i9": 0}):
        with pytest.raises(EvalError, match="no rule for i9"):
            satisfies(f, val, frozenset(), 0, Nom("i9"))


@pytest.mark.parametrize("f", [
    Or(Top(), Nom("i9")), And(Bot(), Nom("i9")), Imp(Bot(), Nom("i9")),
    Box(Nom("i9")), InvLDia(EMPTY_EDGES, Nom("i9")),
    GBox(Or(Top(), Nom("i9"))),
])
def test_unbound_nominal_raises_where_a_pointwise_reading_skipped_it(f):
    # a mask evaluates both sides of a junction, and the child of <> and []
    # once for every world, even where no world has a successor; so a
    # nominal, or a connective of the expanded language, raises where a
    # world-at-a-time reading never reached it
    empty = KripkeFrame(1, frozenset())
    with pytest.raises(EvalError):
        satisfies(empty, {}, frozenset(), 0, f)
    with pytest.raises(EvalError):
        eval_statement(1, (), 1, {}, Top(), f)


def test_unbound_variable_raises():
    # a variable the valuation does not bind is an error, not the empty
    # set: frame_valid over a layout of a subset of the variables raises too
    edges = ((0, 1),)
    with pytest.raises(EvalError, match="no value for 'q' in the valuation"):
        extension(edges, 1, {"p": 1}, Or(p, q))
    with pytest.raises(EvalError, match="no value for 'q' in the valuation"):
        frame_valid(2, edges, p, q, valuation_blocks(2, ["p"]))
    assert not frame_holds(KripkeFrame(2, frozenset(edges)), Ineq(p, q))


# ---------------------------------------------------------------------------
# statements

def test_eval_statement_examples():
    for frame in _frames(2):
        assert eval_statement(frame.n, arrows(frame), 1, {}, Bot(), Top())
    assert eval_statement(2, ((0, 1),), 1, {"p": 0b10}, Dia(p), Top())
    assert not eval_statement(2, ((0, 1),), 1, {"p": 0b10}, Top(), Dia(p))


def test_inequality_proposition_bullets():
    """The three bullets: nominal pair membership, pointwise evaluation,
    and the global guard shape all coincide with (V(i),V(j)) in r0 minus S.
    S = {(i1, i2)} always deletes the pair; S = {(i2, i1)} keeps it unless
    V(i1) = V(i2), so both answers are read."""
    labels = (frozenset({("i1", "i2")}), frozenset({("i2", "i1")}))
    answers = set()
    for frames in _sizes(2):
        vals = _valuations(frames[0], nom_names=("i1", "i2"))
        for val, s_label in itertools.product(vals, labels):
            pair = (val["i1"], val["i2"])
            edges = frozenset((val[a], val[b]) for a, b in s_label)
            answers.update(pair in frame.r0 - edges for frame in frames)
            in_reduced = sum(1 << k for k, frame in enumerate(frames)
                             if pair in frame.r0 - edges)
            # (a) i <=^S_S dia^S j iff the pair is in r0 minus S
            ineq_a = Ineq(Nom("i1"), LDia(s_label, Nom("i2")),
                          s_label, s_label)
            assert _meaning(frames, val, ineq_a) == in_reduced
            # (c) A(i -> dia^S j) iff the pair is in r0 minus S
            g = GBox(Imp(Nom("i1"), LDia(s_label, Nom("i2"))))
            assert _meaning(frames, val, Ineq(Top(), g)) == in_reduced
            # (b) i <=^S_{S'} alpha iff alpha holds at V(i) under S'
            for alpha in (Dia(p), SDia(Top()), Box(q)):
                ineq_b = Ineq(Nom("i1"), alpha, EMPTY_EDGES, s_label)
                assert _meaning(frames, val, ineq_b) == sum(
                    1 << k for k, frame in enumerate(frames)
                    if satisfies(frame, val, edges & frame.r0, val["i1"],
                                 alpha))
    assert answers == {False, True}


def test_uq_and_quasi():
    frame = KripkeFrame(2, frozenset({(0, 1), (1, 0)}))
    val = {}
    uq = UQIneq(("i1",), Ineq(Nom("i1"), Dia(Top())))
    assert _meaning([frame], val, uq)
    one_way = KripkeFrame(2, frozenset({(0, 1)}))
    assert not _meaning([one_way], val, uq)
    quasi = QuasiUQ((uq,), Ineq(Top(), Dia(Top())))
    assert _meaning([frame], val, quasi)
    assert _meaning([one_way], val, quasi)  # premise fails
    loop = KripkeFrame(1, frozenset({(0, 0)}))
    mg = MegaGuard("i1", "i2", EMPTY_EDGES, Ineq(Nom("i1"), Nom("i2")))
    assert _meaning([loop], val, mg)
    assert not _meaning([frame], val, mg)


def test_statement_inventories():
    mg = MegaGuard("i1", "i2", frozenset({("i3", "i4")}),
                   Ineq(p, Nom("i1"), EMPTY_EDGES, frozenset({("i5", "i6")})))
    assert statement_props(mg) == {"p"}
    uq = UQIneq(("i5",), Ineq(Nom("i5"), Nom("i7")))
    assert statement_props(uq) == frozenset()
    quasi = QuasiUQ((mg, uq, Ineq(Nom("i7"), q)), Ineq(Nom("i7"), p))
    assert statement_props(quasi) == {"p", "q"}


# ---------------------------------------------------------------------------
# frame validity

def test_frame_valid_examples():
    loop = KripkeFrame(1, frozenset({(0, 0)}))
    empty = KripkeFrame(1, frozenset())
    assert frame_holds(loop, Ineq(Box(p), p))
    assert not frame_holds(empty, Ineq(Box(p), p))
    assert frame_holds(empty, Ineq(SDia(Top()), Dia(Top())))
    one_way = KripkeFrame(2, frozenset({(0, 1)}))
    assert not frame_holds(one_way, Ineq(Box(p), SBox(p)))


def test_frame_valid_closes_nominals_universally():
    loop = KripkeFrame(1, frozenset({(0, 0)}))
    two = KripkeFrame(2, frozenset({(0, 0)}))
    # simplify closes the free names of a translation universally, as a
    # UQIneq binds them; the modal check refuses the nominal
    s = Ineq(Nom("i1"), Dia(Top()))
    for frame, valid in ((loop, True), (two, False)):  # i1 = 1 has no successor
        assert fo_mask([frame], {}, simplify(st_statement(s))) == valid
        assert oracle_holds(frame, {}, UQIneq(("i1",), s)) == valid
    with pytest.raises(EvalError):
        frame_holds(loop, s)


def test_binding_leaves_the_callers_valuation_alone():
    # a valuation is a mutable dict: each binding must build a new one
    frame = KripkeFrame(2, frozenset({(0, 1), (1, 0)}))
    val = {"p": 0b01, "i1": 1}
    before = dict(val)
    body = Ineq(Nom("i2"), Dia(Top()))
    assert _meaning([frame], val, UQIneq(("i2", "i3"), body))
    assert _meaning([frame], val, MegaGuard("i2", "i3", EMPTY_EDGES, body))
    exists = ExistsNom("i2", And(Nom("i2"), p))
    assert _meaning([frame], val, Ineq(exists, p))
    assert _meaning([frame], val, Ineq(p, exists))
    assert _meaning([frame], val,
                    Ineq(Top(), ForallNom("i2", Or(Nom("i2"), Top()))))
    assert val == before


def test_valuations_are_fresh_dicts():
    frame = KripkeFrame(1, frozenset())
    vals = list(valuations(frame, ["p"]))
    assert vals == [{"p": 0}, {"p": 1}]
    vals[0]["i1"] = 0
    assert list(valuations(frame, ["p"])) == [{"p": 0}, {"p": 1}]
    vals = list(valuations(frame, ["p", "q"]))
    assert len({id(v) for v in vals}) == 4


def test_valuations_count_and_mask_order():
    frame = KripkeFrame(2, frozenset())
    subsets = [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})]
    got = [tuple(frozenset(w for w in range(frame.n) if v[k] >> w & 1)
                 for k in "pq") for v in valuations(frame, ["p", "q"])]
    assert got == list(itertools.product(subsets, repeat=2))
    for n in (1, 2, 3):
        frame = KripkeFrame(n, frozenset())
        for k in (0, 1, 2):
            vals = list(valuations(frame, ["p", "q"][:k]))
            assert len(vals) == 2 ** (n * k)
            assert all(list(v) == ["p", "q"][:k] for v in vals)


def _eval_calls(monkeypatch, n, names):
    """The (n, edges, width, valuation) that frame_valid hands to
    eval_statement, in order, for a statement over `names` on the edgeless
    frame on n worlds, given the layout of `names`."""
    calls = []

    def record(n, edges, width, val, lhs, rhs):
        calls.append((n, edges, width, val))
        return True
    monkeypatch.setattr(semantics, "eval_statement", record)
    layout = valuation_blocks(n, names)
    assert frame_valid(n, (), Top(), Top(), layout) is True
    return calls


@pytest.mark.parametrize("block_bits", [semantics.BLOCK_BITS, 2])
def test_block_layout(monkeypatch, block_bits):
    # bit v of world w's block of a name is bit w of its mask in the v-th
    # valuation; the c-th call reads valuations c*width .. (c+1)*width - 1
    monkeypatch.setattr(semantics, "BLOCK_BITS", block_bits)
    for n, k in itertools.product((1, 2, 3), range(4)):
        frame = KripkeFrame(n, frozenset())
        names = ["p", "q", "r"][:k]
        calls = _eval_calls(monkeypatch, n, names)
        width = calls[0][2]
        assert width == 2 ** min(n * k, block_bits)
        assert len(calls) * width == 2 ** (n * k)
        for v, expected in enumerate(valuations(frame, names)):
            *got, val = calls[v // width]
            assert got == [n, (), width]
            assert list(val) == names
            for name, w in itertools.product(names, range(n)):
                assert (val[name] >> (w * width + v % width) & 1
                        == expected[name] >> w & 1), (n, k, v, name, w)


@pytest.mark.parametrize("block_bits", [semantics.BLOCK_BITS, 2])
def test_frame_valid_matches_each_valuation(monkeypatch, block_bits):
    # 2-bit blocks read every frame with n*k > 2 in chunks
    monkeypatch.setattr(semantics, "BLOCK_BITS", block_bits)
    corpus = [iq for _, iq in load_corpus(ROOT / "corpus" / "sahlqvist.txt")]
    for n in (1, 2, 3):
        for edges, _ in enumerate_frames(n):
            frame = KripkeFrame(n, frozenset(edges))
            for iq in corpus:
                names = sorted(statement_props(iq))
                valid = frame_holds(frame, iq)
                assert type(valid) is bool
                assert valid == all(oracle_holds(frame, val, iq)
                                    for val in valuations(frame, names)), \
                    (frame, print_statement(iq))


def _edge_mask(n, edges):
    return sum(1 << (i * n + j) for i, j in edges)


def test_enumerate_frames():
    # one frame per isomorphism class, against every labelled frame
    assert list(enumerate_frames(1)) == [((), 1), (((0, 0),), 1)]
    for n, count in zip((1, 2, 3, 4), (2, 10, 104, 3044)):
        classes = list(enumerate_frames(n))
        assert len(classes) == count
        masks = [_edge_mask(n, edges) for edges, _ in classes]
        assert masks == sorted(masks)
    for n in (1, 2, 3):
        orbits = {frozenset(edges): orbit
                  for edges, orbit in enumerate_frames(n)}
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


def test_enumerated_arrows_are_distinct_and_in_range():
    # the program reads a frame as n and the tuple enumerate_frames
    # yields, with no range check of its own: each tuple holds distinct
    # arrows between worlds 0..n-1, its cell mask is the least of its
    # class, and the orbits cover every labelled frame
    for n in (1, 2, 3, 4):
        perms = list(itertools.permutations(range(n)))
        total = 0
        for edges, orbit in enumerate_frames(n):
            assert type(edges) is tuple and len(set(edges)) == len(edges)
            assert all(0 <= a < n and 0 <= b < n for a, b in edges), edges
            assert _edge_mask(n, edges) == min(
                _edge_mask(n, {(pi[a], pi[b]) for a, b in edges})
                for pi in perms), edges
            total += orbit
        assert total == 2 ** (n * n)


def test_enumerate_frames_four_worlds_by_relabelling_edge_sets():
    # each class drawn again by relabelling the representative's edge set
    # under all 24 permutations, with no mask table
    n = 4
    perms = list(itertools.permutations(range(n)))
    covered = set()
    for edges, orbit in enumerate_frames(n):
        cls = {_edge_mask(n, {(pi[a], pi[b]) for a, b in edges})
               for pi in perms}
        assert _edge_mask(n, edges) == min(cls), edges
        assert orbit == len(cls), edges
        assert covered.isdisjoint(cls), edges
        covered |= cls
    assert covered == set(range(1 << (n * n)))


# ---------------------------------------------------------------------------
# semantic invariants

def test_sabotage_duality():
    for frame in _frames(2):
        for val in _valuations(frame):
            for f in (p, Dia(p), SDia(Top()), And(p, q)):
                for w in range(frame.n):
                    assert satisfies(frame, val, frozenset(), w, SDia(f)) == \
                        (not satisfies(frame, val, frozenset(), w,
                                       SBox(Not(f))))


def test_context_irrelevance_for_context_free_formulas():
    # without [] <> [!] <!>, the translation, the program's reading of the
    # expanded nodes, is the same under any deleted pairs
    cf = [Top(), p, Not(And(p, Nom("i1"))),
          LDia(frozenset({("i1", "i2")}), p), GBox(p),
          InvLBox(EMPTY_EDGES, q), ExistsNom("i3", Nom("i3"))]
    for f in cf:
        for deleted in ((("y", "z"),), (("i1", "i2"), ("i2", "i2"))):
            assert translate_formula(f, "x", deleted) == \
                translate_formula(f), f


def test_monotonicity():
    pos = [p, Dia(p), Box(p), SDia(p), SBox(p), And(p, q), Or(p, q)]
    for frame in _frames(2):
        worlds = range(frame.n)
        subsets = [frozenset(c) for k in range(len(worlds) + 1)
                   for c in itertools.combinations(worlds, k)]
        for small in subsets:
            for big in subsets:
                if not small <= big:
                    continue
                v_small = valuation({"p": small, "q": {0}})
                v_big = valuation({"p": big, "q": {0}})
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
