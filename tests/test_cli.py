"""Command-line interface tests: exit codes, formats, corpus handling."""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sabcorr import cli, semantics
from sabcorr.cli import load_corpus, main
from sabcorr.syntax import _SYMBOLS, Box, Dia, Prop, parse_inequality
from sabcorr.semantics import (
    Ineq, enumerate_frames, frame_valid, statement_props, valuation_blocks,
)
from sabcorr.alba import run_alba
from sabcorr.fol import correspondent, emit_fo, holds_on_frame

from fo_equiv import free_names
from frames import labelled_frames, oracle_holds, valuations

CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "sahlqvist.txt"


def test_parse_command(capsys):
    assert main(["parse", "--formula", "<!>[]p -> []<!>p"]) == 0
    out = capsys.readouterr().out
    assert out == "lhs: <!>[]p\nrhs: []<!>p\n"


def test_parse_error_exit_2(capsys):
    assert main(["parse", "--formula", "p -> ("]) == 2
    assert "parse error" in capsys.readouterr().err


def test_classify_exit_codes(capsys):
    assert main(["classify", "--formula", "[]p -> p"]) == 0
    out = capsys.readouterr().out
    assert "sahlqvist" in out and "p=1" in out
    assert main(["classify", "--formula", "[]<>p -> <>[]p"]) == 1
    assert "not sahlqvist" in capsys.readouterr().out


def test_classify_json(capsys):
    assert main(["classify", "--formula", "[]p -> p", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["sahlqvist"] is True
    assert data["order_type"] == {"p": "1"}
    assert any(e["excellent"] for e in data["variables"]["p"])


def test_classify_order_type_override(capsys):
    # p -> <>[]p is Sahlqvist with eps(p)=1 but not with eps(p)=d
    assert main(["classify", "--formula", "p -> <>[]p"]) == 0
    capsys.readouterr()
    assert main(["classify", "--formula", "p -> <>[]p",
                 "--order-type", "p=d"]) == 1
    capsys.readouterr()


def test_classify_order_type_missing_a_variable(capsys):
    # correspond fails at stage classify with the same order type
    assert main(["classify", "--formula", "[]<>p -> <>[]p",
                 "--order-type", "q=1"]) == 1
    assert capsys.readouterr().out.startswith("not sahlqvist\n")


@pytest.mark.parametrize("spec", ["", ","])
def test_empty_order_type_is_an_override(spec, capsys):
    # both spellings parse to {}, an override that covers no variable, so
    # no automatic search runs
    assert main(["correspond", "--formula", "[]p -> p",
                 "--order-type", spec]) == 1
    assert capsys.readouterr().out == \
        "failure (classify): order type misses variables ['p']\n"
    assert main(["classify", "--formula", "[]p -> p",
                 "--order-type", spec]) == 1
    assert capsys.readouterr().out.startswith("not sahlqvist\n")
    assert main(["verify", "--formula", "[]p -> p",
                 "--order-type", spec]) == 1
    capsys.readouterr()
    # an input without variables needs none
    assert main(["correspond", "--formula", "top -> <!>top",
                 "--order-type", spec]) == 0
    assert capsys.readouterr().out.startswith("order type: (empty)\n")


def test_classify_reports_the_iff_free_branches(capsys):
    # the verdict is decided on p -> []p and []p -> p, so the report lists
    # their branches, not those of a single iff node
    assert main(["classify", "--formula", "p <-> []p"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("sahlqvist\n")
    assert out.count("] excellent") == 4 and "not excellent" not in out


def test_correspond_text_and_failure(capsys):
    assert main(["correspond", "--formula", "[]p -> p"]) == 0
    out = capsys.readouterr().out
    assert "order type: p=1" in out
    assert "forall" in out
    assert main(["correspond", "--formula", "[]<>p -> <>[]p"]) == 1
    assert "failure" in capsys.readouterr().out


def test_correspond_json_and_tptp(capsys):
    assert main(["correspond", "--formula", "[]p -> p",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["order_type"] == {"p": "1"}
    assert isinstance(data["fo"], dict) and data["quasis"]
    assert main(["correspond", "--formula", "[]p -> p",
                 "--format", "tptp"]) == 0
    assert "fof(corr, axiom," in capsys.readouterr().out


def test_correspond_trace_file(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    assert main(["correspond", "--formula", "<>p -> p",
                 "--trace", str(trace)]) == 0
    capsys.readouterr()
    steps = json.loads(trace.read_text())
    assert steps[0]["stage"] == "first-approximation"
    for step in steps:
        assert set(step) == {"stage", "rule", "consumed", "produced"}


@pytest.mark.parametrize("formula, reference", [
    ("<>p -> p", "dia-p.json"), ("<!>[]p -> []<!>p", "commute.json"),
    # distribution, the three splits, uniform elimination, pack-3, pack-4
    # and right-handed Ackermann
    ("<!>[!](p & p) -> (~p | ((p | p) & ~bot))", "sabotage-split.json"),
    # the automatic order type p=d, q=1: left-handed Ackermann
    ("[](top & q) -> (((top -> p) | (top & p)) -> p)", "ackermann-left.json"),
    # dedupe, approx-sbox, res-dia, and res-not in both substages on both
    # sides
    ("(<>~p | [!]~q) | (<>~p | [!]~q) -> ~p & <>~[!]q & [!]p & <>q",
     "dual-rules.json")])
def test_correspond_trace_matches_reference(tmp_path, capsys, formula,
                                            reference):
    # the references come from a trace that printed every item when it was
    # recorded; printing on read must give the same file
    trace = tmp_path / "trace.json"
    assert main(["correspond", "--formula", formula,
                 "--trace", str(trace)]) == 0
    capsys.readouterr()
    expected = Path(__file__).parent / "traces" / reference
    assert trace.read_text() == expected.read_text()


def test_verify_pass_and_counts(capsys):
    assert main(["verify", "--formula", "[]p -> p", "--max-worlds", "3"]) == 0
    assert "PASS over 530 frames" in capsys.readouterr().out


@pytest.mark.parametrize("formula", [
    "<!>[]p -> []<!>p", "[!]p -> p", "[](p -> q) -> ([]p -> []q)",
    "<!>p & <>q -> <!>(p | q)", "<!>(p & q & r) -> <>p | <!>q | r"])
def test_verify_at_the_advertised_bound(formula, capsys):
    # four worlds reach the sabotage edge rule with up to 16 arrows, and
    # the 2^(4*k) valuations of k variables on them
    assert main(["verify", "--formula", formula, "--max-worlds", "4"]) == 0
    assert capsys.readouterr().out == "PASS over 66066 frames (n <= 4)\n"


def test_verify_fail_names_the_first_failing_labelled_frame(monkeypatch,
                                                           capsys):
    # a stand-in correspondent that is invariant under isomorphism: at
    # least two edges, or a loop at every world
    def holds(frame):
        return (len(frame.r0) >= 2
                or all((w, w) in frame.r0 for w in range(frame.n)))

    def stand_in(frames, sentence):
        return sum(1 << k for k, frame in enumerate(frames) if holds(frame))
    monkeypatch.setattr(cli, "holds_on_frame", stand_in)
    statement = Ineq(*parse_inequality("[]p -> p"))
    expected = next(
        f"FAIL at n={frame.n}; edges={sorted(frame.r0)}: "
        f"input valid={valid}, correspondent={holds(frame)}\n"
        for n in (1, 2, 3) for frame in labelled_frames(n)
        for valid in [frame_valid(frame, statement)]
        if valid != holds(frame))
    assert expected.startswith("FAIL at n=2; edges=[(0, 0), (0, 1)]:")
    assert main(["verify", "--formula", "[]p -> p", "--max-worlds", "3"]) == 1
    assert capsys.readouterr().out == expected


def test_verify_checks_the_simplified_sentence(monkeypatch, capsys):
    # the raw correspondent keeps 16 ALBA nominals free; closed by brute
    # force, that was 2^16 assignments on each two-world frame
    text = "(<>p | <>q) -> [!](<!>bot -> (top | top))"
    raw = correspondent(run_alba(Ineq(*parse_inequality(text))).quasis)
    assert len(free_names(raw)) == 16
    checked = set()

    def spy(frames, sentence):
        checked.add(sentence)
        return holds_on_frame(frames, sentence)
    monkeypatch.setattr(cli, "holds_on_frame", spy)
    assert main(["verify", "--formula", text, "--max-worlds", "2"]) == 0
    assert "PASS over 18 frames" in capsys.readouterr().out
    assert [emit_fo(s) for s in checked] == ["true"]


def test_verify_checks_each_world_count_once(monkeypatch, capsys):
    # one check per world count covers every class of that size, in the
    # order the classes are drawn
    calls = []

    def spy(frames, sentence):
        calls.append(frames)
        return holds_on_frame(frames, sentence)
    monkeypatch.setattr(cli, "holds_on_frame", spy)
    assert main(["verify", "--formula", "[]p -> p", "--max-worlds", "3"]) == 0
    assert "PASS over 530 frames" in capsys.readouterr().out
    assert calls == [[frame for frame, _ in enumerate_frames(n)]
                     for n in (1, 2, 3)]
    assert list(map(len, calls)) == [2, 10, 104]


def _spy_layouts(monkeypatch):
    """The layouts `cli` builds, and the layout handed to each of its
    frame_valid calls, both in order."""
    built, used = [], []

    def build(n, vars):
        built.append(valuation_blocks(n, vars))
        return built[-1]

    def check(frame, s, layout):
        used.append(layout)
        return frame_valid(frame, s, layout)
    monkeypatch.setattr(cli, "valuation_blocks", build)
    monkeypatch.setattr(cli, "frame_valid", check)
    return built, used


def test_verify_builds_one_layout_per_world_count(monkeypatch, capsys):
    built, used = _spy_layouts(monkeypatch)
    assert main(["verify", "--formula", "[]p -> p", "--max-worlds", "4"]) == 0
    assert capsys.readouterr().out == "PASS over 66066 frames (n <= 4)\n"
    assert len(built) == 4 and len(used) == 3160
    # the classes of each size share that size's layout object
    sizes = [len(list(enumerate_frames(n))) for n in (1, 2, 3, 4)]
    assert [id(layout) for layout in used] == [
        id(layout) for layout, size in zip(built, sizes)
        for _ in range(size)]


def test_corpus_builds_one_layout_per_world_count(monkeypatch, capsys):
    built, _ = _spy_layouts(monkeypatch)
    # exit 0: every entry is Sahlqvist and verified
    assert main(["corpus", "--file", str(CORPUS), "--max-worlds", "3"]) == 0
    assert len(built) == 3 * len(load_corpus(CORPUS))


@pytest.mark.parametrize("text", ["[](p -> q) -> ([]p -> []q)",
                                  "<!>(p & q & r) -> <>p | <!>q | r"])
def test_shared_layout_survives_every_chunk(monkeypatch, text):
    # with 2-bit blocks every frame with n*k > 2 takes several chunks, each
    # built on the one layout of its size; a chunk that wrote into that
    # layout would change the valuations read by the next class
    monkeypatch.setattr(semantics, "BLOCK_BITS", 2)
    built, used = _spy_layouts(monkeypatch)
    ineq = Ineq(*parse_inequality(text))
    names = sorted(statement_props(ineq))
    fo = correspondent(run_alba(ineq).quasis)
    checked = 0
    for frame, _, valid, holds in cli._check(ineq, fo, cli._classes(3)):
        assert valid == holds == all(oracle_holds(frame, val, ineq)
                                     for val in valuations(frame, names)), \
            (text, frame)
        checked += 1
    assert checked == len(used) == 116
    assert built == [valuation_blocks(n, names) for n in (1, 2, 3)]
    assert max(len(high) for _, _, high in built) == 3 * len(names) - 2


def test_verify_is_not_exponential_in_quantifier_depth(capsys):
    # the checked sentence nests 30 successor steps on each side; each
    # subformula is tabulated over its own free names, so depth adds
    # nodes, not assignments
    chain = "[]" * 30 + "p"
    assert main(["verify", "--formula", f"{chain} -> {chain}",
                 "--max-worlds", "2"]) == 0
    assert capsys.readouterr().out == "PASS over 18 frames (n <= 2)\n"


def test_orbit_weighted_counts_match_labelled_counts():
    for label, ineq in load_corpus(CORPUS):
        for n in (1, 2):
            weighted = sum(orbit for frame, orbit in enumerate_frames(n)
                           if frame_valid(frame, ineq))
            labelled = sum(frame_valid(frame, ineq)
                           for frame in labelled_frames(n))
            assert weighted == labelled, (label, n)


def test_verify_failure_input(capsys):
    assert main(["verify", "--formula", "[]<>p -> <>[]p"]) == 1
    assert "failure" in capsys.readouterr().out


def test_verify_max_worlds_cap(capsys):
    assert main(["verify", "--formula", "[]p -> p", "--max-worlds", "9"]) == 2
    assert "--max-worlds" in capsys.readouterr().err


def test_missing_file_exit_2(capsys):
    assert main(["parse", "--file", "/nonexistent/file.sml"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["parse", "classify", "correspond",
                                     "verify", "corpus"])
def test_file_not_utf8_exit_2(command, tmp_path, capsys):
    path = tmp_path / "in.sml"
    path.write_bytes(b"\xff\xfe[]p -> p\n")
    assert main([command, "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert "utf-8" in captured.err and captured.out == ""


def test_formula_from_file(tmp_path, capsys):
    path = tmp_path / "in.sml"
    path.write_text("[]p -> p\n")
    assert main(["parse", "--file", str(path)]) == 0
    assert "lhs: []p" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# corpus

def test_load_corpus(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("# a comment\n"
                    "name: T-axiom []p -> p\n"
                    "<>p <= p  # trailing comment\n"
                    "\n")
    entries = load_corpus(path)
    assert len(entries) == 2
    assert entries[0] == ("T-axiom", Ineq(Box(Prop("p")), Prop("p")))
    assert entries[1] == ("<>p <= p", Ineq(Dia(Prop("p")), Prop("p")))


def test_load_corpus_error_names_line(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("[]p -> p\n\n\n\n\n\np -> (\n")
    with pytest.raises(ValueError) as exc:
        load_corpus(path)
    assert "line 7" in str(exc.value)


def test_corpus_command(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("name: T []p -> p\nname: D top -> <!>top\n")
    assert main(["corpus", "--file", str(path), "--max-worlds", "2"]) == 0
    out = capsys.readouterr().out
    assert "T" in out and "verified" in out


def test_corpus_command_flags_not_sahlqvist(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("[]<>p -> <>[]p\n")
    assert main(["corpus", "--file", str(path), "--max-worlds", "2"]) == 1
    assert "not-sahlqvist" in capsys.readouterr().out


def test_shipped_corpus_loads():
    from pathlib import Path
    corpus = Path(__file__).resolve().parent.parent / "corpus" / "sahlqvist.txt"
    entries = load_corpus(corpus)
    labels = [label for label, _ in entries]
    assert len(entries) >= 12
    assert "T" in labels and "commute" in labels


# ---------------------------------------------------------------------------
# usage errors exit 2 without a traceback

@pytest.mark.parametrize("command", ["classify", "correspond", "verify"])
@pytest.mark.parametrize("spec", ["p=x", "p", "=1", "1p=1", "p=1,p=d"])
def test_malformed_order_type_exit_2(command, spec, capsys):
    assert main([command, "--formula", "[]p -> p", "--order-type", spec]) == 2
    captured = capsys.readouterr()
    assert "order-type" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["correspond", "--formula", "~" * 400 + "p"],
    ["parse", "--formula", "(" * 200 + "p" + ")" * 200],
])
def test_deep_nesting_exit_2(argv, capsys):
    assert main(argv) == 2
    assert "input nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["correspond", "--formula", "[]" * 200 + "p -> p"],
    ["verify", "--formula", "[]" * 300 + "p -> p", "--max-worlds", "2"],
])
def test_nesting_below_the_stated_limits_runs(argv, capsys):
    # README states the nesting each command accepts at Python's default
    # recursion limit: correspond 247, verify 328; a change that deepens
    # the recursion fails these first
    assert main(argv) == 0
    assert "nested too deeply" not in capsys.readouterr().err


def test_corpus_max_worlds_cap(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("[]p -> p\n")
    assert main(["corpus", "--file", str(path), "--max-worlds", "0"]) == 2
    assert "--max-worlds must be in 1..4" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# contract: every argv ends in exit 0, 1 or 2, never in a traceback

_TOKENS = sorted(_SYMBOLS) + ["top", "bot", "p", "q", "i0", "?"]
_ORDER_TYPES = ["p=1", "p=d", "q=1", "p=1,q=d", "p=x", "p", ""]
_PREFIX = ["~", "<>", "[]", "<!>", "[!]"]
_INFIX = ["&", "|", "->", "<->"]
# well-formed text over the same tokens, since few random strings parse
_WELL_FORMED = st.recursive(
    st.sampled_from(["p", "q", "top", "bot"]),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(_PREFIX), sub).map(" ".join),
        st.tuples(sub, st.sampled_from(_INFIX), sub).map(
            lambda t: "( " + " ".join(t) + " )")),
    max_leaves=4)


# formula text: a random token string or a well-formed formula
_TEXT = st.one_of(
    st.lists(st.sampled_from(_TOKENS), max_size=12).map(" ".join),
    _WELL_FORMED)
# what --file reads: up to three lines of formula text, or arbitrary bytes
_FILE = st.one_of(st.lists(_TEXT, min_size=1, max_size=3).map(
    lambda lines: "\n".join(lines).encode()), st.binary(max_size=24))


@st.composite
def _argv(draw):
    """An argv, with `None` in place of the input file's path, and the bytes
    of that file, or None if the input is given by --formula."""
    command = draw(st.sampled_from(["parse", "classify", "correspond",
                                    "verify", "corpus"]))
    if command == "corpus" or draw(st.booleans()):
        argv, data = [command, "--file", None], draw(_FILE)
    else:
        argv, data = [command, "--formula", draw(_TEXT)], None
    if command in ("verify", "corpus"):
        argv += ["--max-worlds", str(draw(st.integers(1, 2)))]
    if command not in ("parse", "corpus") and draw(st.booleans()):
        argv += ["--order-type", draw(st.sampled_from(_ORDER_TYPES))]
    if command in ("classify", "correspond") and draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["text", "json", "tptp"]))]
    return argv, data


@settings(max_examples=200, deadline=None)
@given(_argv())
def test_cli_contract_fuzz(tmp_path_factory, case):
    argv, data = case
    if data is not None:
        path = tmp_path_factory.getbasetemp() / "fuzz-input.txt"
        path.write_bytes(data)
        argv = [str(path) if a is None else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the options
            code = exc.code
    assert code in (0, 1, 2), (argv, data)
    assert "Traceback" not in err.getvalue(), (argv, data)
