import argparse
import ast
import contextlib
import functools
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from redwords import checks, cli, stanley
from redwords.cli import build_parser, build_system, main, parse_element, parse_probs
from redwords.cli import InputError
from redwords.symfunc import SymFuncExpansion


# ----------------------------------------------------------------------
# a grammar-level validator for the DOT digraphs we emit

_ID = r'"(?:[^"\\]|\\.)*"'
_NODE = re.compile(rf"^{_ID} \[label={_ID}\];$")
_EDGE = re.compile(rf"^{_ID} -> {_ID}(?: \[[a-z]+={_ID}(?:, [a-z]+={_ID})*\])?;$")


def assert_valid_dot(text: str) -> None:
    lines = text.strip().split("\n")
    assert re.match(rf"^digraph {_ID} {{$", lines[0]), lines[0]
    assert lines[-1] == "}"
    for line in lines[1:-1]:
        stripped = line.strip()
        assert _NODE.match(stripped) or _EDGE.match(stripped), stripped


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# parsing helpers


def test_parse_element_forms():
    system = build_system("A", 3)
    assert parse_element(system, "w0") == (3, 2, 1)
    assert parse_element(system, "121") == (3, 2, 1)
    assert parse_element(system, "1,2,1") == (3, 2, 1)
    with pytest.raises(InputError):
        parse_element(system, "3")  # letter out of range
    with pytest.raises(InputError):
        parse_element(system, "abc")



def test_parse_element_multi_digit_letters():
    system = build_system("A", 12)
    assert parse_element(system, "10,11") == system.evaluate((10, 11))
    assert parse_element(system, "10, 11") == system.evaluate((10, 11))
    with pytest.raises(InputError):
        parse_element(system, "1011")  # single digits 1,0,1,1; 0 is no generator
    with pytest.raises(InputError):
        parse_element(system, "10,12")  # 12 is out of range in S12
    with pytest.raises(InputError):
        parse_element(system, "10,,11")


def test_parse_element_lone_two_digit_letter():
    system = build_system("A", 12)
    assert parse_element(system, "10,") == system.generator(10)
    assert parse_element(system, "10,11,") == system.evaluate((10, 11))
    for text in (",", "10,,", ",10"):
        with pytest.raises(InputError):
            parse_element(system, text)


def test_parse_probs_exact_only():
    assert parse_probs("1/3,2/3")[0].denominator == 3
    with pytest.raises(InputError):
        parse_probs("0.5,0.5")
    with pytest.raises(InputError):
        parse_probs("1/3,x")


# ----------------------------------------------------------------------
# subcommands


def test_red_words_text(capsys):
    code, out, _ = run_cli(capsys, "red-words", "--type", "A", "--rank", "3",
                           "--element", "w0")
    assert code == 0
    assert out.splitlines() == ["121", "212"]


def test_red_words_multi_digit_element(capsys):
    code, out, _ = run_cli(capsys, "red-words", "--type", "A", "--rank", "12",
                           "--element", "10,11", "--json")
    assert code == 0
    assert json.loads(out)["words"] == [[10, 11]]


def test_red_words_text_reads_back_from_rank_11(capsys):
    for element in ("10,11", "11,10,11"):
        code, out, _ = run_cli(capsys, "red-words", "--rank", "12", "--element", element)
        assert code == 0
        s12 = build_system("A", 12)
        target = parse_element(s12, element)
        words = out.splitlines()
        assert words and all("," in word for word in words)
        for word in words:
            assert parse_element(s12, word) == target


def test_red_words_lone_two_digit_letter_reads_back(capsys):
    # s_10 prints as "10,": without the comma it would read back as 1, 0
    code, out, _ = run_cli(capsys, "red-words", "--rank", "12", "--element", "10,")
    assert code == 0
    assert out.splitlines() == ["10,"]
    s12 = build_system("A", 12)
    assert parse_element(s12, out.strip()) == s12.generator(10)
    code, again, _ = run_cli(capsys, "red-words", "--rank", "12", "--element", out.strip())
    assert (code, again) == (0, out)


def test_red_words_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "red-words", "--type", "A", "--rank", "3",
                           "--element", "w0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {"element": [3, 2, 1], "words": [[1, 2, 1], [2, 1, 2]]}
    assert [tuple(w) for w in data["words"]] == [(1, 2, 1), (2, 1, 2)]


def test_stanley_schur_pinned(capsys):
    code, out, _ = run_cli(capsys, "stanley", "--rank", "3",
                           "--element", "w0", "--basis", "schur")
    assert code == 0
    assert out.strip() == "s[2,1]"


def test_stanley_monomial_pinned(capsys):
    code, out, _ = run_cli(capsys, "stanley", "--rank", "3",
                           "--element", "w0", "--basis", "monomial")
    assert code == 0
    assert out.strip() == "2*m[1,1,1] + m[2,1]"


@pytest.mark.parametrize("argv", [
    ("stanley", "--rank", "3", "--element", "w0", "--factors", "3"),
    ("eg", "insert", "--factors", "(1)(2)(32)", "--rank", "3"),
    ("eg", "insert", "--factors", "(1)(2)(32)", "--type", "A"),
])
def test_stanley_and_eg_insert_take_no_block_count_rank_or_type(argv):
    # F_w depends on w alone, and insertion on the letters alone, so these
    # options are gone: argparse rejects them as usage errors
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exit_:
            main(list(argv))
    assert exit_.value.code == 2 and out.getvalue() == ""
    assert err.getvalue().startswith("usage: ") and "Traceback" not in err.getvalue()


def test_stanley_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "stanley", "--rank", "4",
                           "--element", "1232", "--basis", "schur", "--json")
    assert code == 0
    assert json.loads(out) == SymFuncExpansion.from_dict("schur", {(2, 1, 1): 1}).to_json_dict()


def test_crystal_graph_dot(capsys):
    code, out, _ = run_cli(capsys, "crystal", "graph", "--rank", "3",
                           "--element", "w0", "--factors", "3", "--dot")
    assert code == 0
    assert_valid_dot(out)
    assert out.count("[label=") - out.count("->") == 8  # eight vertex lines
    assert out.count("->") == 8


def test_crystal_graph_json(capsys):
    code, out, _ = run_cli(capsys, "crystal", "graph", "--rank", "3",
                           "--element", "w0", "--factors", "3", "--json")
    data = json.loads(out)
    assert code == 0
    assert len(data["vertices"]) == 8
    assert len(data["edges"]) == 8
    assert data["components"] == 1
    assert data["highest_weights"][0]["weight"] == [2, 1, 0]


@pytest.mark.parametrize("mode", [[], ["--json"], ["--dot"]])
def test_crystal_graph_refuses_before_listing(capsys, mode):
    # the w0 of S5 has 1,812,096 factorizations into its default 10 blocks,
    # counted from its Schur expansion and refused in every mode
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "crystal", "graph", "--rank", "5", "--element", "w0", *mode)
    assert time.perf_counter() - started < 2
    assert code == 2 and out == ""
    assert err == (
        "error: the crystal of w0 on 10 blocks has 1812096 vertices; crystal graph stops "
        "at 20000 (--factors sets the block count)\n"
    )


@pytest.mark.parametrize("argv, message", [
    (("red-words", "--rank", "7", "--element", "w0"),
     "w0 has 1100742656 reduced words; red-words stops at 1000000"),
    (("eg", "ck-graph", "--rank", "6", "--element", "w0"),
     "the Coxeter-Knuth graph of w0 has 292864 vertices; eg ck-graph stops at 20000"),
    (("markov", "exchange", "--rank", "7", "--probs", ",".join(["1/6"] * 6), "--dot"),
     "the walk of SymmetricGroup(7) has 1100742656 states; --dot stops at 20000"),
    # 8! = 40,320 linear extensions: the orderings of six labels pass the limit
    (("markov", "promote", "--poset", {"n": 8, "relations": []}, "--probs",
      ",".join(["1/8"] * 8), "--dot"),
     "the promotion walk has 20160 or more states; --dot stops at 20000"),
    # compared before the poset builds its tables of n entries
    (("markov", "promote", "--poset", {"n": 10**12}, "--probs", "1/2,1/2"),
     f"expected {10**12} probabilities for the labels 1..{10**12}, got 2"),
    # 20! reduced words, counted without visiting the 2^20 subsets
    (("red-words", "--type", "hypercube", "--rank", "20", "--element", "w0"),
     "w0 has 2432902008176640000 reduced words; red-words stops at 1000000"),
    (("markov", "exchange", "--type", "hypercube", "--rank", "20", "--probs", ",".join(["1/20"] * 20)),
     "the walk of Hypercube(20) has 2432902008176640000 states; the exact report stops at 64 "
     "(--dot draws larger walks)"),
])
def test_oversized_inputs_are_refused_before_they_are_listed(tmp_path, capsys, argv, message):
    poset_file = tmp_path / "poset.json"  # a dict stands for a poset file holding it
    for arg in argv:
        if isinstance(arg, dict):
            poset_file.write_text(json.dumps(arg))
    argv = [str(poset_file) if isinstance(arg, dict) else arg for arg in argv]
    started = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - started < 2
    assert (code, out, err) == (2, "", f"error: {message}\n")


W0_OF_S12_WORDS = 138018895500079485095943559213817088756940800  # hook-length count of (11, 10, ..., 1)


@pytest.mark.parametrize("argv, message", [
    (("red-words", "--rank", "12", "--element", "w0"),
     f"w0 has {W0_OF_S12_WORDS} reduced words; red-words stops at 1000000"),
    (("eg", "ck-graph", "--rank", "12", "--element", "w0"),
     f"the Coxeter-Knuth graph of w0 has {W0_OF_S12_WORDS} vertices; eg ck-graph stops at 20000"),
    (("markov", "exchange", "--rank", "12", "--probs", ",".join(["1/11"] * 11)),
     f"the walk of SymmetricGroup(12) has {W0_OF_S12_WORDS} states; the exact report stops at 64 "
     "(--dot draws larger walks)"),
    # F_w0 = s_(7, 6, ..., 1): its Schur expansion by highest weights took
    # about 20 s to reach this count
    (("crystal", "graph", "--rank", "8", "--element", "w0"),
     "the crystal of w0 on 28 blocks has 4489980733530693225676800 vertices; crystal graph stops "
     "at 20000 (--factors sets the block count)"),
])
def test_w0_is_refused_by_its_hook_count(capsys, argv, message):
    # the w0 of S12 sits above 12! - 1 elements, so counting its reduced
    # words by the recursion would memoise them all; the staircase's
    # hook-length (or hook-content) count enumerates nothing
    started = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - started < 1
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_the_w0_crystal_count_is_the_factorization_count():
    # the staircase's hook-content count, which the crystal graph refusal
    # reads at w0, against the count through the Schur expansion
    for n in (3, 4, 5):
        system = build_system("A", n)
        w0 = system.longest_element
        for blocks in range(1, 7):
            assert cli._factorization_count(system, w0, blocks) == stanley.factorization_count(system, w0, blocks)


def test_tableaux_count(capsys):
    code, out, _ = run_cli(capsys, "tableaux", "count", "--shape", "3,2,1")
    assert code == 0 and out.strip() == "16"
    code, out, _ = run_cli(capsys, "tableaux", "count", "--shape", "4,3,2,1", "--json")
    assert json.loads(out) == {"shape": [4, 3, 2, 1], "count": 768}


def test_tableaux_count_names_the_rejected_shape(capsys):
    syntax = "shape must be comma-separated positive integers such as 3,2,1, got "
    for text, message in (("0", "not a partition: (0,)"), ("1,2", "not a partition: (1, 2)"),
                          ("-1", "not a partition: (-1,)"), ("", syntax + "''"), ("a", syntax + "'a'")):
        code, out, err = run_cli(capsys, "tableaux", "count", "--shape", text)
        assert code == 2 and out == ""
        assert err.strip() == f"error: {message}"


def test_tableaux_count_reads_only_ascii_integers(capsys):
    # int() alone reads each of these: as 10, as 3 and 2, and as 3
    for text in ("1_0", " 3,+2", "\u0663"):
        code, out, err = run_cli(capsys, "tableaux", "count", "--shape", text)
        assert code == 2 and out == ""
        assert err.strip() == f"error: shape must be comma-separated positive integers such as 3,2,1, got {text!r}"


@pytest.mark.parametrize("argv, text", [
    (("red-words", "--rank", "٣", "--element", "w0"), "٣"),
    (("red-words", "--rank", "3_0", "--element", "1"), "3_0"),
    (("verify", "--suite", "coxeter", "--max-rank", "٢"), "٢"),
    (("crystal", "graph", "--rank", "3", "--element", "w0", "--factors", "２"), "２"),
    (("tableaux", "crystal", "--shape", "2,1", "--entries", " +3"), " +3"),
])
def test_integer_options_read_only_ascii_integers(capsys, argv, text):
    # int() alone reads each of these, the second as 30 (a listing of S30)
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 2
    assert f"invalid int value: {text!r}" in capsys.readouterr().err


def test_a_negative_rank_is_read_and_refused(capsys):
    code, out, err = run_cli(capsys, "red-words", "--rank", "-1", "--element", "w0")
    assert code == 2 and out == ""
    assert err.strip() == "error: type A needs rank >= 2 (the n of S_n)"


def test_tableaux_crystal_dot(capsys):
    code, out, _ = run_cli(capsys, "tableaux", "crystal", "--shape", "2,1",
                           "--entries", "3", "--dot")
    assert code == 0
    assert_valid_dot(out)
    assert out.count("->") == 8


@pytest.mark.parametrize("mode", [[], ["--json"], ["--dot"]])
def test_tableaux_crystal_refuses_before_listing(capsys, mode):
    # C(123, 3) = 302,621 tableaux of one row of 120 cells in entries 1..4,
    # counted by the hook-content formula and refused in every mode
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "tableaux", "crystal", "--shape", "120", "--entries", "4",
                             *mode)
    assert time.perf_counter() - started < 1
    assert code == 2 and out == ""
    assert "302621 vertices" in err and "Traceback" not in err


def test_tableaux_crystal_refuses_a_long_row_quickly(capsys):
    # 100,000 cells: the hook-content count multiplies its factors in a
    # product tree, so the refusal stays well under quadratic time
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "tableaux", "crystal", "--shape", "100000", "--entries", "4")
    assert time.perf_counter() - started < 3
    assert code == 2 and out == ""
    assert "166676666850001 vertices" in err  # C(100003, 3)


def test_eg_insert_pinned(capsys):
    code, out, _ = run_cli(capsys, "eg", "insert", "--factors", "(1)(2)(32)")
    assert code == 0
    assert "transposed reading word: 3123" in out


def test_eg_insert_json(capsys):
    code, out, _ = run_cli(capsys, "eg", "insert", "--factors", "(1)(2)(32)", "--json")
    data = json.loads(out)
    assert data["P"] == [[1, 3], [2], [3]]
    assert data["Q"] == [[1, 1], [2], [3]]
    assert data["reading_word"] == [3, 1, 2, 3]


def test_eg_insert_one_large_letter_is_linear(capsys):
    # S_20001: reducedness is read off the word, not from an inversion count
    started = time.perf_counter()
    code, out, _ = run_cli(capsys, "eg", "insert", "--factors", "(20000,)")
    assert time.perf_counter() - started < 2
    assert code == 0
    assert out.splitlines()[0] == "P: 20000"


@pytest.mark.parametrize("blocks", ["(a)", "(-1)", "(-1,)", "(1a)"])
def test_eg_insert_rejects_malformed_blocks(capsys, blocks):
    code, out, err = run_cli(capsys, "eg", "insert", "--factors", blocks)
    assert code == 2 and out == ""
    assert err == f"error: cannot parse factorization {blocks!r} at {blocks!r}\n"


@pytest.mark.parametrize("argv, message", [
    (("red-words", "--rank", "4", "--element", "\u0661\u0662\u0661"),
     "element must be 'w0' or a word of letters, got '\u0661\u0662\u0661'"),
    (("eg", "insert", "--factors", "(\u0663)(2)"),
     "cannot parse factorization '(\u0663)(2)' at '(\u0663)(2)'"),
], ids=["red-words", "eg-insert"])
def test_words_and_blocks_read_only_ascii_digits(capsys, argv, message):
    # int() alone reads the Arabic-Indic digits as 121 and as (3)(2)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_eg_insert_multi_digit_letters(capsys):
    # the rank is inferred from the largest letter, 10, so S11
    code, out, _ = run_cli(capsys, "eg", "insert", "--factors", "(10,1)", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["P"] == [[1, 10]]
    assert data["reading_word"] == [10, 1]


@pytest.mark.parametrize("argv", [
    ("eg", "insert", "--factors", "(0)"),
    ("eg", "insert", "--factors", "(2)(0)"),
    ("red-words", "--rank", "3", "--element", "13"),
])
def test_out_of_range_letters_are_input_errors(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and "not a generator" in err


@pytest.mark.parametrize("argv", [
    ("stanley", "--type", "dihedral", "--rank", "4", "--element", "w0"),
    ("stanley", "--type", "hypercube", "--rank", "3", "--element", "w0"),
    ("crystal", "graph", "--type", "dihedral", "--rank", "4", "--element", "w0"),
    ("crystal", "graph", "--type", "hypercube", "--rank", "3", "--element", "w0"),
    ("eg", "ck-graph", "--type", "dihedral", "--rank", "4", "--element", "w0"),
    ("eg", "ck-graph", "--type", "hypercube", "--rank", "3", "--element", "w0"),
])
def test_type_a_only_commands_reject_other_types(argv):
    # these commands work in S_n and take no --type: argparse rejects it as
    # a usage error
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exit_:
            main(list(argv))
    assert exit_.value.code == 2 and out.getvalue() == ""
    assert err.getvalue().startswith("usage: ") and "Traceback" not in err.getvalue()
    assert "unrecognized arguments: --type" in err.getvalue()


def test_eg_ck_graph(capsys):
    code, out, _ = run_cli(capsys, "eg", "ck-graph", "--rank", "3",
                           "--element", "w0", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["components"] == [["121", "212"]]
    code, out, _ = run_cli(capsys, "eg", "ck-graph", "--rank", "4",
                           "--element", "121", "--dot")
    assert code == 0
    assert_valid_dot(out)


def test_markov_exchange_report(capsys):
    from fractions import Fraction

    from redwords.coxeter import SymmetricGroup
    from redwords.markov import ProbabilityMeasure, build_chain

    code, out, _ = run_cli(capsys, "markov", "exchange", "--type", "A", "--rank", "3",
                           "--probs", "1/2,1/2", "--report")
    assert code == 0
    data = json.loads(out)
    assert data["states"] == [[1, 2, 1], [2, 1, 2]]
    assert data["matrix"] == [["1/2", "1/2"], ["1/2", "1/2"]]
    assert data["stationary"] == ["1/2", "1/2"]
    assert data["checks"] == {
        "stochastic": True,
        "T_pi_eq_pi": True,
        "charpoly_match": True,
    }
    for line in data["eigenvalues"]:
        assert line["multiplicity_formula"] == line["multiplicity_charpoly"]
    # the serialized rationals parse back to the exact matrix
    s3 = SymmetricGroup(3)
    expected = build_chain(s3, ProbabilityMeasure.uniform(s3.index_set))
    assert tuple(tuple(w) for w in data["states"]) == expected.states
    parsed = tuple(tuple(Fraction(x) for x in row) for row in data["matrix"])
    assert parsed == expected.entries


@pytest.mark.parametrize("argv", [
    ("markov", "exchange", "--rank", "4", "--probs", "1/6,1/3,1/2"),
    ("markov", "exchange", "--type", "hypercube", "--rank", "3", "--probs", "1/6,1/3,1/2"),
    ("markov", "promote", "--poset", "POSET", "--probs", "1/6,1/3,1/2"),
])
def test_markov_report_is_a_second_spelling_of_json(tmp_path, capsys, argv):
    poset_file = tmp_path / "poset.json"
    poset_file.write_text(json.dumps({"n": 3, "relations": [[1, 3]]}))
    argv = [str(poset_file) if arg == "POSET" else arg for arg in argv]
    report = run_cli(capsys, *argv, "--report")
    assert report == run_cli(capsys, *argv, "--json")
    assert report[0] == 0 and json.loads(report[1])["checks"]["T_pi_eq_pi"]


def test_markov_exchange_dot(capsys):
    code, out, _ = run_cli(capsys, "markov", "exchange", "--type", "A", "--rank", "3",
                           "--probs", "1/2,1/2", "--dot")
    assert code == 0
    assert_valid_dot(out)
    assert out.count("->") == 4  # two loops, two crossings


def test_markov_exchange_rejects_bad_probs(capsys):
    code, _, err = run_cli(capsys, "markov", "exchange", "--type", "A", "--rank", "3",
                           "--probs", "1/3,1/3,1/3")
    assert code == 2 and "expected 2 probabilities" in err
    # a decimal, and digits of another script, which \d alone would read
    for probs, token in (("0.5,0.5", "0.5"), ("١/٢,1/2", "١/٢")):
        code, _, err = run_cli(capsys, "markov", "exchange", "--type", "A", "--rank", "3",
                               "--probs", probs)
        assert code == 2 and err.strip() == f"error: probability {token!r} must be an exact fraction like 1/3"


def test_markov_exchange_rejects_a_zero_denominator(capsys):
    # Fraction("1/0") raises ZeroDivisionError, so the token is refused as input, by name
    code, out, err = run_cli(capsys, "markov", "exchange", "--type", "A", "--rank", "3",
                             "--probs", "1/0,1")
    assert code == 2 and out == ""
    assert err.strip() == "error: probability '1/0' has a zero denominator"


@pytest.mark.parametrize("rank", [5, 6])
def test_markov_exchange_refuses_large_reports(capsys, rank):
    probs = ",".join([f"1/{rank - 1}"] * (rank - 1))
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "markov", "exchange", "--rank", str(rank),
                             "--probs", probs)
    assert time.perf_counter() - started < 1
    assert code == 2 and out == ""
    assert "states" in err and "Traceback" not in err


def test_markov_promote(tmp_path, capsys):
    poset_file = tmp_path / "poset.json"
    poset_file.write_text(json.dumps({"n": 3, "relations": [[1, 3], [2, 3]]}))
    code, out, _ = run_cli(capsys, "markov", "promote", "--poset", str(poset_file),
                           "--probs", "1/3,1/3,1/3", "--report")
    assert code == 0
    data = json.loads(out)
    assert data["states"] == [[1, 2, 3], [2, 1, 3]]
    assert data["checks"]["T_pi_eq_pi"] is True


@pytest.mark.parametrize("mode", [[], ["--report"], ["--json"]])
def test_markov_promote_refuses_large_reports(tmp_path, capsys, mode):
    # the antichain on 6 labels has 6! = 720 linear extensions, far past the
    # dense exact report; the count stops at the first layer of order ideals
    # past 64, the 6 * 5 * 4 = 120 orderings of three labels
    poset_file = tmp_path / "poset.json"
    poset_file.write_text(json.dumps({"n": 6, "relations": []}))
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "markov", "promote", "--poset", str(poset_file),
                             "--probs", ",".join(["1/6"] * 6), *mode)
    assert time.perf_counter() - started < 1
    assert code == 2 and out == ""
    assert "120 or more states" in err and "Traceback" not in err


def test_markov_promote_refuses_before_enumerating(tmp_path, capsys):
    # 8! = 40,320 linear extensions: refused once the 8 * 7 * 6 = 336
    # orderings of three labels pass the limit, before any is listed
    poset_file = tmp_path / "poset.json"
    poset_file.write_text(json.dumps({"n": 8, "relations": []}))
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "markov", "promote", "--poset", str(poset_file),
                             "--probs", ",".join(["1/8"] * 8))
    assert time.perf_counter() - started < 0.5
    assert code == 2 and out == ""
    assert "336 or more states" in err and "Traceback" not in err


def test_markov_promote_refuses_thirty_unrelated_labels_quickly(tmp_path, capsys):
    # 30! linear extensions over 2^30 order ideals: the count stops at the
    # 30 * 29 = 870 orderings of two labels
    poset_file = tmp_path / "poset.json"
    poset_file.write_text(json.dumps({"n": 30, "relations": []}))
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "markov", "promote", "--poset", str(poset_file),
                             "--probs", ",".join(["1/30"] * 30))
    assert time.perf_counter() - started < 1
    assert code == 2 and out == ""
    assert "870 or more states" in err and "Traceback" not in err


def test_markov_promote_reports_on_a_thirty_label_chain(tmp_path, capsys):
    # one linear extension, however many labels: every layer counts one
    poset_file = tmp_path / "poset.json"
    poset_file.write_text(json.dumps({"n": 30, "relations": [[i, i + 1] for i in range(1, 30)]}))
    code, out, _ = run_cli(capsys, "markov", "promote", "--poset", str(poset_file),
                           "--probs", ",".join(["1/30"] * 30))
    assert code == 0
    assert out == "1 states; checks: {'stochastic': True, 'T_pi_eq_pi': True}\n"


def test_markov_promote_rejects_unnatural(tmp_path, capsys):
    poset_file = tmp_path / "poset.json"
    poset_file.write_text(json.dumps({"n": 3, "relations": [[3, 1]]}))
    code, _, err = run_cli(capsys, "markov", "promote", "--poset", str(poset_file),
                           "--probs", "1/3,1/3,1/3")
    assert code == 2 and "natural" in err


@pytest.mark.parametrize("payload", [
    [1, 2],
    {"n": 2, "relations": 5},
    {"n": 2, "relations": [[1, 2.5]]},
    {"n": 2.7, "relations": []},
    {"n": "2", "relations": []},
    {"n": 2, "relations": [[True, 2]]},
    {"n": 2, "relations": [["1", 2]]},
    {"n": -1},
])
def test_markov_promote_rejects_malformed_poset_files(tmp_path, capsys, payload):
    poset_file = tmp_path / "poset.json"
    poset_file.write_text(json.dumps(payload))
    for mode in ([], ["--dot"]):
        code, out, err = run_cli(capsys, "markov", "promote", "--poset", str(poset_file),
                                 "--probs", "1/2,1/2", *mode)
        assert code == 2 and out == ""
        assert err.startswith("error: bad poset file")


@pytest.mark.parametrize("rank", ["1", "0", "-3"])
def test_verify_rejects_max_rank_below_2(capsys, rank):
    code, out, err = run_cli(capsys, "verify", "--max-rank", rank)
    assert code == 2 and out == ""
    assert err.strip() == f"error: --max-rank must be at least 2, got {rank}"


def test_verify_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "coxeter", "--max-rank", "3")
    assert code == 0 and "FAIL" not in out


def test_verify_max_rank_ignores_the_test_rank_variable(capsys, monkeypatch):
    # REDWORDS_MAX_RANK gates the pytest suite alone; verify runs the ranks
    # that --max-rank asks for
    monkeypatch.setenv("REDWORDS_MAX_RANK", "3")
    code, out, _ = run_cli(capsys, "verify", "--suite", "coxeter", "--max-rank", "4")
    assert code == 0
    for check in ("generator-relations", "reduced-words-vs-hooks", "reduced-words-evaluate",
                  "exchange-totality", "parabolic-involutions"):
        assert f"PASS  S4-{check}" in out
    assert "S5" not in out


# every subcommand's options, one tuple of option strings per option: a
# change to the command line shows here
CLI_OPTIONS = {
    "red-words": [("--type",), ("--rank",), ("--element",), ("--json",)],
    "stanley": [("--rank",), ("--element",), ("--basis",), ("--json",)],
    "crystal graph": [("--rank",), ("--element",), ("--factors",), ("--dot",), ("--json",)],
    "tableaux count": [("--shape",), ("--json",)],
    "tableaux crystal": [("--shape",), ("--entries",), ("--dot",), ("--json",)],
    "eg insert": [("--factors",), ("--json",)],
    "eg ck-graph": [("--rank",), ("--element",), ("--dot",), ("--json",)],
    "markov exchange": [("--type",), ("--rank",), ("--probs",), ("--json", "--report"),
                        ("--dot",)],
    "markov promote": [("--poset",), ("--probs",), ("--json", "--report"), ("--dot",)],
    "verify": [("--suite",), ("--max-rank",), ("--json",)],
}


def _parser_options(parser, path=()):
    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.update(_parser_options(sub, path + (name,)))
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            out.setdefault(" ".join(path), []).append(tuple(action.option_strings))
    return out


def test_cli_options_are_pinned():
    options = _parser_options(build_parser())
    assert options == CLI_OPTIONS
    assert sum(len(opts) for opts in options.values()) == 37


def test_main_reuses_one_parser_and_prints_as_a_first_call(capsys):
    # main builds its parser on the first call and reads it on every later
    # one: a refused input, then JSON, then text must each print exactly
    # what they print as the first call of a process
    argvs = [
        ("red-words", "--rank", "12", "--element", "w0"),
        ("verify", "--suite", "coxeter", "--json"),
        ("verify", "--suite", "coxeter"),
    ]
    first = []
    for argv in argvs:
        cli._parser.cache_clear()
        first.append(run_cli(capsys, *argv))
    assert [code for code, _, _ in first] == [2, 0, 0]
    cli._parser.cache_clear()
    assert [run_cli(capsys, *argv) for argv in argvs] == first
    assert cli._parser.cache_info().misses == 1
    assert build_parser() is not build_parser()


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "tableaux", "--max-rank", "3",
                           "--json")
    assert code == 0
    reports = json.loads(out)
    assert all(r["passed"] for r in reports)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["stanley", "--rank", "3"])  # missing --element
    assert info.value.code == 2


def test_unknown_element_is_input_error(capsys):
    code, _, err = run_cli(capsys, "red-words", "--type", "A", "--rank", "3",
                           "--element", "9")
    assert code == 2 and "error" in err


@functools.cache
def _verify_under_python_optimize():
    # one `python -O` process runs each suite in turn; each output ends in its summary
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (
        "import sys; from redwords.cli import main; sys.exit(max([main(['verify', "
        f"'--suite', s, '--max-rank', '3']) for s in {list(checks.SUITES)!r}]))"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    outputs = re.split(r"(?<=checks passed)\n", result.stdout.strip())
    assert len(outputs) == len(checks.SUITES)
    return dict(zip(checks.SUITES, outputs))


@pytest.mark.parametrize("suite", checks.SUITES)
def test_verify_passes_under_python_optimize(suite):
    # `python -O` strips assert statements; the checks must still run and pass
    *lines, summary = _verify_under_python_optimize()[suite].splitlines()
    assert lines and all(line.startswith("PASS ") for line in lines)
    passed, total = summary.split()[0].split("/")
    assert passed == total == str(len(lines))


def test_no_library_module_holds_an_assert_statement():
    # `python -O` strips assert statements, so no runtime invariant may rest on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(checks.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# ----------------------------------------------------------------------
# every subcommand answers, exits 2 on bad input or 1 on a failed check


def _option(name, values):
    return values.map(lambda value: [name, value])


def _flags(*names):
    return st.lists(st.sampled_from(names), unique=True, max_size=2)


def _argv(*parts):
    """Concatenate literal argument lists and strategies for them."""
    return st.tuples(*(st.just(p) if isinstance(p, list) else p for p in parts)).map(
        lambda pieces: [arg for piece in pieces for arg in piece]
    )


# small inputs, mostly well formed, with the malformed ones mixed in
_RANKS = st.sampled_from(["2", "3", "3", "4", "4", "-1", "0", "1"])
_RANK = _option("--rank", _RANKS)  # the type-A commands take no --type
_SYSTEM = _argv(
    _option("--type", st.sampled_from(["A", "A", "A", "hypercube", "dihedral", "B"])),
    _RANK,
)
_ELEMENT = _option("--element", st.one_of(
    st.sampled_from(["w0", "w0", "w0", "121", "1,2", "213", "10,", ",", "0", "9"]),
    st.text("0123,w ", max_size=5),
))
_FACTORS = st.one_of(st.just([]), _option("--factors", st.integers(-1, 5).map(str)))
_PROBS = _option("--probs", st.one_of(
    st.sampled_from(["1/2,1/2", "1/3,2/3", "1/3,1/3,1/3", "1/6,1/3,1/2",
                     "1/4,1/4,1/4,1/4", "1,0", "0,1,0", "0.5,0.5", "2,-1", ""]),
    st.lists(st.fractions(0, 1, max_denominator=4), max_size=5).map(
        lambda ps: ",".join(str(p) for p in ps)
    ),
))
_SHAPE = _option("--shape", st.one_of(
    st.lists(st.integers(-1, 150), min_size=1, max_size=4).map(
        lambda parts: ",".join(map(str, sorted(parts, reverse=True)))
    ),
    st.lists(st.integers(-1, 150), max_size=4).map(lambda parts: ",".join(map(str, parts))),
    st.sampled_from(["", ",", "a", "3,,1"]),
))
_BLOCKS = _option("--factors", st.one_of(
    st.sampled_from(["(1)(2)(32)", "(21)(1)", "(3)(21)"]), st.text("()0123", max_size=8)
))
_POSETS = st.one_of(
    st.sampled_from([[1, 2], {"n": 2, "relations": 5}, {"n": 3, "relations": [[3, 1]]},
                     "x", None, {"n": None}, {"relations": []}]),
    st.fixed_dictionaries({
        "n": st.integers(-1, 4),
        "relations": st.lists(st.lists(st.integers(0, 4), min_size=1, max_size=3), max_size=4),
    }),
)
_CASES = st.one_of(
    st.tuples(_argv(["red-words"], _SYSTEM, _ELEMENT, _flags("--json")), st.none()),
    st.tuples(_argv(["stanley"], _RANK, _ELEMENT, _flags("--json"),
                    _option("--basis", st.sampled_from(["schur", "monomial"]))), st.none()),
    st.tuples(_argv(["crystal", "graph"], _RANK, _ELEMENT, _FACTORS,
                    _flags("--json", "--dot")), st.none()),
    st.tuples(_argv(["tableaux", "count"], _SHAPE, _flags("--json")), st.none()),
    st.tuples(_argv(["tableaux", "crystal"], _SHAPE,
                    _option("--entries", st.integers(-1, 4).map(str)),
                    _flags("--json", "--dot")), st.none()),
    st.tuples(_argv(["eg", "insert"], _BLOCKS, _flags("--json")), st.none()),
    st.tuples(_argv(["eg", "ck-graph"], _RANK, _ELEMENT, _flags("--json", "--dot")), st.none()),
    st.tuples(_argv(["markov", "exchange"], _SYSTEM, _PROBS,
                    _flags("--report", "--json", "--dot")), st.none()),
    st.tuples(_argv(["markov", "promote", "--poset", "POSET"], _PROBS,
                    _flags("--report", "--json", "--dot")), _POSETS),
    st.tuples(_argv(["verify"], _option("--suite", st.sampled_from(["all", "coxeter", "nope"])),
                    _option("--max-rank", st.integers(-1, 3).map(str)), _flags("--json")),
              st.none()),
)


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(case=(["markov", "promote", "--poset", "POSET", "--probs", "1/2,1/2"], [1, 2]))
@example(case=(["markov", "promote", "--poset", "POSET", "--probs", "1/2,1/2"],
               {"n": 2, "relations": 5}))
@example(case=(["crystal", "graph", "--rank", "3", "--element", "w0", "--factors", "0"], None))
@example(case=(["tableaux", "count", "--shape", "0"], None))
@example(case=(["tableaux", "crystal", "--shape", "150,150", "--entries", "4", "--dot"], None))
@example(case=(["verify", "--max-rank", "0"], None))
@example(case=(["verify", "--max-rank", "1"], None))
@given(case=_CASES)
def test_cli_fuzz_exits_0_1_or_2_without_a_traceback(tmp_path, case):
    argv, poset = case
    if "POSET" in argv:
        poset_file = tmp_path / "poset.json"
        poset_file.write_text(json.dumps(poset))
        argv = [str(poset_file) if arg == "POSET" else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:  # argparse usage errors
            code = exit_.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith(("error: ", "usage: ")), (argv, err.getvalue())
