import json
import re

import pytest

from redwords.cli import main, parse_element, parse_probs, build_system
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


def test_red_words_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "red-words", "--type", "A", "--rank", "3",
                           "--element", "w0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {"element": [3, 2, 1], "words": [[1, 2, 1], [2, 1, 2]]}
    assert [tuple(w) for w in data["words"]] == [(1, 2, 1), (2, 1, 2)]


def test_stanley_schur_pinned(capsys):
    code, out, _ = run_cli(capsys, "stanley", "--type", "A", "--rank", "3",
                           "--element", "w0", "--basis", "schur")
    assert code == 0
    assert out.strip() == "s[2,1]"


def test_stanley_monomial_pinned(capsys):
    code, out, _ = run_cli(capsys, "stanley", "--type", "A", "--rank", "3",
                           "--element", "w0", "--basis", "monomial")
    assert code == 0
    assert out.strip() == "2*m[1,1,1] + m[2,1]"


def test_stanley_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "stanley", "--type", "A", "--rank", "4",
                           "--element", "1232", "--basis", "schur", "--json")
    assert code == 0
    parsed = SymFuncExpansion.from_json_dict(json.loads(out))
    assert parsed == SymFuncExpansion.from_dict("schur", {(2, 1, 1): 1})


def test_crystal_graph_dot(capsys):
    code, out, _ = run_cli(capsys, "crystal", "graph", "--type", "A", "--rank", "3",
                           "--element", "w0", "--factors", "3", "--dot")
    assert code == 0
    assert_valid_dot(out)
    assert out.count("[label=") - out.count("->") == 8  # eight vertex lines
    assert out.count("->") == 8


def test_crystal_graph_json(capsys):
    code, out, _ = run_cli(capsys, "crystal", "graph", "--type", "A", "--rank", "3",
                           "--element", "w0", "--factors", "3", "--json")
    data = json.loads(out)
    assert code == 0
    assert len(data["vertices"]) == 8
    assert len(data["edges"]) == 8
    assert data["components"] == 1
    assert data["highest_weights"][0]["weight"] == [2, 1, 0]


def test_tableaux_count(capsys):
    code, out, _ = run_cli(capsys, "tableaux", "count", "--shape", "3,2,1")
    assert code == 0 and out.strip() == "16"
    code, out, _ = run_cli(capsys, "tableaux", "count", "--shape", "4,3,2,1", "--json")
    assert json.loads(out) == {"shape": [4, 3, 2, 1], "count": 768}


def test_tableaux_crystal_dot(capsys):
    code, out, _ = run_cli(capsys, "tableaux", "crystal", "--shape", "2,1",
                           "--entries", "3", "--dot")
    assert code == 0
    assert_valid_dot(out)
    assert out.count("->") == 8


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


def test_eg_insert_multi_digit_letters(capsys):
    # the rank is inferred from the largest letter, 10, so S11
    code, out, _ = run_cli(capsys, "eg", "insert", "--factors", "(10,1)", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["P"] == [[1, 10]]
    assert data["reading_word"] == [10, 1]


@pytest.mark.parametrize("argv", [
    ("eg", "insert", "--rank", "3", "--factors", "(10,1)"),
    ("eg", "insert", "--rank", "3", "--factors", "(0)"),
    ("eg", "insert", "--factors", "(2)(0)"),
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
    ("eg", "insert", "--type", "hypercube", "--factors", "(1)(2)"),
])
def test_type_a_only_commands_reject_other_types(capsys, argv):
    # main() runs in-process, so an uncaught exception would fail the test
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and "needs type A" in err and "Traceback" not in err


def test_eg_ck_graph(capsys):
    code, out, _ = run_cli(capsys, "eg", "ck-graph", "--type", "A", "--rank", "3",
                           "--element", "w0", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["components"] == [["121", "212"]]
    code, out, _ = run_cli(capsys, "eg", "ck-graph", "--type", "A", "--rank", "4",
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
    code, _, err = run_cli(capsys, "markov", "exchange", "--type", "A", "--rank", "3",
                           "--probs", "0.5,0.5")
    assert code == 2 and "exact fraction" in err


def test_markov_promote(tmp_path, capsys):
    poset_file = tmp_path / "poset.json"
    poset_file.write_text(json.dumps({"n": 3, "relations": [[1, 3], [2, 3]]}))
    code, out, _ = run_cli(capsys, "markov", "promote", "--poset", str(poset_file),
                           "--probs", "1/3,1/3,1/3", "--report")
    assert code == 0
    data = json.loads(out)
    assert data["states"] == [[1, 2, 3], [2, 1, 3]]
    assert data["checks"]["T_pi_eq_pi"] is True


def test_markov_promote_rejects_unnatural(tmp_path, capsys):
    poset_file = tmp_path / "poset.json"
    poset_file.write_text(json.dumps({"n": 3, "relations": [[3, 1]]}))
    code, _, err = run_cli(capsys, "markov", "promote", "--poset", str(poset_file),
                           "--probs", "1/3,1/3,1/3")
    assert code == 2 and "natural" in err


def test_verify_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "coxeter", "--max-rank", "3")
    assert code == 0
    assert "FAIL" not in out


def test_verify_full_suite_rank_4(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--max-rank", "4")
    assert code == 0
    assert "FAIL" not in out
    assert "checks passed" in out


def test_verify_env_var_caps_rank(capsys, monkeypatch):
    monkeypatch.setenv("REDWORDS_MAX_RANK", "3")
    code, out, _ = run_cli(capsys, "verify", "--suite", "coxeter", "--max-rank", "5")
    assert code == 0
    assert "S4" not in out and "S5" not in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "tableaux", "--max-rank", "3",
                           "--json")
    assert code == 0
    reports = json.loads(out)
    assert all(r["passed"] for r in reports)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["stanley", "--type", "A", "--rank", "3"])  # missing --element
    assert info.value.code == 2


def test_unknown_element_is_input_error(capsys):
    code, _, err = run_cli(capsys, "red-words", "--type", "A", "--rank", "3",
                           "--element", "9")
    assert code == 2 and "error" in err
