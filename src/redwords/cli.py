"""Command line interface.

Subcommands: red-words, stanley, crystal, eg, tableaux, markov, verify.
Deterministic output; --json for machine-readable form, --dot for graphviz.
Exit codes: 0 success, 1 failed verification, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import checks, markov, stanley
from .coxeter import CoxeterSystem, Dihedral, Hypercube, SymmetricGroup
from .crystal import factorization_crystal, parse_blocks, parse_factorization
from .edelman_greene import ck_graph, eg_insert, p_transpose_reading_word
from .partitions import check_partition, hook_length_count
from .tableaux import tableau_crystal

_FRACTION = re.compile(r"^-?\d+(/\d+)?$")


class InputError(ValueError):
    pass


def build_system(kind: str, rank: int) -> CoxeterSystem:
    kind = kind.lower()
    if kind in ("a", "symmetric"):
        if rank < 2:
            raise InputError("type A needs rank >= 2 (the n of S_n)")
        return SymmetricGroup(rank)
    if kind == "hypercube":
        return Hypercube(rank)
    if kind == "dihedral":
        return Dihedral(rank)
    raise InputError(f"unknown system type {kind!r}")


def type_a_system(kind: str, rank: int) -> SymmetricGroup:
    """The system for a command whose layer is built for the symmetric group."""
    system = build_system(kind, rank)
    if not isinstance(system, SymmetricGroup):
        raise InputError(f"this command needs type A (the symmetric group), not {kind!r}")
    return system


def parse_element(system: CoxeterSystem, text: str):
    """'w0', comma-separated letters such as ``10,11``, or single digits such as ``121``."""
    if text == "w0":
        return system.longest_element
    if "," in text:
        tokens = [tok.strip() for tok in text.split(",")]
    else:
        tokens = list(text.replace(" ", ""))
    if not tokens or not all(tok.isdigit() for tok in tokens):
        raise InputError(f"element must be 'w0' or a word of letters, got {text!r}")
    word = tuple(int(tok) for tok in tokens)
    for i in word:
        if i not in system.index_set:
            raise InputError(f"letter {i} is not a generator of {system!r}")
    return system.evaluate(word)


def parse_probs(text: str) -> list[Fraction]:
    out = []
    for token in text.split(","):
        token = token.strip()
        if not _FRACTION.match(token):
            raise InputError(
                f"probability {token!r} must be an exact fraction like 1/3"
            )
        out.append(Fraction(token))
    return out


def parse_shape(text: str):
    try:
        return check_partition(int(tok) for tok in text.split(","))
    except ValueError as err:
        raise InputError(str(err)) from None


def measure_for(system_or_labels, probs: list[Fraction]) -> markov.ProbabilityMeasure:
    labels = (
        system_or_labels.index_set
        if isinstance(system_or_labels, CoxeterSystem)
        else tuple(system_or_labels)
    )
    if len(probs) != len(labels):
        raise InputError(
            f"expected {len(labels)} probabilities for {labels}, got {len(probs)}"
        )
    return markov.ProbabilityMeasure.from_mapping(dict(zip(labels, probs)))


def _word_str(word) -> str:
    return "".join(str(i) for i in word)


def _element_json(system, element):
    if isinstance(system, Hypercube):
        return sorted(element)
    return list(element)


# ----------------------------------------------------------------------
# subcommands


def cmd_red_words(args) -> int:
    system = build_system(args.type, args.rank)
    element = parse_element(system, args.element)
    words = system.reduced_words(element)
    if args.json:
        print(json.dumps({
            "element": _element_json(system, element),
            "words": [list(w) for w in words],
        }))
    else:
        for word in words:
            print(_word_str(word))
    return 0


def cmd_stanley(args) -> int:
    system = type_a_system(args.type, args.rank)
    element = parse_element(system, args.element)
    if args.basis == "monomial":
        expansion = stanley.stanley_monomial(system, element, args.factors)
    else:
        expansion = stanley.schur_expansion(system, element)
    if args.json:
        print(json.dumps(expansion.to_json_dict()))
    else:
        print(expansion)
    return 0


def cmd_crystal_graph(args) -> int:
    system = type_a_system(args.type, args.rank)
    element = parse_element(system, args.element)
    graph = factorization_crystal(system, element, args.factors)
    if args.dot:
        print(graph.to_dot("crystal", label=str), end="")
        return 0
    order = {v: k for k, v in enumerate(graph.vertices)}
    payload = {
        "vertices": [str(v) for v in graph.vertices],
        "edges": [
            {"from": order[u], "to": order[v], "label": i}
            for u, i, v in graph.edges()
        ],
        "highest_weights": [
            {"vertex": str(v), "weight": list(w)} for v, w in graph.highest_weights()
        ],
        "components": len(graph.components()),
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"{len(graph.vertices)} vertices, {len(graph.f_edges)} edges, "
              f"{payload['components']} component(s)")
        for v, w in graph.highest_weights():
            print(f"highest weight {v} of weight {tuple(w)}")
    return 0


def cmd_tableaux_count(args) -> int:
    shape = parse_shape(args.shape)
    count = hook_length_count(shape)
    if args.json:
        print(json.dumps({"shape": list(shape), "count": count}))
    else:
        print(count)
    return 0


def cmd_tableaux_crystal(args) -> int:
    shape = parse_shape(args.shape)
    graph = tableau_crystal(shape, args.entries)
    if args.dot:
        print(graph.to_dot("tableaux", label=str), end="")
        return 0
    order = {v: k for k, v in enumerate(graph.vertices)}
    payload = {
        "vertices": [[list(row) for row in v.rows] for v in graph.vertices],
        "edges": [
            {"from": order[u], "to": order[v], "label": i}
            for u, i, v in graph.edges()
        ],
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"{len(graph.vertices)} vertices, {len(graph.f_edges)} edges")
    return 0


def cmd_eg_insert(args) -> int:
    rank = args.rank
    if rank is None:
        letters = [a for block in parse_blocks(args.factors) for a in block]
        rank = max(letters) + 1 if letters else 2
    system = type_a_system(args.type, rank)
    fz = parse_factorization(system, args.factors)
    pair = eg_insert(fz)
    word = p_transpose_reading_word(pair.p)
    if args.json:
        print(json.dumps({
            "P": [list(r) for r in pair.p.rows],
            "Q": [list(r) for r in pair.q.rows],
            "reading_word": list(word),
        }))
    else:
        print(f"P: {pair.p}")
        print(f"Q: {pair.q}")
        print(f"transposed reading word: {_word_str(word)}")
    return 0


def cmd_eg_ck_graph(args) -> int:
    system = type_a_system(args.type, args.rank)
    element = parse_element(system, args.element)
    graph = ck_graph(system, element)
    if args.dot:
        print(graph.to_dot("ck"), end="")
        return 0
    payload = {
        "vertices": [list(v) for v in graph.vertices],
        "edges": [
            {"a": list(u), "b": list(v), "kind": kind} for u, v, kind in graph.edges
        ],
        "components": [sorted(_word_str(w) for w in comp) for comp in graph.components()],
    }
    if args.json:
        print(json.dumps(payload))
    else:
        for comp in graph.components():
            print(" ".join(sorted(_word_str(w) for w in comp)))
    return 0


def _markov_report(system, measure, matrix, with_spectrum: bool) -> dict:
    report: dict = {
        "states": [list(s) for s in matrix.states],
        "matrix": [[str(x) for x in row] for row in matrix.entries],
        "checks": {
            "stochastic": matrix.is_column_stochastic(),
        },
    }
    if with_spectrum:
        lines = markov.spectrum(system, measure)
        coeffs = markov.charpoly(matrix)
        collapsed = markov.eigenvalues_by_value(lines)
        report["eigenvalues"] = [
            {
                "value": str(value),
                "multiplicity_formula": mult,
                "multiplicity_charpoly": markov.eigenvalue_multiplicity_in_charpoly(
                    coeffs, value
                ),
            }
            for value, mult in sorted(collapsed.items())
        ]
        pi = markov.stationary_distribution(system, measure)
        vector = [pi[s] for s in matrix.states]
        report["stationary"] = [str(x) for x in vector]
        report["checks"]["T_pi_eq_pi"] = matrix.fixes(vector)
        report["checks"]["charpoly_match"] = coeffs == markov.poly_from_eigenvalues(collapsed)
    else:
        vector = markov.solve_stationary(matrix)
        report["stationary"] = [str(x) for x in vector]
        report["checks"]["T_pi_eq_pi"] = matrix.fixes(vector)
    return report


def cmd_markov_exchange(args) -> int:
    system = build_system(args.type, args.rank)
    measure = measure_for(system, parse_probs(args.probs))
    matrix = markov.build_chain(system, measure)
    if args.dot:
        print(matrix.to_dot("exchange"), end="")
        return 0
    report = _markov_report(system, measure, matrix, True)
    if args.report or args.json:
        print(json.dumps(report))
    else:
        print(f"{matrix.size} states; checks: {report['checks']}")
    if not all(report["checks"].values()):
        return 1
    return 0


def cmd_markov_promote(args) -> int:
    with open(args.poset) as handle:
        data = json.load(handle)
    try:
        poset = markov.NaturalPoset.from_relations(int(data["n"]), data.get("relations", []))
    except (KeyError, ValueError) as err:
        raise InputError(f"bad poset file: {err}") from None
    measure = measure_for(range(1, poset.n + 1), parse_probs(args.probs))
    matrix = markov.promotion_chain(poset, measure)
    if args.dot:
        print(matrix.to_dot("promotion"), end="")
        return 0
    report = _markov_report(None, measure, matrix, False)
    if args.report or args.json:
        print(json.dumps(report))
    else:
        print(f"{matrix.size} states; checks: {report['checks']}")
    return 0 if all(report["checks"].values()) else 1


def cmd_verify(args) -> int:
    reports = checks.run_suite(args.suite, args.max_rank)
    if args.json:
        print(json.dumps([
            {"name": r.name, "passed": r.passed, "detail": r.detail}
            for r in reports
        ]))
    else:
        for report in reports:
            print(report)
        failed = sum(1 for r in reports if not r.passed)
        print(f"{len(reports) - failed}/{len(reports)} checks passed")
    return 0 if all(r.passed for r in reports) else 1


# ----------------------------------------------------------------------
# parser


def _add_system_args(parser, rank_required=True):
    parser.add_argument("--type", default="A", help="A | hypercube | dihedral")
    parser.add_argument(
        "--rank",
        type=int,
        required=rank_required,
        default=None,
        help="n of S_n for type A; coordinate count for hypercube; m for dihedral",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redwords",
        description="Reduced words, crystals on decreasing factorizations, "
        "Stanley symmetric functions, and exchange walks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("red-words", help="enumerate reduced words of an element")
    _add_system_args(p)
    p.add_argument(
        "--element",
        required=True,
        help="'w0', digits such as 121, or comma-separated letters such as 10,11",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_red_words)

    p = sub.add_parser("stanley", help="expand a Stanley symmetric function")
    _add_system_args(p)
    p.add_argument("--element", required=True)
    p.add_argument("--basis", choices=("monomial", "schur"), default="schur")
    p.add_argument("--factors", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_stanley)

    p = sub.add_parser("crystal", help="crystal graphs")
    crystal_sub = p.add_subparsers(dest="subcommand", required=True)
    g = crystal_sub.add_parser("graph", help="crystal on decreasing factorizations")
    _add_system_args(g)
    g.add_argument("--element", required=True)
    g.add_argument("--factors", type=int, default=None)
    g.add_argument("--dot", action="store_true")
    g.add_argument("--json", action="store_true")
    g.set_defaults(func=cmd_crystal_graph)

    p = sub.add_parser("tableaux", help="Young tableaux")
    tab_sub = p.add_subparsers(dest="subcommand", required=True)
    c = tab_sub.add_parser("count", help="standard tableaux by the hook formula")
    c.add_argument("--shape", required=True, help="comma separated, e.g. 3,2,1")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_tableaux_count)
    c = tab_sub.add_parser("crystal", help="crystal on semistandard tableaux")
    c.add_argument("--shape", required=True)
    c.add_argument("--entries", type=int, required=True)
    c.add_argument("--dot", action="store_true")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_tableaux_crystal)

    p = sub.add_parser("eg", help="Edelman-Greene insertion")
    eg_sub = p.add_subparsers(dest="subcommand", required=True)
    i = eg_sub.add_parser("insert", help="insert a decreasing factorization")
    i.add_argument("--factors", required=True, help='e.g. "(1)(2)(32)"')
    i.add_argument("--type", default="A")
    i.add_argument("--rank", type=int, default=None)
    i.add_argument("--json", action="store_true")
    i.set_defaults(func=cmd_eg_insert)
    k = eg_sub.add_parser("ck-graph", help="Coxeter-Knuth graph of an element")
    _add_system_args(k)
    k.add_argument("--element", required=True)
    k.add_argument("--dot", action="store_true")
    k.add_argument("--json", action="store_true")
    k.set_defaults(func=cmd_eg_ck_graph)

    p = sub.add_parser("markov", help="exchange and promotion walks")
    markov_sub = p.add_subparsers(dest="subcommand", required=True)
    e = markov_sub.add_parser("exchange", help="exchange walk on reduced words")
    _add_system_args(e)
    e.add_argument("--probs", required=True, help="exact fractions, e.g. 1/2,1/2")
    e.add_argument("--report", action="store_true")
    e.add_argument("--json", action="store_true")
    e.add_argument("--dot", action="store_true")
    e.set_defaults(func=cmd_markov_exchange)
    r = markov_sub.add_parser("promote", help="promotion walk on linear extensions")
    r.add_argument("--poset", required=True, help='JSON file {"n":..,"relations":[[i,j],..]}')
    r.add_argument("--probs", required=True)
    r.add_argument("--report", action="store_true")
    r.add_argument("--json", action="store_true")
    r.add_argument("--dot", action="store_true")
    r.set_defaults(func=cmd_markov_promote)

    p = sub.add_parser("verify", help="run the executable identity suite")
    p.add_argument("--suite", default="all", help=f"all or one of {sorted(checks.SUITES)}")
    p.add_argument("--max-rank", type=int, default=4)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError, ArithmeticError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
