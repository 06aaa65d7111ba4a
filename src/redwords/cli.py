"""Command line interface.

Subcommands: red-words, stanley, crystal, eg, tableaux, markov, verify.
Deterministic output; --json for machine-readable form, --dot for graphviz.
Exit codes: 0 success, 1 failed verification, 2 bad input.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from . import checks, markov, stanley
from .coxeter import CoxeterSystem, Dihedral, Hypercube, SymmetricGroup, format_word, parse_word
from .crystal import default_num_factors, factorization_crystal, parse_blocks, parse_factorization
from .edelman_greene import ck_graph, eg_insert, p_transpose_reading_word
from .partitions import check_partition, hook_content_count, hook_length_count, staircase
from .tableaux import tableau_crystal

_FRACTION = re.compile(r"^-?[0-9]+(/[0-9]+)?$")
# ASCII digits only: int() alone also reads "1_0", " +2" and other scripts' digits
_INTEGER = re.compile(r"-?[0-9]+")

# Largest exchange walk that `markov exchange` reports on: the report holds
# the dense matrix and its exact characteristic polynomial, which is O(n^4).
MAX_REPORT_STATES = 64

# Largest graph that `tableaux crystal`, `crystal graph`, `eg ck-graph` and
# the walks' `--dot` build: every mode lists each vertex, at up to a few KB.
MAX_GRAPH_VERTICES = 20_000

# Most reduced words that `red-words` lists (the w0 of S6 has 292,864).
MAX_LISTED_WORDS = 1_000_000


class InputError(ValueError):
    pass


def _integer(text: str) -> int:
    """The argparse ``type`` of every integer option."""
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


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


def parse_element(system: CoxeterSystem, text: str):
    """'w0', or a nonempty word in the letter syntax of
    :func:`~redwords.coxeter.parse_word` (spaces ignored), such as ``121``,
    ``10,11`` or the lone letter ``10,``."""
    if text == "w0":
        return system.longest_element
    try:
        word = parse_word(text.replace(" ", ""))
    except ValueError:
        word = ()
    if not word:
        raise InputError(f"element must be 'w0' or a word of letters, got {text!r}")
    try:
        return system.evaluate(word)
    except ValueError as err:  # a letter that is no generator
        raise InputError(str(err)) from None


def parse_probs(text: str) -> list[Fraction]:
    out = []
    for token in text.split(","):
        token = token.strip()
        if not _FRACTION.match(token):
            raise InputError(
                f"probability {token!r} must be an exact fraction like 1/3"
            )
        try:
            out.append(Fraction(token))
        except ZeroDivisionError:
            raise InputError(f"probability {token!r} has a zero denominator") from None
    return out


def parse_shape(text: str):
    tokens = text.split(",")
    if not all(_INTEGER.fullmatch(tok) for tok in tokens):
        raise InputError(f"shape must be comma-separated positive integers such as 3,2,1, got {text!r}")
    try:
        return check_partition([int(tok) for tok in tokens])
    except ValueError as err:
        raise InputError(str(err)) from None


def measure_for(labels, probs: list[Fraction]) -> markov.ProbabilityMeasure:
    labels = tuple(labels)
    if len(probs) != len(labels):
        raise InputError(
            f"expected {len(labels)} probabilities for {labels}, got {len(probs)}"
        )
    return markov.ProbabilityMeasure.from_mapping(dict(zip(labels, probs)))


def _reduced_word_count(system: CoxeterSystem, element) -> int:
    """The reduced-word count behind the size refusals.  The w0 of S_n has
    as many reduced words as the staircase has standard tableaux (Stanley),
    so its count is a hook-length product and enumerates nothing;
    ``reduced_word_count`` would memoise a count for each of the n!
    elements below it."""
    if isinstance(system, SymmetricGroup) and element == system.longest_element:
        return hook_length_count(staircase(system.n))
    return system.reduced_word_count(element)


def _factorization_count(system: SymmetricGroup, element, blocks: int) -> int:
    """The vertex count behind the ``crystal graph`` refusal.  F_w0 of S_n
    is the Schur function of the staircase, so the w0 count is the
    staircase's hook-content count and lists no factorization; any other
    element is counted through its Schur expansion."""
    if element == system.longest_element:
        return hook_content_count(staircase(system.n), blocks)
    return stanley.factorization_count(system, element, blocks)


def _element_json(system, element):
    if isinstance(system, Hypercube):
        return sorted(element)
    return list(element)


# ----------------------------------------------------------------------
# subcommands


def cmd_red_words(args) -> int:
    system = build_system(args.type, args.rank)
    element = parse_element(system, args.element)
    _refuse_above(_reduced_word_count(system, element), MAX_LISTED_WORDS, args.element,
                  "reduced words", "red-words")
    words = system.reduced_words(element)
    if args.json:
        print(json.dumps({
            "element": _element_json(system, element),
            "words": [list(w) for w in words],
        }))
    else:
        for word in words:
            print(format_word(word))
    return 0


def cmd_stanley(args) -> int:
    system = build_system("A", args.rank)
    element = parse_element(system, args.element)
    if args.basis == "monomial":
        expansion = stanley.stanley_monomial(system, element)
    else:
        expansion = stanley.schur_expansion(system, element)
    if args.json:
        print(json.dumps(expansion.to_json_dict()))
    else:
        print(expansion)
    return 0


def cmd_crystal_graph(args) -> int:
    system = build_system("A", args.rank)
    element = parse_element(system, args.element)
    blocks = default_num_factors(system, element) if args.factors is None else args.factors
    _refuse_above(
        _factorization_count(system, element, blocks), MAX_GRAPH_VERTICES,
        f"the crystal of {args.element} on {blocks} blocks", "vertices", "crystal graph",
        " (--factors sets the block count)",
    )
    graph = factorization_crystal(system, element, blocks)
    if args.dot:
        print(graph.to_dot("crystal"), end="")
        return 0
    order = {v: k for k, v in enumerate(graph.vertices)}
    highest = graph.highest_weights()
    payload = {
        "vertices": [str(v) for v in graph.vertices],
        "edges": [
            {"from": order[u], "to": order[v], "label": i}
            for u, i, v in graph.edges()
        ],
        "highest_weights": [
            {"vertex": str(v), "weight": list(w)} for v, w in highest
        ],
        "components": len(graph.components()),
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"{len(graph.vertices)} vertices, {len(graph.f_edges)} edges, "
              f"{payload['components']} component(s)")
        for v, w in highest:
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
    _refuse_above(
        hook_content_count(shape, args.entries), MAX_GRAPH_VERTICES,
        f"the crystal of shape {args.shape} on entries 1..{args.entries}", "vertices",
        "tableaux crystal",
    )
    graph = tableau_crystal(shape, args.entries)
    if args.dot:
        print(graph.to_dot("tableaux"), end="")
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
    # P, Q and the reading word do not depend on the group, so take the
    # smallest symmetric group holding every letter, and at least S2
    letters = [a for block in parse_blocks(args.factors) for a in block]
    system = SymmetricGroup(max([1, *letters]) + 1)
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
        print(f"transposed reading word: {format_word(word)}")
    return 0


def cmd_eg_ck_graph(args) -> int:
    system = build_system("A", args.rank)
    element = parse_element(system, args.element)
    _refuse_above(_reduced_word_count(system, element), MAX_GRAPH_VERTICES,
                  f"the Coxeter-Knuth graph of {args.element}", "vertices", "eg ck-graph")
    graph = ck_graph(system, element)
    if args.dot:
        print(graph.to_dot("ck"), end="")
        return 0
    payload = {
        "vertices": [list(v) for v in graph.vertices],
        "edges": [
            {"a": list(u), "b": list(v), "kind": kind} for u, v, kind in graph.edges
        ],
        "components": [sorted(format_word(w) for w in comp) for comp in graph.components()],
    }
    if args.json:
        print(json.dumps(payload))
    else:
        for comp in graph.components():
            print(" ".join(sorted(format_word(w) for w in comp)))
    return 0


def _refuse_above(count: int, limit: int, what: str, unit: str, scope: str, hint: str = "") -> None:
    """Exit 2 on input whose ``count`` is above ``limit``, before building it."""
    if count > limit:
        raise InputError(f"{what} has {count} {unit}; {scope} stops at {limit}{hint}")


def _markov_report(matrix, measure, system=None) -> dict:
    """The exact report on a walk.  The exchange walk, which has a
    ``system``, gets the closed-form spectrum and stationary law checked
    against the matrix; any other walk gets its stationary law solved."""
    report: dict = {
        "states": [list(s) for s in matrix.states],
        "matrix": [[str(x) for x in row] for row in matrix.entries],
        "checks": {
            "stochastic": matrix.is_column_stochastic(),
        },
    }
    if system is None:
        vector = markov.solve_stationary(matrix)
    else:
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
    if system is not None:
        report["checks"]["charpoly_match"] = coeffs == markov.poly_from_eigenvalues(collapsed)
    return report


def _walk_command(args, name: str, what: str, count, build, measure, system=None,
                  unit: str = "states") -> int:
    """The rest of `markov exchange` and `markov promote`: refuse a walk of
    more than MAX_REPORT_STATES states, or MAX_GRAPH_VERTICES when drawing,
    by ``count(limit)`` before ``build()`` lists it; then print the DOT
    digraph ``name``, the JSON report or its summary line, and exit 1 when a
    check fails."""
    if args.dot:
        limit, scope, hint = MAX_GRAPH_VERTICES, "--dot", ""
    else:
        limit, scope, hint = MAX_REPORT_STATES, "the exact report", " (--dot draws larger walks)"
    _refuse_above(count(limit), limit, what, unit, scope, hint)
    matrix = build()
    if args.dot:
        print(matrix.to_dot(name), end="")
        return 0
    report = _markov_report(matrix, measure, system)
    if args.json:
        print(json.dumps(report))
    else:
        print(f"{matrix.size} states; checks: {report['checks']}")
    return 0 if all(report["checks"].values()) else 1


def cmd_markov_exchange(args) -> int:
    system = build_system(args.type, args.rank)
    measure = measure_for(system.index_set, parse_probs(args.probs))
    return _walk_command(
        args, "exchange", f"the walk of {system!r}",
        lambda limit: _reduced_word_count(system, system.longest_element),
        lambda: markov.build_chain(system, measure), measure, system,
    )


def cmd_markov_promote(args) -> int:
    with open(args.poset) as handle:
        data = json.load(handle)
    # more labels than probabilities is refused before the poset builds its
    # tables of n entries, and without listing the labels
    n = data.get("n") if isinstance(data, dict) else None
    given = len(args.probs.split(","))
    if type(n) is int and n > given:
        raise InputError(f"expected {n} probabilities for the labels 1..{n}, got {given}")
    try:
        poset = markov.NaturalPoset.from_relations(data["n"], data.get("relations", []))
    except (KeyError, TypeError, ValueError) as err:
        raise InputError(f"bad poset file: {err}") from None
    measure = measure_for(range(1, poset.n + 1), parse_probs(args.probs))
    # the first prefix count past the limit, a lower bound on the states,
    # found before the layers of order ideals grow towards 2^n
    return _walk_command(
        args, "promotion", "the promotion walk",
        lambda limit: next((c for c in poset.prefix_counts() if c > limit), 0),
        lambda: markov.promotion_chain(poset, measure), measure, unit="or more states",
    )


def cmd_verify(args) -> int:
    if args.max_rank < 2:
        raise InputError(f"--max-rank must be at least 2, got {args.max_rank}")
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


def _add_system_args(parser):
    parser.add_argument("--type", default="A", help="A | hypercube | dihedral")
    parser.add_argument(
        "--rank",
        type=_integer,
        required=True,
        help="n of S_n for type A; coordinate count for hypercube; m for dihedral",
    )


def _add_symmetric_group_args(parser):
    parser.add_argument("--rank", type=_integer, required=True, help="n of S_n")
    parser.add_argument("--element", required=True)


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
    _add_symmetric_group_args(p)
    p.add_argument("--basis", choices=("monomial", "schur"), default="schur")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_stanley)

    p = sub.add_parser("crystal", help="crystal graphs")
    crystal_sub = p.add_subparsers(dest="subcommand", required=True)
    g = crystal_sub.add_parser("graph", help="crystal on decreasing factorizations")
    _add_symmetric_group_args(g)
    g.add_argument("--factors", type=_integer, default=None)
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
    c.add_argument("--entries", type=_integer, required=True)
    c.add_argument("--dot", action="store_true")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_tableaux_crystal)

    p = sub.add_parser("eg", help="Edelman-Greene insertion")
    eg_sub = p.add_subparsers(dest="subcommand", required=True)
    i = eg_sub.add_parser("insert", help="insert a decreasing factorization")
    i.add_argument("--factors", required=True, help='e.g. "(1)(2)(32)"')
    i.add_argument("--json", action="store_true")
    i.set_defaults(func=cmd_eg_insert)
    k = eg_sub.add_parser("ck-graph", help="Coxeter-Knuth graph of an element")
    _add_symmetric_group_args(k)
    k.add_argument("--dot", action="store_true")
    k.add_argument("--json", action="store_true")
    k.set_defaults(func=cmd_eg_ck_graph)

    p = sub.add_parser("markov", help="exchange and promotion walks")
    markov_sub = p.add_subparsers(dest="subcommand", required=True)
    e = markov_sub.add_parser("exchange", help="exchange walk on reduced words")
    _add_system_args(e)
    e.add_argument("--probs", required=True, help="exact fractions, e.g. 1/2,1/2")
    e.add_argument("--json", "--report", action="store_true")
    e.add_argument("--dot", action="store_true")
    e.set_defaults(func=cmd_markov_exchange)
    r = markov_sub.add_parser("promote", help="promotion walk on linear extensions")
    r.add_argument("--poset", required=True, help='JSON file {"n":..,"relations":[[i,j],..]}')
    r.add_argument("--probs", required=True)
    r.add_argument("--json", "--report", action="store_true")
    r.add_argument("--dot", action="store_true")
    r.set_defaults(func=cmd_markov_promote)

    p = sub.add_parser("verify", help="run the executable identity suite")
    p.add_argument("--suite", default="all", help=f"all or one of {sorted(checks.SUITES)}")
    p.add_argument("--max-rank", type=_integer, default=4)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reads, built on its first call: parsing
    stores nothing on the parser, so one serves every call."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError, ArithmeticError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
