"""Named executable checks behind the ``verify`` command.

Every theorem the library implements is restated here as a CheckReport
producer; the CLI prints one line per report and exits nonzero on any
failure.  The test suite asserts each report by name.  ``max_rank``
bounds the n of the symmetric groups visited, and :data:`PLAN` caps it
for each check family, so every ``max_rank`` costs at most the caps.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import crystal
from . import edelman_greene as eg
from . import markov, stanley, tableaux
from .coxeter import Dihedral, Hypercube, SymmetricGroup
from .crystal import _moved, factorization_crystal, stembridge_violations
from .partitions import hook_length_count, staircase
from .reports import CheckReport
from .symfunc import support_interval as expansion_interval
from .tableaux import generate_ssyt_with_content, tableau_crystal, yamanouchi_tableau

# Each check family and the symmetric groups it visits, as (first n, last
# n): it checks S_n for n from first to the smaller of last and max_rank.
# No suite reads max_rank but through this table.  The tableaux suite checks
# fixed shapes, and the markov suite fixed walks on S3, Hypercube(3) and
# Dihedral(4), at any max_rank.
PLAN = {
    "generator-relations": (2, 40),  # S2 to S40 in about 12 ms
    # the count of w0 memoises all n! elements below it: S8 takes 0.4 s and
    # 24 MB, S9 3.8 s and 100 MB (one process each, 2 CPUs)
    "reduced-words-vs-hooks": (2, 8),
    "reduced-words": (2, 4),  # evaluate, exchange totality, parabolic involutions
    "crystal": (2, 4),  # and the Stembridge axioms on w0 at the last n
    "stanley": (2, 4),  # at the last n alone
    "stanley-sample": (5, 5),  # 20 seeded elements
    "eg": (2, 4),  # at the last n alone
    "markov": (4, 4),  # the exchange walks beside the fixed S3
}


def _ranks(family: str, max_rank: int) -> range:
    """The n of every S_n that ``family`` checks at ``max_rank``."""
    if max_rank < 2:
        raise ValueError(f"max_rank must be at least 2, got {max_rank}")
    first, last = PLAN[family]
    return range(first, min(max_rank, last) + 1)


# ----------------------------------------------------------------------
# coxeter


def coxeter_checks(max_rank: int) -> list[CheckReport]:
    out = []
    relations = _ranks("generator-relations", max_rank)
    hooks = _ranks("reduced-words-vs-hooks", max_rank)
    enumerated = _ranks("reduced-words", max_rank)
    for n in sorted({*relations, *hooks, *enumerated}):
        system = SymmetricGroup(n)
        if n in relations:
            ok = True
            for i in system.index_set:
                si = system.generator(i)
                if system.multiply(si, si) != system.identity:
                    ok = False
                if i + 1 in system.index_set:
                    sj = system.generator(i + 1)
                    lhs = system.multiply(system.multiply(si, sj), si)
                    rhs = system.multiply(system.multiply(sj, si), sj)
                    if lhs != rhs:
                        ok = False
            out.append(CheckReport(f"S{n}-generator-relations", ok))
        if n in hooks:
            count = system.reduced_word_count(system.longest_element)
            hook = hook_length_count(staircase(n))
            out.append(
                CheckReport(
                    f"S{n}-reduced-words-vs-hooks",
                    count == hook,
                    f"enumeration {count}, hook formula {hook}",
                )
            )
        if n in enumerated:
            ok = all(
                system.length(system.evaluate(word)) == len(word)
                and system.evaluate(word) == g
                for g in system.elements()
                for word in system.reduced_words(g)
            )
            out.append(CheckReport(f"S{n}-reduced-words-evaluate", ok))
            words = system.reduced_words(system.longest_element)
            total = True
            for word in words:
                for i in system.index_set:
                    image = system.exchange(i, word)
                    if (
                        len(image) != len(word)
                        or system.evaluate(image) != system.longest_element
                    ):
                        total = False
            out.append(CheckReport(f"S{n}-exchange-totality", total))
            ok = all(
                system.multiply(w_j, w_j) == system.identity
                for subset in _powerset(system.index_set)
                for w_j in [system.parabolic_longest(subset)]
            )
            out.append(CheckReport(f"S{n}-parabolic-involutions", ok))
    h = Hypercube(3)
    ok = all(
        h.multiply(h.generator(i), h.generator(j)) == h.multiply(h.generator(j), h.generator(i))
        for i in h.index_set
        for j in h.index_set
    ) and h.reduced_word_count(h.longest_element) == len(h.reduced_words(h.longest_element)) == 6
    out.append(CheckReport("hypercube-commutation", ok))
    d = Dihedral(4)
    rho = d.multiply(d.generator(1), d.generator(2))
    power = d.identity
    for _ in range(4):
        power = d.multiply(power, rho)
    out.append(
        CheckReport(
            "dihedral-relation",
            power == d.identity and d.length(d.longest_element) == 4,
        )
    )
    return out


def _powerset(indices):
    import itertools

    for r in range(len(indices) + 1):
        yield from itertools.combinations(sorted(indices), r)


# ----------------------------------------------------------------------
# crystals


def crystal_checks(max_rank: int) -> list[CheckReport]:
    """The crystal identities on every element of S_n, for the n that
    :data:`PLAN` gives the crystal family, read on vertex positions:
    e-f-inverse compares each colour's ``crystal._raised`` block step with
    the graph's e row, and weight-steps compares the block lengths at the
    two ends of each f arrow."""
    out = []
    ranks = _ranks("crystal", max_rank)
    for n in ranks:
        system = SymmetricGroup(n)
        inverse_ok = weight_ok = string_ok = target_ok = partition_ok = True
        for g in system.elements():
            graph = factorization_crystal(system, g)
            if g == system.longest_element:
                w0_graph = graph  # the last n's meets the Stembridge axioms
            factors = [v.factors for v in graph.vertices]
            weights = [v.weight() for v in graph.vertices]
            position = {blocks: k for k, blocks in enumerate(factors)}
            for i, f_row, e_row in zip(graph.index_set, graph.f_rows, graph.e_rows):
                for k, blocks in enumerate(factors):
                    # e_i, raised from the blocks, is the inverse of the f rows
                    raised = _moved(crystal._raised, blocks, i)
                    source = -1 if raised is None else position.get(raised, -2)
                    if source != e_row[k]:
                        inverse_ok = False
                    # f_i moves one letter from block i to block i+1 and
                    # leaves every other block length alone
                    target = f_row[k]
                    if target >= 0:
                        wu, wv = weights[k], weights[target]
                        if (wv[i - 1] != wu[i - 1] - 1 or wv[i] != wu[i] + 1
                                or wv[:i - 1] != wu[:i - 1] or wv[i + 1:] != wu[i + 1:]):
                            weight_ok = False
            for u, weight in zip(graph.vertices, weights):
                try:
                    u.validate(system)
                except ValueError:
                    target_ok = False
                for i in graph.index_set:
                    if u.phi(i) - u.epsilon(i) != weight[i - 1] - weight[i]:
                        string_ok = False
            for fz, weight in graph.highest_weights():
                shape = tuple(p for p in weight if p)
                if list(shape) != sorted(shape, reverse=True) or any(
                    weight[len(shape):]
                ):
                    partition_ok = False
        out.append(CheckReport(f"S{n}-crystal-e-f-inverse", inverse_ok))
        out.append(CheckReport(f"S{n}-crystal-weight-steps", weight_ok))
        out.append(CheckReport(f"S{n}-crystal-string-lengths", string_ok))
        out.append(CheckReport(f"S{n}-crystal-targets-preserved", target_ok))
        out.append(CheckReport(f"S{n}-highest-weights-are-partitions", partition_ok))
    violations = stembridge_violations(w0_graph)
    out.append(
        CheckReport(
            f"S{ranks[-1]}-stembridge-local-axioms",
            not violations,
            violations[0] if violations else f"{len(w0_graph.vertices)} vertices",
        )
    )
    return out


def tableaux_checks(max_rank: int) -> list[CheckReport]:
    out = []
    shapes = [(2, 1), (3, 1), (2, 2), (3, 2, 1), (4, 2)]
    ok = all(
        hook_length_count(shape)
        == len(generate_ssyt_with_content(shape, (1,) * sum(shape)))
        for shape in shapes
    )
    out.append(CheckReport("hook-formula-vs-enumeration", ok))
    closure_ok = axioms_ok = True
    for shape, entries in [((2, 1), 3), ((3, 1), 3), ((2, 2), 3), ((2, 1, 1), 4)]:
        graph = tableau_crystal(shape, entries)
        seed = yamanouchi_tableau(shape)
        reached = {seed}
        frontier = [seed]
        while frontier:
            nxt = []
            for t in frontier:
                for i in graph.index_set:
                    image = graph.f(t, i)
                    if image is not None and image not in reached:
                        reached.add(image)
                        nxt.append(image)
            frontier = nxt
        if reached != set(graph.vertices):
            closure_ok = False
        if stembridge_violations(graph):
            axioms_ok = False
        for (u, i), v in graph.f_edges.items():
            if tableaux.crystal_e(v, i) != u or not v.is_semistandard():
                axioms_ok = False
    out.append(CheckReport("tableau-crystal-closure-is-all-ssyt", closure_ok))
    out.append(CheckReport("tableau-crystal-axioms", axioms_ok))
    return out


# ----------------------------------------------------------------------
# Stanley symmetric functions and insertion


def stanley_checks(max_rank: int) -> list[CheckReport]:
    out = []
    n = _ranks("stanley", max_rank)[-1]
    system = SymmetricGroup(n)
    three_way = squarefree = positivity = interval = True
    duality = skew = True
    for g in system.elements():
        a = stanley.schur_expansion(system, g)
        if not (
            a == stanley.schur_expansion_via_eg(system, g)
            == stanley.schur_expansion_via_linear_algebra(system, g)
        ):
            three_way = False
        if stanley.reduced_word_count_from_squarefree(system, g) != system.reduced_word_count(g):
            squarefree = False
        if any(coeff < 1 for _, coeff in a.terms):
            positivity = False
        try:
            expansion_interval(a)
        except ValueError:
            interval = False
        if system.length(g) >= 1:
            if not stanley.omega_duality_check(system, g).passed:
                duality = False
            if not stanley.skew_by_s1_check(system, g).passed:
                skew = False
    out.append(CheckReport(f"S{n}-schur-three-way-agreement", three_way))
    out.append(CheckReport(f"S{n}-squarefree-counts-reduced-words", squarefree))
    out.append(CheckReport(f"S{n}-schur-positivity", positivity))
    out.append(CheckReport(f"S{n}-dominance-interval-support", interval))
    out.append(CheckReport(f"S{n}-omega-duality", duality))
    out.append(CheckReport(f"S{n}-skew-by-s1", skew))
    for n in _ranks("stanley-sample", max_rank):
        system = SymmetricGroup(n)
        rng = random.Random(20240517)
        sample = rng.sample(system.elements(), 20)
        ok = all(
            stanley.schur_expansion(system, g)
            == stanley.schur_expansion_via_eg(system, g)
            == stanley.schur_expansion_via_linear_algebra(system, g)
            for g in sample
        )
        out.append(CheckReport(f"S{n}-sampled-three-way-agreement", ok, "20 seeded draws"))
    return out


def eg_checks(max_rank: int) -> list[CheckReport]:
    out = []
    n = _ranks("eg", max_rank)[-1]
    system = SymmetricGroup(n)
    intertwine = components = biconditional = edge_identity = yamanouchi = shapes = True
    top = n - 1
    for g in system.elements():
        # one crystal (a block per letter) and one insertion walk over its
        # vertices serve every check on g; P and Q stay packed
        graph = factorization_crystal(system, g)
        factors = [fz.factors for fz in graph.vertices]
        qs = []
        for p, q in eg._eg_walk(factors, top):
            qs.append(q)
            if tuple(map(int.bit_count, p)) != eg._q_shape(q, top):
                shapes = False
        if not eg._intertwining(qs, graph.f_rows, graph.e_rows, graph.index_set, top).passed:
            intertwine = False
        if not eg._component_correspondence(system, g, graph).passed:
            components = False
        if not eg.same_p_tableau_iff_ck_equivalent(system, g).passed:
            biconditional = False
        if not eg.ck_edge_operator_identity(system, g).passed:
            edge_identity = False
        q_of = dict(zip(graph.vertices, qs))
        for fz, _ in graph.highest_weights():
            if not eg._is_yamanouchi(q_of[fz], top):
                yamanouchi = False
    out.append(CheckReport(f"S{n}-EG-intertwining", intertwine))
    out.append(CheckReport(f"S{n}-CK-crystal-component-bijection", components))
    out.append(CheckReport(f"S{n}-same-P-iff-CK", biconditional))
    out.append(CheckReport(f"S{n}-CK-edge-operator-identity", edge_identity))
    out.append(CheckReport(f"S{n}-P-Q-shapes-agree", shapes))
    out.append(CheckReport(f"S{n}-highest-weight-Q-yamanouchi", yamanouchi))
    return out


# ----------------------------------------------------------------------
# Markov chains


def markov_checks(max_rank: int) -> list[CheckReport]:
    out = []
    systems = [
        SymmetricGroup(3),
        *map(SymmetricGroup, _ranks("markov", max_rank)),
        Hypercube(3),
        Dihedral(4),
    ]
    for system in systems:
        measures = [markov.ProbabilityMeasure.uniform(system.index_set)] + [
            markov.ProbabilityMeasure.random_rational(system.index_set, seed)
            for seed in (11, 12, 13)
        ]
        stochastic = charmatch = stationary = connected = masses = True
        for measure in measures:
            matrix = markov.build_chain(system, measure)
            if not matrix.is_column_stochastic():
                stochastic = False
            if not matrix.is_strongly_connected():
                connected = False
            lines = markov.spectrum(system, measure)
            expected = markov.poly_from_eigenvalues(markov.eigenvalues_by_value(lines))
            if markov.charpoly(matrix) != expected:
                charmatch = False
            if sum(line.multiplicity for line in lines) != matrix.size:
                masses = False
            if any(line.multiplicity < 0 for line in lines):
                masses = False
            pi = markov.stationary_distribution(system, measure)
            vector = [pi[s] for s in matrix.states]
            if not matrix.fixes(vector) or sum(vector) != 1:
                stationary = False
        name = repr(system)
        out.append(CheckReport(f"{name}-column-stochastic", stochastic))
        out.append(CheckReport(f"{name}-strongly-connected", connected))
        out.append(CheckReport(f"{name}-charpoly-factorization", charmatch))
        out.append(CheckReport(f"{name}-stationary-closed-form", stationary))
        out.append(CheckReport(f"{name}-multiplicities-account", masses))
    tsetlin_ok = True
    for n in range(1, 5):
        measure = markov.ProbabilityMeasure.random_rational(range(1, n + 1), 40 + n)
        tc = markov.tsetlin_chain(n, measure)
        pc = markov.promotion_chain(markov.NaturalPoset.antichain(n), measure)
        if tc.states != pc.states or tc.numerators != pc.numerators:
            tsetlin_ok = False
    out.append(CheckReport("promotion-on-antichain-is-tsetlin", tsetlin_ok, "n up to 4"))
    v_poset = markov.NaturalPoset.from_relations(3, [(1, 3), (2, 3)])
    chain = markov.promotion_chain(
        v_poset, markov.ProbabilityMeasure.uniform(range(1, 4))
    )
    solved = markov.solve_stationary(chain)
    out.append(
        CheckReport(
            "promotion-v-poset-stationary",
            chain.fixes(solved) and sum(solved) == 1,
        )
    )
    system = SymmetricGroup(3)
    uniform = markov.ProbabilityMeasure.uniform(system.index_set)
    empirical = markov.simulate(system, uniform, steps=100_000, seed=20240101)
    tv = markov.total_variation(
        empirical, markov.stationary_distribution(system, uniform)
    )
    out.append(
        CheckReport(
            "monte-carlo-tv-below-0.02",
            tv < Fraction(2, 100),
            f"tv = {float(tv):.5f}",
        )
    )
    return out


# ----------------------------------------------------------------------
# driver

SUITES = {
    "coxeter": coxeter_checks,
    "crystal": crystal_checks,
    "tableaux": tableaux_checks,
    "stanley": stanley_checks,
    "eg": eg_checks,
    "markov": markov_checks,
}


def run_suite(suite: str = "all", max_rank: int = 4) -> list[CheckReport]:
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from {['all', *SUITES]}")
    _ranks("generator-relations", max_rank)  # refuse a max_rank below 2 before any suite runs
    out: list[CheckReport] = []
    for name in names:
        try:
            out.extend(SUITES[name](max_rank))
        except (ValueError, ArithmeticError) as err:
            # a suite that raises prints one FAIL line, and the others still run
            out.append(CheckReport(f"{name}-suite", False, f"{type(err).__name__}: {err}"))
    return out
