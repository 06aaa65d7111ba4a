"""The four benchmark workloads.

Each workload turns the seed into one pass of task inputs when it is
constructed (that is set-up), and ``task`` runs and checks one of them.
Every library call a task makes goes through ``tracer.call`` so the traced
run can attribute time to layers.  A task returns its exact results in a
JSON-ready form; the runner hashes them into the digest.  Work counts go
to ``log.count`` under the names of the per-layer count metrics.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from collections import Counter
from fractions import Fraction

from redwords import checks, cli, markov, stanley
from redwords import edelman_greene as eg
from redwords.coxeter import SymmetricGroup
from redwords.crystal import factorization_crystal
from redwords.partitions import hook_length_count, staircase
from redwords.symfunc import SymFuncExpansion

from tracing import wrap


class TaskLog:
    """Checks and work counts of one task."""

    def __init__(self) -> None:
        self.checks: list[tuple[str, bool]] = []
        self.counts: Counter = Counter()

    def expect(self, name: str, passed) -> None:
        self.checks.append((name, bool(passed)))

    def count(self, name: str, amount: int) -> None:
        self.counts[name] += amount


def clear_library_caches() -> None:
    """Empty every functools cache in the library, so a pass starts as cold
    as a one-shot command-line run."""
    for module_name, module in list(sys.modules.items()):
        if module_name == "redwords" or module_name.startswith("redwords."):
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


class Workload:
    """``items`` holds one pass of seeded task inputs; ``task`` runs one."""

    rank: int  # the n of S_n, or the max rank of verify

    def new_pass(self):
        """Start a pass with empty memo tables; returns the tasks' context."""
        clear_library_caches()
        return SymmetricGroup(self.rank)

    def instrument(self, tracer):
        """Trace calls made inside the library, for the traced passes;
        returns the function that undoes it."""
        return lambda: None


class ExchangeWalk(Workload):
    """Exact identities of the exchange walk on the reduced words of w0."""

    name = "exchange-walk-s5"
    rank = 5
    tasks_per_pass = 6
    steps = 20_000

    def __init__(self, seed: int, rank: int) -> None:
        self.rank = rank
        rng = random.Random(seed)
        system = SymmetricGroup(rank)
        states = sorted(system.reduced_words(system.longest_element))
        self.items = [
            (
                markov.ProbabilityMeasure.random_rational(system.index_set, rng.randrange(2**31)),
                rng.choice(states),
                rng.randrange(2**31),
            )
            for _ in range(self.tasks_per_pass)
        ]

    def new_pass(self):
        return None  # each task builds its own system

    def task(self, ctx, item, tr, log: TaskLog):
        measure, start, sim_seed = item
        clear_library_caches()
        system = SymmetricGroup(self.rank)
        chain = tr.call("markov.build_chain", markov.build_chain, system, measure)
        states = chain.states
        log.expect("states-match-hook-formula", chain.size == hook_length_count(staircase(self.rank)))
        log.expect("column-stochastic", tr.call("markov.is_column_stochastic", chain.is_column_stochastic))
        log.expect("strongly-connected", tr.call("markov.is_strongly_connected", chain.is_strongly_connected))

        pi = tr.call("markov.stationary_distribution", markov.stationary_distribution, system, measure)
        vector = [pi[s] for s in states]
        log.expect("stationary-is-fixed", tr.call("markov.fixes", chain.fixes, vector))
        log.expect("stationary-sums-to-one", sum(vector) == 1)

        lines = tr.call("markov.spectrum", markov.spectrum, system, measure)
        log.expect("multiplicities-nonnegative", all(line.multiplicity >= 0 for line in lines))
        log.expect("multiplicities-sum-to-states", sum(line.multiplicity for line in lines) == chain.size)

        state_set = set(states)
        bad_images = 0
        for word in states:
            for i in system.index_set:
                image = tr.call("coxeter.exchange", system.exchange, i, word)
                if image[:1] != (i,) or image not in state_set:
                    bad_images += 1
        log.expect("exchange-images-reduced-and-start-with-i", bad_images == 0)

        empirical = tr.call("markov.simulate", markov.simulate, system, measure, self.steps, sim_seed, start)
        tv = tr.call("markov.total_variation", markov.total_variation, empirical, pi)
        # The bound sqrt(states / steps) is fixed before the run; comparing
        # squares keeps the test exact.
        log.expect("simulate-tv-below-sqrt-states-over-steps", tv * tv < Fraction(chain.size, self.steps))
        occupation = sorted((word, int(p * (self.steps + 1))) for word, p in empirical.items())
        log.expect("occupation-counts-total", sum(c for _, c in occupation) == self.steps + 1)

        log.count("markov.states", chain.size)
        log.count("markov.nonzeros", len(chain.labels))
        log.count("markov.simulate.steps", self.steps)
        return {
            "measure": measure.weights,
            "states": chain.size,
            "nonzeros": len(chain.labels),
            "stationary": vector,
            "spectrum": [(line.subset, line.eigenvalue, line.multiplicity) for line in lines],
            "start": start,
            "occupation": occupation,
        }


class SchurThreeWay(Workload):
    """The three Schur-expansion routes and the expansion identities over
    every element of S_n."""

    name = "schur-three-way-s5"
    rank = 5

    def __init__(self, seed: int, rank: int) -> None:
        self.rank = rank
        self.items = list(SymmetricGroup(rank).elements())
        random.Random(seed).shuffle(self.items)

    def task(self, system, g, tr, log: TaskLog):
        a = tr.call("stanley.schur_expansion", stanley.schur_expansion, system, g)
        b = tr.call("stanley.schur_expansion_via_eg", stanley.schur_expansion_via_eg, system, g)
        c = tr.call("stanley.schur_expansion_via_linear_algebra", stanley.schur_expansion_via_linear_algebra, system, g)
        log.expect("three-routes-agree", a == b == c)
        log.expect("coefficients-positive", all(coeff > 0 for _, coeff in a.terms))
        if system.length(g) >= 1:
            omega = tr.call("stanley.omega_duality_check", stanley.omega_duality_check, system, g)
            log.expect("omega-duality", omega.passed)
            skew = tr.call("stanley.skew_by_s1_check", stanley.skew_by_s1_check, system, g)
            log.expect("skew-by-s1", skew.passed)
        squarefree = tr.call(
            "stanley.reduced_word_count_from_squarefree", stanley.reduced_word_count_from_squarefree, system, g)
        words = tr.call("coxeter.reduced_word_count", system.reduced_word_count, g)
        log.expect("squarefree-counts-reduced-words", squarefree == words)
        if g == system.longest_element:
            staircase_schur = SymFuncExpansion.from_dict("schur", {staircase(self.rank): 1})
            log.expect("w0-is-staircase-schur", a == staircase_schur)
        return {"element": g, "schur": a.terms, "reduced_words": words}


class EGCoxeterKnuth(Workload):
    """Edelman-Greene insertion, Coxeter-Knuth classes and the factorization
    crystal on the elements of S_n of length at least five."""

    name = "eg-ck-s5"
    rank = 5
    min_length = 5
    num_factors = 5
    # Sizes at w0 of S5, pinned as an exact check.
    w0_sizes = {5: {"words": 768, "ck_edges": 2176, "vertices": 1024, "edges": 2304}}

    def __init__(self, seed: int, rank: int) -> None:
        self.rank = rank
        system = SymmetricGroup(rank)
        # The sample is every element of length >= 5 (w0 among them) in a
        # seeded order: random subsets of it spread tasks_per_s by 7-10 %
        # between seeds, which would hide real regressions.
        self.items = [g for g in system.elements() if system.length(g) >= self.min_length]
        random.Random(seed).shuffle(self.items)

    def task(self, system, g, tr, log: TaskLog):
        words = tr.call("coxeter.reduced_words", system.reduced_words, g)
        by_p: dict = {}
        for word in words:
            p = tr.call("edelman_greene.eg_insert_word", eg.eg_insert_word, system, word).p
            by_p.setdefault(p, []).append(word)
        ck = tr.call("edelman_greene.ck_graph", eg.ck_graph, system, g)
        ck_classes = tr.call("edelman_greene.components", ck.components)
        log.expect("insertion-classes-are-ck-classes", {frozenset(v) for v in by_p.values()} == set(ck_classes))
        log.expect("same-P-iff-CK", tr.call(
            "edelman_greene.same_p_tableau_iff_ck_equivalent", eg.same_p_tableau_iff_ck_equivalent, system, g).passed)
        log.expect("CK-edge-operator-identity", tr.call(
            "edelman_greene.ck_edge_operator_identity", eg.ck_edge_operator_identity, system, g).passed)

        graph = tr.call("crystal.factorization_crystal", factorization_crystal, system, g, self.num_factors)
        components = tr.call("crystal.components", graph.components)
        highest = tr.call("crystal.highest_weights", graph.highest_weights)
        log.expect("components-equal-highest-weights", len(components) == len(highest))
        log.expect("EG-intertwining", tr.call(
            "edelman_greene.intertwining_check", eg.intertwining_check, system, g, self.num_factors).passed)

        sizes = {
            "words": len(words),
            "ck_edges": len(ck.edges),
            "vertices": len(graph.vertices),
            "edges": len(graph.f_edges),
        }
        if g == system.longest_element and self.rank in self.w0_sizes:
            log.expect("w0-sizes", sizes == self.w0_sizes[self.rank])
        log.count("coxeter.reduced_words.words", len(words))
        log.count("edelman_greene.insertions", len(words))
        log.count("edelman_greene.ck_edges", len(ck.edges))
        log.count("crystal.vertices", len(graph.vertices))
        log.count("crystal.edges", len(graph.f_edges))
        return {
            "element": g,
            "sizes": sizes,
            "p_classes": sorted((p.rows, sorted(group)) for p, group in by_p.items()),
            "highest_weights": sorted(weight for _, weight in highest),
            "component_sizes": sorted(len(c) for c in components),
        }


class VerifyCLI(Workload):
    """``redwords verify --suite <s> --max-rank <r>`` run in-process for
    each of the six suites, in seeded order; the six runs are one task."""

    name = "verify-r4"
    rank = 4
    # Check lines each suite prints, by max rank; 71 in all at rank 4.
    expected_reports = {
        4: {"coxeter": 17, "crystal": 16, "tableaux": 3, "stanley": 6, "eg": 6, "markov": 23},
        3: {"coxeter": 12, "crystal": 11, "tableaux": 3, "stanley": 6, "eg": 6, "markov": 18},
    }

    def __init__(self, seed: int, rank: int) -> None:
        self.rank = rank
        order = list(self.expected_reports[rank])
        random.Random(seed).shuffle(order)
        self.items = [tuple(order)]

    def new_pass(self):
        clear_library_caches()
        return None  # the command builds its own systems

    def instrument(self, tracer):
        """Time each suite and the characteristic polynomial from inside the
        command, by wrapping their module-level bindings."""
        suites = dict(checks.SUITES)
        charpoly = markov.charpoly
        for name, fn in suites.items():
            checks.SUITES[name] = wrap(tracer, f"checks.{name}", fn)
        markov.charpoly = wrap(tracer, "markov.charpoly", charpoly)

        def undo():
            checks.SUITES.update(suites)
            markov.charpoly = charpoly

        return undo

    def task(self, ctx, order, tr, log: TaskLog):
        result = {}
        for suite in order:
            out = io.StringIO()
            argv = ["verify", "--suite", suite, "--max-rank", str(self.rank)]
            with contextlib.redirect_stdout(out):
                code = tr.call("cli.main", cli.main, argv)
            *reports, summary = out.getvalue().splitlines() or [""]
            log.expect(f"{suite}-exit-code-0", code == 0)
            log.expect(f"{suite}-every-line-pass", all(line.startswith("PASS  ") for line in reports))
            log.expect(f"{suite}-check-count", len(reports) == self.expected_reports[self.rank][suite])
            log.expect(f"{suite}-summary-line", summary == f"{len(reports)}/{len(reports)} checks passed")
            log.count("checks.reports", len(reports))
            result[suite] = [line[len("PASS  "):].split(": ", 1)[0] for line in reports]
        return result


WORKLOADS = {w.name: w for w in (ExchangeWalk, SchurThreeWay, EGCoxeterKnuth, VerifyCLI)}
