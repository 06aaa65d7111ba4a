"""The executable identities of ``redwords.checks``, each its own test item.

The registry behind ``verify`` is the one place where the suite states an
identity: it runs once per rank and session, and every check name is a
parametrized item that must PASS.  Each suite also meets a fault: one
library function made wrong must turn the checks that read it to FAIL and
``verify`` to exit 1, so a check that could never fail shows here.
"""

import functools
import hashlib
import json
import operator
import time
from fractions import Fraction

import pytest

from conftest import packed_q, requires_s5
from redwords import checks, crystal, edelman_greene, markov, stanley, tableaux
from redwords.cli import main
from redwords.coxeter import SymmetricGroup
from redwords.crystal import DecreasingFactorization, factorization_crystal
from redwords.symfunc import SymFuncExpansion

# Every check `verify --suite all --max-rank 4` runs, in order: a renamed,
# dropped or added check changes this list on purpose.
RANK_4_CHECKS = [
    "S2-generator-relations", "S2-reduced-words-vs-hooks", "S2-reduced-words-evaluate",
    "S2-exchange-totality", "S2-parabolic-involutions", "S3-generator-relations",
    "S3-reduced-words-vs-hooks", "S3-reduced-words-evaluate", "S3-exchange-totality",
    "S3-parabolic-involutions", "S4-generator-relations", "S4-reduced-words-vs-hooks",
    "S4-reduced-words-evaluate", "S4-exchange-totality", "S4-parabolic-involutions",
    "hypercube-commutation", "dihedral-relation", "S2-crystal-e-f-inverse",
    "S2-crystal-weight-steps", "S2-crystal-string-lengths", "S2-crystal-targets-preserved",
    "S2-highest-weights-are-partitions", "S3-crystal-e-f-inverse",
    "S3-crystal-weight-steps", "S3-crystal-string-lengths", "S3-crystal-targets-preserved",
    "S3-highest-weights-are-partitions", "S4-crystal-e-f-inverse",
    "S4-crystal-weight-steps", "S4-crystal-string-lengths", "S4-crystal-targets-preserved",
    "S4-highest-weights-are-partitions", "S4-stembridge-local-axioms",
    "hook-formula-vs-enumeration", "tableau-crystal-closure-is-all-ssyt",
    "tableau-crystal-axioms", "S4-schur-three-way-agreement",
    "S4-squarefree-counts-reduced-words", "S4-schur-positivity",
    "S4-dominance-interval-support", "S4-omega-duality", "S4-skew-by-s1",
    "S4-EG-intertwining", "S4-CK-crystal-component-bijection", "S4-same-P-iff-CK",
    "S4-CK-edge-operator-identity", "S4-P-Q-shapes-agree", "S4-highest-weight-Q-yamanouchi",
    "SymmetricGroup(3)-column-stochastic", "SymmetricGroup(3)-strongly-connected",
    "SymmetricGroup(3)-charpoly-factorization", "SymmetricGroup(3)-stationary-closed-form",
    "SymmetricGroup(3)-multiplicities-account", "SymmetricGroup(4)-column-stochastic",
    "SymmetricGroup(4)-strongly-connected", "SymmetricGroup(4)-charpoly-factorization",
    "SymmetricGroup(4)-stationary-closed-form", "SymmetricGroup(4)-multiplicities-account",
    "Hypercube(3)-column-stochastic", "Hypercube(3)-strongly-connected",
    "Hypercube(3)-charpoly-factorization", "Hypercube(3)-stationary-closed-form",
    "Hypercube(3)-multiplicities-account", "Dihedral(4)-column-stochastic",
    "Dihedral(4)-strongly-connected", "Dihedral(4)-charpoly-factorization",
    "Dihedral(4)-stationary-closed-form", "Dihedral(4)-multiplicities-account",
    "promotion-on-antichain-is-tsetlin", "promotion-v-poset-stationary",
    "monte-carlo-tv-below-0.02",
]

# rank 5 adds the S5 count against the hooks and 20 seeded S5 draws of the
# three Schur routes; the crystal, eg and markov suites stop at rank 4
RANK_5_CHECKS = (
    RANK_4_CHECKS[:15] + ["S5-generator-relations", "S5-reduced-words-vs-hooks"]
    + RANK_4_CHECKS[15:42] + ["S5-sampled-three-way-agreement"] + RANK_4_CHECKS[42:]
)

CHECKS = {4: RANK_4_CHECKS, 5: RANK_5_CHECKS}

# seconds the whole registry may take at each rank
TIME_BOUNDS = {4: 10, 5: 300}


@functools.cache
def registry(rank):
    """The reports of ``run_suite("all", rank)`` and its wall time, once."""
    started = time.perf_counter()
    reports = checks.run_suite("all", rank)
    return reports, time.perf_counter() - started


@pytest.mark.parametrize("rank", [4, pytest.param(5, marks=requires_s5)])
def test_registry_runs_the_pinned_checks_in_order(rank):
    reports, elapsed = registry(rank)
    assert [report.name for report in reports] == CHECKS[rank]
    assert len(CHECKS[4]) == 71 and len(CHECKS[5]) == 74
    assert elapsed < TIME_BOUNDS[rank]


# sha256 of the whole stdout of `verify --suite all --max-rank <rank>`,
# detail strings and summary line included: any change to a line shows
VERIFY_STDOUT_SHA256 = {
    4: "0181065c04216f68969a6651c6981c2330f77991b01050e864ca60c5e7a85895",
    5: "060772ae53933b2c54f05c770a6a6f6ca3f92957046a3c09d91f86ccdefc3de3",
}


@pytest.mark.parametrize("rank", [4, pytest.param(5, marks=requires_s5)])
def test_verify_prints_the_pinned_lines(capsys, rank):
    assert main(["verify", "--suite", "all", "--max-rank", str(rank)]) == 0
    out = capsys.readouterr().out
    assert out.endswith(f"\n{len(CHECKS[rank])}/{len(CHECKS[rank])} checks passed\n")
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_STDOUT_SHA256[rank], out


@pytest.mark.parametrize("rank, name", [
    pytest.param(rank, name, marks=[requires_s5] if rank == 5 else [], id=f"rank{rank}-{name}")
    for rank, names in CHECKS.items()
    for name in names
])
def test_check_passes(rank, name):
    reports = {report.name: report for report in registry(rank)[0]}
    assert reports[name].passed, str(reports[name])


@pytest.mark.parametrize("suite, max_rank, builds", [("crystal", 4, 2 + 6 + 24), ("crystal", 1, 2 + 1), ("eg", 4, 24)])
def test_each_crystal_is_built_once(monkeypatch, suite, max_rank, builds):
    # one crystal per element of S2..S4, the crystal suite keeping the w0
    # graph of its loop for the Stembridge axioms (at max rank 1 the loop
    # visits S2 and the axioms are checked on S1), and one per element of
    # S4 for the eg suite
    calls = []

    def counted(*args):
        calls.append(args)
        return factorization_crystal(*args)

    monkeypatch.setattr(checks, "factorization_crystal", counted)
    assert all(report.passed for report in checks.SUITES[suite](max_rank))
    assert len(calls) == builds


# ----------------------------------------------------------------------
# one wrong library function per suite


def p_as_q(walk):
    # the insertion tableau recorded as the recording tableau: P's letters
    # packed as Q's block indices
    return lambda sequences, top: (
        (p, packed_q([edelman_greene._letters(row) for row in p], top)) for p, _ in walk(sequences, top)
    )


# fault -> (suite, owner, attribute, the wrong version of the original, the
# checks that must fail)
FAULTS = {
    "coxeter": ("coxeter", SymmetricGroup, "reduced_word_count",
                lambda count: lambda self, w: count(self, w) + 1,
                {f"S{n}-reduced-words-vs-hooks" for n in (2, 3, 4)}),
    "crystal": ("crystal", DecreasingFactorization, "phi", lambda phi: lambda self, i: phi(self, i) + 1,
                {"S3-crystal-string-lengths", "S4-crystal-string-lengths"}),
    # e_i undefined whenever block i+1 holds one letter: the e rows the
    # graph derives from its f rows no longer match, and epsilon, which
    # iterates the same table, comes up short
    "crystal-raised": ("crystal", crystal, "_raised",
                       lambda raised: lambda upper, lower: None if len(upper) == 1 else raised(upper, lower),
                       {f"S{n}-crystal-{name}" for n in (3, 4) for name in ("e-f-inverse", "string-lengths")}),
    # block lengths listed leftmost block first: every f arrow seems to move
    # its letter the wrong way, the string lengths disagree with the weight,
    # and the highest weights stop being partitions
    "crystal-weight": ("crystal", DecreasingFactorization, "weight",
                       lambda weight: lambda self: weight(self)[::-1],
                       {f"S{n}-{name}" for n in (3, 4) for name in (
                           "crystal-weight-steps", "crystal-string-lengths", "highest-weights-are-partitions")}),
    "tableaux": ("tableaux", tableaux, "crystal_f", lambda f: lambda tableau, i: None,
                 {"tableau-crystal-closure-is-all-ssyt"}),
    "tableaux-e": ("tableaux", tableaux, "crystal_e", lambda e: lambda tableau, i: None,
                   {"tableau-crystal-axioms"}),
    "stanley": ("stanley", stanley, "schur_expansion_via_eg",
                lambda route: lambda system, w: SymFuncExpansion.zero("schur"),
                {"S4-schur-three-way-agreement"}),
    # both eg faults sit in the insertion walk that every insertion runs
    # through: P recorded as Q, and P keyed by the set of its letters, one
    # row, which merges the insertion classes 13 and 31 of s1 s3.  Keying P
    # without its last row would leave S4-same-P-iff-CK passing: on every
    # element of S4 and S5 the other rows and the element fix the last row
    "eg": ("eg", edelman_greene, "_eg_walk", p_as_q,
           {"S4-EG-intertwining", "S4-highest-weight-Q-yamanouchi"}),
    "eg-p-key": ("eg", edelman_greene, "_eg_walk",
                 lambda walk: lambda sequences, top: (
                     ((functools.reduce(operator.or_, p, 0),), q) for p, q in walk(sequences, top)),
                 {"S4-same-P-iff-CK", "S4-P-Q-shapes-agree"}),
    # the block step of the CK edge identity leaves its blocks unmoved
    "eg-block-step": ("eg", edelman_greene, "_moved", lambda moved: lambda step, factors, i: factors,
                      {"S4-CK-edge-operator-identity"}),
    # the uniform law in place of the closed form
    "markov": ("markov", markov, "stationary_distribution",
               lambda law: lambda system, measure: dict.fromkeys(
                   law(system, measure),
                   Fraction(1, system.reduced_word_count(system.longest_element))),
               {f"{name}-stationary-closed-form"
                for name in ("SymmetricGroup(3)", "SymmetricGroup(4)", "Hypercube(3)", "Dihedral(4)")}),
}


def test_every_suite_meets_a_fault():
    assert {suite for suite, *_ in FAULTS.values()} == set(checks.SUITES)


@pytest.mark.parametrize("fault", FAULTS)
def test_a_wrong_library_function_fails_its_checks(monkeypatch, capsys, fault):
    suite, owner, attribute, wrong, failing = FAULTS[fault]
    monkeypatch.setattr(owner, attribute, wrong(getattr(owner, attribute)))
    code = main(["verify", "--suite", suite, "--max-rank", "4", "--json"])
    reports = json.loads(capsys.readouterr().out)
    assert code == 1
    assert {r["name"] for r in reports if not r["passed"]} == failing
