"""The package's public surface, pinned: a change to ``redwords.__all__``
has to change this test too."""

import subprocess
import sys
from pathlib import Path

import redwords

PUBLIC = (
    "CKGraph", "CoxeterSystem", "CrystalGraph", "DecreasingFactorization", "Dihedral", "EGPair",
    "Hypercube", "NaturalPoset", "Partition", "ProbabilityMeasure", "SymFuncExpansion",
    "SymmetricGroup", "Tableau", "TransitionMatrix", "Word", "build_chain", "charpoly",
    "ck_components", "ck_graph", "ck_neighbors", "conjugate", "crystal_e", "crystal_f",
    "decreasing_factorizations", "dominates", "eg_insert", "eg_insert_all", "eg_insert_word",
    "factorization_crystal", "generate_ssyt", "highest_weight_factorizations",
    "hook_length_count", "omega", "p_transpose_reading_word", "parse_factorization",
    "promotion_chain", "s1_perp", "schur_expansion", "schur_expansion_via_eg",
    "schur_expansion_via_linear_algebra", "schur_polynomial", "simulate", "spectrum",
    "staircase", "stanley_monomial", "stationary_distribution", "support_interval",
    "tableau_crystal", "tsetlin_chain", "yamanouchi_tableau",
)


def test_all_is_the_pinned_sorted_surface():
    assert tuple(redwords.__all__) == PUBLIC == tuple(sorted(PUBLIC))
    assert [name for name in PUBLIC if not hasattr(redwords, name)] == []


def test_import_loads_no_dataclasses_typing_or_inspect():
    # these three cost most of a cold start; no module of the package needs
    # them.  weakref (2-3 ms more) waits for the first crystal graph
    src = Path(redwords.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); "
        "import redwords, redwords.cli, redwords.checks; "
        "print(sorted({'dataclasses', 'typing', 'inspect', 'weakref'} & set(sys.modules)))"
    )
    result = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"
