from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import requires_s5
from redwords.coxeter import Dihedral, Hypercube, SymmetricGroup
from redwords.markov import (
    NaturalPoset,
    ProbabilityMeasure,
    build_chain,
    charpoly,
    charpoly_matches_spectrum,
    eigenvalue_multiplicity_in_charpoly,
    eigenvalues_by_value,
    poly_from_eigenvalues,
    promotion,
    promotion_chain,
    simulate,
    solve_stationary,
    spectrum,
    stationary_distribution,
    tau,
    total_variation,
    tsetlin_chain,
)

F = Fraction


@st.composite
def measure_strategy(draw, index_set):
    numerators = draw(
        st.lists(
            st.integers(1, 9), min_size=len(index_set), max_size=len(index_set)
        )
    )
    total = sum(numerators)
    return ProbabilityMeasure.from_mapping(
        {i: F(a, total) for i, a in zip(sorted(index_set), numerators)}
    )


# ----------------------------------------------------------------------
# measures


def test_measure_validation():
    with pytest.raises(ValueError):
        ProbabilityMeasure.from_mapping({1: F(1, 2), 2: F(1, 3)})
    with pytest.raises(ValueError):
        ProbabilityMeasure.from_mapping({1: F(3, 2), 2: F(-1, 2)})
    uniform = ProbabilityMeasure.uniform((1, 2, 3))
    assert uniform[2] == F(1, 3)
    assert uniform.support == frozenset({1, 2, 3})


def test_measure_support_detects_zeros():
    m = ProbabilityMeasure.from_mapping({1: F(1), 2: F(0)})
    assert m.support == frozenset({1})


# ----------------------------------------------------------------------
# exchange chain basics


def test_s3_uniform_chain_pinned(s3):
    matrix = build_chain(s3, ProbabilityMeasure.uniform(s3.index_set))
    assert matrix.states == ((1, 2, 1), (2, 1, 2))
    assert matrix.entries == (
        (F(1, 2), F(1, 2)),
        (F(1, 2), F(1, 2)),
    )
    # exactly four arrows: two self-loops and the two crossings
    assert matrix.labels == {
        (0, 0): (1,),
        (0, 1): (1,),
        (1, 0): (2,),
        (1, 1): (2,),
    }
    assert matrix.is_column_stochastic()
    assert matrix.is_strongly_connected()


def test_one_state_chain():
    h = Hypercube(1)
    matrix = build_chain(h, ProbabilityMeasure.from_mapping({1: F(1)}))
    assert matrix.states == ((1,),)
    assert matrix.entries == ((F(1),),)


def test_build_chain_rejects_partial_support(s3):
    with pytest.raises(ValueError):
        build_chain(s3, ProbabilityMeasure.from_mapping({1: F(1), 2: F(0)}))
    with pytest.raises(ValueError):
        build_chain(s3, ProbabilityMeasure.uniform((1, 2, 3)))


def test_s4_uniform_chain(s4):
    matrix = build_chain(s4, ProbabilityMeasure.uniform(s4.index_set))
    assert matrix.size == 16
    assert matrix.is_column_stochastic()
    assert matrix.is_strongly_connected()


# ----------------------------------------------------------------------
# spectrum


def test_spectrum_s3_pinned(s3):
    lines = spectrum(s3, ProbabilityMeasure.uniform(s3.index_set))
    table = {line.subset: (line.eigenvalue, line.multiplicity) for line in lines}
    assert table == {
        (): (F(0), 1),
        (1,): (F(1, 2), 0),
        (2,): (F(1, 2), 0),
        (1, 2): (F(1), 1),
    }
    assert eigenvalues_by_value(lines) == {F(0): 1, F(1): 1}


def test_top_eigenvalue_always_simple(s4):
    for seed in (1, 2):
        measure = ProbabilityMeasure.random_rational(s4.index_set, seed)
        lines = spectrum(s4, measure)
        top = [l for l in lines if l.subset == tuple(s4.index_set)]
        assert top[0].eigenvalue == 1 and top[0].multiplicity == 1


def test_charpoly_pinned(s3):
    matrix = build_chain(s3, ProbabilityMeasure.uniform(s3.index_set))
    assert charpoly(matrix) == (F(1), F(-1), F(0))  # x^2 - x


def test_poly_from_eigenvalues():
    assert poly_from_eigenvalues({F(0): 1, F(1): 1}) == (F(1), F(-1), F(0))
    assert poly_from_eigenvalues({F(1, 2): 2}) == (F(1), F(-1), F(1, 4))


def test_multiplicity_by_division():
    coeffs = poly_from_eigenvalues({F(1, 3): 2, F(1): 1})
    assert eigenvalue_multiplicity_in_charpoly(coeffs, F(1, 3)) == 2
    assert eigenvalue_multiplicity_in_charpoly(coeffs, F(1)) == 1
    assert eigenvalue_multiplicity_in_charpoly(coeffs, F(2)) == 0


def test_s4_uniform_eigenvalues(s4):
    uniform = ProbabilityMeasure.uniform(s4.index_set)
    collapsed = eigenvalues_by_value(spectrum(s4, uniform))
    assert set(collapsed) <= {F(0), F(1, 3), F(2, 3), F(1)}
    assert sum(collapsed.values()) == 16
    assert charpoly_matches_spectrum(s4, uniform)


@given(measure_strategy((1, 2)))
@settings(max_examples=10, deadline=None)
def test_charpoly_matches_spectrum_random_s3(measure):
    assert charpoly_matches_spectrum(SymmetricGroup(3), measure)


def test_charpoly_matches_other_systems():
    for system in (Hypercube(2), Hypercube(3), Dihedral(3), Dihedral(5)):
        for seed in (5, 6):
            measure = ProbabilityMeasure.random_rational(system.index_set, seed)
            assert charpoly_matches_spectrum(system, measure)


def test_multiplicities_nonnegative_and_total(s4):
    for system in (SymmetricGroup(3), s4, Hypercube(3), Dihedral(4)):
        measure = ProbabilityMeasure.random_rational(system.index_set, 3)
        lines = spectrum(system, measure)
        assert all(line.multiplicity >= 0 for line in lines)
        assert sum(line.multiplicity for line in lines) == system.reduced_word_count(
            system.longest_element
        )


# ----------------------------------------------------------------------
# stationary distribution


def test_stationary_s3_uniform(s3):
    pi = stationary_distribution(s3, ProbabilityMeasure.uniform(s3.index_set))
    assert pi == {(1, 2, 1): F(1, 2), (2, 1, 2): F(1, 2)}


def test_stationary_hypercube_two_books():
    measure = ProbabilityMeasure.from_mapping({1: F(2, 7), 2: F(5, 7)})
    pi = stationary_distribution(Hypercube(2), measure)
    assert pi == {(1, 2): F(2, 7), (2, 1): F(5, 7)}


def test_stationary_fixed_by_matrix_everywhere(s4):
    for system in (SymmetricGroup(3), s4, Hypercube(3), Dihedral(4)):
        for seed in (11, 12, 13):
            measure = ProbabilityMeasure.random_rational(system.index_set, seed)
            matrix = build_chain(system, measure)
            pi = stationary_distribution(system, measure)
            vector = [pi[s] for s in matrix.states]
            assert sum(vector) == 1
            assert matrix.fixes(vector)


def test_solve_stationary_agrees_with_closed_form(s3):
    measure = ProbabilityMeasure.random_rational(s3.index_set, 9)
    matrix = build_chain(s3, measure)
    pi = stationary_distribution(s3, measure)
    assert solve_stationary(matrix) == tuple(pi[s] for s in matrix.states)


def test_stationary_one_state_chain():
    h = Hypercube(1)
    assert stationary_distribution(h, ProbabilityMeasure.from_mapping({1: F(1)})) == {
        (1,): F(1)
    }


@requires_s5
def test_s5_chain_behind_flag():
    # 768 states: the polynomial factorization is out of reach, but the
    # matrix identities and the multiplicity bookkeeping stay exact
    s5 = SymmetricGroup(5)
    measure = ProbabilityMeasure.uniform(s5.index_set)
    matrix = build_chain(s5, measure)
    assert matrix.size == 768
    assert matrix.is_column_stochastic()
    pi = stationary_distribution(s5, measure)
    vector = [pi[s] for s in matrix.states]
    assert sum(vector) == 1
    assert matrix.fixes(vector)
    lines = spectrum(s5, measure)
    assert sum(line.multiplicity for line in lines) == 768
    assert all(line.multiplicity >= 0 for line in lines)


# ----------------------------------------------------------------------
# simulation


def test_simulate_zero_steps_is_point_mass(s3):
    dist = simulate(s3, ProbabilityMeasure.uniform(s3.index_set), 0, seed=1)
    assert dist == {(1, 2, 1): F(1)}


def test_simulate_deterministic_under_seed(s3):
    uniform = ProbabilityMeasure.uniform(s3.index_set)
    a = simulate(s3, uniform, 500, seed=42)
    b = simulate(s3, uniform, 500, seed=42)
    assert a == b


def test_simulate_approaches_stationary(s3):
    uniform = ProbabilityMeasure.uniform(s3.index_set)
    empirical = simulate(s3, uniform, 100_000, seed=20240101)
    tv = total_variation(empirical, stationary_distribution(s3, uniform))
    assert tv < F(2, 100)


def test_total_variation():
    assert total_variation({1: F(1)}, {2: F(1)}) == F(1)
    assert total_variation({1: F(1, 2), 2: F(1, 2)}, {1: F(1, 2), 2: F(1, 2)}) == 0


# ----------------------------------------------------------------------
# Tsetlin library


def test_tsetlin_two_books():
    measure = ProbabilityMeasure.from_mapping({1: F(1, 4), 2: F(3, 4)})
    matrix = tsetlin_chain(2, measure)
    assert matrix.states == ((1, 2), (2, 1))
    # book 1 moves to the front from either shelf order
    assert matrix.entries[0][1] == F(1, 4)
    assert matrix.entries[1][0] == F(3, 4)


def test_tsetlin_stationary(s3):
    measure = ProbabilityMeasure.random_rational((1, 2, 3), 21)
    matrix = tsetlin_chain(3, measure)
    pi = stationary_distribution(Hypercube(3), measure)
    assert matrix.fixes([pi[s] for s in matrix.states])


def test_tsetlin_single_book():
    matrix = tsetlin_chain(1, ProbabilityMeasure.from_mapping({1: F(1)}))
    assert matrix.size == 1


# ----------------------------------------------------------------------
# posets and promotion


def test_natural_poset_validation():
    NaturalPoset.from_relations(3, [(1, 3), (2, 3)])
    with pytest.raises(ValueError):
        NaturalPoset.from_relations(3, [(3, 1)])
    with pytest.raises(ValueError):
        NaturalPoset.from_relations(2, [(1, 5)])


def test_linear_extensions():
    v_poset = NaturalPoset.from_relations(3, [(1, 3), (2, 3)])
    assert v_poset.linear_extensions() == ((1, 2, 3), (2, 1, 3))
    assert NaturalPoset.chain(4).linear_extensions() == ((1, 2, 3, 4),)
    assert len(NaturalPoset.antichain(3).linear_extensions()) == 6


def test_tau_and_promotion():
    poset = NaturalPoset.antichain(3)
    assert tau(poset, (1, 2, 3), 1) == (2, 1, 3)
    # promotion applies the rightmost swap first: position 3 walks to the front
    assert promotion(poset, (1, 2, 3), 3) == (3, 1, 2)
    chain = NaturalPoset.chain(3)
    assert tau(chain, (1, 2, 3), 1) == (1, 2, 3)


def test_promotion_chain_on_antichain_equals_tsetlin():
    for n in (1, 2, 3, 4):
        measure = ProbabilityMeasure.random_rational(range(1, n + 1), 30 + n)
        move_to_front = tsetlin_chain(n, measure)
        promo = promotion_chain(NaturalPoset.antichain(n), measure)
        assert promo.states == move_to_front.states
        assert promo.entries == move_to_front.entries
        assert promo.labels == move_to_front.labels


def test_promotion_chain_on_total_order_is_trivial():
    chain = promotion_chain(NaturalPoset.chain(3), ProbabilityMeasure.uniform((1, 2, 3)))
    assert chain.states == ((1, 2, 3),)
    assert chain.entries == ((F(1),),)


def test_promotion_v_poset_stationary():
    v_poset = NaturalPoset.from_relations(3, [(1, 3), (2, 3)])
    matrix = promotion_chain(v_poset, ProbabilityMeasure.uniform((1, 2, 3)))
    assert matrix.is_column_stochastic()
    solved = solve_stationary(matrix)
    assert matrix.fixes(solved)
    assert sum(solved) == 1
