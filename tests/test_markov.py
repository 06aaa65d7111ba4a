import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from conftest import requires_s5, requires_s6
from redwords.coxeter import Dihedral, Hypercube, SymmetricGroup
from redwords.markov import (
    NaturalPoset,
    ProbabilityMeasure,
    TransitionMatrix,
    _charpoly_int,
    build_chain,
    charpoly,
    eigenvalue_multiplicity_in_charpoly,
    eigenvalues_by_value,
    poly_from_eigenvalues,
    promotion,
    promotion_by_label,
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


def test_measure_integer_form_is_the_lcm_and_the_scaled_weights():
    measure = ProbabilityMeasure.from_mapping({1: F(1, 4), 2: F(1, 6), 3: F(7, 12)})
    assert measure.denominator == 12
    assert measure.numerators == (3, 2, 7)
    assert ProbabilityMeasure.from_mapping({1: F(1), 2: F(0)}).numerators == (1, 0)
    # the integer form is derived, so equality, hashing and repr ignore it
    same = ProbabilityMeasure(measure.weights)
    assert same == measure and hash(same) == hash(measure)
    assert repr(measure) == f"ProbabilityMeasure(weights={measure.weights!r})"
    with pytest.raises(ValueError, match=r"^weights sum to 5/6, not 1$"):
        ProbabilityMeasure.from_mapping({1: F(1, 2), 2: F(1, 3)})
    with pytest.raises(ValueError, match=r"^weights sum to 0, not 1$"):
        ProbabilityMeasure(())


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
    # the labels are derived on first access, then kept
    assert "labels" not in vars(matrix)
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


def fraction_determinant(rows):
    """The determinant by Gaussian elimination over the rationals."""
    rows = [[F(x) for x in row] for row in rows]
    det = F(1)
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pivot is None:
            return F(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, len(rows)):
            ratio = rows[r][c] / rows[c][c]
            rows[r] = [a - ratio * b for a, b in zip(rows[r], rows[c])]
    return det


def interpolated_charpoly(matrix):
    """det(xI - A) at x = 0, ..., n, interpolated by Lagrange's formula;
    monic, highest degree first."""
    n = len(matrix)
    coeffs = [F(0)] * (n + 1)  # lowest degree first
    for j in range(n + 1):
        value = fraction_determinant(
            [[(j if r == c else 0) - matrix[r][c] for c in range(n)] for r in range(n)]
        )
        basis, scale = [F(1)], F(1)  # prod over m != j of (x - m), lowest degree first
        for m in range(n + 1):
            if m != j:
                basis = [(basis[k - 1] if k else 0) - m * (basis[k] if k < len(basis) else 0)
                         for k in range(len(basis) + 1)]
                scale *= j - m
        for k, b in enumerate(basis):
            coeffs[k] += value * b / scale
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in reversed(coeffs)]


def sparse_integer_matrices():
    """Seeded integer matrices of sizes 0-10, entries in -3..3, mostly zero,
    each with a zero row and a row with no zero (from size 2), and one fully
    dense matrix per size."""
    rng = random.Random(20261020)
    for n in range(11):
        for density in (0.2, 0.35, 1.0):
            matrix = [[rng.choice((-3, -2, -1, 1, 2, 3)) if rng.random() < density else 0
                       for _ in range(n)] for _ in range(n)]
            if n >= 2 and density < 1:
                matrix[rng.randrange(n)] = [0] * n
                matrix[rng.randrange(n)] = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)]
            yield matrix


def test_charpoly_int_matches_interpolated_determinants():
    # the sparse Faddeev-LeVerrier recurrence against det(xI - A) at n + 1
    # points on non-stochastic integer matrices, zero and dense rows included
    cases = list(sparse_integer_matrices())
    assert any(row == [0] * len(m) for m in cases for row in m)
    assert any(len(m) == 10 and all(all(row) for row in m) for m in cases)
    for matrix in cases:
        copy = [row[:] for row in matrix]
        assert _charpoly_int(matrix) == interpolated_charpoly(matrix)
        assert matrix == copy
    assert _charpoly_int([]) == [1]
    assert _charpoly_int([[0, 0], [0, 0]]) == [1, 0, 0]
    assert _charpoly_int([[0, 1], [-1, 0]]) == [1, 0, 1]  # x^2 + 1


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
    assert charpoly(build_chain(s4, uniform)) == poly_from_eigenvalues(collapsed)


@given(measure_strategy((1, 2)))
@settings(max_examples=10, deadline=None)
def test_charpoly_matches_spectrum_random_s3(measure):
    s3 = SymmetricGroup(3)
    assert charpoly(build_chain(s3, measure)) == poly_from_eigenvalues(eigenvalues_by_value(spectrum(s3, measure)))


def test_charpoly_matches_other_systems():
    for system in (Hypercube(2), Hypercube(3), Dihedral(3), Dihedral(5)):
        for seed in (5, 6):
            measure = ProbabilityMeasure.random_rational(system.index_set, seed)
            expected = poly_from_eigenvalues(eigenvalues_by_value(spectrum(system, measure)))
            assert charpoly(build_chain(system, measure)) == expected


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


def test_stationary_leaves_the_reduced_word_memo_empty():
    for system in (SymmetricGroup(4), Hypercube(3), Dihedral(5)):
        pi = stationary_distribution(system, ProbabilityMeasure.random_rational(system.index_set, 3))
        assert len(pi) == system.reduced_word_count(system.longest_element)
        assert system.memo_sizes()["reduced_words"] == 0


def _reference_stationary(system, measure):
    """The closed-form stationary law in Fraction arithmetic, one prefix
    product per word, as the library computed it before it moved to
    integer numerators over one denominator."""
    weight = dict(measure.weights)
    out = {}
    previous, prefixes, values = (), [system.identity], [F(1)]
    for word in system.reduced_words(system.longest_element):
        shared = 0
        while shared < len(previous) and previous[shared] == word[shared]:
            shared += 1
        del prefixes[shared + 1:], values[shared + 1:]
        for letter in word[shared:]:
            blocked = sum((weight[i] for i in system.right_descents(prefixes[-1])), F(0))
            values.append(values[-1] * weight[letter] / (1 - blocked))
            prefixes.append(system.right_multiplied(prefixes[-1], letter))
        out[word] = values[-1]
        previous = word
    return out


@pytest.mark.parametrize(
    "system",
    [SymmetricGroup(3), SymmetricGroup(4), SymmetricGroup(5), Hypercube(3), Dihedral(5)],
    ids=repr,
)
def test_integer_stationary_matches_fraction_reference(system):
    for seed in (11, 12, 13):
        measure = ProbabilityMeasure.random_rational(system.index_set, seed)
        pi = stationary_distribution(system, measure)
        reference = _reference_stationary(system, measure)
        assert pi == reference
        assert list(pi) == list(reference)
        assert all(type(p) is Fraction for p in pi.values())


def test_fixes_rejects_one_unit_moved():
    for system in (SymmetricGroup(4), Hypercube(3), Dihedral(5)):
        measure = ProbabilityMeasure.random_rational(system.index_set, 17)
        matrix = build_chain(system, measure)
        pi = stationary_distribution(system, measure)
        vector = [pi[s] for s in matrix.states]
        assert matrix.fixes(vector)
        unit = F(1, lcm(*(p.denominator for p in vector)))
        for a, b in ((0, 1), (1, 0), (matrix.size - 1, 0)):
            moved = list(vector)
            moved[a] += unit
            moved[b] -= unit
            assert sum(moved) == 1
            assert not matrix.fixes(moved)
            assert matrix.apply(moved) != tuple(moved)


def test_apply_and_fixes_reject_a_vector_of_the_wrong_length(s3):
    matrix = build_chain(s3, ProbabilityMeasure.uniform(s3.index_set))
    assert matrix.size == 2
    for vector in ([F(1, 2)], [F(1, 2), F(1, 4), F(1, 4)]):
        with pytest.raises(ValueError):
            matrix.fixes(vector)
        with pytest.raises(ValueError):
            matrix.apply(vector)
    assert matrix.fixes([F(1, 2), F(1, 2)])


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


@requires_s6
def test_s6_chain_exact():
    # 292,864 states and 1,464,320 arrows: every check walks the move table
    s6 = SymmetricGroup(6)
    measure = ProbabilityMeasure.random_rational(s6.index_set, 11)
    matrix = build_chain(s6, measure)
    assert matrix.size == 292_864
    assert sum(len(column) for column in matrix.numerators) == 1_464_320
    assert matrix.is_column_stochastic()
    assert matrix.is_strongly_connected()
    pi = stationary_distribution(s6, measure)
    assert matrix.fixes([pi[s] for s in matrix.states])


# ----------------------------------------------------------------------
# the sparse kernel against the dense view


def _small_chains():
    chains = [
        build_chain(system, ProbabilityMeasure.random_rational(system.index_set, 5))
        for system in (SymmetricGroup(4), Hypercube(3), Dihedral(4))
    ]
    v_poset = NaturalPoset.from_relations(3, [(1, 3), (2, 3)])
    chains.append(promotion_chain(v_poset, ProbabilityMeasure.random_rational((1, 2, 3), 5)))
    return chains


def test_sparse_apply_matches_dense_product():
    for matrix in _small_chains():
        entries = matrix.entries
        vector = [F(k + 1, 2 * k + 3) for k in range(matrix.size)]
        dense = tuple(
            sum((row[b] * vector[b] for b in range(matrix.size)), F(0)) for row in entries
        )
        assert matrix.apply(vector) == dense
        for column in matrix.numerators:
            assert all(n for _, n in column) and list(column) == sorted(column)


def _random_natural_poset(n, rng):
    return NaturalPoset.from_relations(
        n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.3]
    )


def test_integer_columns_agree_with_dense_entries_on_promotion_chains():
    rng = random.Random(5)
    posets = [NaturalPoset.from_relations(3, [(1, 3), (2, 3)]), NaturalPoset.antichain(4)]
    posets += [_random_natural_poset(n, rng) for n in (3, 4, 4, 5)]
    for k, poset in enumerate(posets):
        labels = range(1, poset.n + 1)
        measure = ProbabilityMeasure.random_rational(labels, k)
        matrix = promotion_chain(poset, measure)
        entries = matrix.entries
        sums = tuple(sum(column, F(0)) for column in zip(*entries))
        assert matrix.is_column_stochastic() == all(total == 1 for total in sums)
        assert matrix.is_column_stochastic()
        d = measure.denominator
        assert matrix.numerators == tuple(
            tuple((a, p * d) for a, p in enumerate(column) if p) for column in zip(*entries)
        )
        _, columns, _ = _reference_chain(
            matrix.states, measure, lambda label, state: promotion_by_label(poset, state, label)
        )
        assert matrix.numerators == columns


def _reference_chain(states, measure, move):
    """The denominator, sparse integer columns and arrow labels of a walk,
    built column by column from ``move(choice, state)`` the way the matrix
    stored its columns before it kept only the move table: the weights of
    the choices landing on the same state added up, zeros dropped."""
    denominator = lcm(*(p.denominator for _, p in measure.weights))
    index = {state: k for k, state in enumerate(states)}
    columns, labels = [], {}
    for b, state in enumerate(states):
        column = {}
        for i, p in measure.weights:
            a = index[move(i, state)]
            column[a] = column.get(a, 0) + int(p * denominator)
            labels[(a, b)] = labels.get((a, b), ()) + (i,)
        columns.append(tuple(sorted((a, n) for a, n in column.items() if n)))
    return denominator, tuple(columns), labels


def _reference_strongly_connected(columns):
    forward = [[a for a, _ in column] for column in columns]
    backward = [[] for _ in columns]
    for b, targets in enumerate(forward):
        for a in targets:
            backward[a].append(b)
    for adjacency in (forward, backward):
        seen, queue = {0}, [0]
        while queue:
            for nxt in adjacency[queue.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        if len(seen) != len(columns):
            return False
    return True


def _table_chains():
    """(matrix, reference, stationary vector) over exchange and promotion walks."""
    out = []
    for system in (SymmetricGroup(3), SymmetricGroup(4), SymmetricGroup(5), Hypercube(3),
                   Hypercube(4), Dihedral(4), Dihedral(6)):
        measure = ProbabilityMeasure.random_rational(system.index_set, 7)
        matrix = build_chain(system, measure)
        assert (matrix.states, matrix.table) == system.exchange_kernel()
        assert matrix.table is system.exchange_kernel()[1]
        pi = stationary_distribution(system, measure)
        reference = _reference_chain(matrix.states, measure, system.exchange)
        out.append((matrix, reference, [pi[state] for state in matrix.states]))
    for poset, weights in (
        (NaturalPoset.chain(3), {1: F(1, 2), 2: F(1, 3), 3: F(1, 6)}),  # three labels, one move
        (NaturalPoset.from_relations(3, [(1, 3), (2, 3)]), {1: F(1, 5), 2: F(3, 5), 3: F(1, 5)}),
        (NaturalPoset.antichain(2), {1: F(1), 2: F(0)}),  # a zero-weight choice is no arc
    ):
        measure = ProbabilityMeasure.from_mapping(weights)
        matrix = promotion_chain(poset, measure)
        reference = _reference_chain(
            matrix.states, measure, lambda label, state: promotion_by_label(poset, state, label)
        )
        out.append((matrix, reference, list(solve_stationary(matrix))))
    return out


def test_views_checks_and_products_match_the_reference_columns():
    chains = _table_chains()
    assert [matrix.size for matrix, _, _ in chains] == [2, 16, 768, 6, 24, 2, 2, 1, 2, 2]
    for matrix, (denominator, columns, labels), pi in chains:
        size = matrix.size
        assert matrix.measure.denominator == denominator
        assert matrix.numerators == columns
        dense = [[F(0)] * size for _ in range(size)]
        for b, column in enumerate(columns):
            for a, n in column:
                dense[a][b] = F(n, denominator)
        assert matrix.entries == tuple(map(tuple, dense))
        assert matrix.labels == labels
        sums = tuple(F(sum(n for _, n in column), denominator) for column in columns)
        assert matrix.is_column_stochastic() == all(total == 1 for total in sums)
        assert matrix.is_strongly_connected() == _reference_strongly_connected(columns)

        def product(vector):
            out = [F(0)] * size
            for b, column in enumerate(columns):
                for a, n in column:
                    out[a] += F(n, denominator) * vector[b]
            return tuple(out)

        moved = [p + (F(1, 7) if k == 0 else 0) - (F(1, 7) if k == size - 1 else 0)
                 for k, p in enumerate(pi)]
        generic = [F(k + 1, 2 * k + 3) for k in range(size)]
        for vector in (pi, moved, generic):
            assert matrix.apply(vector) == product(vector)
            assert matrix.fixes(vector) == (product(vector) == tuple(vector))
        assert matrix.fixes(pi)
        if size <= 24:
            scaled = [[int(p * denominator) for p in row] for row in dense]
            assert charpoly(matrix) == tuple(
                F(c, denominator ** k) for k, c in enumerate(_charpoly_int(scaled))
            )
    # the antichain walk that never picks label 2 cannot leave the front of 1
    antichain, _, _ = chains[-1]
    assert antichain.numerators == (((0, 1),), ((0, 1),))
    assert not antichain.is_strongly_connected()
    assert antichain.labels == {(0, 0): (1,), (1, 0): (2,), (0, 1): (1,), (1, 1): (2,)}


def test_column_stochastic_fails_on_a_short_column(s3):
    matrix = build_chain(s3, ProbabilityMeasure.uniform(s3.index_set))
    short = TransitionMatrix(matrix.states, matrix.measure, (matrix.table[0][:1], matrix.table[1]))
    assert not short.is_column_stochastic()
    assert short.numerators == (((0, 1),), ((0, 1), (1, 1)))


def test_kernel_table_is_the_exchange_map():
    systems = (SymmetricGroup(4), SymmetricGroup(5), Hypercube(3), Hypercube(4),
               Dihedral(5), Dihedral(6))
    for system in systems:
        kernel = system.exchange_kernel()
        assert kernel is system.exchange_kernel()
        states, table = kernel
        w0 = system.longest_element
        assert states == tuple(sorted(system.reduced_words(w0)))
        assert len(set(states)) == len(states) == len(table)
        for k, state in enumerate(states):
            assert len(table[k]) == len(system.index_set)
            for g, i in enumerate(system.index_set):
                image = states[table[k][g]]
                assert image == system.exchange(i, state)
                # the strong exchange condition: the one deletion that keeps i + word at w0
                spelled = [
                    (i,) + state[:j] + state[j + 1:]
                    for j in range(len(state))
                    if system.evaluate((i,) + state[:j] + state[j + 1:]) == w0
                ]
                assert spelled == [image]


@requires_s6
def test_s6_kernel_table_is_the_exchange_map():
    # the identity above at 292,864 states, without its brute-force deletion search
    s6 = SymmetricGroup(6)
    states, table = s6.exchange_kernel()
    assert states == tuple(sorted(s6.reduced_words(s6.longest_element)))
    for state, row in zip(states, table):
        assert tuple(states[k] for k in row) == tuple(s6.exchange(i, state) for i in s6.index_set)


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


def test_simulate_seeded_occupation_pinned(s4):
    measure = ProbabilityMeasure.random_rational(s4.index_set, 11)
    empirical = simulate(s4, measure, 2000, seed=7)
    counts = sorted((word, int(p * 2001)) for word, p in empirical.items())
    assert counts == [
        ((1, 2, 1, 3, 2, 1), 189), ((1, 2, 3, 1, 2, 1), 82), ((1, 2, 3, 2, 1, 2), 91),
        ((1, 3, 2, 1, 3, 2), 189), ((1, 3, 2, 3, 1, 2), 136), ((2, 1, 2, 3, 2, 1), 177),
        ((2, 1, 3, 2, 1, 3), 96), ((2, 1, 3, 2, 3, 1), 78), ((2, 3, 1, 2, 1, 3), 84),
        ((2, 3, 1, 2, 3, 1), 87), ((2, 3, 2, 1, 2, 3), 153), ((3, 1, 2, 1, 3, 2), 173),
        ((3, 1, 2, 3, 1, 2), 141), ((3, 2, 1, 2, 3, 2), 80), ((3, 2, 1, 3, 2, 3), 99),
        ((3, 2, 3, 1, 2, 3), 146),
    ]


def reference_simulate(system, measure, steps, seed, start):
    # the sampler as a list of draws made by random.choices, then walked
    # through the chain's move table
    chain = build_chain(system, measure)
    states, table = chain.states, chain.table
    current = states.index(start)
    weights = [float(p) for _, p in measure.weights]
    counts = [0] * len(states)
    counts[current] = 1
    for g in random.Random(seed).choices(range(len(weights)), weights, k=steps):
        current = table[current][g]
        counts[current] += 1
    return {state: F(c, steps + 1) for state, c in zip(states, counts) if c}


@pytest.mark.parametrize("system", [
    SymmetricGroup(3), SymmetricGroup(4), SymmetricGroup(5), Hypercube(3), Hypercube(4), Dihedral(4),
], ids=repr)
def test_simulate_makes_the_draws_of_random_choices(system):
    # bit-identical trajectories: the same occupation counts as the
    # reference for every seed, start and step count
    states = build_chain(system, ProbabilityMeasure.uniform(system.index_set)).states
    for seed in (1, 7, 20240101):
        measure = ProbabilityMeasure.random_rational(system.index_set, seed)
        start = states[seed % len(states)]
        for steps in (0, 1, 20_000):
            assert simulate(system, measure, steps, seed, start) == reference_simulate(
                system, measure, steps, seed, start)


def test_simulate_rejects_foreign_measure_and_start(s3):
    with pytest.raises(ValueError):
        simulate(s3, ProbabilityMeasure.uniform((1, 2, 3)), 10, seed=1)
    with pytest.raises(ValueError):
        simulate(s3, ProbabilityMeasure.uniform((1, 2)), 10, seed=1, start=(1, 1, 1))


@pytest.mark.parametrize("weights", [{1: F(1), 2: F(0)}, {1: F(1)}])
def test_simulate_refuses_a_measure_that_build_chain_refuses(s3, weights):
    # the sampler walks build_chain's table, so a zero or missing weight is
    # refused with build_chain's message
    measure = ProbabilityMeasure.from_mapping(weights)
    with pytest.raises(ValueError) as chain_error:
        build_chain(s3, measure)
    with pytest.raises(ValueError) as walk_error:
        simulate(s3, measure, 10, seed=1)
    assert str(walk_error.value) == str(chain_error.value)


def test_total_variation():
    assert total_variation({1: F(1)}, {2: F(1)}) == F(1)
    assert total_variation({1: F(1, 2), 2: F(1, 2)}, {1: F(1, 2), 2: F(1, 2)}) == 0


def _fraction_total_variation(p, q):
    """The Fraction definition the library used before summing in integers."""
    keys = set(p) | set(q)
    return sum((abs(F(p.get(k, 0)) - F(q.get(k, 0))) for k in keys), F(0)) / 2


_weights = st.dictionaries(
    st.integers(0, 12),
    st.one_of(st.fractions(min_value=0, max_value=1, max_denominator=60), st.integers(0, 1)),
    max_size=10,
)


@given(_weights, _weights)
@settings(max_examples=100, deadline=None)
def test_total_variation_matches_fraction_definition(p, q):
    tv = total_variation(p, q)
    assert tv == _fraction_total_variation(p, q)
    assert type(tv) is Fraction


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
    for n, pairs in [(2.7, []), ("2", []), (True, []), (2, [(1, 2.5)]), (2, [(True, 2)]),
                     (2, [("1", 2)])]:
        with pytest.raises(ValueError, match="integers"):
            NaturalPoset.from_relations(n, pairs)
    # the count and the listing agree from size 0 up, so a negative size is refused
    with pytest.raises(ValueError, match="at least 0"):
        NaturalPoset(-1, frozenset())
    assert NaturalPoset(0, frozenset()).linear_extensions() == ((),)


def test_linear_extensions():
    v_poset = NaturalPoset.from_relations(3, [(1, 3), (2, 3)])
    assert v_poset.linear_extensions() == ((1, 2, 3), (2, 1, 3))
    assert NaturalPoset.chain(4).linear_extensions() == ((1, 2, 3, 4),)
    assert len(NaturalPoset.antichain(3).linear_extensions()) == 6


def _closure_by_fixpoint(poset):
    """Reference: the transitive closure of the relations, grown to a fixpoint."""
    closure = set(poset.relations)
    changed = True
    while changed:
        changed = False
        for a, b in list(closure):
            for c, d in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return closure


def _extensions_by_sets(poset):
    """Reference: depth-first extension with a set of labels below each label."""
    n, closure = poset.n, _closure_by_fixpoint(poset)
    below = {j: {i for i in range(1, n + 1) if (i, j) in closure} for j in range(1, n + 1)}
    out = []

    def extend(prefix, placed):
        if len(prefix) == n:
            out.append(prefix)
            return
        for j in range(1, n + 1):
            if j not in placed and below[j] <= placed:
                extend(prefix + (j,), placed | {j})

    extend((), set())
    return tuple(out)


def _poset_zoo():
    rng = random.Random(41)
    posets = [NaturalPoset.chain(n) for n in range(0, 6)]
    posets += [NaturalPoset.antichain(n) for n in range(0, 6)]
    posets.append(NaturalPoset.from_relations(3, [(1, 3), (2, 3)]))
    posets += [_random_natural_poset(n, rng) for n in range(1, 7) for _ in range(6)]
    return posets


def test_poset_masks_are_the_transitive_closure():
    for poset in _poset_zoo():
        closure = _closure_by_fixpoint(poset)
        labels = range(1, poset.n + 1)
        assert poset.below == tuple(
            sum(1 << (i - 1) for i in labels if (i, j) in closure) for j in labels
        )
        for a in labels:
            for b in labels:
                assert poset.less(a, b) == ((a, b) in closure)


def test_linear_extensions_match_the_set_based_search_in_order():
    for poset in _poset_zoo():
        assert poset.linear_extensions() == _extensions_by_sets(poset)


def test_linear_extension_count_matches_enumeration():
    rng = random.Random(23)
    posets = [NaturalPoset.chain(n) for n in range(0, 6)]
    posets += [NaturalPoset.antichain(n) for n in range(0, 7)]
    posets.append(NaturalPoset.from_relations(3, [(1, 3), (2, 3)]))
    posets += [_random_natural_poset(n, rng) for n in range(1, 7) for _ in range(6)]
    for poset in posets:
        assert list(poset.prefix_counts())[-1] == len(poset.linear_extensions())


def test_tau_and_promotion():
    poset = NaturalPoset.antichain(3)
    assert tau(poset, (1, 2, 3), 1) == (2, 1, 3)
    # promotion applies the rightmost swap first: position 3 walks to the front
    assert promotion(poset, (1, 2, 3), 3) == (3, 1, 2)
    chain = NaturalPoset.chain(3)
    assert tau(chain, (1, 2, 3), 1) == (1, 2, 3)


def test_promotion_chain_on_antichain_equals_tsetlin():
    for n in (1, 2, 3, 4):
        for seed in (30 + n, 50 + n, 60 + n):
            measure = ProbabilityMeasure.random_rational(range(1, n + 1), seed)
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
