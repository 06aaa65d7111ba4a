import itertools

import pytest
from hypothesis import given, settings, strategies as st

from redwords.partitions import partitions_of

from redwords.symfunc import SymFuncExpansion
from redwords.tableaux import (
    Tableau,
    crystal_e,
    crystal_f,
    generate_ssyt,
    generate_ssyt_with_content,
    kostka_number,
    schur_polynomial,
    tableau_crystal,
    yamanouchi_tableau,
)

# the crystal of shape (2,1) fillings with entries up to 3:
# eight tableaux and eight labelled arrows
B21_EDGES = [
    (((1, 1), (2,)), 1, ((1, 2), (2,))),
    (((1, 1), (2,)), 2, ((1, 1), (3,))),
    (((1, 1), (3,)), 1, ((1, 2), (3,))),
    (((1, 2), (2,)), 2, ((1, 3), (2,))),
    (((1, 2), (3,)), 1, ((2, 2), (3,))),
    (((1, 3), (2,)), 2, ((1, 3), (3,))),
    (((1, 3), (3,)), 1, ((2, 3), (3,))),
    (((2, 2), (3,)), 2, ((2, 3), (3,))),
]


def tab(*rows):
    return Tableau(rows)


def test_tableau_basics():
    t = tab((1, 2, 2), (2, 3))
    assert t.shape == (3, 2)
    assert t.size == 5
    assert t.is_semistandard()
    # a lower row longer than the row above is no tableau shape
    assert not tab((1,), (2, 3)).is_semistandard()
    assert t.column_reading_word() == (2, 1, 3, 2, 2)
    assert t.transpose() == tab((1, 2), (2, 3), (2,))
    assert t.content(4) == (1, 3, 1, 0)


def test_yamanouchi():
    assert yamanouchi_tableau((3, 1)) == tab((1, 1, 1), (2,))


def test_generate_ssyt_counts():
    assert len(generate_ssyt((2, 1), 3)) == 8
    assert len(generate_ssyt((1,), 5)) == 5
    assert len(generate_ssyt((2, 2), 2)) == 1
    for t in generate_ssyt((3, 2), 4):
        assert t.is_semistandard()


def test_generate_ssyt_with_content():
    standard = generate_ssyt_with_content((2, 1), (1, 1, 1))
    assert {t.rows for t in standard} == {((1, 2), (3,)), ((1, 3), (2,))}
    assert kostka_number((2, 1), (2, 1)) == 1
    assert kostka_number((2, 1), (1, 1, 1)) == 2
    assert kostka_number((1, 1), (2,)) == 0


def test_crystal_f_pinned_edges():
    assert crystal_f(tab((1, 1), (2,)), 1) == tab((1, 2), (2,))
    assert crystal_f(tab((1, 2), (2,)), 2) == tab((1, 3), (2,))
    top = yamanouchi_tableau((2, 1))
    assert crystal_e(top, 1) is None and crystal_e(top, 2) is None


def test_crystal_operators_refuse_a_colour_below_one():
    # colour 0 once turned the 1 of 1 2/2 into 0
    for operator in (crystal_f, crystal_e):
        with pytest.raises(ValueError, match="colour must be at least 1, got 0"):
            operator(tab((1, 2), (2,)), 0)


def test_crystal_operators_refuse_a_decreasing_row():
    # the reading word 2 1 brackets its two letters, the row counts do not
    for operator in (crystal_f, crystal_e):
        with pytest.raises(ValueError, match="rows must weakly increase"):
            operator(tab((2, 1)), 1)


def test_crystal_full_b21():
    graph = tableau_crystal((2, 1), 3)
    assert len(graph.vertices) == 8
    edges = {(u.rows, i, v.rows) for u, i, v in graph.edges()}
    assert edges == set(B21_EDGES)
    hw = graph.highest_weights()
    assert hw == [(yamanouchi_tableau((2, 1)), (2, 1, 0))]


def test_crystal_preserves_semistandard_and_inverts():
    graph = tableau_crystal((3, 1), 3)
    for (u, i), v in graph.f_edges.items():
        assert v.is_semistandard()
        assert crystal_e(v, i) == u
        # lowering moves one unit of content from entry i to entry i+1
        cu, cv = u.content(3), v.content(3)
        assert cu[i - 1] - cv[i - 1] == 1 and cv[i] - cu[i] == 1
        assert all(cu[k] == cv[k] for k in range(3) if k not in (i - 1, i))
    eps_table, phi_table = graph._string_tables()
    for c, i in enumerate(graph.index_set):
        for k, v in enumerate(graph.vertices):
            content = v.content(3)
            assert phi_table[c][k] - eps_table[c][k] == content[i - 1] - content[i]


def test_closure_from_yamanouchi_is_everything():
    for shape, entries in [((2, 1), 3), ((2, 2), 3), ((3, 1), 4)]:
        graph = tableau_crystal(shape, entries)
        seed = yamanouchi_tableau(shape)
        reached = {seed}
        frontier = [seed]
        while frontier:
            new = [
                image
                for t in frontier
                for i in graph.index_set
                if (image := crystal_f(t, i)) is not None and image not in reached
            ]
            reached.update(new)
            frontier = new
        assert reached == set(graph.vertices)
        assert reached == set(generate_ssyt(shape, entries))


def test_schur_polynomial_examples():
    assert schur_polynomial((2, 1), 3) == SymFuncExpansion.from_dict(
        "monomial", {(1, 1, 1): 2, (2, 1): 1}
    )
    assert schur_polynomial((1,), 4) == SymFuncExpansion.from_dict("monomial", {(1,): 1})
    assert schur_polynomial((2,), 2) == SymFuncExpansion.from_dict(
        "monomial", {(2,): 1, (1, 1): 1}
    )


@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2), (2, 1, 1)]), st.integers(2, 4))
@settings(max_examples=20, deadline=None)
def test_schur_polynomial_is_symmetric(shape, num_vars):
    # orbit-constant coefficients: the count of fillings with a permuted
    # content vector equals the count at the sorted representative
    expansion = schur_polynomial(shape, num_vars).as_dict()
    for mu, coeff in expansion.items():
        padded = tuple(mu) + (0,) * (num_vars - len(mu))
        for perm in set(itertools.permutations(padded)):
            count = len(generate_ssyt_with_content(shape, perm))
            assert count == coeff


def test_schur_polynomial_truncates_long_partitions():
    # with fewer variables than rows, fillings with too many distinct
    # entries disappear
    assert schur_polynomial((1, 1, 1), 2) == SymFuncExpansion.from_dict("monomial", {})


# ----------------------------------------------------------------------
# the column-order filler and the horizontal-strip Kostka numbers


def all_fillings_by_rows(shape, max_entry):
    """Every assignment of entries 1..max_entry to the cells, kept when
    semistandard, in lexicographic order of the rows."""
    out = []
    for flat in itertools.product(range(1, max_entry + 1), repeat=sum(shape)):
        rows, k = [], 0
        for length in shape:
            rows.append(flat[k:k + length])
            k += length
        t = Tableau(tuple(rows))
        if t.is_semistandard():
            out.append(t)
    return out


def test_generate_ssyt_order_is_by_rows():
    # cells are filled column by column, but the result keeps row order
    for shape, entries in [((2, 1), 3), ((3, 2), 3), ((2, 2, 1), 4), ((3, 1, 1), 3), ((4,), 3), ((1, 1, 1), 4)]:
        assert generate_ssyt(shape, entries) == all_fillings_by_rows(shape, entries)
    assert [t.rows for t in generate_ssyt((2, 1), 3)][:3] == [((1, 1), (2,)), ((1, 1), (3,)), ((1, 2), (2,))]
    assert generate_ssyt((2, 1), 1) == [] and generate_ssyt((), 2) == [Tableau(())]


def test_kostka_strips_match_enumeration_on_partitions():
    for size in range(9):
        for shape in partitions_of(size):
            for content in partitions_of(size):
                assert kostka_number(shape, content) == len(generate_ssyt_with_content(shape, content))


def test_kostka_strips_match_enumeration_on_compositions():
    # the branching rule holds for any order of the content, zeros included
    for size in range(6):
        for shape in partitions_of(size):
            for mu in partitions_of(size):
                for content in set(itertools.permutations(mu + (0, 0))):
                    expected = len(generate_ssyt_with_content(shape, content))
                    assert kostka_number(shape, content) == expected, (shape, content)
    assert kostka_number((2, 1), (3,)) == 0 and kostka_number((2,), (1, 2)) == 0
    assert generate_ssyt_with_content((2,), (3, -1)) == [] == generate_ssyt_with_content((2,), (1,))
