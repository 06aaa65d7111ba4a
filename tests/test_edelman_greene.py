import itertools
import time

import pytest

from conftest import requires_s5, requires_s6
from redwords.coxeter import Dihedral, SymmetricGroup
from redwords.crystal import factorization_crystal, parse_factorization
from redwords.edelman_greene import (
    BRAID,
    MIDDLE_FIRST,
    MIDDLE_LAST,
    ck_components,
    ck_edge_operator_identity,
    ck_graph,
    ck_neighbors,
    EGPair,
    eg_insert,
    eg_insert_all,
    eg_insert_letter,
    eg_insert_word,
    intertwining_check,
    is_yamanouchi,
    p_transpose_reading_word,
    q_tableaux,
)
from redwords.tableaux import Tableau, tableau_crystal


def tab(*rows):
    return Tableau.from_rows(rows)


# ----------------------------------------------------------------------
# single-letter insertion


def test_insert_letter_append():
    assert eg_insert_letter((1, 2, 3), 5) == ((1, 2, 3, 5), None, False)


def test_insert_letter_special_bump():
    # the row already holds the letter and its successor: bump without change
    assert eg_insert_letter((1, 2, 3), 1) == ((1, 2, 3), 2, True)


def test_insert_letter_replace():
    assert eg_insert_letter((2, 4), 1) == ((1, 4), 2, False)


def scanning_insert_letter(row, a):
    # the letter step by a scan of the whole row
    larger = [v for v in row if v > a]
    if not larger:
        return row + (a,), None, False
    b = min(larger)
    if b == a + 1 and a in row:
        return row, b, True
    return tuple(a if v == b else v for v in row), b, False


def test_insert_letter_matches_the_row_scan():
    # every strictly increasing row over 1..6 and every letter 1..7
    specials = 0
    for size in range(7):
        for row in itertools.combinations(range(1, 7), size):
            for a in range(1, 8):
                expected = scanning_insert_letter(row, a)
                assert eg_insert_letter(row, a) == expected
                specials += expected[2]
    assert specials > 0


# ----------------------------------------------------------------------
# full insertion


def test_eg_insert_pinned_small(s4):
    pair = eg_insert(parse_factorization(s4, "(1)(2)(32)"))
    assert pair.p == tab((1, 3), (2,), (3,))
    assert pair.q == tab((1, 1), (2,), (3,))
    assert p_transpose_reading_word(pair.p) == (3, 1, 2, 3)
    assert s4.evaluate((3, 1, 2, 3)) == s4.evaluate((1, 2, 3, 2))


def test_eg_insert_singleton(s4):
    pair = eg_insert(parse_factorization(s4, "(3)"))
    assert pair.p == tab((3,)) and pair.q == tab((1,))
    assert p_transpose_reading_word(pair.p) == (3,)


def test_eg_insert_pinned_staircase(s4):
    pair = eg_insert(parse_factorization(s4, "(1)(21)(321)"))
    assert pair.p == tab((1, 2, 3), (2, 3), (3,))
    assert pair.q == tab((1, 1, 1), (2, 2), (3,))
    word = p_transpose_reading_word(pair.p)
    assert s4.evaluate(word) == s4.longest_element
    assert len(word) == 6


def test_shapes_agree_after_each_block(s4):
    for text in ["(32)(31)(2)", "(1)(2)(32)", "(3)(2)(31)"]:
        pair = eg_insert(parse_factorization(s4, text))
        assert pair.p.shape == pair.q.shape
        assert pair.q.is_semistandard()


def test_q_content_is_the_weight(s4):
    fz = parse_factorization(s4, "(32)(31)(2)")
    pair = eg_insert(fz)
    assert pair.q.content(fz.num_factors) == fz.weight()


def test_q_standard_for_singleton_blocks(s4):
    for word in s4.reduced_words(s4.longest_element):
        pair = eg_insert_word(s4, word)
        assert pair.q.is_standard()


def reference_insert(factorization):
    # each factorization inserted from empty tableaux, letter by letter
    p_rows, q_rows = [], []
    for block_index, block in enumerate(factorization.factors, start=1):
        for letter in reversed(block):
            row = 0
            while letter is not None:
                if row == len(p_rows):
                    p_rows.append(())
                    q_rows.append(())
                p_rows[row], letter, _ = scanning_insert_letter(p_rows[row], letter)
                row += 1
            q_rows[row - 1] += (block_index,)
    return EGPair(Tableau(tuple(p_rows)), Tableau(tuple(q_rows)))


@pytest.mark.parametrize("rank, num_factors", [(4, None), pytest.param(5, 5, marks=requires_s5)])
def test_insertion_walk_matches_per_vertex_insertion(rank, num_factors):
    # the walk resumes from the blocks a vertex shares with the one before
    # it; in the crystal's sorted order, in reverse order, one at a time and
    # through q_tableaux it must give the reference insertion of each vertex
    system = SymmetricGroup(rank)
    vertices = 0
    for g in system.elements():
        graph, q_of = q_tableaux(system, g, num_factors)
        expected = [reference_insert(v) for v in graph.vertices]
        assert list(eg_insert_all(graph.vertices)) == expected
        assert list(eg_insert_all(graph.vertices[::-1])) == expected[::-1]
        assert [eg_insert(v) for v in graph.vertices] == expected
        assert [q_of[v] for v in graph.vertices] == [pair.q for pair in expected]
        vertices += len(graph.vertices)
    assert vertices > (20_000 if rank == 5 else 500)


# ----------------------------------------------------------------------
# Coxeter-Knuth relations


def test_ck_neighbors_pinned():
    assert ck_neighbors((1, 2, 1)) == frozenset({(2, 1, 2)})
    assert ck_neighbors((2, 1, 3)) == frozenset({(2, 3, 1)})
    assert ck_neighbors((3, 1, 2)) == frozenset({(1, 3, 2)})
    assert ck_neighbors((1, 3)) == frozenset()


def test_ck_edge_kinds(s4):
    graph = ck_graph(s4, s4.evaluate((1, 2, 1)))
    assert graph.edges == (((1, 2, 1), (2, 1, 2), BRAID),)
    kinds = {kind for _, _, kind in ck_graph(s4, s4.longest_element).edges}
    assert kinds == {BRAID, MIDDLE_FIRST, MIDDLE_LAST}


def test_ck_graph_outside_type_a_is_an_error():
    # the braid move 121 -> 212 leaves the reduced words of the dihedral
    # group of order 8, whose longest element is 1212 = 2121
    d4 = Dihedral(4)
    with pytest.raises(ValueError, match="type A"):
        ck_graph(d4, d4.longest_element)


def test_ck_components_pinned(s3, s4):
    assert ck_components(s3, s3.longest_element) == (
        frozenset({(1, 2, 1), (2, 1, 2)}),
    )
    assert ck_components(s3, s3.generator(1)) == (frozenset({(1,)}),)
    # commuting letters in separate windows stay in separate classes,
    # matching the two crystal components
    assert ck_components(s4, s4.evaluate((1, 3))) == (
        frozenset({(1, 3)}),
        frozenset({(3, 1)}),
    )


def test_ck_edge_operator_identity(s3):
    assert ck_edge_operator_identity(s3, s3.longest_element).passed


# ----------------------------------------------------------------------
# intertwining


def test_intertwining_small(s3):
    assert intertwining_check(s3, s3.longest_element, 3).passed


def test_recording_tableau_is_the_crystal_isomorphism(s3):
    # the three-block crystal of w0 in S3 and the tableau crystal of shape
    # (2, 1) on entries 1..3: walking the same arrows from both highest
    # weights pairs each factorization with its recording tableau
    started = time.monotonic()
    left, q_of = q_tableaux(s3, s3.longest_element, 3)
    right = tableau_crystal((2, 1), 3)
    (left_top, _), = left.highest_weights()
    (right_top, _), = right.highest_weights()
    pairs = {(left_top, right_top)}
    frontier = [(left_top, right_top)]
    while frontier:
        nxt = []
        for a, b in frontier:
            for i in left.index_set:
                fa, fb = left.f(a, i), right.f(b, i)
                assert (fa is None) == (fb is None)
                if fa is not None and (fa, fb) not in pairs:
                    pairs.add((fa, fb))
                    nxt.append((fa, fb))
        frontier = nxt
    assert len(pairs) == 8
    assert all(q_of[a] == b for a, b in pairs)
    assert time.monotonic() - started < 1


@requires_s6
def test_intertwining_s6_w0():
    # every factorization of the S6 longest element into 6 blocks, under
    # all five colours
    s6 = SymmetricGroup(6)
    started = time.perf_counter()
    report = intertwining_check(s6, s6.longest_element, 6)
    assert report.passed, str(report)
    assert report.detail == "32768 vertices x 5 colours"
    assert time.perf_counter() - started < 10


def test_highest_weight_q_is_yamanouchi():
    assert is_yamanouchi(tab((1, 1), (2,)))
    assert not is_yamanouchi(tab((1, 2), (2,)))


def test_reading_words_are_reduced(s4):
    for g in s4.elements():
        for fz in factorization_crystal(s4, g).vertices:
            word = p_transpose_reading_word(eg_insert(fz).p)
            assert s4.evaluate(word) == g
            assert len(word) == s4.length(g)
