import itertools
import time

import pytest

from conftest import packed_q, requires_s5, requires_s6
from redwords import crystal, edelman_greene
from redwords.coxeter import Dihedral, SymmetricGroup
from redwords.crystal import CrystalGraph, DecreasingFactorization, factorization_crystal, parse_factorization
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
    eg_insert_word,
    intertwining_check,
    p_transpose_reading_word,
    same_p_tableau_iff_ck_equivalent,
)
from redwords.tableaux import (
    Tableau,
    crystal_e,
    crystal_f,
    generate_ssyt,
    tableau_crystal,
)


def tab(*rows):
    return Tableau(rows)


# ----------------------------------------------------------------------
# single-letter insertion


# a row goes in as one block and the letter as the next, so the walk's
# first row is the row rule's result and its second row the bumped letter


def test_insert_letter_append():
    assert walk_one(((3, 2, 1), (5,)), 7)[0] == (mask((1, 2, 3, 5)),)


def test_insert_letter_special_bump():
    # the row already holds the letter and its successor: bump without change
    assert walk_one(((3, 2, 1), (1,)), 7)[0] == (mask((1, 2, 3)), mask((2,)))


def test_insert_letter_replace():
    assert walk_one(((4, 2), (1,)), 7)[0] == (mask((1, 4)), mask((2,)))


def scanning_insert_letter(row, a):
    # the letter step by a scan of the whole row
    larger = [v for v in row if v > a]
    if not larger:
        return row + (a,), None, False
    b = min(larger)
    if b == a + 1 and a in row:
        return row, b, True
    return tuple(a if v == b else v for v in row), b, False


def mask(row):
    return sum(1 << a for a in row)


def walk_one(factors, top):
    (p, q), = edelman_greene._eg_walk([factors], top)
    return p, q


def test_mask_row_rule_matches_insert_letter():
    # every strictly increasing row over 1..7 and every letter 1..7, against
    # the row scan.  Where the scan would repeat a letter in the row, the
    # walk refuses
    cases = refused = 0
    for size in range(8):
        for row in itertools.combinations(range(1, 8), size):
            for a in range(1, 8):
                new_row, bumped, _ = scanning_insert_letter(row, a)
                factors = (row[::-1], (a,)) if row else ((a,),)
                if len(set(new_row)) < len(new_row):
                    with pytest.raises(ValueError, match=f"letter {a} meets itself in row 1 without {a + 1}"):
                        walk_one(factors, 7)
                    refused += 1
                else:
                    p, _ = walk_one(factors, 7)
                    assert p == (mask(new_row),) + (() if bumped is None else (1 << bumped,))
                cases += 1
    # a in the row without a+1: 2^5 rows for each a < 7, 2^6 for a = 7
    assert cases == 896 and refused == 6 * 2 ** 5 + 2 ** 6


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
        assert pair.q.is_semistandard() and pair.q.content(len(word)) == (1,) * len(word)


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


def packed(pair, top):
    # the walk's form of a pair of tableaux: P as row bitmasks, Q packed
    return tuple(map(mask, pair.p.rows)), packed_q(pair.q.rows, top)


@pytest.mark.parametrize("rank, num_factors", [(4, None), pytest.param(5, 5, marks=requires_s5)])
def test_insertion_walk_matches_per_vertex_insertion(rank, num_factors):
    # the walk resumes from the blocks a vertex shares with the one before
    # it; in the crystal's sorted order, in reverse order and one at a time
    # it must give the reference insertion of each vertex, packed as well
    # as decoded, and the shape and highest weight tests read the packed Q
    system = SymmetricGroup(rank)
    top = rank - 1
    vertices = highest = 0
    for g in system.elements():
        graph = factorization_crystal(system, g, num_factors)
        expected = [reference_insert(v) for v in graph.vertices]
        factors = [v.factors for v in graph.vertices]
        walked = list(edelman_greene._eg_walk(factors, top))
        assert walked == [packed(pair, top) for pair in expected]
        assert list(edelman_greene._eg_walk(factors[::-1], top)) == walked[::-1]
        assert list(eg_insert_all(graph.vertices)) == expected
        assert [eg_insert(v) for v in graph.vertices] == expected
        heads = {v for v, _ in graph.highest_weights()}
        for v, (_, q), pair in zip(graph.vertices, walked, expected):
            assert edelman_greene._q_shape(q, top) == pair.q.shape
            yamanouchi = all(entry == r + 1 for r, row in enumerate(pair.q.rows) for entry in row)
            assert edelman_greene._is_yamanouchi(q, top) == yamanouchi
            assert yamanouchi or v not in heads
            highest += v in heads
        vertices += len(graph.vertices)
    assert vertices > (20_000 if rank == 5 else 500) and highest > 0


def assert_walk_matches_lone_walks(system, w, num_factors):
    # the walk's (P, block) table, filled from the second tuple on, gives
    # each tuple what walking it alone from empty tableaux gives
    top = max(system.index_set)
    factors = [v.factors for v in factorization_crystal(system, w, num_factors).vertices]
    assert list(edelman_greene._eg_walk(factors, top)) == [walk_one(blocks, top) for blocks in factors]
    return len(factors)


def test_memoised_walk_matches_lone_walks_s5():
    s5 = SymmetricGroup(5)
    vertices = sum(assert_walk_matches_lone_walks(s5, g, 5) for g in s5.elements())
    assert vertices == 24047  # F_w at five ones, summed over the 120 elements


@requires_s6
def test_memoised_walk_matches_lone_walks_s6_w0():
    s6 = SymmetricGroup(6)
    assert assert_walk_matches_lone_walks(s6, s6.longest_element, 6) == 32768


def test_a_walk_refuses_a_later_tuple_as_a_lone_walk_does():
    # the table is in use from the second tuple on; a block that is not
    # reduced there raises the lone walk's error
    message = "letter 1 meets itself in row 1 without 2: the word is not reduced"
    with pytest.raises(ValueError, match=message):
        walk_one(((1,), (1,)), 3)
    walk = edelman_greene._eg_walk([((1,), (2,)), ((1,), (3,)), ((2,), (1,)), ((1,), (1,))], 3)
    assert [next(walk) for _ in range(3)] == [walk_one(blocks, 3) for blocks in [((1,), (2,)), ((1,), (3,)), ((2,), (1,))]]
    with pytest.raises(ValueError, match=message):
        next(walk)


def test_a_pair_decodes_q_on_first_read(s4):
    # eg_insert_word keeps Q packed; the pair is the value of its two
    # tableaux before and after the decoding, copied and pickled as well
    import copy
    import pickle

    word = s4.reduced_words(s4.longest_element)[7]
    expected = reference_insert(DecreasingFactorization(tuple(zip(reversed(word))), s4.longest_element))
    for read_q_first in (False, True):
        pair = eg_insert_word(s4, word)
        if read_q_first:
            assert pair.q == expected.q
        for other in (pair, copy.copy(pair), copy.deepcopy(pair), pickle.loads(pickle.dumps(pair))):
            assert other == expected and hash(other) == hash(expected) and repr(other) == repr(expected)
            assert (other.p, other.q) == (expected.p, expected.q)


def test_non_reduced_input_is_refused(s4):
    with pytest.raises(ValueError, match="11 is not a reduced word of SymmetricGroup"):
        eg_insert_word(s4, (1, 1))
    with pytest.raises(ValueError, match="2323 is not a reduced word"):
        eg_insert_word(s4, (2, 3, 2, 3))
    with pytest.raises(ValueError, match="letter 0 is not a generator of SymmetricGroup\\(4\\)"):
        eg_insert_word(s4, (0,))
    # a factorization that is not reduced: the letter meets itself
    with pytest.raises(ValueError, match="letter 1 meets itself in row 1 without 2"):
        eg_insert(DecreasingFactorization(((1,), (1,)), None))
    # 1, 2, 1 leave rows 12 and 2; the next 1 bumps 2 into the second row
    with pytest.raises(ValueError, match="letter 2 meets itself in row 2 without 3"):
        walk_one(((1,), (2,), (1,), (1,)), 3)


def test_eg_insert_refuses_a_letter_below_one():
    with pytest.raises(ValueError, match="letter below 1"):
        eg_insert(DecreasingFactorization(((1, 0),), None))


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


def reference_p_classes(system, w):
    # each reduced word inserted on its own by the reference insertion
    by_p = {}
    for word in system.reduced_words(w):
        by_p.setdefault(reference_insert(DecreasingFactorization(tuple(zip(reversed(word))), w)).p, set()).add(word)
    return {frozenset(group) for group in by_p.values()}


@pytest.mark.parametrize("rank", [4, pytest.param(5, marks=requires_s5)])
def test_same_p_classes_match_per_word_insertion(rank):
    # one walk over the sorted singleton-block tuples groups the words as
    # inserting each word alone does, and the positional union-find gives
    # the relation classes
    system = SymmetricGroup(rank)
    for g in system.elements():
        p_classes = reference_p_classes(system, g)
        ck_classes = ck_components(system, g)
        assert p_classes == set(ck_classes)
        report = same_p_tableau_iff_ck_equivalent(system, g)
        assert report.passed
        assert report.detail == f"{len(p_classes)} insertion classes vs {len(ck_classes)} relation classes"


def reference_word_classes(system, w, graph):
    # each word embedded as a whole factorization and looked up by the
    # component map of the graph's vertices
    comp_of = {v: k for k, comp in enumerate(graph.components()) for v in comp}
    by_component = {}
    for word in system.reduced_words(w):
        vertex = DecreasingFactorization(tuple(zip(reversed(word))) or ((),), w)
        by_component.setdefault(comp_of[vertex], set()).add(word)
    return {frozenset(group) for group in by_component.values()}


def test_component_correspondence_by_position_matches_the_object_lookup(s3, s4):
    # each word's singleton-block tuple is looked up by position; the
    # classes it induces are those of embedding each word as a
    # factorization, and a graph with its arrows removed splits them
    split = 0
    for system in (SymmetricGroup(2), s3, s4):
        for g in system.elements():
            graph = factorization_crystal(system, g)
            classes = reference_word_classes(system, g, graph)
            ck_classes = ck_components(system, g)
            assert classes == set(ck_classes)
            report = edelman_greene._component_correspondence(system, g, graph)
            assert report.passed
            assert report.detail == f"{len(graph.components())} crystal components, {len(ck_classes)} word classes"
            bare = CrystalGraph(graph.vertices, graph.index_set, [[-1] * len(graph.vertices) for _ in graph.index_set],
                                graph.weight)
            if any(len(c) > 1 for c in ck_classes):
                assert not edelman_greene._component_correspondence(system, g, bare).passed
                split += 1
    assert split > 10


def test_same_p_outside_type_a_is_an_error():
    d4 = Dihedral(4)
    with pytest.raises(ValueError, match="type A"):
        same_p_tableau_iff_ck_equivalent(d4, d4.longest_element)


def test_ck_edge_operator_identity(s3):
    assert ck_edge_operator_identity(s3, s3.longest_element).passed


def reference_ck_edge_failures(system, w):
    # the identity on DecreasingFactorization objects, each partner built
    # from its word and evaluated, so a partner that spells another element
    # differs in its target
    words = system.reduced_words(w)
    k = system.length(w)
    failures = 0
    for word in words:
        source = DecreasingFactorization(tuple(zip(reversed(word))), w)
        for j in range(k - 2):
            x, y, z = word[j:j + 3]
            partner = None
            if x == z and y == x - 1:
                partner = word[:j] + (y, x, y) + word[j + 3:]
            elif y < x < z:
                partner = word[:j] + (x, z, y) + word[j + 3:]
            elif y < z < x:
                partner = word[:j] + (y, x, z) + word[j + 3:]
            if partner is None:
                continue
            m = k - j - 2
            cur = source.e(m + 1)
            cur = cur.e(m) if cur is not None else None
            cur = cur.f(m + 1) if cur is not None else None
            cur = cur.f(m) if cur is not None else None
            failures += cur != DecreasingFactorization(tuple(zip(reversed(partner))), system.evaluate(partner))
    return failures


def ck_edge_cases():
    for n in (2, 3, 4):
        system = SymmetricGroup(n)
        yield from ((system, g) for g in system.elements())
    d4 = Dihedral(4)
    yield d4, d4.longest_element  # braid windows turn 2121 and 1212 into 1211 and 1121, not reduced


def test_ck_edge_identity_on_blocks_matches_the_object_identity():
    verdicts = set()
    for system, g in ck_edge_cases():
        failures = reference_ck_edge_failures(system, g)
        report = ck_edge_operator_identity(system, g)
        assert report.passed == (failures == 0)
        assert report.detail == (f"{failures} failing windows" if failures else "all windows verified")
        verdicts.add(report.passed)
    assert verdicts == {True, False}


@requires_s5
def test_ck_edge_identity_on_blocks_matches_the_object_identity_s5():
    s5 = SymmetricGroup(5)
    for g in s5.elements():
        if s5.length(g) >= 5:
            assert reference_ck_edge_failures(s5, g) == 0
            assert ck_edge_operator_identity(s5, g).passed


def test_a_wrong_operator_fails_the_ck_edge_identity(monkeypatch, s4):
    monkeypatch.setattr(edelman_greene, "_lowered", crystal._raised)
    assert not ck_edge_operator_identity(s4, s4.longest_element).passed


# ----------------------------------------------------------------------
# intertwining


def test_intertwining_small(s3):
    assert intertwining_check(s3, s3.longest_element, 3).passed


def test_intertwining_reads_a_held_crystal(monkeypatch, s4):
    # the same report with the crystal held as without; while a caller
    # holds it, factorization_crystal gives that object back and the check
    # fills only its e rows, and no graph outlives its last holder
    w0 = s4.longest_element
    alone = intertwining_check(s4, w0, 4)
    assert alone.passed and not s4._crystals
    graph = factorization_crystal(s4, w0, 4)
    assert factorization_crystal(s4, w0, 4) is graph and factorization_crystal(s4, w0, 3) is not graph
    fill = crystal._operator_rows
    filled = []

    def counted(sequences, position, index_set, name, step):
        filled.append(name)
        return fill(sequences, position, index_set, name, step)

    monkeypatch.setattr(crystal, "_operator_rows", counted)
    monkeypatch.setattr(edelman_greene, "_operator_rows", counted)
    assert intertwining_check(s4, w0, 4) == alone
    assert filled == ["e"]
    del graph
    assert not s4._crystals
    assert intertwining_check(s4, w0, 4) == alone
    assert filled == ["e", "f", "e"]


def test_recording_tableau_is_the_crystal_isomorphism(s3):
    # the three-block crystal of w0 in S3 and the tableau crystal of shape
    # (2, 1) on entries 1..3: walking the same arrows from both highest
    # weights pairs each factorization with its recording tableau
    started = time.monotonic()
    left = factorization_crystal(s3, s3.longest_element, 3)
    q_of = {v: pair.q for v, pair in zip(left.vertices, eg_insert_all(left.vertices))}
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


def reference_intertwining_failures(graph, q_of):
    # the object-level loop: f read from the graph, e applied to each
    # factorization, and the tableau operators applied to each Tableau
    failures = 0
    for v in graph.vertices:
        q = q_of[v]
        for i in graph.index_set:
            down, q_down = graph.f(v, i), crystal_f(q, i)
            if (down is None) != (q_down is None):
                failures += 1
            elif down is not None and q_of[down].rows != q_down.rows:
                failures += 1
            up, q_up = v.e(i), crystal_e(q, i)
            if (up is None) != (q_up is None):
                failures += 1
            elif up is not None and q_of[up].rows != q_up.rows:
                failures += 1
    return failures


def intertwining_detail(graph, failures):
    return (f"{len(graph.vertices)} vertices x {len(graph.index_set)} colours"
            + (f", {failures} failures" if failures else ""))


def assert_positional_loop_matches_object_loop(system, g, num_factors):
    # the same verdict and failure count on Q, and again with P in place
    # of Q (the insertion tableau fault of the verify suite), P's letters
    # packed as Q's block indices
    top = system.n - 1
    graph = factorization_crystal(system, g, num_factors)
    pairs = list(eg_insert_all(graph.vertices))
    q_of = {v: pair.q for v, pair in zip(graph.vertices, pairs)}
    p_of = {v: pair.p for v, pair in zip(graph.vertices, pairs)}

    failures = reference_intertwining_failures(graph, q_of)
    report = intertwining_check(system, g, num_factors)
    assert report.passed == (failures == 0)
    assert report.detail == intertwining_detail(graph, failures)
    qs = [packed_q(q.rows, top) for q in q_of.values()]
    assert edelman_greene._intertwining(qs, graph.f_rows, graph.e_rows, graph.index_set, top) == report

    failures = reference_intertwining_failures(graph, p_of)
    ps = [packed_q(p.rows, top) for p in p_of.values()]
    report = edelman_greene._intertwining(ps, graph.f_rows, graph.e_rows, graph.index_set, top)
    assert report.passed == (failures == 0)
    assert report.detail == intertwining_detail(graph, failures)
    return failures


def test_positional_intertwining_matches_the_object_loop():
    p_failures = 0
    for n in (2, 3, 4):
        system = SymmetricGroup(n)
        for g in system.elements():
            p_failures += assert_positional_loop_matches_object_loop(system, g, None)
    assert p_failures > 0


@requires_s5
def test_positional_intertwining_matches_the_object_loop_s5():
    s5 = SymmetricGroup(5)
    p_failures = 0
    for g in s5.elements():
        if s5.length(g) >= 5:
            p_failures += assert_positional_loop_matches_object_loop(s5, g, 5)
    assert p_failures > 0


@pytest.mark.parametrize("table, wrong", [("_lowered", crystal._raised), ("_raised", crystal._lowered)])
def test_a_wrong_operator_side_fails_the_intertwining(monkeypatch, s3, table, wrong):
    # f read from e's table, or e from f's: every image is still a vertex;
    # f comes from the crystal, so its table is patched there
    monkeypatch.setattr(crystal if table == "_lowered" else edelman_greene, table, wrong)
    report = intertwining_check(s3, s3.longest_element, 3)
    assert not report.passed and "failures" in report.detail


def intertwining_on_rows(graph, top, e_rows=None):
    # the verify suite's call: the crystal's own rows and its vertices' Q
    # from one insertion walk
    qs = [q for _, q in edelman_greene._eg_walk([v.factors for v in graph.vertices], top)]
    e_rows = graph.e_rows if e_rows is None else e_rows
    return edelman_greene._intertwining(qs, graph.f_rows, e_rows, graph.index_set, top)


@pytest.mark.parametrize("rank, num_factors", [(4, None), (5, 5)])
def test_intertwining_on_crystal_rows_matches_the_check(rank, num_factors):
    # e read off the graph's rows (the inverse of f) and e filled from the
    # raising table give one report on every element
    system = SymmetricGroup(rank)
    for g in system.elements():
        graph = factorization_crystal(system, g, num_factors)
        assert intertwining_on_rows(graph, rank - 1) == intertwining_check(system, g, num_factors)


def test_a_wrong_e_row_fails_the_intertwining_on_rows(s4):
    # one e row with a defined entry and an undefined one swapped
    graph = factorization_crystal(s4, s4.longest_element)
    assert intertwining_on_rows(graph, 3).passed
    e_rows = [row[:] for row in graph.e_rows]
    row = e_rows[0]
    k, undefined = next(k for k, t in enumerate(row) if t >= 0), row.index(-1)
    row[k], row[undefined] = row[undefined], row[k]
    report = intertwining_on_rows(graph, 3, e_rows)
    assert not report.passed and report.detail.endswith(", 2 failures")


@pytest.mark.parametrize("table, name", [("_lowered", "f"), ("_raised", "e")])
def test_an_image_outside_the_vertices_is_refused(monkeypatch, s3, table, name):
    # f is refused where the crystal fills its rows, e where the check does
    monkeypatch.setattr(crystal if table == "_lowered" else edelman_greene, table, lambda upper, lower: ((9,), lower))
    with pytest.raises(ValueError, match=rf"{name}_\d maps \(.*\) outside the vertex set"):
        intertwining_check(s3, s3.longest_element, 3)


def signature(tableau, i):
    # the per-colour bracketing: (surviving i cells, surviving i+1 cells)
    # in reading order, bottom row up
    opens, closers = [], []
    for r in range(len(tableau.rows) - 1, -1, -1):
        for c, v in enumerate(tableau.rows[r]):
            if v == i + 1:
                opens.append((r, c))
            elif v == i:
                if opens:
                    opens.pop()
                else:
                    closers.append((r, c))
    return closers, opens


def with_entry(tableau, cell, value):
    rows = [list(row) for row in tableau.rows]
    rows[cell[0]][cell[1]] = value
    return tuple(map(tuple, rows))


@pytest.mark.parametrize("shape, count", [((3, 2, 1), 280), ((2, 2, 1), 75)])
def test_all_colour_bracket_matches_the_per_colour_signature(shape, count):
    # crystal_f and crystal_e under every colour: f_i changes the last
    # surviving i into i+1 and e_i the first surviving i+1 into i; colour
    # 6 meets the single entry value 5
    tableaux = generate_ssyt(shape, 5)
    assert len(tableaux) == count
    for t in tableaux:
        for i in range(1, 7):
            closers, opens = signature(t, i)
            assert crystal_f(t, i) == (tab(*with_entry(t, closers[-1], i + 1)) if closers else None)
            assert crystal_e(t, i) == (tab(*with_entry(t, opens[0], i)) if opens else None)


@pytest.mark.parametrize("shape, count", [((3, 2, 1), 280), ((2, 2, 1), 75)])
def test_packed_bracket_matches_the_all_colour_bracket(shape, count):
    # each SSYT with entries up to 5 packed as Q for letters in 1..4: the
    # change the two-column bracketing adds for f_i and e_i is the packed
    # tableau changed at the cell the signature names, less the packed
    # tableau, and None exactly where there is no such cell
    top = 4
    stride = top * top.bit_length()
    tableaux = generate_ssyt(shape, 5)
    assert len(tableaux) == count
    changed = 0
    for t in tableaux:
        q = packed_q(t.rows, top)
        for i in range(1, 5):
            closers, opens = signature(t, i)
            cells = (closers[-1] if closers else None, opens[0] if opens else None)
            f_change, e_change = edelman_greene._bracket_changes(q >> (i - 1) * stride & (1 << 2 * stride) - 1, top)
            for cell, value, change in zip(cells, (i + 1, i), (f_change, e_change)):
                if cell is None:
                    assert change is None
                else:
                    assert q + (change << (i - 1) * stride) == packed_q(with_entry(t, cell, value), top)
                    changed += 1
    assert changed > count


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
    assert edelman_greene._is_yamanouchi(packed_q(((1, 1), (2,)), 3), 3)
    assert not edelman_greene._is_yamanouchi(packed_q(((1, 2), (2,)), 3), 3)
    assert not edelman_greene._is_yamanouchi(packed_q(((1,), (3,)), 3), 3)


def test_reading_words_are_reduced(s4):
    for g in s4.elements():
        for fz in factorization_crystal(s4, g).vertices:
            word = p_transpose_reading_word(eg_insert(fz).p)
            assert s4.evaluate(word) == g
            assert len(word) == s4.length(g)
