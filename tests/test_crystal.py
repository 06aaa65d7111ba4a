import pytest
from hypothesis import given, strategies as st

from conftest import requires_s5
from redwords import crystal
from redwords.coxeter import SymmetricGroup
from redwords.crystal import (
    CrystalGraph,
    DecreasingFactorization,
    _block_sequences,
    _bracket,
    _check_block,
    _inserted,
    decreasing_factorizations,
    factorization_crystal,
    highest_weight_factorizations,
    parse_factorization,
    stembridge_violations,
)
from redwords.edelman_greene import ck_components, ck_graph
from redwords.tableaux import crystal_e, crystal_f, tableau_crystal


def fz(system, *display_blocks):
    word = tuple(letter for block in display_blocks for letter in block)
    return DecreasingFactorization.from_display(display_blocks, system.evaluate(word))


# the full crystal on three blocks for the longest element of S3:
# eight vertices, eight labelled arrows, one highest weight
# (blocks written left to right, highest block first)
S3_VERTICES = [
    ((), (1,), (2, 1)),
    ((), (2, 1), (2,)),
    ((2,), (1,), (2,)),
    ((2, 1), (), (2,)),
    ((2, 1), (2,), ()),
    ((1,), (), (2, 1)),
    ((1,), (2,), (1,)),
    ((1,), (2, 1), ()),
]
S3_EDGES = [
    (((), (1,), (2, 1)), 1, ((), (2, 1), (2,))),
    (((), (1,), (2, 1)), 2, ((1,), (), (2, 1))),
    (((), (2, 1), (2,)), 2, ((2,), (1,), (2,))),
    (((2,), (1,), (2,)), 2, ((2, 1), (), (2,))),
    (((1,), (), (2, 1)), 1, ((1,), (2,), (1,))),
    (((1,), (2,), (1,)), 1, ((1,), (2, 1), ())),
    (((2, 1), (), (2,)), 1, ((2, 1), (2,), ())),
    (((1,), (2, 1), ()), 2, ((2, 1), (2,), ())),
]


def test_validation_rejects_non_decreasing(s4):
    with pytest.raises(ValueError):
        DecreasingFactorization(((1, 2),), s4.identity)
    with pytest.raises(ValueError):
        DecreasingFactorization(((2, 1), (3, 3)), s4.identity)


def test_validate_against_system(s4):
    good = fz(s4, (3, 2), (3, 1), (2,))
    good.validate(s4)
    bad = DecreasingFactorization(((1,), (1,)), s4.generator(1))
    with pytest.raises(ValueError):
        bad.validate(s4)


def test_weight_and_display(s4):
    x = fz(s4, (3, 2), (3, 1), (2,))
    assert x.weight() == (1, 2, 2)
    assert x.display_factors() == ((3, 2), (3, 1), (2,))
    assert str(x) == "(s3*s2, s3*s1, s2)"
    assert x.compact() == "(32)(31)(2)"


def test_compact_separates_multi_digit_letters():
    s12 = SymmetricGroup(12)
    x = DecreasingFactorization.from_display(((11, 10), (), (2,)), s12.evaluate((11, 10, 2)))
    assert x.compact() == "(11,10)()(2)"
    assert parse_factorization(s12, x.compact()) == x
    # a lone two-digit letter keeps a trailing comma, so it reads back
    y = DecreasingFactorization.from_display(((10,), (2,)), s12.evaluate((10, 2)))
    assert y.compact() == "(10,)(2)"
    assert parse_factorization(s12, y.compact()) == y


def test_parse_factorization_roundtrip(s4):
    x = parse_factorization(s4, "(32)(31)(2)")
    assert x == fz(s4, (3, 2), (3, 1), (2,))
    assert parse_factorization(s4, "1(1)(21)").display_factors() == ((), (1,), (2, 1))
    assert parse_factorization(s4, "()(1)(21)").display_factors() == ((), (1,), (2, 1))
    with pytest.raises(ValueError):
        parse_factorization(s4, "(12)")  # increasing block
    with pytest.raises(ValueError):
        parse_factorization(s4, "(2)(2)x")


def test_pairing_pinned(s4, s3):
    # the unpaired letters of blocks i+1 (upper) and i (lower), decreasing
    x = fz(s4, (3, 2), (3, 1), (2,))
    assert _bracket(x.factors[2], x.factors[1]) == ([3], [1])
    # one block empty: everything on the other side is unpaired
    y = fz(s3, (), (2, 1))
    assert _bracket(y.factors[1], y.factors[0]) == ([], [2, 1])
    # equal letters only pair with strictly larger ones
    z = fz(s3, (2,), (2,))
    assert _bracket(z.factors[1], z.factors[0]) == ([2], [2])


def test_raising_operator_pinned(s4):
    x = fz(s4, (3, 2), (3, 1), (2,))
    assert x.e(2) == fz(s4, (2,), (3, 2, 1), (2,))
    assert x.f(2) == fz(s4, (3, 2, 1), (3,), (2,))
    assert x.epsilon(2) == 1


def test_highest_weight_is_killed(s3):
    top = fz(s3, (), (1,), (2, 1))
    assert top.e(1) is None and top.e(2) is None
    assert top.epsilon(1) == top.epsilon(2) == 0


def test_lowering_matches_listing(s3):
    top = fz(s3, (), (1,), (2, 1))
    assert top.f(1) == fz(s3, (), (2, 1), (2,))
    # phi - epsilon balances the weight difference on a symmetric vertex
    mid = fz(s3, (2,), (1,), (2,))
    for i in (1, 2):
        assert mid.phi(i) - mid.epsilon(i) == 0


def test_full_s3_crystal_structure(s3):
    graph = factorization_crystal(s3, s3.longest_element, 3)
    assert {v.display_factors() for v in graph.vertices} == set(S3_VERTICES)
    got_edges = {
        (u.display_factors(), i, v.display_factors()) for u, i, v in graph.edges()
    }
    assert got_edges == set(S3_EDGES)
    assert len(graph.components()) == 1
    hw = graph.highest_weights()
    assert len(hw) == 1
    assert hw[0][0].display_factors() == ((), (1,), (2, 1))
    assert hw[0][1] == (2, 1, 0)


def test_single_block_crystal_has_no_edges(s3):
    graph = factorization_crystal(s3, s3.generator(1), 1)
    assert len(graph.vertices) == 1
    assert graph.f_edges == {}


def test_enumeration_counts(s3, s4):
    assert len(list(decreasing_factorizations(s3, s3.longest_element, 3))) == 8
    # two-component example: the commuting product of two letters
    w = s4.evaluate((1, 3))
    graph = factorization_crystal(s4, w, 2)
    assert len(graph.vertices) == 4
    assert len(graph.components()) == 2


def test_operators_preserve_target_and_reducedness(s4):
    for g in [s4.evaluate((1, 2, 3, 2)), s4.longest_element]:
        graph = factorization_crystal(s4, g)
        for (u, i), v in graph.f_edges.items():
            assert v.target == u.target == g
            v.validate(s4)
            assert sum(v.weight()) == s4.length(g)


def test_highest_weights_pinned(s3, s4):
    top = highest_weight_factorizations(s3, s3.longest_element, 3)
    assert [(t.factors, t.weight()) for t in top] == [(((2, 1), (1,), ()), (2, 1, 0))]
    w = s4.evaluate((1, 2, 3, 2))
    at3 = highest_weight_factorizations(s4, w, 3)
    assert [(t.display_factors(), t.weight()) for t in at3] == [
        (((1,), (2,), (3, 2)), (2, 1, 1))
    ]
    at4 = highest_weight_factorizations(s4, w, 4)
    assert [(t.display_factors(), t.weight()) for t in at4] == [
        (((), (1,), (2,), (3, 2)), (2, 1, 1, 0))
    ]
    single = highest_weight_factorizations(s4, s4.generator(1), 1)
    assert [t.weight() for t in single] == [(1,)]


def test_highest_weights_match_slow_filter(s4):
    # oracle: filter the full enumeration through the raising operators
    for g in [s4.evaluate((1, 2, 3, 2)), s4.evaluate((2, 1, 3)), s4.longest_element]:
        num = max(1, s4.length(g))
        slow = sorted(
            (
                x
                for x in decreasing_factorizations(s4, g, num)
                if all(x.e(i) is None for i in range(1, num))
            ),
            key=lambda x: x.factors,
        )
        assert highest_weight_factorizations(s4, g, num) == slow


def cut_into_blocks(word, num_factors):
    """Every way to cut ``word`` into ``num_factors`` consecutive strictly
    decreasing pieces, empty pieces allowed, rightmost piece first."""
    if num_factors == 1:
        if all(a > b for a, b in zip(word, word[1:])):
            yield (tuple(word),)
        return
    for k in range(len(word) + 1):
        head, block = word[:k], word[k:]
        if all(a > b for a, b in zip(block, block[1:])):
            for rest in cut_into_blocks(head, num_factors - 1):
                yield (tuple(block),) + rest


@pytest.mark.parametrize("pruned", [False, True])
def test_block_sequences_are_the_sorted_cuts_of_the_reduced_words(s4, pruned):
    # the stack walk over the peel tables yields, in increasing order, the
    # block tuples that cutting every reduced word into decreasing pieces
    # gives; with the highest-weight pruning, those whose every block
    # leaves no upper letter unpaired against the block to its right
    admissible = crystal._all_upper_paired if pruned else None
    tuples = 0
    for system in (SymmetricGroup(2), SymmetricGroup(3), s4):
        for g in system.elements():
            for num_factors in (None, 1, 2, 3, 4, 6):
                blocks = num_factors or crystal.default_num_factors(system, g)
                cuts = {cut for word in system.reduced_words(g) for cut in cut_into_blocks(word, blocks)}
                if pruned:
                    cuts = {cut for cut in cuts if all(admissible(cut[d], cut[d - 1]) for d in range(1, blocks))}
                walked = list(_block_sequences(system, g, num_factors, admissible))
                assert walked == sorted(cuts)
                tuples += len(walked)
    assert tuples > (100 if pruned else 5_000)


def test_s5_crystal_pinned():
    # the five-block crystal of the S5 longest element is one copy of the
    # staircase highest weight, matching its single Coxeter-Knuth class
    s5 = SymmetricGroup(5)
    w0 = s5.longest_element
    graph = factorization_crystal(s5, w0, 5)
    assert len(graph.vertices) == 1024
    assert len(graph.f_edges) == 2304
    assert [weight for _, weight in graph.highest_weights()] == [(4, 3, 2, 1, 0)]
    assert len(graph.components()) == 1 == len(ck_components(s5, w0))


# ----------------------------------------------------------------------
# the bracketing kernel and the operators built on it


def quadratic_bracket(upper, lower):
    """The bracketing by its definition: each upper letter, largest first,
    takes the smallest unused strictly larger lower letter."""
    lower_set = set(lower)
    used = set()
    unpaired_upper = []
    for b in sorted(upper, reverse=True):
        candidates = [a for a in lower_set - used if a > b]
        if candidates:
            used.add(min(candidates))
        else:
            unpaired_upper.append(b)
    return tuple(sorted(unpaired_upper)), tuple(sorted(lower_set - used))


letter_sets = st.sets(st.integers(min_value=1, max_value=14), max_size=9)


@given(letter_sets, letter_sets)
def test_merge_bracket_matches_quadratic_definition(upper, lower):
    expected = quadratic_bracket(upper, lower)
    left, right = _bracket(tuple(sorted(upper, reverse=True)), tuple(sorted(lower, reverse=True)))
    assert (tuple(left[::-1]), tuple(right[::-1])) == expected


def _operator_crystals():
    s4 = SymmetricGroup(4)
    for g in s4.elements():
        yield s4, factorization_crystal(s4, g)
    s5 = SymmetricGroup(5)
    yield s5, factorization_crystal(s5, s5.longest_element, 5)


def test_operator_images_equal_their_public_construction():
    # e and f build their images without re-checking untouched blocks; each
    # must equal, and hash like, the same factorization built and checked
    # through the public constructor
    images = 0
    for system, graph in _operator_crystals():
        for v in graph.vertices:
            for i in graph.index_set:
                for image in (v.e(i), v.f(i)):
                    if image is None:
                        continue
                    rebuilt = DecreasingFactorization(image.factors, image.target)
                    assert image == rebuilt and hash(image) == hash(rebuilt)
                    assert rebuilt in {image}
                    image.validate(system)
                    images += 1
    assert images > 2 * 2304


def test_operators_reject_a_non_reduced_factorization(s3):
    # (s1)(s1) is not reduced; moving the unpaired letter would repeat a
    # letter in one block, which is an error, not a silent result
    bad = DecreasingFactorization(((1,), (1,)), s3.identity)
    with pytest.raises(ValueError):
        bad.e(1)
    with pytest.raises(ValueError):
        bad.f(1)


# ----------------------------------------------------------------------
# the block-pair tables against the operators that bracket on every call


def bracketing_e(fz, i):
    # e_i as it was before the pair table: bracket, move, check, splice
    upper, lower = fz.factors[i], fz.factors[i - 1]
    left, _ = _bracket(upper, lower)
    if not left:
        return None
    b = left[-1]
    k = upper.index(b)
    t = 0
    while k + t + 1 < len(upper) and upper[k + t + 1] == b - t - 1:
        t += 1
    return _bracketing_spliced(fz, i, upper[:k] + upper[k + 1:], _inserted(lower, b - t))


def bracketing_f(fz, i):
    upper, lower = fz.factors[i], fz.factors[i - 1]
    _, right = _bracket(upper, lower)
    if not right:
        return None
    a = right[0]
    k = lower.index(a)
    s = 0
    while s < k and lower[k - s - 1] == a + s + 1:
        s += 1
    return _bracketing_spliced(fz, i, _inserted(upper, a + s), lower[:k] + lower[k + 1:])


def _bracketing_spliced(fz, i, upper, lower):
    _check_block(upper)
    _check_block(lower)
    return DecreasingFactorization(fz.factors[:i - 1] + (lower, upper) + fz.factors[i + 1:], fz.target)


def bracketing_highest_weights(system, w, num_factors):
    found = _block_sequences(
        system, w, num_factors, lambda block, previous: not _bracket(block, previous)[0]
    )
    return sorted((DecreasingFactorization(blocks, w) for blocks in found), key=lambda fz: fz.factors)


def _outcome(operator, fz, i):
    try:
        return operator(fz, i)
    except ValueError as error:
        return ("ValueError", str(error))


def _table_cases():
    s4 = SymmetricGroup(4)
    for num_factors in (4, 5, 6):
        for g in s4.elements():
            yield s4, g, num_factors
    s5 = SymmetricGroup(5)
    for g in s5.elements():
        yield s5, g, 5


def test_pair_tables_match_the_bracketing_operators():
    # e, f and the pruned highest-weight enumeration read the tables of
    # _raised, _lowered and _all_upper_paired; each must give what
    # bracketing the two blocks afresh gives, on every factorization of
    # every S4 element with 4-6 blocks and every S5 element with 5 blocks
    images = 0
    for system, g, num_factors in _table_cases():
        assert highest_weight_factorizations(system, g, num_factors) == \
            bracketing_highest_weights(system, g, num_factors)
        for x in decreasing_factorizations(system, g, num_factors):
            for i in range(1, num_factors):
                for ours, reference in ((x.e(i), bracketing_e(x, i)), (x.f(i), bracketing_f(x, i))):
                    assert ours == reference
                    images += ours is not None
    assert images > 100_000


def test_pair_tables_match_on_every_pair_of_blocks():
    # all 256 pairs of strictly decreasing blocks on the letters 1..4,
    # reduced or not: the same image, or the same ValueError when the move
    # would repeat a letter in a block
    blocks = [()]
    for letter in range(1, 5):
        blocks += [(letter,) + block for block in blocks]
    assert len(blocks) == 16
    errors = 0
    for upper in blocks:
        for lower in blocks:
            x = DecreasingFactorization((lower, upper), None)
            for ours, reference in (
                (DecreasingFactorization.e, bracketing_e),
                (DecreasingFactorization.f, bracketing_f),
            ):
                expected = _outcome(reference, x, 1)
                assert _outcome(ours, x, 1) == expected, (upper, lower)
                errors += isinstance(expected, tuple)
    assert errors > 0


# ----------------------------------------------------------------------
# the graph holds one object per vertex


def test_edge_targets_are_the_vertices_themselves():
    # each f-image is stored as the vertex equal to it, not as a fresh copy
    s5 = SymmetricGroup(5)
    for graph in (factorization_crystal(s5, s5.longest_element, 5), tableau_crystal((2, 1, 1), 4)):
        ids = {id(v) for v in graph.vertices}
        assert graph.f_edges and all(id(target) in ids for target in graph.f_edges.values())
        assert all(id(source) in ids for source, _ in graph.f_edges)


def test_f_edges_and_weights_are_views_of_the_rows(s4):
    # the mapping (vertex, i) -> vertex, read from the f rows, lists the
    # images the operator gives, vertex by vertex, label by label; weights
    # are those of the weight function, and from_lowering reads the graph's
    # own f back into the same rows
    for graph, lower, weight in (
        (factorization_crystal(s4, s4.longest_element, 4), DecreasingFactorization.f,
         DecreasingFactorization.weight),
        (tableau_crystal((2, 1), 3), crystal_f, lambda t: t.content(3)),
    ):
        edges = {(v, i): lower(v, i) for v in graph.vertices for i in graph.index_set if lower(v, i) is not None}
        assert len(graph.f_edges) == len(edges) == len(graph.edges()) > 0
        assert list(graph.f_edges.items()) == list(edges.items())
        assert graph.f_edges == edges
        assert all(graph.weight(v) == weight(v) for v in graph.vertices)
        with pytest.raises(KeyError):
            graph.f_edges[graph.vertices[0], 99]
        again = CrystalGraph.from_lowering(graph.vertices, graph.index_set, graph.f, graph.weight)
        assert again.f_rows == graph.f_rows and again.e_rows == graph.e_rows


def test_lowering_outside_the_vertex_set_raises():
    with pytest.raises(ValueError):
        CrystalGraph.from_lowering((1, 2), (1,), lambda v, i: v + 1, lambda v: (v,))


# ----------------------------------------------------------------------
# the factorization crystal against the generic constructor


def _from_lowering_oracle(system, w, num_factors):
    """The crystal as the generic constructor builds it: every vertex through
    the public checked constructor, every edge by applying f."""
    vertices = tuple(sorted(
        (DecreasingFactorization(x.factors, x.target) for x in decreasing_factorizations(system, w, num_factors)),
        key=lambda x: x.factors,
    ))
    return CrystalGraph.from_lowering(
        vertices, tuple(range(1, num_factors)), DecreasingFactorization.f, DecreasingFactorization.weight
    )


@pytest.mark.parametrize("rank, num_factors", [(4, None), pytest.param(5, 5, marks=requires_s5)])
def test_factorization_crystal_matches_from_lowering(rank, num_factors):
    # factorization_crystal splices the blocks _lowered returns and looks
    # them up; from_lowering applies f and looks the image up: the same
    # graph on every element, at default blocks in S4 and 5 blocks in S5
    system = SymmetricGroup(rank)
    edges = 0
    for g in system.elements():
        blocks = num_factors or crystal.default_num_factors(system, g)
        graph = factorization_crystal(system, g, num_factors)
        oracle = _from_lowering_oracle(system, g, blocks)
        assert graph.vertices == oracle.vertices
        assert graph.index_set == oracle.index_set
        assert graph.f_edges == oracle.f_edges
        assert all(graph.weight(v) == oracle.weight(v) for v in graph.vertices)
        edges += len(graph.f_edges)
    assert edges > (40_000 if rank == 5 else 1_000)


def test_factorization_crystal_refuses_an_image_outside_its_vertices(monkeypatch, s3):
    # drop one factorization from the enumeration: an f-image lands on it
    full = crystal._block_sequences
    monkeypatch.setattr(crystal, "_block_sequences", lambda *args: list(full(*args))[1:])
    with pytest.raises(ValueError, match="outside the vertex set"):
        factorization_crystal(s3, s3.longest_element, 3)


# ----------------------------------------------------------------------
# the graph on vertex positions against the object-level walks it replaced


def walked_string_length(x, step):
    """The string length as the graph and the factorizations once found it:
    apply ``step`` to whole objects until it returns None."""
    count = 0
    while (x := step(x)) is not None:
        count += 1
    return count


def dict_union_find(vertices, pairs):
    """Components by a union-find keyed on the vertices themselves, ordered
    by their first vertex in ``vertices``."""
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        parent[find(u)] = find(v)
    groups = {}
    for v in parent:
        groups.setdefault(find(v), []).append(v)
    return tuple(frozenset(g) for g in groups.values())


def _factorization_crystals():
    for n in (2, 3, 4):
        system = SymmetricGroup(n)
        for g in system.elements():
            yield factorization_crystal(system, g)
    s5 = SymmetricGroup(5)
    yield factorization_crystal(s5, s5.longest_element, 5)


TABLEAU_CRYSTALS = [((2, 1), 3), ((3, 1), 3), ((2, 2), 3), ((2, 1, 1), 4)]


def _assert_components_match_the_dict_union_find(graph):
    expected = dict_union_find(graph.vertices, ((u, v) for (u, _), v in graph.f_edges.items()))
    assert graph.components() == expected
    label = {v: k for k, comp in enumerate(expected) for v in comp}
    assert graph._component_labels() == [label[v] for v in graph.vertices]


def test_string_tables_and_components_match_the_object_walks_on_factorization_crystals():
    # epsilon/phi iterate the block-pair tables and the graph walks each
    # f-string once from its head; both must equal applying e and f to
    # whole factorizations, on every default-block crystal of S2-S4 and
    # the 5-block crystal of the S5 longest element
    strings = 0
    for graph in _factorization_crystals():
        eps_table, phi_table = graph._string_tables()
        for c, i in enumerate(graph.index_set):
            for k, v in enumerate(graph.vertices):
                eps = walked_string_length(v, lambda y: y.e(i))
                phi = walked_string_length(v, lambda y: y.f(i))
                assert v.epsilon(i) == eps_table[c][k] == eps
                assert v.phi(i) == phi_table[c][k] == phi
                strings += 1
        _assert_components_match_the_dict_union_find(graph)
    assert strings > 4_000


def test_string_tables_and_components_match_the_object_walks_on_tableau_crystals():
    for shape, entries in TABLEAU_CRYSTALS:
        graph = tableau_crystal(shape, entries)
        eps_table, phi_table = graph._string_tables()
        for c, i in enumerate(graph.index_set):
            for k, t in enumerate(graph.vertices):
                assert eps_table[c][k] == walked_string_length(t, lambda y: crystal_e(y, i))
                assert phi_table[c][k] == walked_string_length(t, lambda y: crystal_f(y, i))
        _assert_components_match_the_dict_union_find(graph)


def test_ck_components_match_the_dict_union_find(s4):
    for g in s4.elements():
        graph = ck_graph(s4, g)
        assert graph.components() == dict_union_find(graph.vertices, ((u, v) for u, v, _ in graph.edges))


def test_operators_off_the_graph_are_undefined(s3):
    graph = factorization_crystal(s3, s3.longest_element, 3)
    top = graph.vertices[0]
    stranger = DecreasingFactorization.from_display(((1,),), s3.generator(1))
    assert graph.f(stranger, 1) is graph.e(stranger, 1) is None
    assert graph.f(top, 7) is graph.e(top, 0) is None


# ----------------------------------------------------------------------
# malformed graphs are refused, and broken axioms are reported


def arrow_graph(index_set, arrows):
    """The graph of the given (source, colour, target) arrows, its vertices
    in order of first mention."""
    vertices = tuple(dict.fromkeys(v for u, _, w in arrows for v in (u, w)))
    f_edges = {(u, i): v for u, i, v in arrows}
    return CrystalGraph.from_lowering(vertices, index_set, lambda v, i: f_edges.get((v, i)), lambda v: ())


# Seven points of the plane, (a, b) named "ab": f_1 steps right along a
# row, f_2 up a column.  Each row and column is an interval whose ends
# move as the axioms ask, so every local axiom holds, and at 11 the two
# raisings meet at 00 (a square) while at 22 both double strings meet
# at 00 as well.
GRID = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2))


def grid_copies(twisted):
    """Two copies of the grid, suffixed a and b; when ``twisted`` the f_1
    arrows out of 00 cross to the other copy, which keeps every string
    length and opens the closures at 11 and 22."""
    arrows = []
    for copy, other in (("a", "b"), ("b", "a")):
        for a, b in GRID:
            if (a + 1, b) in GRID:
                target = other if twisted and (a, b) == (0, 0) else copy
                arrows.append((f"{a}{b}{copy}", 1, f"{a + 1}{b}{target}"))
            if (a, b + 1) in GRID:
                arrows.append((f"{a}{b}{copy}", 2, f"{a}{b + 1}{copy}"))
    return arrow_graph((1, 2), arrows)


def sym2_copies(twisted):
    """Two copies of the crystal of one-row tableaux of length 2 on entries
    1..3, vertices named by their entries and suffixed a and b.  At 23 e_1
    leaves eps_2 unchanged while e_2 raises eps_1, so only the square
    closure of P5 read one-sided applies there; when ``twisted`` the f_2
    arrows out of 12 cross to the other copy, which keeps every string
    length and opens that square."""
    arrows = []
    for copy, other in (("a", "b"), ("b", "a")):
        for u, i, v in (("11", 1, "12"), ("12", 1, "22"), ("13", 1, "23"),
                        ("12", 2, "13"), ("22", 2, "23"), ("23", 2, "33")):
            target = other if twisted and (u, i) == ("12", 2) else copy
            arrows.append((u + copy, i, v + target))
    return arrow_graph((1, 2), arrows)


BROKEN_GRAPHS = {
    # e_1 and e_3 both raise b, so each colour changes the other's string
    "distant-move": (
        arrow_graph((1, 3), [("a", 1, "b"), ("c", 3, "b")]),
        ["distant colours 1,3 move string data at b", "distant colours 3,1 move string data at b"],
    ),
    # two commuting squares x <- y, z <- t with their tops swapped: every
    # string has one arrow, but e_3 e_1 and e_1 e_3 part at x1 and x2
    "distant-commute": (
        arrow_graph(
            (1, 3),
            [(f"{v}{k}", c, f"{w}{k}") for k in (1, 2) for v, c, w in (("y", 1, "x"), ("z", 3, "x"))]
            + [("t1", 3, "y1"), ("t2", 1, "z1"), ("t2", 3, "y2"), ("t1", 1, "z2")],
        ),
        [
            "distant colours 1,3 fail to commute at x1",
            "distant colours 3,1 fail to commute at x1",
            "distant colours 1,3 fail to commute at x2",
            "distant colours 3,1 fail to commute at x2",
        ],
    ),
    # a lone 1-arrow leaves the adjacent colour 2 unchanged
    "adjacent": (
        arrow_graph((1, 2), [("a", 1, "b")]),
        ["adjacent colours 1,2 give (d_eps,d_phi)=(0,0) at b"],
    ),
    "square": (
        grid_copies(twisted=True),
        [
            "square closure fails for colours 1,2 at 11a",
            "square closure fails for colours 2,1 at 11a",
            "double-string closure fails for colours 1,2 at 22a",
            "double-string closure fails for colours 2,1 at 22a",
            "square closure fails for colours 1,2 at 11b",
            "square closure fails for colours 2,1 at 11b",
            "double-string closure fails for colours 1,2 at 22b",
            "double-string closure fails for colours 2,1 at 22b",
        ],
    ),
    # e_2 e_1 and e_1 e_2 part at 23; Delta_2 eps_1 = 1 there, so a gate
    # that also asked for Delta_2 eps_1 = 0 would pass this graph
    "one-sided-square": (
        sym2_copies(twisted=True),
        ["square closure fails for colours 1,2 at 23a", "square closure fails for colours 1,2 at 23b"],
    ),
    # f_1 runs round a -> b -> a: its string has no head, and the
    # f_2-string of c has none either
    "cycle": (
        arrow_graph((1, 2), [("a", 1, "b"), ("b", 1, "a"), ("c", 2, "d"), ("d", 2, "e"), ("e", 2, "c")]),
        ["f_1 string through a has no head (a cycle)", "f_2 string through c has no head (a cycle)"],
    ),
}


def test_the_untwisted_grid_satisfies_the_axioms():
    assert stembridge_violations(grid_copies(twisted=False)) == []


def test_the_untwisted_sym2_copies_satisfy_the_axioms():
    assert stembridge_violations(sym2_copies(twisted=False)) == []


@pytest.mark.parametrize("name", BROKEN_GRAPHS)
def test_stembridge_reports_each_broken_axiom(name):
    graph, expected = BROKEN_GRAPHS[name]
    assert stembridge_violations(graph) == expected


def test_string_tables_mark_a_cycle():
    graph, _ = BROKEN_GRAPHS["cycle"]
    eps, phi = graph._string_tables()
    assert eps == [[-1, -1, 0, 0, 0], [0, 0, -1, -1, -1]]
    assert phi == [[-1, -1, 0, 0, 0], [0, 0, -1, -1, -1]]


@pytest.mark.parametrize("vertices, index_set, f_edges, message", [
    pytest.param(("a", "b", "c"), (1,), {("a", 1): "c", ("b", 1): "c"}, "f_1 maps two vertices to c", id="merge"),
    pytest.param(("a", "b"), (1,), {("a", 1): "z"}, "f_1 maps a outside the vertex set", id="endpoint"),
    pytest.param(("a", "b", "a"), (1,), {}, "listed twice", id="repeated-vertex"),
])
def test_crystal_graph_refuses_a_malformed_graph(vertices, index_set, f_edges, message):
    with pytest.raises(ValueError, match=message):
        CrystalGraph.from_lowering(vertices, index_set, lambda v, i: f_edges.get((v, i)), lambda v: ())


@pytest.mark.parametrize("f_rows, message", [
    pytest.param([[2, 2, -1]], "f_1 maps two vertices to c", id="merge"),
    pytest.param([[3, -1, -1]], "outside the vertex set", id="past-the-end"),
    pytest.param([[-2, -1, -1]], "outside the vertex set", id="below-minus-one"),
    pytest.param([[1, -1]], "outside the vertex set", id="short-row"),
    pytest.param([[1, -1, -1], [-1, -1, -1]], "2 f rows for the index set", id="extra-row"),
])
def test_crystal_graph_refuses_malformed_rows(f_rows, message):
    with pytest.raises(ValueError, match=message):
        CrystalGraph(("a", "b", "c"), (1,), f_rows, lambda v: ())


def test_from_lowering_refuses_two_arrows_into_one_vertex():
    with pytest.raises(ValueError, match="maps two vertices"):
        CrystalGraph.from_lowering((1, 2, 3), (1,), lambda v, i: 3 if v < 3 else None, lambda v: (v,))
