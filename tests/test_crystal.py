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
    bracket_unpaired,
    decreasing_factorizations,
    factorization_crystal,
    highest_weight_factorizations,
    parse_factorization,
)
from redwords.edelman_greene import ck_components
from redwords.tableaux import tableau_crystal


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


def test_from_word_rejects_letters_outside_index_set(s3):
    with pytest.raises(ValueError):
        DecreasingFactorization.from_word(s3, (0,))


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
    x = fz(s4, (3, 2), (3, 1), (2,))
    assert x.pairing(2) == ((3,), (1,))
    # one block empty: everything on the other side is unpaired
    y = fz(s3, (), (2, 1))
    assert y.pairing(1) == ((), (1, 2))
    # equal letters only pair with strictly larger ones
    z = fz(s3, (2,), (2,))
    assert z.pairing(1) == ((2,), (2,))


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
    assert bracket_unpaired(upper, lower) == expected


@given(st.lists(st.integers(min_value=1, max_value=8), max_size=8),
       st.lists(st.integers(min_value=1, max_value=8), max_size=8))
def test_public_bracket_sorts_and_dedups(upper, lower):
    # repeated upper letters each take a partner; repeated lower letters count once
    assert bracket_unpaired(upper, lower) == quadratic_bracket(upper, lower)


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
        assert graph.weights == oracle.weights
        edges += len(graph.f_edges)
    assert edges > (40_000 if rank == 5 else 1_000)


def test_factorization_crystal_refuses_an_image_outside_its_vertices(monkeypatch, s3):
    # drop one factorization from the enumeration: an f-image lands on it
    full = crystal._block_sequences
    monkeypatch.setattr(crystal, "_block_sequences", lambda *args: list(full(*args))[1:])
    with pytest.raises(ValueError, match="outside the vertex set"):
        factorization_crystal(s3, s3.longest_element, 3)
