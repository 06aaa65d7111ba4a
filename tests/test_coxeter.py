import ast
import itertools
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import requires_s6
from redwords import coxeter
from redwords.coxeter import CoxeterSystem, Dihedral, Hypercube, SymmetricGroup


def brute_force_reduced_words(system, element):
    """Independent oracle: filter every word of the right length."""
    length = system.length(element)
    return tuple(
        sorted(
            word
            for word in itertools.product(system.index_set, repeat=length)
            if system.evaluate(word) == element
        )
    )


def random_reduced_word_of_w0(n, seed):
    """A seeded reduced word of the longest element of S_n: from the
    identity, apply a random ascent until none is left."""
    rng = random.Random(seed)
    a, word = list(range(1, n + 1)), []
    while ascents := [i for i in range(1, n) if a[i - 1] < a[i]]:
        i = rng.choice(ascents)
        a[i - 1], a[i] = a[i], a[i - 1]
        word.append(i)
    return tuple(word)


# ----------------------------------------------------------------------
# symmetric groups


def test_multiply_involution(s3):
    s1 = s3.generator(1)
    assert s3.multiply(s1, s1) == s3.identity


def test_multiply_braid(s3):
    s1, s2 = s3.generator(1), s3.generator(2)
    lhs = s3.multiply(s3.multiply(s1, s2), s1)
    rhs = s3.multiply(s3.multiply(s2, s1), s2)
    assert lhs == rhs == (3, 2, 1) == s3.longest_element


def test_multiply_rejects_mismatch(s3, s4):
    with pytest.raises(ValueError):
        s3.multiply(s3.identity, s4.identity)


def test_length(s3, s4):
    assert s3.length(s3.identity) == 0
    assert s3.length(s3.longest_element) == 3
    for n in (2, 3, 4, 5):
        system = SymmetricGroup(n)
        assert system.length(system.longest_element) == n * (n - 1) // 2


@given(st.integers(2, 4), st.data())
@settings(max_examples=40)
def test_length_bounds_and_parity(n, data):
    system = SymmetricGroup(n)
    word = data.draw(
        st.lists(st.sampled_from(system.index_set), max_size=6).map(tuple)
    )
    element = system.evaluate(word)
    assert system.length(element) <= len(word)
    # each generator changes the inversion count by exactly one
    assert system.length(element) % 2 == len(word) % 2
    if word:
        assert not system.is_reduced(word + (word[-1],))


def test_reduced_words_s3(s3):
    assert s3.reduced_words(s3.longest_element) == ((1, 2, 1), (2, 1, 2))
    assert s3.reduced_words(s3.identity) == ((),)


def test_reduced_words_count_s4(s4):
    words = s4.reduced_words(s4.longest_element)
    assert len(words) == 16
    assert len(set(words)) == 16
    assert s4.reduced_word_count(s4.longest_element) == 16


def test_reduced_words_match_brute_force():
    for n in (2, 3, 4):
        system = SymmetricGroup(n)
        for element in system.elements():
            expected = brute_force_reduced_words(system, element)
            assert system.reduced_words(element) == expected
            assert all(system.evaluate(w) == element for w in expected)


def test_right_descents(s3):
    assert s3.right_descents(s3.identity) == frozenset()
    assert s3.right_descents(s3.longest_element) == frozenset({1, 2})
    assert s3.right_descents(s3.evaluate((1, 2))) == frozenset({2})


@pytest.mark.parametrize("system", [SymmetricGroup(4), SymmetricGroup(5), Hypercube(3), Dihedral(5)])
def test_left_descents_match_the_length_definition(system):
    # reference: s_i shortens a on the left
    for a in system.elements():
        expected = frozenset(
            i for i in system.index_set
            if system.length(system.left_multiplied(i, a)) < system.length(a)
        )
        assert system.left_descents(a) == expected


@settings(max_examples=200, derandomize=True)
@given(st.lists(st.integers(1, 30), max_size=6).map(tuple))
def test_parse_word_inverts_format_word(word):
    assert coxeter.parse_word(coxeter.format_word(word)) == word


@pytest.mark.parametrize("text", [",", "1,,2", ",1", "1,2,,", "a", "-1", "1 2", "1,-2"])
def test_parse_word_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        coxeter.parse_word(text)


def test_memo_sizes_count_each_table():
    from redwords.stanley import schur_expansion, stanley_monomial

    system = SymmetricGroup(4)
    assert set(system.memo_sizes().values()) == {0}
    w0 = system.longest_element
    system.reduced_word_count(w0)
    schur_expansion(system, w0)
    stanley_monomial(system, w0)
    sizes = system.memo_sizes()
    assert sizes["reduced_word_counts"] == 24  # every element lies below w0
    assert sizes["schur_expansions"] == 1
    assert sizes["peel_tables"] > 0 and sizes["weight_counts"] > 0
    assert sizes["reduced_words"] == sizes["exchange_states"] == 0
    system.exchange_kernel()
    sizes = system.memo_sizes()
    # the kernel walks the weak order and leaves the reduced-word memo empty
    assert sizes["reduced_words"] == 0 and sizes["exchange_states"] == 16


def test_weak_order_covers(s3):
    assert s3.weak_order_covers(s3.identity) == frozenset()
    assert s3.weak_order_covers(s3.generator(1)) == frozenset({s3.identity})
    assert s3.weak_order_covers(s3.longest_element) == frozenset(
        {s3.evaluate((2, 1)), s3.evaluate((1, 2))}
    )


def test_parabolic_longest(s3):
    assert s3.parabolic_longest(()) == s3.identity
    assert s3.parabolic_longest({1, 2}) == (3, 2, 1)
    assert s3.parabolic_longest({1}) == s3.generator(1)


def test_parabolic_involution(s4):
    for r in range(4):
        for subset in itertools.combinations(s4.index_set, r):
            w_j = s4.parabolic_longest(subset)
            assert s4.multiply(w_j, w_j) == s4.identity


@pytest.mark.parametrize("system", [SymmetricGroup(4), Hypercube(3), Dihedral(5)], ids=repr)
def test_parabolic_longest_is_the_longest_element_of_its_subgroup(system):
    for r in range(len(system.index_set) + 1):
        for subset in itertools.combinations(system.index_set, r):
            # the parabolic subgroup, generated by brute force from the identity
            subgroup, frontier = {system.identity}, [system.identity]
            while frontier:
                a = frontier.pop()
                for j in subset:
                    b = system.right_multiplied(a, j)
                    if b not in subgroup:
                        subgroup.add(b)
                        frontier.append(b)
            top = max(system.length(a) for a in subgroup)
            longest = [a for a in subgroup if system.length(a) == top]
            assert longest == [system.parabolic_longest(subset)]


def test_exchange_pinned(s3, s4):
    assert s4.exchange(2, (1, 2, 3, 1, 2, 1)) == (2, 1, 2, 3, 2, 1)
    assert s3.exchange(2, (1, 2, 1)) == (2, 1, 2)
    # prepending the leading letter deletes it again
    assert s3.exchange(1, (1, 2, 1)) == (1, 2, 1)


def test_exchange_rejects_bad_input(s3):
    with pytest.raises(ValueError):
        s3.exchange(1, (1, 2))
    with pytest.raises(ValueError):
        s3.exchange(1, (1, 1, 1))


def test_exchange_rejects_non_reduced_words_and_foreign_letters(s3, s4):
    # both spell the longest element, but neither is reduced
    with pytest.raises(ValueError):
        s3.exchange(1, (1, 2, 1, 1, 1))
    with pytest.raises(ValueError):
        s4.exchange(2, (1, 1, 1, 2, 3, 1, 2, 1))
    # letters outside the index set, in the word or prepended
    with pytest.raises(ValueError):
        s3.exchange(1, (1, 2, 0))
    with pytest.raises(ValueError):
        s3.exchange(1, (3, 2, 1))
    with pytest.raises(ValueError):
        s3.exchange(0, (1, 2, 1))
    with pytest.raises(ValueError):
        Hypercube(3).exchange(4, (1, 2, 3))
    with pytest.raises(ValueError):
        Dihedral(4).exchange(3, (1, 2, 1, 2))


@given(st.sampled_from((SymmetricGroup(4), Hypercube(3), Dihedral(4))), st.data())
@settings(max_examples=60)
def test_exchange_is_a_reduced_word_of_w0_starting_with_i(system, data):
    w0 = system.longest_element
    word = data.draw(st.sampled_from(system.reduced_words(w0)))
    i = data.draw(st.sampled_from(system.index_set))
    image = system.exchange(i, word)
    assert image[0] == i
    assert system.is_reduced(image) and system.evaluate(image) == w0
    # the strong exchange condition: exactly one deletion keeps i + word at w0
    spelled = [
        (i,) + word[:j] + word[j + 1:]
        for j in range(len(word))
        if system.evaluate((i,) + word[:j] + word[j + 1:]) == w0
    ]
    assert spelled == [image]


@pytest.mark.parametrize(
    "system", [SymmetricGroup(4), Hypercube(3), Dihedral(5)], ids=repr
)
def test_simple_conjugate_is_the_reflection_when_simple(system):
    # each system's conjugate against the definition in the base class: a s_i a^-1 = s_g
    for a in system.elements():
        for i in system.index_set:
            g = system._simple_conjugate(a, i)
            assert g == CoxeterSystem._simple_conjugate(system, a, i)
            simple = [
                h for h in system.index_set
                if system.left_multiplied(h, a) == system.right_multiplied(a, i)
            ]
            assert simple == ([] if g is None else [g])


def exchange_outcome(exchange, system, i, word):
    """The exchange image of ``word`` under ``i``, or the type and message
    of the exception the exchange raises."""
    try:
        return exchange(system, i, word)
    except (ValueError, ArithmeticError) as err:
        return type(err), str(err)


@pytest.mark.parametrize("n", [3, 4, 5, pytest.param(6, marks=requires_s6)])
def test_symmetric_walk_matches_the_base_walk_on_the_whole_kernel(n):
    # the one-line exchange against the generic one on every (state, generator) pair
    system = SymmetricGroup(n)
    states, _ = system.exchange_kernel()
    for word in states:
        for i in system.index_set:
            assert SymmetricGroup.exchange(system, i, word) == CoxeterSystem.exchange(system, i, word)


@pytest.mark.parametrize("n", [10, 20, 30])
def test_symmetric_walk_matches_the_base_walk_on_random_words(n):
    system = SymmetricGroup(n)
    for seed in range(3):
        word = random_reduced_word_of_w0(n, seed)
        images = [SymmetricGroup.exchange(system, i, word) for i in system.index_set]
        assert images == [CoxeterSystem.exchange(system, i, word) for i in system.index_set]
        # each generator deletes its own letter, so the images differ
        assert len(set(images)) == n - 1


@pytest.mark.parametrize("word, i", [
    pytest.param((1, 2, 3, 1, 2, 4), 1, id="past-the-index-set"),
    pytest.param((0, 1, 2, 1, 3, 2), 1, id="letter-0"),  # would read the last entry
    pytest.param((1, 2, 1, 1, 3, 2), 1, id="descent"),
    pytest.param((1, 2, 3, 1, 2), 1, id="short"),  # reduced, but shorter than w0
    pytest.param((1, 2, 1, 3, 2, 1), 4, id="generator-4"),  # not a generator of S4
])
def test_symmetric_exchange_fails_as_the_base_exchange_does(s4, word, i):
    expected = exchange_outcome(CoxeterSystem.exchange, s4, i, word)
    assert expected[0] is ValueError
    assert exchange_outcome(SymmetricGroup.exchange, s4, i, word) == expected


def test_exchange_scales_to_s60():
    # 1,770 letters: one exchange per generator walks the word once each
    word = random_reduced_word_of_w0(60, 0)
    started = time.perf_counter()
    system = SymmetricGroup(60)
    images = [system.exchange(i, word) for i in system.index_set]
    assert time.perf_counter() - started < 1
    assert len(word) == 1770
    assert all(image[0] == i and len(image) == len(word) for i, image in zip(system.index_set, images))
    assert system.evaluate(images[0]) == system.longest_element


def test_evaluate_rejects_letters_outside_index_set(s3):
    with pytest.raises(ValueError):
        s3.evaluate((0,))
    with pytest.raises(ValueError, match=r"^letter 3 is not a generator of SymmetricGroup\(3\)$"):
        s3.evaluate((1, 3))
    with pytest.raises(ValueError):
        Hypercube(2).evaluate((3,))
    with pytest.raises(ValueError):
        Dihedral(3).evaluate((1, 0))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_one_line_is_reduced_matches_the_generic_test(n):
    # every word of length at most 5 over the generators, and a foreign
    # letter refused by both with the same message
    system = SymmetricGroup(n)
    verdicts = set()
    for length in range(6):
        for word in itertools.product(system.index_set, repeat=length):
            verdict = system.is_reduced(word)
            assert verdict == CoxeterSystem.is_reduced(system, word)
            verdicts.add(verdict)
    assert verdicts == {True, False}
    for test in (system.is_reduced, lambda word: CoxeterSystem.is_reduced(system, word)):
        with pytest.raises(ValueError, match=rf"^letter {n} is not a generator of SymmetricGroup\({n}\)$"):
            test((1, n))


def test_runtime_invariants_are_not_asserts():
    # `python -O` strips assert statements, so invariants must raise
    sources = sorted(Path(coxeter.__file__).parent.glob("*.py"))
    assert len(sources) >= 13
    for source in sources:
        tree = ast.parse(source.read_text())
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not asserts, f"{source.name} asserts on lines {asserts}"
        # an invariant raises ArithmeticError, which the CLI reports with exit 2
        raised = [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and node.exc is not None
            and any(isinstance(n, ast.Name) and n.id == "AssertionError" for n in ast.walk(node.exc))
        ]
        assert not raised, f"{source.name} raises AssertionError on lines {raised}"


def test_longest_element_is_unique_maximum():
    for n in (2, 3, 4):
        system = SymmetricGroup(n)
        top = system.longest_element
        for element in system.elements():
            assert system.length(element) <= system.length(top)
            if system.length(element) == system.length(top):
                assert element == top


# ----------------------------------------------------------------------
# hypercube


def test_hypercube_generators_commute():
    h = Hypercube(3)
    for i in h.index_set:
        gi = h.generator(i)
        assert h.multiply(gi, gi) == h.identity
        for j in h.index_set:
            gj = h.generator(j)
            assert h.multiply(gi, gj) == h.multiply(gj, gi)


def test_hypercube_examples():
    h = Hypercube(2)
    assert h.multiply(frozenset({1}), frozenset({2})) == frozenset({1, 2})
    assert h.longest_element == frozenset({1, 2})
    assert h.reduced_words(h.longest_element) == ((1, 2), (2, 1))


def test_hypercube_count_is_the_number_of_reduced_words():
    h = Hypercube(5)
    for a in h.elements():
        assert h.reduced_word_count(a) == len(h.reduced_words(a))


def test_hypercube_exchange_is_move_to_front():
    h = Hypercube(3)
    assert h.exchange(2, (3, 2, 1)) == (2, 3, 1)
    assert h.exchange(3, (3, 2, 1)) == (3, 2, 1)


# ----------------------------------------------------------------------
# dihedral


@pytest.mark.parametrize("m", [2, 3, 4, 5, 7])
def test_dihedral_defining_relation(m):
    d = Dihedral(m)
    rho = d.multiply(d.generator(1), d.generator(2))
    power = d.identity
    for _ in range(m):
        power = d.multiply(power, rho)
    assert power == d.identity
    assert len(d.elements()) == 2 * m
    assert d.length(d.longest_element) == m
    assert len(d.reduced_words(d.longest_element)) == 2


def test_dihedral_matches_s3():
    # Dihedral(3) and SymmetricGroup(3) present the same group
    d, s = Dihedral(3), SymmetricGroup(3)
    d_words = {
        element: d.reduced_words(element) for element in d.elements()
    }
    s_words = {
        element: s.reduced_words(element) for element in s.elements()
    }
    assert sorted(d_words.values()) == sorted(s_words.values())


def test_dihedral_exchange():
    d = Dihedral(4)
    w0_words = d.reduced_words(d.longest_element)
    assert w0_words == ((1, 2, 1, 2), (2, 1, 2, 1))
    assert d.exchange(2, (1, 2, 1, 2)) == (2, 1, 2, 1)
    assert d.exchange(1, (1, 2, 1, 2)) == (1, 2, 1, 2)
