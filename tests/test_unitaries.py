import itertools
import random

import pytest
from hypothesis import given, strategies as st

from shiftcalc import capacity
from shiftcalc import jsonio
from shiftcalc import unitaries as U
from shiftcalc import words as W
from test_words import refine


def from_mapping(n, level, mapping):
    """Oracle: the unitary of a {word: word} dict that lists every word once."""
    size = capacity.check(n, level)
    ranks = [None] * size
    if len(mapping) != size:
        raise ValueError("mapping must list every domain word exactly once")
    for src, dst in mapping.items():
        if len(src) != level or len(dst) != level:
            raise ValueError("mapping words must have the unitary's level")
        ranks[W.word_rank(src, n)] = W.word_rank(dst, n)
    return U.PermutationUnitary(n, level, tuple(ranks))


def all_unitaries(n, level):
    """Oracle: every element of P_n^level, in the order of its permutations."""
    size = capacity.check(n, level)
    for perm in itertools.permutations(range(size)):
        yield U.PermutationUnitary(n, level, perm)


def apply(u, word):
    """The image of a word of length >= level(u): u permutes its first
    level(u) letters."""
    k = u.level
    if len(word) < k:
        raise ValueError("word shorter than the unitary's level")
    head = W.word_unrank(u.ranks[W.word_rank(word[:k], u.n)], u.n, k)
    return head + tuple(word[k:])


def u_k_product(u, k):
    """Oracle: the cocycle product u phi(u) ... phi^{k-1}(u), built factor by
    factor."""
    if k < 1:
        raise ValueError("k must be at least 1")
    out = u
    for j in range(1, k):
        out = U.multiply(out, U.phi_shift(u, j))
    return out


def adjoint_action(u, x):
    """Oracle: Ad(u) on the diagonal, x read through sigma_u^{-1} at a common
    level."""
    if u.n != x.n:
        raise ValueError("alphabet sizes differ")
    level = max(u.level, x.level)
    ue = U.embed(u, level)
    xe = refine(x, level)
    out = [None] * len(xe.coeffs)
    for src, dst in enumerate(ue.ranks):
        out[dst] = xe.coeffs[src]
    return W.reduce(W.DiagonalElement(x.n, level, tuple(out)))


def test_embed_leaves_the_algebra_element_unchanged():
    u = U.flip_unitary(2)
    v = U.embed(u, 4)
    assert v == u  # canonical-form equality
    for w in W.enumerate_words(2, 4):
        p = W.cylinder(2, w)
        assert adjoint_action(u, p) == adjoint_action(v, p)


def test_reduce_strips_trailing_identity_factors():
    u = U.letter_permutation(3, (2, 3, 1))
    assert U.reduce(U.embed(u, 3)) == u
    assert U.reduce(U.embed(U.identity(2), 3)).level == 0


def test_group_axioms_exhaustive_at_level_two():
    units = list(all_unitaries(2, 2))
    assert len(units) == 24
    e = U.identity(2)
    for a in units:
        assert U.multiply(a, U.inverse(a)) == e
        assert U.multiply(U.inverse(a), a) == e
        assert U.multiply(a, e) == a
    rng = random.Random(7)
    for _ in range(50):
        a, b, c = (rng.choice(units) for _ in range(3))
        assert U.multiply(U.multiply(a, b), c) == U.multiply(a, U.multiply(b, c))


def test_multiply_composes_the_underlying_permutations():
    a = U.flip_unitary(2)
    b = U.letter_permutation(2, (2, 1))
    ab = U.multiply(a, b)
    for w in W.enumerate_words(2, 2):
        assert apply(ab, w) == apply(a, apply(b, w))


@st.composite
def unitary_pairs(draw):
    """Two unitaries over n in {2, 3} letters, each of level 0 to 4, so a
    lower-level factor meets tails of 9 cells and more."""
    n = draw(st.sampled_from((2, 3)))
    pair = []
    for _ in range(2):
        level = draw(st.integers(0, 4))
        pair.append(U.PermutationUnitary(n, level, tuple(draw(st.permutations(range(n**level))))))
    return pair


@given(unitary_pairs())
def test_multiply_is_the_product_at_one_level(pair):
    # the lower-level factor is read in place: by index arithmetic on the
    # left, by reordered blocks on the right; the reference embeds it
    u, v = pair
    top = max(u.level, v.level)
    product = U.multiply(U.embed(u, top), U.embed(v, top))
    assert U.multiply(u, v).ranks == product.ranks
    assert U.PermutationUnitary(u.n, top, U.multiply(u, v).ranks) == product


def test_flip_has_order_two_and_swaps_coordinates():
    theta = U.flip_unitary(2)
    assert U.multiply(theta, theta) == U.identity(2)
    assert apply(theta, (1, 2)) == (2, 1)
    assert apply(U.embed(theta, 3), (1, 2, 1)) == (2, 1, 1)


def test_shift_power_unitary_edge_cases():
    assert U.shift_power_unitary(2, 0) == U.identity(2)
    assert U.shift_power_unitary(2, 1) == U.flip_unitary(2)
    rot = U.shift_power_unitary(2, 2)
    assert rot.level == 3
    assert apply(rot, (1, 2, 2)) == (2, 2, 1)
    with pytest.raises(ValueError):
        U.shift_power_unitary(2, -1)


def test_kitchens_unitary_adjoint_images():
    u = U.kitchens_unitary()
    assert U.multiply(u, u) == U.identity(3)
    assert adjoint_action(u, W.cylinder(3, (1,))) == W.projection(
        3, [(1, 1), (1, 2), (2, 3)]
    )
    assert adjoint_action(u, W.cylinder(3, (2,))) == W.projection(
        3, [(2, 1), (2, 2), (1, 3)]
    )
    assert adjoint_action(u, W.cylinder(3, (3,))) == W.cylinder(3, (3,))


def test_adjoint_action_is_representation_independent():
    u = U.kitchens_unitary()
    p = W.cylinder(3, (1,))
    assert adjoint_action(U.embed(u, 3), refine(p, 2)) == adjoint_action(u, p)


def test_adjoint_action_preserves_trace():
    rng = random.Random(11)
    units = list(all_unitaries(2, 2))
    for _ in range(20):
        u = rng.choice(units)
        words = [w for w in W.enumerate_words(2, 3) if rng.random() < 0.5]
        p = W.projection(2, words) if words else W.zero(2)
        assert W.trace(adjoint_action(u, p)) == W.trace(p)


def test_u_k_product_recursions():
    rng = random.Random(13)
    pool = list(all_unitaries(2, 2))
    for _ in range(20):
        u = rng.choice(pool)
        for k in range(1, 5):
            uk = u_k_product(u, k)
            left = U.multiply(uk, U.phi_shift(u, k))
            right = U.multiply(u, U.phi_shift(uk, 1))
            assert u_k_product(u, k + 1) == left == right


def test_phi_shift_acts_past_leading_letters():
    u = U.letter_permutation(2, (2, 1))
    shifted = U.phi_shift(u, 1)
    assert shifted.level == 2
    assert apply(shifted, (1, 1)) == (1, 2)
    assert apply(shifted, (2, 2)) == (2, 1)


def test_from_mapping_validates():
    with pytest.raises(ValueError):
        from_mapping(2, 1, {(1,): (1,)})
    with pytest.raises(ValueError):
        from_mapping(2, 1, {(1,): (1,), (2,): (1,)})


def test_ranks_from_outside_the_module_are_validated():
    with pytest.raises(ValueError):
        U.PermutationUnitary(2, 1, (0, 0))
    with pytest.raises(ValueError):
        from_mapping(2, 1, {(1,): (1,), (2,): (1,)})
    with pytest.raises(ValueError):
        jsonio.unitary_from_dict({"n": 2, "level": 1, "map": [["1", "2"], ["2", "2"]]})


def test_unchecked_constructions_give_valid_permutations():
    rng = random.Random(61)
    for n, level in ((2, 2), (3, 1), (3, 2)):
        perm = list(range(n**level))
        rng.shuffle(perm)
        u = U.PermutationUnitary(n, level, tuple(perm))
        v = U.embed(U.PermutationUnitary(n, 1, tuple(rng.sample(range(n), n))), level)
        built = (
            U.multiply(u, v),
            U.embed(u, level + 1),
            U.phi_shift(u, 2),
            U.inverse(u),
            U.reduce(U.embed(u, level + 2)),
        )
        for w in built:  # the validating constructor accepts each
            assert U.PermutationUnitary(w.n, w.level, w.ranks) == w
