import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from shiftcalc import capacity
from shiftcalc import words as W


def refine(x, level):
    """x rewritten at a level >= level(x); coefficients copy to extensions."""
    if level < x.level:
        raise ValueError("cannot refine to a lower level")
    return W.DiagonalElement(x.n, level, W.lift_table(x.coeffs, x.n, level))


def decompose(x):
    """Oracle: the components (x_1, ..., x_n) of x = sum_j P_j shift(x_j);
    x_j reads off x on the subtree below the first letter j."""
    if x.level == 0:
        x = refine(x, 1)
    n = x.n
    block = len(x.coeffs) // n
    return tuple(
        W.reduce(W.DiagonalElement(n, x.level - 1, x.coeffs[j * block : (j + 1) * block]))
        for j in range(n)
    )


def recompose(n, parts):
    """Oracle: sum_j P_j shift(parts_j), the inverse of `decompose`."""
    if len(parts) != n:
        raise ValueError("need exactly n components")
    level = max(p.level for p in parts)
    coeffs = tuple(c for p in parts for c in refine(p, level).coeffs)
    return W.reduce(W.DiagonalElement(n, level + 1, coeffs))


def diagonal(n, level, coeffs):
    """A diagonal element from any coefficients `Fraction` accepts."""
    capacity.check(n, level)
    return W.DiagonalElement(n, level, tuple(Fraction(c) for c in coeffs))


def add(p, q):
    """Oracle: the linear sum of two diagonal elements, at the higher level."""
    if p.n != q.n:
        raise ValueError("alphabet sizes differ")
    level = max(p.level, q.level)
    a, b = refine(p, level), refine(q, level)
    return W.reduce(W.DiagonalElement(p.n, level, tuple(x + y for x, y in zip(a.coeffs, b.coeffs))))


@given(st.integers(2, 5), st.integers(0, 6))
def test_rank_unrank_roundtrip(n, k):
    size = n**k
    for r in range(0, size, max(1, size // 17)):
        assert W.word_rank(W.word_unrank(r, n, k), n) == r


def test_enumerate_words_is_lexicographic():
    words = list(W.enumerate_words(3, 2))
    assert words == sorted(words)
    assert words[0] == (1, 1) and words[-1] == (3, 3)
    assert [W.word_rank(w, 3) for w in words] == list(range(9))


def test_format_parse_roundtrip():
    for w in W.enumerate_words(3, 3):
        assert W.parse_word(W.format_word(w), 3) == w
    with pytest.raises(ValueError):
        W.parse_word("140", 3)


def test_refine_preserves_element_and_trace():
    x = diagonal(2, 1, (Fraction(1, 3), Fraction(2, 5)))
    for level in range(1, 5):
        y = refine(x, level)
        assert y == x
        assert W.trace(y) == W.trace(x)


def lift_reference(table, n, level):
    copies = n**level // len(table)
    return tuple(v for v in table for _ in range(copies))


def strip_reference(table, n, level, floor=0):
    while level > floor:
        chunks = [table[i : i + n] for i in range(0, len(table), n)]
        if any(ch.count(ch[0]) != n for ch in chunks):
            break
        table = tuple(ch[0] for ch in chunks)
        level -= 1
    return level, table


def test_table_kernels_match_the_comprehensions():
    rng = random.Random(5)
    draws = (
        lambda: rng.randint(0, 1),
        lambda: Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
    )
    for n, level, draw in itertools.product((2, 3), range(4), draws):
        table = tuple(draw() for _ in range(n**level))
        for target in range(level, level + 3):
            lifted = W.lift_table(table, n, target)
            assert lifted == lift_reference(table, n, target)
            for (t, k), floor in itertools.product(((table, level), (lifted, target)), (0, 1)):
                assert W.strip_table(t, n, k, floor) == strip_reference(t, n, k, floor)


def test_reduce_collapses_to_minimal_level():
    p = W.projection(2, [(1, 1), (1, 2)])
    assert W.reduce(p).level == 1
    assert W.reduce(p) == W.cylinder(2, (1,))
    q = W.projection(2, [(1, 1), (2, 2)])
    assert W.reduce(q).level == 2


def test_trace_values():
    assert W.trace(W.cylinder(3, (1, 3))) == Fraction(1, 9)
    assert W.trace(W.projection(3, [(1, 1), (1, 2), (2, 3)])) == Fraction(1, 3)
    assert W.trace(W.DiagonalElement(2, 0, (W.ONE,))) == 1


def test_shift_diag_tiles_over_the_first_letter():
    p = W.cylinder(2, (1,))
    assert W.shift_diag(p) == W.projection(2, [(1, 1), (2, 1)])
    assert W.shift_diag(p, 2).level == 3
    assert W.trace(W.shift_diag(p, 2)) == W.trace(p)


def test_decompose_recompose_roundtrip():
    x = W.projection(3, [(1, 3), (2, 3)])
    parts = decompose(x)
    assert len(parts) == 3
    assert parts[0] == W.cylinder(3, (3,)) and parts[2] == W.zero(3)
    assert recompose(3, parts) == x


def test_add_is_coefficientwise():
    a = W.cylinder(2, (1,))
    b = W.cylinder(2, (1, 2))
    s = add(a, b)
    assert W.trace(s) == Fraction(3, 4)
    assert not s.is_projection()


def test_capacity_guard():
    old = capacity.get_limit()
    try:
        capacity.set_limit(16)
        with pytest.raises(capacity.CapacityError):
            refine(W.cylinder(2, (1,)), 10)
    finally:
        capacity.set_limit(old)
    # n ** -1 is 0.5, not a size: a negative level is refused in its own words
    with pytest.raises(ValueError, match="^level or radius -1 is negative$"):
        capacity.check(2, -1)
    # from the limit's bit length on, n^k is past the limit and is never
    # built: 2^(10^18) would not fit in memory, and 2^5000 would print 1,506
    # digits in the message
    for n, level in ((2, 10**18), (2, 5000), (2, capacity.get_limit().bit_length())):
        with pytest.raises(capacity.CapacityError, match="at least 2\\^%d cylinders" % level):
            capacity.check(n, level)
    assert capacity.check(2, capacity.get_limit().bit_length() - 1) <= capacity.get_limit()
    assert capacity.check(1, 10**18) == 1


def test_projection_deduplicates_and_checks_levels():
    assert W.projection(2, [(1,), (1,)]) == W.cylinder(2, (1,))
    with pytest.raises(ValueError):
        W.projection(2, [(1,), (1, 2)])
