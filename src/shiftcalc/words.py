"""Multi-indices, cylinder sets and exact diagonal elements.

Words over the alphabet {1, ..., n} are tuples of 1-based symbols; the empty
word denotes the full space.  A diagonal element of level k is a total map
from the n^k words of length k to rationals, stored densely in lexicographic
order.  The 0/1-valued elements are the projections, i.e. finite unions of
level-k cylinders.

Equality of diagonal elements is equality of canonical (minimal level)
forms, so `reduce` is the normal form everything routes through.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .capacity import check as _check_capacity

Word = tuple  # tuple of ints in {1, ..., n}

ZERO = Fraction(0)
ONE = Fraction(1)


def word_rank(word: Sequence[int], n: int) -> int:
    """Lexicographic rank of a word inside W_n^len(word)."""
    r = 0
    for s in word:
        r = r * n + (s - 1)
    return r


def word_unrank(rank: int, n: int, k: int) -> Word:
    """Inverse of word_rank: the rank-th word of W_n^k."""
    out = [0] * k
    for i in range(k - 1, -1, -1):
        rank, d = divmod(rank, n)
        out[i] = d + 1
    return tuple(out)


def enumerate_words(n: int, k: int) -> list:
    """All words of W_n^k in lexicographic order.

    >>> enumerate_words(2, 2)
    [(1, 1), (1, 2), (2, 1), (2, 2)]
    """
    if n < 2:
        raise ValueError("alphabet size must be at least 2")
    if k < 0:
        raise ValueError("word length must be nonnegative")
    size = _check_capacity(n, k)
    return [word_unrank(r, n, k) for r in range(size)]


def format_word(word: Sequence[int]) -> str:
    """Digit-string form, e.g. (1, 3) -> "13".  Empty word -> ""."""
    return "".join(str(s) for s in word)


def parse_word(text: str, n: int) -> Word:
    """The word a string of ASCII digits spells; anything else is refused."""
    if n > 9:
        raise ValueError("digit-string words require n <= 9")
    if type(text) is not str or text and not (text.isascii() and text.isdigit()):
        raise ValueError("word %r is not a string of ASCII digits" % (text,))
    word = tuple(map(int, text))
    for s in word:
        if not 1 <= s <= n:
            raise ValueError("symbol %d outside alphabet {1..%d}" % (s, n))
    return word


@dataclass(frozen=True)
class DiagonalElement:
    """A level-k rational function on W_n^k.

    Instances compare equal exactly when their canonical forms coincide,
    so elements written at different levels are interchangeable.
    """

    n: int
    level: int
    coeffs: tuple

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("alphabet size must be at least 2")
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        if len(self.coeffs) != self.n**self.level:
            raise ValueError("coefficient vector has wrong length")

    def __eq__(self, other):
        if not isinstance(other, DiagonalElement):
            return NotImplemented
        a, b = reduce(self), reduce(other)
        return a.n == b.n and a.level == b.level and a.coeffs == b.coeffs

    def __hash__(self):
        r = reduce(self)
        return hash((r.n, r.level, r.coeffs))

    def is_projection(self) -> bool:
        return all(c == 0 or c == 1 for c in self.coeffs)

    def support(self) -> list:
        """Words carrying a nonzero coefficient, in lexicographic order."""
        n, k = self.n, self.level
        return [word_unrank(r, n, k) for r, c in enumerate(self.coeffs) if c]


def zero(n: int) -> DiagonalElement:
    return DiagonalElement(n, 0, (ZERO,))


def cylinder(n: int, word: Sequence[int]) -> DiagonalElement:
    """The projection P_mu onto the cylinder of the given word."""
    return projection(n, [word])


def projection(n: int, words: Iterable[Sequence[int]]) -> DiagonalElement:
    """The projection supported on the given same-length words."""
    words = [tuple(w) for w in words]
    if not words:
        return zero(n)
    k = len(words[0])
    if any(len(w) != k for w in words):
        raise ValueError("support words must share one length")
    size = _check_capacity(n, k)
    coeffs = [ZERO] * size
    for w in words:
        for s in w:
            if not 1 <= s <= n:
                raise ValueError("symbol %d outside alphabet {1..%d}" % (s, n))
        coeffs[word_rank(w, n)] = ONE
    return DiagonalElement(n, k, tuple(coeffs))


def lift_table(table: tuple, n: int, level: int) -> tuple:
    """A value table over lexicographic words, rewritten at `level`.

    `level` is at least the table's own; each entry is copied to every
    extension of its word, so the table still reads only the leading letters.
    """
    size = _check_capacity(n, level)
    copies = size // len(table)
    out = [None] * size
    for i in range(copies):
        out[i::copies] = table
    return tuple(out)


def strip_table(table: tuple, n: int, level: int, floor: int = 0) -> tuple:
    """(level, table) at the lowest level >= floor that keeps the values.

    Strips the last letter while the table ignores it; inverse to lift_table.
    """
    while level > floor:
        head = table[::n]
        if any(table[a::n] != head for a in range(1, n)):
            break
        table = head
        level -= 1
    return level, table


def reduce(x: DiagonalElement) -> DiagonalElement:
    """Canonical minimal-level form of x."""
    level, coeffs = strip_table(x.coeffs, x.n, x.level)
    if level == x.level:
        return x
    return DiagonalElement(x.n, level, coeffs)


def trace(x: DiagonalElement) -> Fraction:
    """The canonical trace: n^{-k} times the coefficient sum.

    Refinement-invariant; the unit has trace 1 and a level-k cylinder 1/n^k.
    """
    return Fraction(sum(x.coeffs), x.n**x.level)


def shift_diag(x: DiagonalElement, times: int = 1) -> DiagonalElement:
    """The canonical shift on the diagonal: coeffs(i mu) = coeffs(mu)."""
    if times < 0:
        raise ValueError("shift power must be nonnegative")
    out = x
    for _ in range(times):
        _check_capacity(out.n, out.level + 1)
        out = DiagonalElement(out.n, out.level + 1, out.coeffs * out.n)
    return reduce(out) if times else out
