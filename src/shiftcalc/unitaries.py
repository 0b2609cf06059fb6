"""Permutation unitaries of the level-k matrix algebras and their calculus.

A level-k permutation unitary is a bijection of W_n^k, stored as a rank
array over the lexicographic order: ranks[r] is the rank of the image of
the rank-r word.  Embedding a unitary to a higher level leaves the algebra
element unchanged (the permutation acts on the leading letters), so the
canonical form strips trailing tensor-identity factors and equality is
equality of canonical forms.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from .capacity import check as _check_capacity
from .words import DiagonalElement, refine, word_rank, word_unrank
from . import words as _words


@dataclass(frozen=True)
class PermutationUnitary:
    """An element of P_n^k given by its permutation of W_n^k."""

    n: int
    level: int
    ranks: tuple

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("alphabet size must be at least 2")
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        size = self.n**self.level
        if len(self.ranks) != size or sorted(self.ranks) != list(range(size)):
            raise ValueError("rank array is not a permutation of 0..n^k-1")

    def __eq__(self, other):
        if not isinstance(other, PermutationUnitary):
            return NotImplemented
        a, b = reduce(self), reduce(other)
        return a.n == b.n and a.level == b.level and a.ranks == b.ranks

    def __hash__(self):
        r = reduce(self)
        return hash((r.n, r.level, r.ranks))

    def apply(self, word: Sequence[int]) -> tuple:
        """Image of a word of length >= level under the permutation."""
        k = self.level
        if len(word) < k:
            raise ValueError("word shorter than the unitary's level")
        head = word_unrank(self.ranks[word_rank(word[:k], self.n)], self.n, k)
        return head + tuple(word[k:])

    def is_identity(self) -> bool:
        return reduce(self).level == 0


def _trusted(n: int, level: int, ranks: tuple) -> PermutationUnitary:
    """A unitary from ranks already known to permute 0..n^level-1, unchecked."""
    u = object.__new__(PermutationUnitary)
    u.__dict__.update(n=n, level=level, ranks=ranks)
    return u


def identity(n: int) -> PermutationUnitary:
    return PermutationUnitary(n, 0, (0,))


def from_mapping(n: int, level: int, mapping) -> PermutationUnitary:
    """Build from a {word: word} dict; unlisted words are not allowed."""
    size = _check_capacity(n, level)
    ranks = [None] * size
    if len(mapping) != size:
        raise ValueError("mapping must list every domain word exactly once")
    for src, dst in mapping.items():
        if len(src) != level or len(dst) != level:
            raise ValueError("mapping words must have the unitary's level")
        ranks[word_rank(src, n)] = word_rank(dst, n)
    return PermutationUnitary(n, level, tuple(ranks))


def from_rank_mapping(n: int, level: int, mapping: dict) -> PermutationUnitary:
    """Build from a {rank: rank} dict; a rank out of range leaves a -1, refused."""
    size = _check_capacity(n, level)
    if len(mapping) != size:
        raise ValueError("mapping must list every domain word exactly once")
    return PermutationUnitary(n, level, tuple(mapping.get(r, -1) for r in range(size)))


def embed(u: PermutationUnitary, level: int) -> PermutationUnitary:
    """The same algebra element written at a level >= level(u)."""
    if level < u.level:
        raise ValueError("cannot embed to a lower level")
    if level == u.level:
        return u
    tail = _check_capacity(u.n, level) // len(u.ranks)
    ranks = []
    for q in u.ranks:
        ranks.extend(range(q * tail, q * tail + tail))
    return _trusted(u.n, level, tuple(ranks))


def reduce(u: PermutationUnitary) -> PermutationUnitary:
    """Canonical form: greedily strip trailing tensor-identity factors.

    A level strips when the ranks at offset a are the ranks at offset 0
    plus a, and those are all multiples of n: then u is the embedding of
    the unitary with ranks q // n over the offset-0 ranks q.  The identity,
    which every verified certificate reduces to, strips to level 0 at once.
    """
    n, level, ranks = u.n, u.level, u.ranks
    if ranks[0] == 0 and ranks == tuple(range(len(ranks))):
        level, ranks = 0, (0,)
    while level > 0:
        head = ranks[::n]
        if any(map(n.__rmod__, head)) or any(
            ranks[a::n] != tuple(map(a.__add__, head)) for a in range(1, n)
        ):
            break
        ranks = tuple(map(n.__rfloordiv__, head))
        level -= 1
    if level == u.level:
        return u
    return _trusted(n, level, ranks)


def multiply(u: PermutationUnitary, v: PermutationUnitary) -> PermutationUnitary:
    """Product unitary u v; its permutation is sigma_u o sigma_v, a gather of
    u's ranks through v's after the lower-level operand is embedded.

    The gather is one `itemgetter` call, several times faster than a map
    over `tuple.__getitem__`.  At level 0, where itemgetter of the single
    rank would return a bare item, both factors are the identity.
    """
    if u.n != v.n:
        raise ValueError("alphabet sizes differ")
    if u.level < v.level:
        u = embed(u, v.level)
    elif v.level < u.level:
        v = embed(v, u.level)
    if u.level == 0:
        return u
    return _trusted(u.n, u.level, itemgetter(*v.ranks)(u.ranks))


def inverse(u: PermutationUnitary) -> PermutationUnitary:
    out = [0] * len(u.ranks)
    for src, dst in enumerate(u.ranks):
        out[dst] = src
    return _trusted(u.n, u.level, tuple(out))


def conjugate(u: PermutationUnitary, v: PermutationUnitary) -> PermutationUnitary:
    """v^* u v for level(v) >= level(u), in one gather: v sends a rank to
    h tail + t, with h its first level(u) letters, and v^* reads u(h) tail + t."""
    tail, back, ranks = len(v.ranks) // len(u.ranks), inverse(v).ranks, u.ranks
    out = [back[ranks[q // tail] * tail + q % tail] for q in v.ranks]
    return _trusted(v.n, v.level, tuple(out))


def phi_shift(u: PermutationUnitary, j: int = 1) -> PermutationUnitary:
    """The canonical shift phi^j(u): the permutation skips the first j letters."""
    if j < 0:
        raise ValueError("shift power must be nonnegative")
    if j == 0:
        return u
    block = len(u.ranks)
    size = _check_capacity(u.n, u.level + j)
    ranks = [g + q for g in range(0, size, block) for q in u.ranks]
    return _trusted(u.n, u.level + j, tuple(ranks))


def u_k_product(u: PermutationUnitary, k: int) -> PermutationUnitary:
    """The cocycle product u phi(u) ... phi^{k-1}(u)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    out = u
    for j in range(1, k):
        out = multiply(out, phi_shift(u, j))
    return out


def flip_unitary(n: int) -> PermutationUnitary:
    """The coordinate flip theta at level 2: sigma(ij) = ji."""
    return shift_power_unitary(n, 1)


def shift_power_unitary(n: int, k: int) -> PermutationUnitary:
    """The unitary implementing phi^k as an endomorphism.

    Level k+1, rotating the first letter past the next k:
    sigma(i g) = g i for |g| = k.  For k = 1 this is the flip.
    """
    if k < 0:
        raise ValueError("shift power must be nonnegative")
    if k == 0:
        return identity(n)
    size = _check_capacity(n, k + 1)
    block = size // n
    ranks = [0] * size
    for i in range(n):
        for g in range(block):
            ranks[i * block + g] = g * n + i
    return PermutationUnitary(n, k + 1, tuple(ranks))


def kitchens_unitary() -> PermutationUnitary:
    """The order-two level-2 unitary over three letters swapping 13 and 23.

    Its diagonal endomorphism is Kitchens' automorphism of the one-sided
    3-shift, the standard example of a shift-commuting permutative
    automorphism that is not a letter permutation.
    """
    mapping = {w: w for w in _words.enumerate_words(3, 2)}
    mapping[(1, 3)] = (2, 3)
    mapping[(2, 3)] = (1, 3)
    return from_mapping(3, 2, mapping)


def letter_permutation(n: int, images: Sequence[int]) -> PermutationUnitary:
    """The level-1 unitary sending letter i to images[i-1]."""
    if sorted(images) != list(range(1, n + 1)):
        raise ValueError("images must be a permutation of 1..n")
    return PermutationUnitary(n, 1, tuple(i - 1 for i in images))


def adjoint_action(u: PermutationUnitary, x: DiagonalElement) -> DiagonalElement:
    """Ad(u) on the diagonal: the result reads x through sigma^{-1}."""
    if u.n != x.n:
        raise ValueError("alphabet sizes differ")
    level = max(u.level, x.level)
    ue = embed(u, level)
    xe = refine(x, level)
    out = [None] * len(xe.coeffs)
    for src, dst in enumerate(ue.ranks):
        out[dst] = xe.coeffs[src]
    return _words.reduce(DiagonalElement(x.n, level, tuple(out)))


def is_bogolubov(u: PermutationUnitary) -> bool:
    """True iff the canonical form lives at level <= 1 (a letter permutation)."""
    return reduce(u).level <= 1


def all_unitaries(n: int, level: int):
    """Iterate over every element of P_n^level (use at desk scale only)."""
    size = _check_capacity(n, level)
    for perm in itertools.permutations(range(size)):
        yield PermutationUnitary(n, level, perm)
