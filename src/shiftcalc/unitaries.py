"""Permutation unitaries of the level-k matrix algebras and their calculus.

A level-k permutation unitary is a bijection of W_n^k, stored as a rank
array over the lexicographic order: ranks[r] is the rank of the image of
the rank-r word.  Embedding a unitary to a higher level leaves the algebra
element unchanged (the permutation acts on the leading letters), so the
canonical form strips trailing tensor-identity factors and equality is
equality of canonical forms.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from .capacity import check as _check_capacity


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

    def is_identity(self) -> bool:
        return reduce(self).level == 0


def _trusted(n: int, level: int, ranks: tuple) -> PermutationUnitary:
    """A unitary from ranks already known to permute 0..n^level-1, unchecked."""
    u = object.__new__(PermutationUnitary)
    u.__dict__.update(n=n, level=level, ranks=ranks)
    return u


def identity(n: int) -> PermutationUnitary:
    return PermutationUnitary(n, 0, (0,))


def embed(u: PermutationUnitary, level: int) -> PermutationUnitary:
    """The same algebra element written at a level >= level(u)."""
    if level < u.level:
        raise ValueError("cannot embed to a lower level")
    if level == u.level:
        return u
    tail = _check_capacity(u.n, level) // len(u.ranks)
    return _trusted(u.n, level, tuple(_lift(u.ranks, tail)))


def _lift(ranks: tuple, tail: int) -> list:
    """The ranks of a unitary written at `tail` times as many cells: the
    rank q becomes the run q tail, ..., q tail + tail - 1."""
    out = []
    for q in ranks:
        out.extend(range(q * tail, q * tail + tail))
    return out


def reduce(u: PermutationUnitary) -> PermutationUnitary:
    """Canonical form: greedily strip trailing tensor-identity factors.

    A level strips when the ranks at offset a are the ranks at offset 0
    plus a, and those are all multiples of n: then u is the embedding of
    the unitary with ranks q // n over the offset-0 ranks q.  The identity,
    which every verified certificate reduces to, strips to level 0 at once,
    and most unitaries that strip nothing fail on their first n ranks.
    """
    n, level, ranks = u.n, u.level, u.ranks
    if ranks[0] == 0 and ranks == tuple(range(len(ranks))):
        level, ranks = 0, (0,)
    while level > 0:
        if ranks[0] % n or ranks[:n] != tuple(range(ranks[0], ranks[0] + n)):
            break
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
    """Product unitary u v, at the higher of the two levels; its permutation
    is sigma_u o sigma_v, with no embedded unitary built.

    A lower-level v permutes the leading letters, so u v is u's rank array
    with its blocks reordered by v, each block copied by one `list.extend`
    of a slice.  A lower-level u acts on the leading letters of v's images:
    its ranks are lifted to v's level (`_lift`, a run of `tail` ranks per
    rank), and the product is one gather of those through v's.  At one level
    the product is one `itemgetter` gather of u's ranks through v's, several
    times faster than a map over `tuple.__getitem__`; at level 0, where
    itemgetter of the single rank would return a bare item, both factors are
    the identity.
    """
    if u.n != v.n:
        raise ValueError("alphabet sizes differ")
    if v.level < u.level:
        tail, ranks = len(u.ranks) // len(v.ranks), u.ranks
        blocks = []
        for q in v.ranks:
            blocks.extend(ranks[q * tail : q * tail + tail])
        return _trusted(u.n, u.level, tuple(blocks))
    if u.level < v.level:
        lifted = _lift(u.ranks, len(v.ranks) // len(u.ranks))
        return _trusted(v.n, v.level, itemgetter(*v.ranks)(lifted))
    if u.level == 0:
        return u
    return _trusted(u.n, u.level, itemgetter(*v.ranks)(u.ranks))


def inverse(u: PermutationUnitary) -> PermutationUnitary:
    out = [0] * len(u.ranks)
    for src, dst in enumerate(u.ranks):
        out[dst] = src
    return _trusted(u.n, u.level, tuple(out))


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
    automorphism that is not a letter permutation.  In rank order 11, 12,
    ..., 33 the words 13 and 23 are ranks 2 and 5.
    """
    return PermutationUnitary(3, 2, (0, 1, 5, 3, 4, 2, 6, 7, 8))


def letter_permutation(n: int, images: Sequence[int]) -> PermutationUnitary:
    """The level-1 unitary sending letter i to images[i-1]."""
    if sorted(images) != list(range(1, n + 1)):
        raise ValueError("images must be a permutation of 1..n")
    return PermutationUnitary(n, 1, tuple(i - 1 for i in images))
