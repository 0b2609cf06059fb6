"""Permutative endomorphisms acting on the diagonal.

A permutation unitary u of level r induces the endomorphism sending S_i to
u S_i; on a level-k diagonal element it acts as conjugation by the cocycle
product u_k = u phi(u) ... phi^{k-1}(u).  Composition is carried by the
convolution product of unitaries, so every identity here is an exact
statement about finite permutations.

On the diagonal lambda_u(x) = x o T_u for a homeomorphism T_u of the
one-sided n-shift, and T_u is read only as a `codes.Transducer`
(`point_map`, cached) whose state is the rest of u^{-1}(window) after the
letter it emits.  `apply_diag` reads x through the emitted letters
(`Transducer.runs`); every equality on the diagonal is one of transducers
run in lockstep on one input from the diagonal pairs (`Transducer.agrees`):
T_a against T_b (`agree_on_diagonal`) and T_u against the code of its
emitted letters (`read_code`, the one shift-commutation test).  The paper's
eventual questions ask from which letter on two such runs agree
(`Transducer.agree_after`, exact, with no budget): T_u against the identity
(`is_in_ign`, the inner kernel) and T_u after one letter of z against T_u on
sigma z (`eventual_commutation`, property (P)'s least m).  None of them
builds a cocycle product, and the braiding automorphism is Ad(u).

Certification builds the inverse by algebra, not by search: lambda_u has a
permutative inverse v exactly when lambda_u(v) = u^*, and then v is
u_s^* u^* u_s for every s >= level(v), while a u_s^* u^* u_s of level <= s is
always that v.  So at budget b, "automorphism" is the verdict on exactly the
automorphisms of O_n whose inverse has level <= b, and on the shift
automorphisms that the degree route finds an inverse code for.  A level
s < level(u) finds nothing or the v that s = level(u) finds, so the levels
start at s = level(u) (at 1 for level(u) = 0, and at b when level(u) > b)
with the same verdict.  The stages run in this order: the level
s = level(u), then the collision test on T_u, then the levels above level(u)
up to b, then the degree route.  A
permutative inverse v gives T_u o T_v = T_v o T_u = id on points, so when
T_u collides (`point_map_is_injective` is false, decided on the pair graph of
T_u) no level can return and certification goes straight to the degree
route.  Each cocycle u_s is built with its inverse u_s^*, once, and w_s
gathers through them.  Both convolutions of w_s with u are checked as rank
identities: u_m w u_m^* u = 1 (m = level(w)) exactly when
w (u_m^* u) = u_m^*, and w_l u w_l^* w = 1 (l = level(u)) exactly when
u (w_l^* w) = w_l^*, each one block copy and one lifted gather, with no
reduce and no u_m or w_l.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from operator import itemgetter
from typing import Optional

from . import codes as C
from .capacity import check as _check_capacity
from . import unitaries as U
from . import words as W
from .unitaries import PermutationUnitary
from .words import DiagonalElement


def convolution(u: PermutationUnitary, w: PermutationUnitary) -> PermutationUnitary:
    """Unitary of the composite endomorphism: conv(u, w) h as lambda_u o lambda_w.

    The product is lambda_u(w) u, where lambda_u(w) = u_m w u_m^* for w of
    level m.
    """
    return endomorphism(u).convolve(w)


def ad_unitary(w: PermutationUnitary) -> PermutationUnitary:
    """The unitary w phi(w^*), whose endomorphism is Ad(w)."""
    return U.reduce(U.multiply(w, U.phi_shift(U.inverse(w), 1)))


@dataclass(frozen=True)
class PermutativeEndomorphism:
    """lambda_u for a permutation unitary u, with cached cocycle products and
    their inverses, point map and emitted runs."""

    unitary: PermutationUnitary
    _uk: dict = field(default_factory=dict, compare=False, repr=False)
    _uk_star: dict = field(default_factory=dict, compare=False, repr=False)
    _runs: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def n(self) -> int:
        return self.unitary.n

    def u_k(self, k: int) -> PermutationUnitary:
        """The cocycle product u_k = u phi(u_{k-1}), cached: the inverse of
        the cached u_k^*."""
        if k not in self._uk:
            self._uk[k] = U.inverse(self.u_k_star(k))
        return self._uk[k]

    def u_k_star(self, k: int) -> PermutationUnitary:
        """u_k^*, cached, built as phi(u_{k-1}^*) u^*: the shifted larger
        factor with its blocks reordered by u^*.  So each cocycle is inverted
        once, and the tables are shared by certification, `convolve` and
        `point_map`."""
        if k < 1:
            raise ValueError("k must be at least 1")
        if k not in self._uk_star:
            if k == 1:
                self._uk_star[k] = U.inverse(self.unitary)
            else:
                shifted = U.phi_shift(self.u_k_star(k - 1), 1)
                self._uk_star[k] = U.multiply(shifted, self.u_k_star(1))
        return self._uk_star[k]

    def convolve(self, w: PermutationUnitary) -> PermutationUnitary:
        """convolution(u, w), with u_m and u_m^* read from the cache."""
        if self.n != w.n:
            raise ValueError("alphabet sizes differ")
        m = w.level
        if m == 0:
            return self.unitary
        conj = U.conjugate(w, self.u_k_star(m), self.u_k(m))
        return U.reduce(U.multiply(conj, self.unitary))

    @cached_property
    def point_map(self) -> C.Transducer:
        """T_u as a transducer (`_point_map`), cached, read off the cached u^*."""
        return _point_map(self.u_k_star(1))

    def runs(self, k: int) -> list:
        """Per word of length k + L - 1, in rank order, the rank of the first k
        letters T_u emits (`Transducer.runs`); cached."""
        if k not in self._runs:
            self._runs[k] = self.point_map.runs(k)
        return self._runs[k]


def _point_map(u_star: PermutationUnitary) -> C.Transducer:
    """T_u as a transducer, from u^*: with L = max(level(u), 1), the step on
    the window p a splits u^{-1}(p a) into its first letter, emitted, and the
    rest, which is the next state, one of n^(L-1) (for the flip, 12 emits 2
    and leaves 1)."""
    src = U.embed(u_star, max(u_star.level, 1)).ranks
    tail = len(src) // u_star.n
    return C.Transducer(u_star.n, tail, tuple(map(divmod, src, repeat(tail))))


def endomorphism(u: PermutationUnitary) -> PermutativeEndomorphism:
    return PermutativeEndomorphism(U.reduce(u))


def point_map_is_injective(e: PermutativeEndomorphism) -> bool:
    """Is T_u injective?  Exact, on the pair graph of T_u.

    Two points with one image either start from distinct states or reach a
    pair of distinct states when they first read different letters (u^{-1}
    permutes the windows, so equal emitted letters leave distinct rests).
    So T_u collides iff a cycle is reachable from a pair of distinct states,
    and the starts are the pairs p < q: `Transducer.height` reads (p, q) and
    (q, p) as one node.
    """
    t = e.point_map
    starts = [(p, q) for p in range(t.tail) for q in range(p + 1, t.tail)]
    return t.height(starts) is not None


def read_code(e: PermutativeEndomorphism) -> Optional[C.SlidingBlockCode]:
    """The sliding block code of lambda_u, or None if lambda_u does not
    commute with the shift.

    The local rule is the letters T_u emits at radius L = max(level(u), 1),
    minimized, checked exactly: padded back to radius L, the code's transducer
    runs in lockstep with T_u from the diagonal pairs.  That compares T_u's
    states with the code's windows.  A code commutes with the shift, and a
    T_u that does is the code of its first letters, so the check fails
    exactly when lambda_u does not commute with the shift.
    """
    radius, t = max(e.unitary.level, 1), e.point_map
    code = C.minimize(C.SlidingBlockCode(e.n, radius, tuple(x + 1 for x, _ in t.step)))
    return code if t.agrees(C.transducer(C.pad(code, radius))) else None


def apply_diag(e: PermutativeEndomorphism, x: DiagonalElement) -> DiagonalElement:
    """lambda_u(x) = x o T_u: on each word of length k + L - 1, k = level(x),
    x at the first k letters T_u emits, read through the cached `e.runs(k)`."""
    if e.n != x.n:
        raise ValueError("alphabet sizes differ")
    x = W.reduce(x)
    if x.level == 0:
        return x
    level = x.level + max(e.unitary.level, 1) - 1
    _check_capacity(e.n, level)
    return W.reduce(DiagonalElement(e.n, level, itemgetter(*e.runs(x.level))(x.coeffs)))


def compose(e1: PermutativeEndomorphism, e2: PermutativeEndomorphism) -> PermutativeEndomorphism:
    """lambda_u o lambda_w as a permutative endomorphism, read through e1's
    cached cocycles."""
    return endomorphism(e1.convolve(e2.unitary))


def agree_on_diagonal(a: PermutationUnitary, b: PermutationUnitary) -> bool:
    """Exact test: do lambda_a and lambda_b restrict to the same map on D_n?
    That is T_a = T_b, both written at one level, in lockstep on one input."""
    if a.n != b.n:
        raise ValueError("alphabet sizes differ")
    level = max(a.level, b.level, 1)
    t_a, t_b = (PermutativeEndomorphism(U.embed(v, level)).point_map for v in (a, b))
    return t_a.agrees(t_b)


def is_identity_on_diagonal(u: PermutationUnitary) -> bool:
    """Is lambda_u the identity on the diagonal?

    Exact by the reduction test: the diagonal restriction determines a
    permutative unitary.  A point-map cross-check would be empty, since u
    reduces to level 0 only when its ranks are the identity permutation, and
    then T_u is the identity transducer.
    """
    return u.is_identity()


def commutes_with_shift_on_diagonal(e: PermutativeEndomorphism) -> bool:
    """Does lambda_u commute with the canonical shift on the diagonal?
    Exactly when its code can be read off (`read_code`)."""
    return read_code(e) is not None


def phi_commutation_identity(v: PermutationUnitary) -> bool:
    """Evaluate v phi(v) theta phi(v^*) == phi(v) theta, exactly.

    Holds iff lambda_v commutes with the canonical shift on the whole
    algebra; every level-1 v passes, genuinely level-2 unitaries need not.
    """
    theta = U.flip_unitary(v.n)
    pv = U.phi_shift(v, 1)
    lhs = U.multiply(U.multiply(U.multiply(v, pv), theta), U.phi_shift(U.inverse(v), 1))
    rhs = U.multiply(pv, theta)
    return lhs == rhs


def is_in_ign(e: PermutativeEndomorphism) -> Optional[int]:
    """Least k with (lambda_u o phi^k) = phi^k on the diagonal, or None: on
    points sigma^k o T_u = sigma^k, so T_u and the identity transducer, run
    on one input, emit the same letters from the (k+1)-th on, exactly."""
    t = e.point_map
    return t.agree_after(C.Transducer.identity(t.n, t.tail), t.diagonal)


def eventual_commutation(e: PermutativeEndomorphism) -> Optional[int]:
    """Least m with sigma^m o T_u o sigma = sigma^{m+1} o T_u, or None: T_u
    after the first window w of z and T_u on sigma z, from the state of w's
    last L - 1 letters, emit the same letters from the (m+1)-th on, exactly.
    """
    t = e.point_map
    return t.agree_after(t, {(s, w % t.tail) for w, (_, s) in enumerate(t.step)})


@dataclass(frozen=True)
class AutomorphismVerdict:
    """Outcome of certification; `inverse` is present exactly for "automorphism"."""

    verdict: str  # "automorphism" | "not_automorphism" | "unknown"
    inverse: Optional[PermutationUnitary] = None
    degree: Optional[int] = None
    budget: Optional[int] = None


def certify_automorphism(e: PermutativeEndomorphism, budget: int) -> AutomorphismVerdict:
    """Decide whether lambda_u is an automorphism, with a verified certificate.

    O_n is simple, so lambda_u has a permutative inverse v exactly when
    lambda_u(v) = u^*; then v = w_s = u_s^* u^* u_s for every s >= level(v),
    and a w_s of level <= s always solves it.  So the first s <= budget with
    level(w_s) <= s gives the inverse, and there is one exactly when lambda_u
    is an automorphism whose inverse has level <= budget; both convolutions
    are still checked to be the identity, each as a rank identity
    (`_direct_inverse`).  The levels start at
    s0 = min(max(level(u), 1), budget), exactly: each s < s0 finds nothing or
    the v that s0 finds, since v = w_s0 once s0 >= level(v).  Before the
    levels s > level(u), the largest ones, T_u is tested for injectivity: a
    permutative inverse v makes T_u o T_v the identity on points, so a
    colliding T_u skips them without changing the verdict.  Otherwise, when
    `read_code` finds lambda_u shift-commuting, a degree greater than one
    proves the point map is not injective, and degree one (so m = 0: any
    m > 0 needs a wider window) with an inverse code beta certifies a shift
    automorphism whose inverse is w_s at s = radius(beta), the lift of beta.
    Everything else is Unknown at the given budget.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    level = e.unitary.level
    for s in range(min(max(level, 1), budget), budget + 1):
        if s == level + 1 and not point_map_is_injective(e):
            break
        w = _direct_inverse(e, s)
        if w is not None:
            return AutomorphismVerdict("automorphism", inverse=w)
    code = read_code(e)
    if code is not None:
        found = C.en_inverse_search(code, budget, max(budget, 2 * code.radius))
        if found is not None:
            beta, m = found
            deg = C.degree(code, beta, m)
            if deg > 1:
                return AutomorphismVerdict("not_automorphism", degree=deg)
            # degree one: the lift of beta has level <= radius(beta), so is w_s
            w = _direct_inverse(e, beta.radius)
            if w is not None:
                return AutomorphismVerdict("automorphism", inverse=w)
    return AutomorphismVerdict("unknown", budget=budget)


def _direct_inverse(e: PermutativeEndomorphism, s: int):
    """w_s = u_s^* u^* u_s, or None if level(w_s) > s; a w_s of level <= s is
    verified by both convolutions, convolution(u, w_s) = 1 and
    convolution(w_s, u) = 1, each checked as a rank identity
    (`_convolves_to_one`).  u^* and u_s^* are the cached cocycle inverses, so
    w_s is one gather."""
    w = U.reduce(U.conjugate(e.u_k_star(1), e.u_k(s), e.u_k_star(s)))
    if w.level > s:
        return None
    if _convolves_to_one(e, w) and _convolves_to_one(endomorphism(w), e.unitary):
        return w
    raise AssertionError("the direct inverse fails verification")


def _convolves_to_one(e: PermutativeEndomorphism, w: PermutationUnitary) -> bool:
    """Is convolution(u, w) = u_m w u_m^* u the identity, for u = e.unitary
    and m = level(w)?  Exactly when w (u_m^* u) = u_m^*.  u and w are at
    most u_m^*'s level, m + level(u) - 1, so that is one block copy and one
    lifted gather (`multiply`), compared as rank tuples at that level, with
    no reduce and no u_m.  When u or w has level 0 the convolution is the
    other one, so both must be the identity."""
    u = e.unitary
    if u.level == 0 or w.level == 0:
        return u.is_identity() and w.is_identity()
    star = e.u_k_star(w.level)
    return U.multiply(w, U.multiply(star, u)).ranks == star.ranks


def property_p_data(
    e: PermutativeEndomorphism, inverse: PermutationUnitary
) -> tuple:
    """(m_upper, m_min) for alpha = lambda_u with inverse certificate.

    m_upper = level(inverse) - 1 is guaranteed; m_min is the least m for which
    alpha phi^k(x) = phi^{k-m} alpha phi^m(x) holds for all level-1 x and
    every k >= m, decided exactly.

    On points that is T_u(z)_{d+m+1} = T_u(sigma^d z)_{m+1} for every d >= 0,
    which is sigma^m o T_u o sigma = sigma^{m+1} o T_u (`eventual_commutation`).
    That is the case d = 1 read at every later letter; conversely, by
    induction on d, T_u(z)_{d+m+1} = T_u(sigma z)_{d+m} = ... =
    T_u(sigma^d z)_{m+1}.  So m_min is the eventual-commutation index.
    """
    m_upper = max(U.reduce(inverse).level - 1, 0)
    m_min = eventual_commutation(e)
    if m_min is None or m_min > m_upper:
        raise ValueError("inverse certificate violates the guaranteed property-(P) bound")
    return m_upper, m_min


def braiding(e: PermutativeEndomorphism) -> PermutationUnitary:
    """The unitary w with beta = Ad(w) the braiding automorphism of
    alpha = lambda_u, alpha phi = beta phi alpha: w = u.

    By the Cuntz relations lambda_u(S_i x S_i^*) = u S_i lambda_u(x) S_i^* u^*,
    and summing over i gives lambda_u phi = Ad(u) phi lambda_u; so the formula
    alpha( sum_j P_j phi(alpha^{-1}(x_j)) ) is u x u^* on the diagonal.  The
    braid identity is checked exactly, on the two convolutions.
    """
    theta = U.flip_unitary(e.n)
    lhs = convolution(e.unitary, theta)
    rhs = convolution(convolution(ad_unitary(e.unitary), theta), e.unitary)
    if not agree_on_diagonal(lhs, rhs):
        raise AssertionError("Ad(u) fails the braid identity")
    return e.unitary
