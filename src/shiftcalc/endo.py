"""Permutative endomorphisms acting on the diagonal.

A permutation unitary u of level r induces the endomorphism sending S_i to
u S_i; on a level-k diagonal element it acts as conjugation by the cocycle
product u_k = u phi(u) ... phi^{k-1}(u).  Composition is carried by the
convolution product of unitaries, so every identity here is an exact
statement about finite permutations.

On the diagonal lambda_u(x) = x o T_u for a homeomorphism T_u of the
one-sided n-shift, and T_u is read only as a `codes.Transducer`
(`point_map`, cached) whose state is the rest of u^{-1}(window) after the
letter it emits.  The cocycle inverse u_k^* is T_u's run table of k letters
(`Transducer.runs`): on a word of length k + level(u) - 1 it is the rank of
the first k letters T_u emits times n^(level(u)-1) plus the state reached.
`apply_diag` reads x through the emitted letters of that table, as a code's
dual action reads its transducer's.  Every question on the diagonal asks
from which letter on two transducers, run in lockstep on one input, emit
the same letters, and `Transducer.agree_after` answers each exactly by the
one depth-first search of a pair graph (at most tail^2 n edges) that also
decides collisions.  An equality is the answer 0: T_a against T_b from the
diagonal pairs (`agree_on_diagonal`).  The paper's eventual questions ask
for the letter itself: T_u against the identity (`is_in_ign`, the inner
kernel) and T_u after one letter of z against T_u on sigma z
(`eventual_commutation`, property (P)'s least m, and the one
shift-commutation test).  So `read_code` runs no lockstep of its own:
sigma^m o T_u, the point map of lambda_u o phi^m, is a code exactly when m
is at least that index, and the code read off the last letters of T_u's
runs of m + 1 letters is checked at its first letter, one table
comparison.  None builds a cocycle product.

Certification builds the inverse by algebra, not by search: lambda_u has a
permutative inverse v exactly when lambda_u(v) = u^*, and then v is
u_s^* u^* u_s for every s >= level(v), while a u_s^* u^* u_s of level <= s is
always that v.  So at budget b, "automorphism" is the verdict on exactly the
automorphisms of O_n whose inverse has level <= b, and on the shift
automorphisms that the degree route finds an inverse code for.  A level
s < level(u) finds nothing or the v that s = level(u) finds, so the levels
start at s = level(u) (at 1 for level(u) = 0, and at b when level(u) > b)
with the same verdict.  The stages run in this order: the eventual
commutation of T_u, the level s = level(u), the collision test on T_u, the
levels above level(u) up to b, the degree route.  By the paper's theorem an
automorphism of O_n that preserves D_n and F_n, as a permutative inverse
makes lambda_u, restricts to a T_u that eventually commutes with sigma: when
none does, no level can return and no code is read.  A
permutative inverse v gives T_u o T_v = T_v o T_u = id on points, so when
T_u collides (`point_map_is_injective` is false, decided on the pair graph of
T_u) no level can return and certification goes straight to the degree
route.  w_s is one scatter through the run tables u_s^* and u^*, so
certification builds no u_s.  Both convolutions of w_s with u are checked
as rank identities (`is_inverse`, which also checks the certificates that
`bridge.weyl_class_equal` is given): u_m w u_m^* u = 1 (m = level(w))
exactly when w (u_m^* u) = u_m^*, and w_l u w_l^* w = 1 (l = level(u))
exactly when u (w_l^* w) = w_l^*, each one block copy and one lifted
gather, with no reduce and no u_m or w_l.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Optional

from . import codes as C
from .capacity import check as _check_capacity, fits
from . import unitaries as U
from . import words as W
from .unitaries import PermutationUnitary
from .words import DiagonalElement


def convolution(u: PermutationUnitary, w: PermutationUnitary) -> PermutationUnitary:
    """Unitary of the composite endomorphism: conv(u, w) h as lambda_u o lambda_w.

    The product is lambda_u(w) u = u_m w u_m^* u for w of level m, reduced;
    u_m^* is lambda_u's run table and u_m its inverse.
    """
    if u.n != w.n:
        raise ValueError("alphabet sizes differ")
    e = endomorphism(u)
    if w.level == 0:
        return e.unitary
    star = e.u_k_star(w.level)
    conj = U.multiply(U.multiply(U.inverse(star), w), star)
    return U.reduce(U.multiply(conj, e.unitary))


def ad_unitary(w: PermutationUnitary) -> PermutationUnitary:
    """The unitary w phi(w^*), whose endomorphism is Ad(w)."""
    return U.reduce(U.multiply(w, U.phi_shift(U.inverse(w), 1)))


@dataclass(frozen=True)
class PermutativeEndomorphism:
    """lambda_u for a permutation unitary u, with its point map and cached
    cocycle inverses."""

    unitary: PermutationUnitary
    _uk_star: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def n(self) -> int:
        return self.unitary.n

    def u_k_star(self, k: int) -> PermutationUnitary:
        """u_k^*, cached: T_u's runs of k letters (`Transducer.runs`), at
        level k + level(u) - 1.  On a word of that length it is the rank of
        the first k letters T_u emits, times n^(level(u)-1), plus the state
        T_u reaches, since u_k^* = phi(u_{k-1}^*) u^*: u^* emits the first
        letter and leaves the state that phi(u_{k-1}^*) reads on.  The runs
        of one letter are u^* itself, which T_u is read off.  For
        level(u) = 0, u_k^* is the identity at level k - 1, the runs of
        k - 1 letters of the identity."""
        if k < 1:
            raise ValueError("k must be at least 1")
        if k not in self._uk_star:
            if k == 1:
                self._uk_star[k] = U.inverse(self.unitary)
            else:
                level = k + self.unitary.level - 1
                _check_capacity(self.n, level)
                runs = self.point_map.runs(k if self.unitary.level else level)
                self._uk_star[k] = U._trusted(self.n, level, tuple(runs))
        return self._uk_star[k]

    @cached_property
    def point_map(self) -> C.Transducer:
        """T_u as a transducer, cached: with L = max(level(u), 1), the step
        on the window p a splits u^{-1}(p a) into its first letter, emitted,
        and the rest, which is the next state, one of n^(L-1) (for the flip,
        12 emits 2 and leaves 1)."""
        u_star = self.u_k_star(1)
        src = U.embed(u_star, max(u_star.level, 1)).ranks
        tail = len(src) // self.n
        return C.Transducer(self.n, tail, tuple(map(divmod, src, repeat(tail))))

    @cached_property
    def commutation_index(self) -> Optional[int]:
        """`eventual_commutation`, cached."""
        t = self.point_map
        return t.agree_after(t, {(s, w % t.tail) for w, (_, s) in enumerate(t.step)})


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


def read_code(e: PermutativeEndomorphism, m: int = 0) -> Optional[C.SlidingBlockCode]:
    """The sliding block code of lambda_u o phi^m, or None if it does not
    commute with the shift.

    On points lambda_u o phi^m is sigma^m o T_u, which commutes with the
    shift exactly when m is at least the eventual-commutation index
    (`eventual_commutation`, the one shift-commutation test).  Then, at
    radius m + L, L = max(level(u), 1), the local rule is the (m+1)-th
    letter T_u emits: the last letter of each run of m + 1 letters
    (`Transducer.runs`), minimized.  Padded back to radius m + L, the code
    must give on each window w a the letter T_u emits on a from the state
    its runs of m letters reach on w: that is the first letter of the
    lockstep run of the code against T_u, and the later letters agree
    because sigma^m o T_u commutes with sigma.
    """
    index = e.commutation_index
    if index is None or index > m:
        return None
    t, radius = e.point_map, m + max(e.unitary.level, 1)
    _check_capacity(e.n, radius)
    rule = tuple(y // t.tail % e.n + 1 for y in t.runs(m + 1))
    code = C.minimize(C.SlidingBlockCode(e.n, radius, rule))
    first = tuple(t.step[y % t.tail * e.n + a][0] + 1 for y in t.runs(m) for a in range(e.n))
    return code if C.pad(code, radius).rule == first else None


def apply_diag(e: PermutativeEndomorphism, x: DiagonalElement) -> DiagonalElement:
    """lambda_u(x) = x o T_u: on each word of length k + level(u) - 1,
    k = level(x), x at the first k letters T_u emits, read through the cached
    run table u_k^* as a code's dual action reads its transducer's runs.
    lambda_u fixes x when u = 1 has level 0."""
    if e.n != x.n:
        raise ValueError("alphabet sizes differ")
    x = W.reduce(x)
    if x.level == 0 or e.unitary.level == 0:
        return x
    star = e.u_k_star(x.level)
    return C._pull_back(x, star.level, star.ranks, e.point_map.tail)


def agree_on_diagonal(a: PermutationUnitary, b: PermutationUnitary) -> bool:
    """Exact test: do lambda_a and lambda_b restrict to the same map on D_n?
    That is T_a = T_b, both written at one level: run in lockstep on one
    input from the diagonal pairs, they agree from the first letter on
    (`Transducer.agree_after` is 0)."""
    if a.n != b.n:
        raise ValueError("alphabet sizes differ")
    level = max(a.level, b.level, 1)
    t_a, t_b = (PermutativeEndomorphism(U.embed(v, level)).point_map for v in (a, b))
    return t_a.agree_after(t_b, t_a.diagonal, bound=0) == 0


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
    return e.commutation_index


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
    the v that s0 finds, since v = w_s0 once s0 >= level(v).  Before any
    level, a T_u that never commutes with the shift answers Unknown, as
    every stage would (the paper's theorem, in the module docstring).  Before the
    levels s > level(u), the largest ones, T_u is tested for injectivity: a
    permutative inverse v makes T_u o T_v the identity on points, so a
    colliding T_u skips them without changing the verdict.  Otherwise, when
    `read_code` finds lambda_u shift-commuting, its code goes through the
    one bounded E_n search, `codes.degree_certificate(code, budget)`: a
    degree greater than one proves the point map is not injective, and
    degree one (so m = 0: any m > 0 needs a wider window) with an inverse
    code beta certifies a shift automorphism whose inverse is w_s at
    s = radius(beta), the lift of beta.  A level s is tried only while its
    run table u_s^*, of n^(s + level(u) - 1) ranks, fits the capacity limit
    (`capacity.fits`), so a deep budget stops there as the E_n window does.
    Everything else is Unknown at the given budget.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if e.commutation_index is None:
        return AutomorphismVerdict("unknown", budget=budget)
    level = e.unitary.level
    for s in range(min(max(level, 1), budget), budget + 1):
        if not fits(e.n, s + level - 1):
            break
        if s == level + 1 and not point_map_is_injective(e):
            break
        w = _direct_inverse(e, s)
        if w is not None:
            return AutomorphismVerdict("automorphism", inverse=w)
    code = read_code(e)
    if code is not None:
        found = C.degree_certificate(code, budget)
        if found is not None:
            beta, _, deg, _ = found
            if deg > 1:
                return AutomorphismVerdict("not_automorphism", degree=deg)
            # degree one: the lift of beta has level <= radius(beta), so is w_s
            s = beta.radius
            w = _direct_inverse(e, s) if fits(e.n, s + level - 1) else None
            if w is not None:
                return AutomorphismVerdict("automorphism", inverse=w)
    return AutomorphismVerdict("unknown", budget=budget)


def _direct_inverse(e: PermutativeEndomorphism, s: int):
    """w_s = u_s^* u^* u_s (`_w_scatter`) reduced, or None if
    level(w_s) > s; a w_s of level <= s is verified by both convolutions,
    convolution(u, w_s) = 1 and convolution(w_s, u) = 1 (`is_inverse`)."""
    w = U.reduce(_w_scatter(e, s))
    if w.level > s:
        return None
    if is_inverse(e, w):
        return w
    raise AssertionError("the direct inverse fails verification")


def _w_scatter(e: PermutativeEndomorphism, s: int) -> PermutationUnitary:
    """u_s^* u^* u_s at u_s^*'s level.  It sends u_s^*(i) to u_s^*(u^*(i)),
    so it is one scatter of u_s^* u^* (a block copy, `multiply`) through
    u_s^*, from the cached run tables alone: no cocycle is inverted."""
    star = e.u_k_star(s)
    ranks = [0] * len(star.ranks)
    for i, image in zip(star.ranks, U.multiply(star, e.u_k_star(1)).ranks):
        ranks[i] = image
    return U._trusted(e.n, star.level, tuple(ranks))


def is_inverse(e: PermutativeEndomorphism, w: PermutationUnitary) -> bool:
    """Is lambda_w the inverse of lambda_u, u = e.unitary?  Exactly when
    convolution(u, w) = 1 and convolution(w, u) = 1, each checked as a rank
    identity (`_convolution_is_one`), with no convolution built or reduced."""
    if e.n != w.n:
        raise ValueError("alphabet sizes differ")
    return _convolution_is_one(e, w) and _convolution_is_one(endomorphism(w), e.unitary)


def _convolution_is_one(e: PermutativeEndomorphism, w: PermutationUnitary) -> bool:
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
    m_min = e.commutation_index
    if m_min is None or m_min > m_upper:
        raise ValueError("inverse certificate violates the guaranteed property-(P) bound")
    return m_upper, m_min
