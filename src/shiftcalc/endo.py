"""Permutative endomorphisms acting on the diagonal.

A permutation unitary u of level r induces the endomorphism sending S_i to
u S_i; on a level-k diagonal element it acts as conjugation by the cocycle
product u_k = u phi(u) ... phi^{k-1}(u).  Composition is carried by the
convolution product of unitaries, so every identity here is an exact
statement about finite permutations.

On the diagonal lambda_u(x) = x o T_u for a homeomorphism T_u of the
one-sided n-shift, and T_u is read only as a finite transducer
(`point_map`, cached) whose state is the last level(u) - 1 letters read:
`apply_diag` reads x through the letters T_u emits, and every equality on
the diagonal is an equality of transducers run in lockstep on one input
(`transducers_agree`): T_a against T_b (`agree_on_diagonal`), T_u against
itself one letter later (`commutes_with_shift_on_diagonal`), against the
identity k letters later (`is_in_ign`) and against a code
(`bridge.read_code`).  Property (P) compares T_u(z) with T_u(sigma^d z) on
the same pairs of states.  None of them builds a cocycle product, and the
braiding automorphism is Ad(u) by the Cuntz relations (`braiding`).

Certification builds the inverse by algebra, not by search: lambda_u has a
permutative inverse v exactly when lambda_u(v) = u^*, and then v is
u_s^* u^* u_s for every s >= level(v).  So at budget b, "automorphism" is the
verdict on exactly the automorphisms of O_n whose inverse has level <= b,
and on the shift automorphisms that the degree route finds an inverse code
for.  The stages run in this order: the levels s <= level(u), then the
collision test on T_u, then the levels up to b, then the degree route.  A
permutative inverse v gives T_u o T_v = T_v o T_u = id on points, so when
T_u collides (`point_map_is_injective` is false, decided on the pair graph of
T_u) no level can return and certification goes straight to the degree
route.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Optional

from . import codes as C
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
    """lambda_u for a permutation unitary u, with cached cocycle products,
    point map and emitted runs."""

    unitary: PermutationUnitary
    _uk: dict = field(default_factory=dict, compare=False, repr=False)
    _runs: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def n(self) -> int:
        return self.unitary.n

    def u_k(self, k: int) -> PermutationUnitary:
        """The cocycle product u_k, cached, built as u phi(u_{k-1}).

        Shifting the larger factor and embedding the smaller one copies long
        runs, where u_{k-1} phi^{k-1}(u) would embed u_{k-1} rank by rank.
        """
        if k not in self._uk:
            if k <= 1:
                self._uk[k] = U.u_k_product(self.unitary, k)
            else:
                self._uk[k] = U.multiply(self.unitary, U.phi_shift(self.u_k(k - 1), 1))
        return self._uk[k]

    def convolve(self, w: PermutationUnitary) -> PermutationUnitary:
        """convolution(u, w), with u_m read from the cache."""
        if self.n != w.n:
            raise ValueError("alphabet sizes differ")
        m = w.level
        if m == 0:
            return self.unitary
        um = self.u_k(m)
        conj = U.multiply(U.multiply(um, w), U.inverse(um))
        return U.reduce(U.multiply(conj, self.unitary))

    @cached_property
    def point_map(self) -> tuple:
        """T_u as a transducer (tail, step) over 0-based letters, cached: the
        state is the rank of the last L - 1 letters read, L = max(level(u), 1),
        one of tail = n^(L-1), and step[p n + a] = (emitted letter, next state)
        splits u^{-1} of the window p a into its first letter and the rest."""
        src = U.inverse(U.embed(self.unitary, max(self.unitary.level, 1))).ranks
        tail = len(src) // self.n
        return tail, [divmod(s, tail) for s in src]

    def runs(self, k: int) -> list:
        """Per word of length k + L - 1, in rank order: the rank of the first k
        letters T_u emits, times tail, plus T_u's state; cached.  Grown a letter
        at a time, as T_u's step takes p a to (letter) tail + next state."""
        if k not in self._runs:
            n, (tail, step) = self.n, self.point_map
            rows = [[y * tail + s - p * n for y, s in step[p * n : p * n + n]] for p in range(tail)]
            runs = range(tail)
            for _ in range(k):
                runs = [r * n + d for r in runs for d in rows[r % tail]]
            self._runs[k] = runs
        return self._runs[k]


def endomorphism(u: PermutationUnitary) -> PermutativeEndomorphism:
    return PermutativeEndomorphism(U.reduce(u))


def point_map_is_injective(e: PermutativeEndomorphism) -> bool:
    """Is T_u injective?  Exact, on the pair graph of T_u.

    Two points with one image either start from distinct states or reach a
    pair of distinct states when they first read different letters (u^{-1}
    permutes the windows, so equal emitted letters leave distinct rests).
    Every pair of states is a start, so T_u collides iff a cycle is reachable
    from a pair of distinct states.
    """
    tail, step = e.point_map
    starts = [(p, q) for p in range(tail) for q in range(tail) if p != q]
    return C.pair_graph_height(e.n, step, starts) is not None


def _pair_moves(n: int, tail: int, step: list) -> list:
    """Per letter a, the lists (nxt, shift) that step pairs of states of T_u.

    R_d holds the pairs (p, q) with p the state of T_u after d letters of z
    and q the state T_u starts from on sigma^d z, the last level(u) - 1
    letters read; from there on both runs read the same input.  On the letter
    a, T_u goes from p to nxt[p] and the window goes from q to shift[q].
    """
    return [
        ([step[p * n + a][1] for p in range(tail)], [(q * n + a) % tail for q in range(tail)])
        for a in range(n)
    ]


def _lag_pairs(moves: list, pairs: set) -> set:
    """R_{d+1} from R_d."""
    return {(nxt[p], shift[q]) for p, q in pairs for nxt, shift in moves}


def transducers_agree(n: int, step_a: list, step_b: list, starts) -> bool:
    """Do two transducers, step[p n + a] = (emitted letter, next state), run
    in lockstep on one input from any pair in `starts`, emit the same letters?

    Exact, over the finitely many reachable pairs; breadth first, so the
    start pairs are checked first."""
    seen = set(starts)
    todo = list(seen)
    for p, q in todo:
        for (x, s), (y, t) in zip(step_a[p * n : p * n + n], step_b[q * n : q * n + n]):
            if x != y:
                return False
            if (s, t) not in seen:
                seen.add((s, t))
                todo.append((s, t))
    return True


def apply_diag(e: PermutativeEndomorphism, x: DiagonalElement) -> DiagonalElement:
    """lambda_u(x) = x o T_u for x of level k >= 1: on each word of length
    k + L - 1, L = max(level(u), 1), x at the first k letters T_u emits, read
    through the cached runs `e.runs(k)`."""
    if e.n != x.n:
        raise ValueError("alphabet sizes differ")
    x = W.reduce(x)
    if x.level == 0:
        return x
    level = x.level + max(e.unitary.level, 1) - 1
    lifted = W.lift_table(x.coeffs, e.n, level)  # checks the capacity first
    return W.reduce(DiagonalElement(e.n, level, itemgetter(*e.runs(x.level))(lifted)))


def compose(e1: PermutativeEndomorphism, e2: PermutativeEndomorphism) -> PermutativeEndomorphism:
    """lambda_u o lambda_w as a permutative endomorphism."""
    return endomorphism(convolution(e1.unitary, e2.unitary))


def agree_on_diagonal(a: PermutationUnitary, b: PermutationUnitary) -> bool:
    """Exact test: do lambda_a and lambda_b restrict to the same map on D_n?
    That is T_a = T_b, both written at one level, in lockstep from every (p, p)."""
    if a.n != b.n:
        raise ValueError("alphabet sizes differ")
    level = max(a.level, b.level, 1)
    tail, step_a = PermutativeEndomorphism(U.embed(a, level)).point_map
    _, step_b = PermutativeEndomorphism(U.embed(b, level)).point_map
    return transducers_agree(a.n, step_a, step_b, [(p, p) for p in range(tail)])


def is_identity_on_diagonal(u: PermutationUnitary) -> bool:
    """Is lambda_u the identity on the diagonal?

    Exact by the reduction test (the diagonal restriction determines a
    permutative unitary); cross-checked as defense in depth, exactly, by
    running T_u in lockstep with the identity transducer.
    """
    result = U.reduce(u).is_identity()
    if result:
        tail, step = PermutativeEndomorphism(u).point_map
        identity = [divmod(w, tail) for w in range(len(step))]
        if not transducers_agree(u.n, step, identity, [(p, p) for p in range(tail)]):
            raise AssertionError("reduction and point-map tests disagree")
    return result


def commutes_with_shift_on_diagonal(e: PermutativeEndomorphism) -> bool:
    """Does lambda_u commute with the canonical shift on the diagonal?

    phi(x) = x o sigma there, so that is T_u o sigma = sigma o T_u on points:
    T_u runs in lockstep with itself from every pair of R_1.
    """
    tail, step = e.point_map
    pairs = _lag_pairs(_pair_moves(e.n, tail, step), {(s, s) for s in range(tail)})
    return transducers_agree(e.n, step, step, pairs)


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


def is_in_ign(e: PermutativeEndomorphism, max_k: int) -> Optional[int]:
    """Least k <= max_k with (lambda_u o phi^k) = phi^k on the diagonal.

    On points that is sigma^k o T_u = sigma^k: from every pair of R_k, T_u
    runs in lockstep with the identity transducer (whose first step is the
    cheap test that lambda_u fixes every phi^k(P_i)).  Each k-test is exact;
    absence merely means no k within the budget.
    """
    n = e.n
    tail, step = e.point_map
    identity = [divmod(w, tail) for w in range(tail * n)]
    moves = _pair_moves(n, tail, step)
    pairs = {(s, s) for s in range(tail)}
    for k in range(max_k + 1):
        if k:
            pairs = _lag_pairs(moves, pairs)
        if transducers_agree(n, step, identity, pairs):
            return k
    return None


@dataclass(frozen=True)
class AutomorphismVerdict:
    """Outcome of certification; `inverse` is present exactly for "automorphism"."""

    verdict: str  # "automorphism" | "not_automorphism" | "unknown"
    inverse: Optional[PermutationUnitary] = None
    degree: Optional[int] = None
    budget: Optional[int] = None


def certify_automorphism(e: PermutativeEndomorphism, budget: int) -> AutomorphismVerdict:
    """Decide whether lambda_u is an automorphism, with a verified certificate.

    O_n is simple, so lambda_u is an automorphism with a permutative inverse
    v exactly when lambda_u(v) = u^*.  For every s >= level(v) that v is
    w_s = u_s^* u^* u_s, and a w_s of level <= s always solves it.  So the
    first s <= budget with level(w_s) <= s gives the inverse, and there is
    one exactly when lambda_u is an automorphism whose inverse has level
    <= budget; both convolution compositions are still checked to be the
    identity.  Before the levels s > level(u), the largest ones, the point
    map T_u is tested for injectivity: a permutative inverse v makes T_u o T_v
    the identity on points, so a colliding T_u has none, and the remaining
    levels are skipped without changing the verdict.  Otherwise, in the
    shift-commuting case, a degree greater than one is an exact proof of
    non-injectivity of the induced point map, and a degree of one with an
    inverse code found within the window certifies a shift automorphism whose
    inverse lies beyond the budget.  Everything else is Unknown at the given
    budget.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    u = e.unitary
    u_star = U.inverse(u)
    for s in range(1, budget + 1):
        if s == u.level + 1 and not point_map_is_injective(e):
            break
        w = U.reduce(U.conjugate(u_star, e.u_k(s)))
        if w.level <= s:
            if is_identity_on_diagonal(convolution(w, u)) and is_identity_on_diagonal(
                e.convolve(w)
            ):
                return AutomorphismVerdict("automorphism", inverse=w)
            raise AssertionError("the direct inverse fails verification")
    if commutes_with_shift_on_diagonal(e):
        from . import bridge

        code = bridge.read_code(e)
        window = max(budget, 2 * max(code.radius, 1))
        found = C.en_inverse_search(code, budget, window)
        if found is not None:
            beta, m = found
            deg = C.degree(code, beta, m)
            if deg > 1:
                return AutomorphismVerdict("not_automorphism", degree=deg)
            # degree one: F_code is injective, and any m > 0 would need a
            # wider window than m = 0 does, so m = 0 and beta is the two-sided
            # inverse of a one-sided shift automorphism.  Lift it.
            v = bridge.unitary_from_shift_automorphism(beta)
            if is_identity_on_diagonal(convolution(v, u)) and is_identity_on_diagonal(
                e.convolve(v)
            ):
                return AutomorphismVerdict("automorphism", inverse=v)
    return AutomorphismVerdict("unknown", budget=budget)


def property_p_data(
    e: PermutativeEndomorphism, inverse: PermutationUnitary
) -> tuple:
    """(m_upper, m_min_verified) for alpha = lambda_u with inverse certificate.

    m_upper = level(inverse) - 1 is guaranteed; m_min_verified is the least
    m <= m_upper for which alpha phi^k(x) = phi^{k-m} alpha phi^m(x) holds
    for all level-1 x over the finite window m <= k <= m_upper + level(u) + 1.

    On points that is T_u(z)_{k+1} = T_u(sigma^{k-m} z)_{m+1}: for every pair
    (p, q) of R_d, d = k - m, the (m+1)-th letters T_u emits from p and from q
    agree on every input.
    """
    m_upper = max(U.reduce(inverse).level - 1, 0)
    window = m_upper + e.unitary.level + 1
    n = e.n
    tail, step = e.point_map
    moves = _pair_moves(n, tail, step)
    lags = [{(s, s) for s in range(tail)}]
    for _ in range(window):
        lags.append(_lag_pairs(moves, lags[-1]))
    emitted = [tuple(step[p * n + a][0] for a in range(n)) for p in range(tail)]

    def holds(m: int) -> bool:
        pairs = set().union(*lags[: window - m + 1])
        for _ in range(m):
            pairs = {(nxt[p], nxt[q]) for p, q in pairs for nxt, _ in moves}
        return all(emitted[p] == emitted[q] for p, q in pairs)

    if not holds(m_upper):
        raise ValueError("inverse certificate violates the guaranteed property-(P) bound")
    m_min = m_upper
    for m in range(m_upper):
        if holds(m):
            m_min = m
            break
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
