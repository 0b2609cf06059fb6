"""Sliding block codes on the full one-sided n-shift.

A code is a total local rule W_n^r -> {1, ..., n}; the induced point map is
F(x)_k = rule(x_k, ..., x_{k+r-1}), which commutes with the shift by
construction.  Dually, a code acts on the diagonal, and composition of the
diagonal endomorphisms corresponds to composing point maps the other way
round: the convention fixed here (and pinned by tests) is

    dual(alpha beta) = F_beta o F_alpha,

with code_compose(c1, c2) returning the code of F_{c1} o F_{c2}.

Inverse-to-shift-power search, degree, periodic orbits and the
orbit-permutation separations all live here; every returned certificate is
verified exactly against rule tables before it escapes.  Words are ranks in
lexicographic order (`jsonio` names them), periodic points among them.
One-sided shift automorphisms are decided exactly on a pair graph, with no
window bound, and their inverse rule is read off at that graph's window.
F_c and the point map T_u of lambda_u are both a `Transducer`, which holds
the run kernel, the pair graph and lockstep agreement, at once or eventually.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .capacity import CapacityError, check as _check_capacity, get_limit
from . import words as W
from .words import DiagonalElement, word_rank


class RefutationError(ArithmeticError):
    """An exact witness that a claimed certificate is false."""


@dataclass(frozen=True)
class Transducer:
    """A finite transducer over the letters 0, ..., n - 1 with `tail` states:
    from state p the letter a emits step[p n + a][0] and moves to state
    step[p n + a][1].  A run on an input word starts from the state ranked by
    the word's first L - 1 letters, tail = n^(L-1), so the diagonal pairs
    (p, p) are two runs on one input.  T_u of lambda_u and F_c of a code are
    both of this kind, and each algorithm on them is written here once."""

    n: int
    tail: int
    step: tuple

    @classmethod
    @lru_cache(maxsize=32)
    def identity(cls, n: int, tail: int) -> Transducer:
        """Each window emits its first letter and keeps the rest."""
        return cls(n, tail, tuple(divmod(w, tail) for w in range(tail * n)))

    @property
    def diagonal(self) -> list:
        """The start pairs (p, p): two runs on one input."""
        return [(p, p) for p in range(self.tail)]

    def runs(self, k: int) -> list:
        """Per input word of length k + L - 1, in rank order, the rank of the
        first k letters emitted.  Grown a letter at a time as runs, emitted
        rank times tail plus state."""
        n, tail, step = self.n, self.tail, self.step
        rows = [[y * tail + s - p * n for y, s in step[p * n : p * n + n]] for p in range(tail)]
        runs = range(tail)
        for _ in range(k):
            runs = [r * n + d for r in runs for d in rows[r % tail]]
        return [r // tail for r in runs]

    def height(self, starts) -> Optional[int]:
        """Longest path from a start pair in the pair graph, or None if a cycle
        is reachable from one.

        A node is a pair of states, and an edge reads one letter on each side
        with equal emitted letters: per state, the next states are grouped by
        the letter emitted, and the two groups of one letter pair up.  An
        infinite path from a start pair is two inputs with one output; the
        graph is finite, so there is one exactly when a cycle is reachable.
        Swapping the two runs maps the edges onto the edges, so (p, q) and
        (q, p) have one height and reach cycles together.  So a node is the
        unordered pair, numbered min(p, q) tail + max(p, q), which is exact
        for any starts and about halves the nodes.  One depth-first search: a
        node met again while on the current path closes a cycle, and heights
        are set in post-order (the stack holds ~node to finish a node).
        """
        n, tail = self.n, self.tail
        groups = [[[] for _ in range(n)] for _ in range(tail)]
        for w, (x, s) in enumerate(self.step):
            groups[w // n][x].append(s)
        height = [-1] * (tail * tail)  # -1 unseen, -2 on the current path
        succ = {}
        nodes = [p * tail + q if p <= q else q * tail + p for p, q in starts]
        stack = list(nodes)
        while stack:
            node = stack.pop()
            if node < 0:
                node = ~node
                height[node] = max([height[nxt] for nxt in succ.pop(node)], default=-1) + 1
            elif height[node] == -1:
                p, q = divmod(node, tail)
                succ[node] = nxt = [
                    s * tail + t if s <= t else t * tail + s
                    for here, there in zip(groups[p], groups[q])
                    for s in here
                    for t in there
                ]
                height[node] = -2
                stack.append(~node)
                stack += nxt
            elif height[node] == -2:
                return None
        return max((height[node] for node in nodes), default=0)

    def agrees(self, other: Transducer) -> bool:
        """Do the two, run in lockstep on one input from the diagonal pairs,
        emit the same letters?  Exact, over the finitely many reachable pairs,
        breadth first; it stops at the first letter that differs."""
        n, step_a, step_b = self.n, self.step, other.step
        seen = set(self.diagonal)
        todo = list(seen)
        for p, q in todo:
            for (x, s), (y, t) in zip(step_a[p * n : p * n + n], step_b[q * n : q * n + n]):
                if x != y:
                    return False
                if (s, t) not in seen:
                    seen.add((s, t))
                    todo.append((s, t))
        return True

    def agree_after(self, other: Transducer, starts) -> Optional[int]:
        """Least k such that the two, run in lockstep on one input from any
        pair in `starts`, emit the same letters from the (k+1)-th on, or None.
        The pairs reached after j letters are a function of those after j - 1,
        so the sets cycle, and a letter that differs in the cycle recurs."""
        n, step_a, step_b = self.n, self.step, other.step
        pairs, seen, after = frozenset(starts), {}, 0
        while pairs not in seen:
            seen[pairs] = j = len(seen)
            reached = set()
            for p, q in pairs:
                for (x, s), (y, t) in zip(step_a[p * n : p * n + n], step_b[q * n : q * n + n]):
                    if x != y:
                        after = j + 1
                    reached.add((s, t))
            pairs = frozenset(reached)
        return None if after > seen[pairs] else after


@dataclass(frozen=True)
class SlidingBlockCode:
    """Radius-r local rule, stored as a table over lexicographic windows."""

    n: int
    radius: int
    rule: tuple  # rule[rank(window)] in {1, ..., n}

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("alphabet size must be at least 2")
        if self.radius < 1:
            raise ValueError("radius must be at least 1")
        if len(self.rule) != self.n**self.radius:
            raise ValueError("rule table has wrong length")
        if any(not 1 <= s <= self.n for s in self.rule):
            raise ValueError("rule values outside alphabet")

    def __eq__(self, other):
        if not isinstance(other, SlidingBlockCode):
            return NotImplemented
        return self.n == other.n and code_equal(self, other)

    def __hash__(self):
        c = minimize(self)
        return hash((c.n, c.radius, c.rule))

    def local(self, window: Sequence[int]) -> int:
        return self.rule[word_rank(window, self.n)]

    def output(self, word: Sequence[int]) -> tuple:
        """Sliding evaluation on a finite word of length >= radius."""
        r = self.radius
        return tuple(self.local(word[j : j + r]) for j in range(len(word) - r + 1))

    def output_ranks(self, length: int) -> list:
        """out[X] = rank of output(word X), for every word X of `length` >= radius:
        the letters the code's transducer emits on X (`Transducer.runs`)."""
        n, r = self.n, self.radius
        if length < r:
            raise ValueError("output needs words of length at least the radius")
        _check_capacity(n, length)
        return transducer(self).runs(length - r + 1)


def identity_code(n: int) -> SlidingBlockCode:
    return SlidingBlockCode(n, 1, tuple(range(1, n + 1)))


def letter_code(n: int, images: Sequence[int]) -> SlidingBlockCode:
    """Radius-1 code applying a letter permutation (or any letter map)."""
    if len(images) != n:
        raise ValueError("need one image per letter")
    return SlidingBlockCode(n, 1, tuple(images))


def shift_power_code(n: int, m: int) -> SlidingBlockCode:
    """The code of the m-th shift power: rule(w) = w_{m+1}, the last letter."""
    if m < 0:
        raise ValueError("shift power must be nonnegative")
    return SlidingBlockCode(n, m + 1, tuple(w % n + 1 for w in range(_check_capacity(n, m + 1))))


def shift_code(n: int) -> SlidingBlockCode:
    return shift_power_code(n, 1)


def kitchens_code() -> SlidingBlockCode:
    """The order-two automorphism of the one-sided 3-shift swapping 13 and 23:
    over the windows 11, 12, ..., 33, rule(a b) = a but rule(13) = 2, rule(23) = 1."""
    return SlidingBlockCode(3, 2, (1, 1, 2, 2, 2, 1, 3, 3, 3))


def pad(c: SlidingBlockCode, radius: int) -> SlidingBlockCode:
    """Rewrite at a larger radius; the extra trailing letters are ignored."""
    if radius < c.radius:
        raise ValueError("cannot pad to a smaller radius")
    if radius == c.radius:
        return c
    return SlidingBlockCode(c.n, radius, W.lift_table(c.rule, c.n, radius))


def minimize(c: SlidingBlockCode) -> SlidingBlockCode:
    """Smallest-radius table inducing the same point map."""
    radius, rule = W.strip_table(c.rule, c.n, c.radius, floor=1)
    if radius == c.radius:
        return c
    return SlidingBlockCode(c.n, radius, rule)


def code_equal(c1: SlidingBlockCode, c2: SlidingBlockCode) -> bool:
    """Equality of induced point maps (tables compared at a common radius)."""
    if c1.n != c2.n:
        raise ValueError("alphabet sizes differ")
    r = max(c1.radius, c2.radius)
    return pad(c1, r).rule == pad(c2, r).rule


def code_compose(c1: SlidingBlockCode, c2: SlidingBlockCode) -> SlidingBlockCode:
    """The code of F_{c1} o F_{c2}, radius r1 + r2 - 1."""
    if c1.n != c2.n:
        raise ValueError("alphabet sizes differ")
    n = c1.n
    radius = c1.radius + c2.radius - 1
    rule = tuple(c1.rule[y] for y in c2.output_ranks(radius))
    return SlidingBlockCode(n, radius, rule)


def code_apply_diag(c: SlidingBlockCode, x: DiagonalElement) -> DiagonalElement:
    """Dual action on the diagonal: result(v) = x(output(v))."""
    if c.n != x.n:
        raise ValueError("alphabet sizes differ")
    x = W.reduce(x)
    if x.level == 0:
        return x
    n, k, r = c.n, x.level, c.radius
    coeffs = tuple(x.coeffs[y] for y in c.output_ranks(k + r - 1))
    return W.reduce(DiagonalElement(n, k + r - 1, coeffs))


def trace_necessary_check(c: SlidingBlockCode, max_level: int) -> bool:
    """Necessary condition for E_n membership: dual images keep the trace.

    Checks |support(alpha(P_mu))| = n^{r-1} at level |mu| + r - 1 for all
    words up to max_level; a failure soundly rules E_n membership out.
    """
    n, r = c.n, c.radius
    for k in range(1, max_level + 1):
        counts = [0] * n**k
        for y in c.output_ranks(k + r - 1):
            counts[y] += 1
        if any(cnt != n ** (r - 1) for cnt in counts):
            return False
    return True


def shift_factor(c: SlidingBlockCode) -> tuple:
    """(core, j) with c = core o sigma^j, j < radius the largest: the rule
    ignores x_1 ... x_j, and the core reads its first letter or has radius 1.

    Strips leading letters while the n blocks of the table are all equal.
    """
    rule, j = c.rule, 0
    while j < c.radius - 1:
        head = rule[: len(rule) // c.n]
        if rule != head * c.n:
            break
        rule, j = head, j + 1
    return SlidingBlockCode(c.n, c.radius - j, rule), j


def en_inverse_search(c: SlidingBlockCode, max_m: int, max_window: int) -> Optional[tuple]:
    """Search for (beta, m) with alpha beta = beta alpha = phi^m, exactly.

    beta is extracted by checking whether x_{m+1} is determined by a bounded
    window of the output; every candidate is verified by rule-table
    composition against the shift power before being returned.  Absence
    within the bounds is inconclusive, not a disproof.

    Every m below the j of `shift_factor(c)` is skipped, exactly: the output
    ignores x_1 ... x_j, so for m < j two words differing only at x_{m+1}
    share an output but not a target, and every window s would fail.
    """
    n, r = c.n, c.radius
    for m in range(shift_factor(c)[1], max_m + 1):
        for s in range(1, max_window + 1):
            if m + 1 > s + r - 1:
                continue
            table = {}
            determined = True
            for x in W.enumerate_words(n, s + r - 1):
                y = c.output(x)
                target = x[m]
                if table.setdefault(y, target) != target:
                    determined = False
                    break
            if not determined:
                continue
            rule = tuple(table.get(y, 1) for y in W.enumerate_words(n, s))
            beta = SlidingBlockCode(n, s, rule)
            sigma_m = shift_power_code(n, m)
            if code_equal(code_compose(beta, c), sigma_m) and code_equal(
                code_compose(c, beta), sigma_m
            ):
                return minimize(beta), m
    return None


def transducer(c: SlidingBlockCode) -> Transducer:
    """F_c as a transducer, its state the last r - 1 letters read:
    step[p n + a] = (rule(p a) - 1, the last r - 1 of p a)."""
    states = len(c.rule) // c.n
    return Transducer(c.n, states, tuple([(x - 1, w % states) for w, x in enumerate(c.rule)]))


def automorphism_window(c: SlidingBlockCode) -> Optional[int]:
    """The least s at which F(x)_1 ... F(x)_s determines x_1, or None if F_c is
    not injective (an injective F_c is an automorphism of the one-sided shift).

    Decided on the pair graph of c, padded to radius r >= 2: the state is the
    last r - 1 letters read, and the start pairs are those whose first
    letters differ.  F_c is injective iff no cycle is reachable from a start
    pair; then the longest path from one, plus one, is the window.
    """
    c = pad(c, max(c.radius, 2))
    n = c.n
    states = _check_capacity(n, c.radius - 1)
    _check_capacity(n, 2 * c.radius - 2)  # the pair graph's nodes
    head = states // n
    starts = [(p, q) for p in range(states) for q in range(states) if p // head != q // head]
    height = transducer(c).height(starts)
    return None if height is None else height + 1


def one_sided_automorphism_check(c: SlidingBlockCode) -> Optional[SlidingBlockCode]:
    """Two-sided inverse code if c is an automorphism of the one-sided shift,
    else None; decided exactly by automorphism_window.  At that window s the
    inverse rule is one gather, rule[out[x]] = x_1 over output_ranks(s + r - 1),
    and both compositions are checked against the identity."""
    window = automorphism_window(c)
    if window is None:
        return None
    out = c.output_ranks(window + c.radius - 1)
    head = len(out) // c.n
    rule = [1] * c.n**window
    for x, y in enumerate(out):
        rule[y] = x // head + 1
    beta = minimize(SlidingBlockCode(c.n, window, tuple(rule)))
    if not code_compose(beta, c) == code_compose(c, beta) == identity_code(c.n):
        raise AssertionError("no inverse at the pair-graph window %d" % window)
    return beta


def degree(c: SlidingBlockCode, beta: SlidingBlockCode, m: int) -> int:
    """The constant number k of preimages of a point, given an E_n certificate.

    With F_beta F_c = sigma^m and b = rule_beta(1...1), every preimage z of
    the fixed point (1,1,...) has sigma^m(z) = F_beta(1,1,...) = (b,b,...),
    so z = w b b ... with |w| = m; and F_c(b b ...) = (1,1,...) because
    F_c F_beta = sigma^m.  So k counts the words w of length m for which
    F_c(w b b ...) starts with 1^m.  k | n^m is checked here; k * degree(beta)
    = n^m is the caller's cross-check (the paired degree is computed with
    the roles of c and beta swapped).
    """
    tail = (beta.rule[0],) * (c.radius - 1)
    target = (1,) * m
    k = sum(c.output(w + tail) == target for w in W.enumerate_words(c.n, m))
    if k == 0:
        raise RefutationError("the fixed point has no preimage; certificate refuted")
    if (c.n**m) % k:
        raise RefutationError(
            "degree %d does not divide n^m = %d; certificate refuted" % (k, c.n**m)
        )
    return k


def periodic_points(n: int, r: int) -> list:
    """The phi-orbits of the period-r points, as sorted lists of ranks, listed
    by least rank.  A point is the rank w of its length-r repeating word, and
    the shift rotates that word: w -> (w mod n^(r-1)) n + w // n^(r-1)."""
    if r < 1:
        raise ValueError("period must be at least 1")
    size = _check_capacity(n, r)
    head = size // n
    seen = bytearray(size)
    orbits = []
    for w in range(size):
        orbit = []
        while not seen[w]:
            seen[w] = 1
            orbit.append(w)
            w = (w % head) * n + w // head
        if orbit:
            orbits.append(sorted(orbit))
    return orbits


def orbit_permutation(c: SlidingBlockCode, r: int) -> dict:
    """The permutation induced on the phi-orbits of period-r points, least
    rank to least rank.  The image of the point w is one output_ranks entry,
    at w repeated and cut to r + radius - 1 letters; F_c commutes with the
    shift, so its period divides r.  Raises if the map fails to permute the
    orbits, which refutes any E_n certificate held for c."""
    n, extra = c.n, c.radius - 1
    orbits = periodic_points(n, r)
    out = c.output_ranks(r + extra)
    least = {w: orbit[0] for orbit in orbits for w in orbit}
    perm = {}
    for orbit in orbits:
        w = x = orbit[0]
        for k in range(extra, 0, -r):
            cut = min(k, r)
            x = x * n**cut + w // n ** (r - cut)
        perm[w] = least[out[x]]
    if sorted(perm.values()) != sorted(perm):
        raise RefutationError(
            "induced orbit map is not a permutation at r=%d; certificate refuted" % r
        )
    return perm


def is_shift_power(c: SlidingBlockCode) -> Optional[int]:
    """The j with c = sigma^j, if any: the j of c = core o sigma^j
    (`shift_factor`) when the core is the identity."""
    core, j = shift_factor(c)
    return j if code_equal(core, identity_code(c.n)) else None


def residual_separation(c: SlidingBlockCode, max_r: int) -> Optional[int]:
    """Least r <= max_r at which c moves a periodic orbit.

    Shift powers are screened out first (they fix every orbit); for
    anything else in E_n a moved orbit exists at some finite r.
    """
    if is_shift_power(c) is not None:
        return None
    for r in range(1, max_r + 1):
        perm = orbit_permutation(c, r)
        if any(src != dst for src, dst in perm.items()):
            return r
    return None


def enumerate_one_sided_automorphisms(n: int, max_radius: int):
    """All automorphisms of the one-sided n-shift of radius <= max_radius.

    Exact over the tail-bijective tables, those where h -> rule(h t) permutes
    the letters for each tail t: points differing only in x_1 share
    F(x)_2 F(x)_3 ..., so their first letters must differ.  Each is decided
    by one_sided_automorphism_check.  Results are deduplicated by induced
    map and sorted by (radius, table).
    """
    if n < 2:
        raise ValueError("alphabet size must be at least 2")
    if max_radius < 0:
        raise ValueError("max_radius must be nonnegative")
    # the (n!)^(n^(r-1)) tables of the largest radius, counted only until
    # past the limit, so that no large n! or power is ever built
    tables = 1
    for _ in range(n ** (max_radius - 1) if max_radius else 0):
        for factor in range(2, n + 1):
            tables *= factor
            if tables > get_limit():
                raise CapacityError(
                    "the radius-%d tables over %d letters pass the limit %d"
                    % (max_radius, n, get_limit())
                )
    perms = list(itertools.permutations(range(1, n + 1)))
    found = {}  # (radius, rule) of the minimized code -> (code, inverse)
    for r in range(1, max_radius + 1):
        for columns in itertools.product(perms, repeat=n ** (r - 1)):
            # columns[t][h] = rule(h t): the table lists heads outermost
            c = SlidingBlockCode(n, r, tuple(itertools.chain(*zip(*columns))))
            inv = one_sided_automorphism_check(c)
            if inv is not None:
                cm = minimize(c)
                found.setdefault((cm.radius, cm.rule), (cm, inv))
    return [found[key] for key in sorted(found)]
