"""Sliding block codes on the full one-sided n-shift.

A code is a total local rule W_n^r -> {1, ..., n}; the induced point map is
F(x)_k = rule(x_k, ..., x_{k+r-1}), which commutes with the shift by
construction.  Dually, a code acts on the diagonal, and composition of the
diagonal endomorphisms corresponds to composing point maps the other way
round: the convention fixed here (and pinned by tests) is

    dual(alpha beta) = F_beta o F_alpha,

with code_compose(c1, c2) returning the code of F_{c1} o F_{c2}.

Inverse-to-shift-power search, degree, periodic orbits and the
permutation a code induces on them all live here; every returned
certificate is verified exactly against rule tables before it escapes.
Every inverse code beta with beta c = c beta = sigma^m is read one way,
`_inverse_rule`: one gather of letter m + 1 over the code's output ranks,
which refutes beta c = sigma^m at the first output two letters claim, then
one composition for c beta, for the (m, s) search and for the one-sided
automorphism check alike.  Words are ranks in
lexicographic order (`jsonio` names them), periodic points among them.
F_c and the point map T_u of lambda_u are both a `Transducer`: the run
kernel and one depth-first pair-graph search (tail^2 n edges for T_u or
lockstep runs) for collisions, one-sided automorphisms and their window,
where the inverse rule is read, and for agreement, exact or eventual.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Optional, Sequence

from .capacity import CapacityError, check as _check_capacity, fits, get_limit
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
        """Per input word of length k + L - 1, in rank order, its run of k
        letters: the rank of the letters emitted times tail plus the state
        reached.  The emitted rank is run // tail; for T_u of lambda_u the
        table is the cocycle u_k^* (`endo`).  Grown a letter at a time at the
        front: if the window p a emits y and moves to s, the run of j + 1
        letters on p a z is y n^j tail plus the run of j letters on s z.  So
        the longer table is the shorter one shifted by each y, one block per
        window, copied in window order."""
        n, tail = self.n, self.tail
        if k == 0:
            return list(range(tail))
        one = runs = [y * tail + s for y, s in self.step]
        block = n
        for _ in range(k - 1):
            weight = block * tail
            shifted = [y + r for y in range(0, n * weight, weight) for r in runs]
            runs = []
            for q in one:
                runs += shifted[q * block : q * block + block]
            block *= n
        return runs

    def height(self, starts) -> Optional[int]:
        """Longest path from a start pair in the pair graph, or None if a cycle
        is reachable from one (`_longest_marked_path`, every edge marked).  An
        edge reads one letter on each side with equal emitted letters, so an
        infinite path is two inputs with one output.  Swapping the two runs
        maps the edges onto the edges, so a node is the unordered pair,
        min(p, q) tail + max(p, q): exact for any starts, and half the nodes."""
        n, tail = self.n, self.tail
        groups = [[[] for _ in range(n)] for _ in range(tail)]
        for w, (x, s) in enumerate(self.step):
            groups[w // n][x].append(s)

        def expand(node):
            p, q = divmod(node, tail)
            both = zip(groups[p], groups[q])  # the next states, by letter emitted
            nxt = [s * tail + t if s <= t else t * tail + s for a, b in both for s in a for t in b]
            return bool(nxt), nxt

        nodes = [p * tail + q if p <= q else q * tail + p for p, q in starts]
        return _longest_marked_path(nodes, expand)

    def agree_after(self, other: Transducer, starts) -> Optional[int]:
        """Least k such that the two, run in lockstep on one input from any
        pair in `starts`, emit the same letters from the (k+1)-th on, or None:
        `_longest_marked_path` on the pairs p other.tail + q, a letter marking
        its edge when the two emit different letters.  So it is 0 exactly when
        no reachable pair emits two different letters.  Against itself a
        transducer runs on unordered pairs, as in `height`, and stops at the
        diagonal.  `endo` runs T_u only against T_u, the identity or a T_b
        with as many states, so it holds at most tail^2 pairs, whatever the
        question.  Raises CapacityError once the pairs it holds pass the limit."""
        n, tail, step_a, step_b, same = self.n, other.tail, self.step, other.step, self is other
        held, limit = itertools.count(1), get_limit()

        def expand(node):
            pairs = next(held)
            if pairs > limit:
                raise CapacityError("lockstep run holds %d pairs, limit is %d" % (pairs, limit))
            p, q = divmod(node, tail)
            if p == q and same:
                return False, ()
            marked, nxt = False, []
            for (x, s), (y, t) in zip(step_a[p * n : p * n + n], step_b[q * n : q * n + n]):
                marked = marked or x != y
                nxt.append(t * tail + s if same and s > t else s * tail + t)
            return marked, nxt

        nodes = [q * tail + p if same and p > q else p * tail + q for p, q in starts]
        return _longest_marked_path(nodes, expand)


def _longest_marked_path(starts, expand) -> Optional[int]:
    """The most edges on a path from a start that ends with a marked edge, 0
    if none does, or None if a reachable cycle leads to one; expand(node)
    gives (whether it has a marked edge, its successors).  One depth-first
    search over strongly connected components (Tarjan, "Depth-first search
    and linear graph algorithms", 1972).  A node's count is the larger of 1,
    if it has a marked edge, and 1 + its successors' largest positive count.
    An edge into an open node puts its node on a cycle, where a positive
    count answers None: a component closes as one node or with counts 0."""
    low, done = {}, {}  # open node -> least number reached, in visit order; closed -> count
    frames = [[None, -1, iter(starts), 0, False]]  # a root whose edges are the starts
    while frames:
        node, number, edges, count, cyclic = frame = frames[-1]
        for nxt in edges:
            below = done.get(nxt)
            if below is None and nxt not in low:
                marked, succ = expand(nxt)
                if succ:  # read the edge again once the child returns
                    frame[2:] = itertools.chain((nxt,), edges), count, cyclic
                    low[nxt] = len(low) + len(done)
                    frames.append([nxt, low[nxt], iter(succ), int(marked), False])
                    break
                done[nxt] = below = int(marked)  # a node with no edge closes at once
            if below is None:
                if count:
                    return None
                cyclic, low[node] = True, min(low[node], low[nxt])
            elif below and below >= count:
                count = below + 1
        else:
            if cyclic and count:
                return None
            frames.pop()
            if low.get(node) == number:  # node roots a component: close it
                while node in low:
                    done[low.popitem()[0]] = count
    return max([done[node] for node in starts], default=0)


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
        t = transducer(self)
        return [y // t.tail for y in t.runs(length - r + 1)]


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
    level = x.level + c.radius - 1
    _check_capacity(c.n, level)
    t = transducer(c)
    return _pull_back(x, level, t.runs(x.level), t.tail)


def _pull_back(x: DiagonalElement, level: int, runs: Sequence[int], tail: int) -> DiagonalElement:
    """x o T on the words of `level` letters, from T's runs of level(x) letters
    (`Transducer.runs`) on them: each word takes x at the letters T emits, its
    run // tail.  One gather, shared by a code's and lambda_u's dual action."""
    emitted = itemgetter(*map(tail.__rfloordiv__, runs))(x.coeffs)
    return W.reduce(DiagonalElement(x.n, level, emitted))


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

    At each (m, s) the search asks whether x_{m+1} is determined by the
    first s letters of the output; at the first (m, s) where it is, beta is
    the one gather `_inverse_rule`, which also verifies it against the shift
    power on both sides before it is returned.  Absence
    within the bounds is inconclusive, not a disproof.  The library picks the
    bounds in one place, `degree_certificate`, from a single budget and the
    capacity limit.

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
            for x in W.enumerate_words(n, s + r - 1):
                y = c.output(x)
                target = x[m]
                if table.setdefault(y, target) != target:
                    break
            else:
                beta = _inverse_rule(c, m, s)
                if beta is not None:
                    return beta, m
    return None


def _inverse_rule(c: SlidingBlockCode, m: int, s: int) -> Optional[SlidingBlockCode]:
    """The radius-s code beta with beta c = c beta = sigma^m, minimized, or None.
    One gather over output_ranks(s + r - 1): rule[out[x]] is letter m + 1 of
    x, and 1 at an output no word produces.  Two words with one output and
    different letters m + 1 are exactly beta c != sigma^m, so that answers
    None at once; otherwise c beta = sigma^m is checked."""
    length = s + c.radius - 1
    power = c.n ** (length - m - 1)
    rule = [0] * c.n**s
    for x, y in enumerate(c.output_ranks(length)):
        letter = x // power % c.n + 1
        if rule[y] != letter:
            if rule[y]:
                return None
            rule[y] = letter
    beta = minimize(SlidingBlockCode(c.n, s, tuple(letter or 1 for letter in rule)))
    return beta if code_compose(c, beta) == shift_power_code(c.n, m) else None


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
    inverse is the one gather `_inverse_rule(c, 0, s)`, whose composites with
    c on both sides are the identity."""
    window = automorphism_window(c)
    if window is None:
        return None
    beta = _inverse_rule(c, 0, window)
    if beta is None:
        raise AssertionError("no inverse at the pair-graph window %d" % window)
    return beta


def degree(c: SlidingBlockCode, beta: SlidingBlockCode, m: int) -> int:
    """The constant number k of preimages of a point, given an E_n certificate.

    With F_beta F_c = sigma^m and b = rule_beta(1...1), every preimage z of
    the fixed point (1,1,...) has sigma^m(z) = F_beta(1,1,...) = (b,b,...),
    so z = w b b ... with |w| = m; and F_c(b b ...) = (1,1,...) because
    F_c F_beta = sigma^m.  So k counts the words w of length m for which
    F_c(w b b ...) starts with 1^m.  k | n^m is checked here; k * degree(beta)
    = n^m is checked by `degree_certificate` (the paired degree is computed
    with the roles of c and beta swapped).
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


def degree_certificate(c: SlidingBlockCode, budget: int) -> Optional[tuple]:
    """(beta, m, k, partner) with beta c = c beta = sigma^m, k = degree(c) and
    partner = degree(beta), or None if none is found with m <= budget and a
    window s of at most max(budget, 2 radius(c)): the one bounded E_n search.
    The window also stops where the n^(s + r - 1) words of its table would
    pass the capacity limit, so the search ends in None, not CapacityError.
    It is counted down from below s + r - 1 = the limit's bit length, where
    n >= 2 puts every table past the limit (`capacity.fits`), so no such
    power is built.
    Raises RefutationError unless k * partner = n^m."""
    window = min(max(budget, 2 * c.radius), get_limit().bit_length() - c.radius)
    while window > 0 and not fits(c.n, window + c.radius - 1):
        window -= 1
    found = en_inverse_search(c, budget, window)
    if found is None:
        return None
    beta, m = found
    k, partner = degree(c, beta, m), degree(beta, c, m)
    if k * partner != c.n**m:
        raise RefutationError("degrees %d * %d != n^m" % (k, partner))
    return beta, m, k, partner


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
    # past the limit, so that no large n! or power is ever built: each column
    # at least doubles the count, so past the limit's bit length the columns
    # need not be counted
    tables, bits = 1, get_limit().bit_length()
    for _ in range(n ** min(max_radius - 1, bits) if max_radius else 0):
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
