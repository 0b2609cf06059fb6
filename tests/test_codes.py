import itertools
import random
from fractions import Fraction

import pytest

from shiftcalc import codes as C
from shiftcalc import endo as E
from shiftcalc import unitaries as U
from shiftcalc import words as W


def brute_image_word(c, x, length):
    """Oracle: apply the local rule letter by letter to a long word."""
    return tuple(c.local(x[j : j + c.radius]) for j in range(length))


def test_output_matches_letterwise_oracle():
    c = C.kitchens_code()
    rng = random.Random(2)
    for _ in range(20):
        length = rng.randint(2, 8)
        x = tuple(rng.randint(1, 3) for _ in range(length + c.radius - 1))
        assert c.output(x) == brute_image_word(c, x, length)


def sample_codes():
    """Letter codes, Kitchens, shift powers, Kitchens o sigma^2 and seeded
    random tables, over n = 2 and 3."""
    kit = C.kitchens_code()
    codes = [C.letter_code(2, (2, 1)), C.letter_code(3, (3, 1, 2)), C.letter_code(3, (1, 1, 2))]
    codes += [kit, C.code_compose(kit, C.shift_power_code(3, 2))]
    codes += [C.shift_power_code(n, m) for n in (2, 3) for m in range(4)]
    rng = random.Random(17)
    for n in (2, 3):
        for r in (1, 2, 3):
            codes.append(C.SlidingBlockCode(n, r, tuple(rng.randint(1, n) for _ in range(n**r))))
    return codes


def test_output_ranks_match_the_word_oracle():
    for c in sample_codes():
        for length in range(c.radius, c.radius + 4):
            oracle = [W.word_rank(c.output(w), c.n) for w in W.enumerate_words(c.n, length)]
            assert c.output_ranks(length) == oracle
        with pytest.raises(ValueError):
            c.output_ranks(c.radius - 1)


def test_pad_and_minimize_are_inverse():
    c = C.kitchens_code()
    for r in range(2, 5):
        assert C.minimize(C.pad(c, r)) == c
    assert C.minimize(C.identity_code(2)).radius == 1


def test_code_equal_across_radii():
    assert C.code_equal(C.shift_code(2), C.pad(C.shift_code(2), 4))
    assert not C.code_equal(C.shift_code(2), C.identity_code(2))


def test_compose_tracks_function_composition():
    rng = random.Random(9)
    c1 = C.kitchens_code()
    c2 = C.shift_code(3)
    comp = C.code_compose(c1, c2)
    for _ in range(30):
        x = tuple(rng.randint(1, 3) for _ in range(10))
        length = 10 - comp.radius + 1
        inner = c2.output(x)
        assert comp.output(x)[:length] == c1.output(inner)[:length]


def test_shift_powers_compose_additively():
    for a, b in itertools.product(range(3), repeat=2):
        assert C.code_equal(
            C.code_compose(C.shift_power_code(2, a), C.shift_power_code(2, b)),
            C.shift_power_code(2, a + b),
        )


def test_code_apply_diag_matches_preimage_oracle():
    c = C.kitchens_code()
    assert C.code_apply_diag(c, W.cylinder(3, (1,))) == W.projection(
        3, [(1, 1), (1, 2), (2, 3)]
    )
    rng = random.Random(4)
    for k in range(1, 5):
        # preimage oracle on words: P_w pulls back to the words mapping onto w
        preimages = {}
        for v in W.enumerate_words(3, k + 1):
            preimages.setdefault(c.output(v), []).append(v)
        for w in W.enumerate_words(3, k):
            img = W.refine(C.code_apply_diag(c, W.cylinder(3, w)), k + 1)
            assert img.support() == preimages.get(w, [])
        # and a rational element x pulls back to v -> x(output(v))
        x = W.diagonal(3, k, [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(3**k)])
        img = W.refine(C.code_apply_diag(c, x), k + 1)
        for v in W.enumerate_words(3, k + 1):
            assert img.coeffs[W.word_rank(v, 3)] == x.coeffs[W.word_rank(c.output(v), 3)]


def test_en_inverse_search_on_shift_powers():
    for m in range(4):
        c = C.shift_power_code(2, m)
        beta, found_m = C.en_inverse_search(c, 4, 8)
        assert found_m == m
        sigma_m = C.shift_power_code(2, m)
        assert C.code_equal(C.code_compose(beta, c), sigma_m)
        assert C.code_equal(C.code_compose(c, beta), sigma_m)


def test_degree_facts():
    shift = C.shift_code(2)
    beta, m = C.en_inverse_search(shift, 3, 6)
    assert C.degree(shift, beta, m) == 2
    sq = C.shift_power_code(2, 2)
    beta2, m2 = C.en_inverse_search(sq, 3, 6)
    assert m2 == 2
    k = C.degree(sq, beta2, m2)
    l = C.degree(beta2, sq, m2)
    assert k == 4 and k * l == 2**m2
    kit = C.kitchens_code()
    beta3, m3 = C.en_inverse_search(kit, 3, 6)
    assert m3 == 0 and C.degree(kit, beta3, m3) == 1
    # (code, m, degree); every partner degree is 1
    cases = [(C.shift_power_code(n, m), m, n**m) for n in (2, 3) for m in range(4)]
    cases += [
        (kit, 0, 1),
        (C.code_compose(kit, C.shift_power_code(3, 2)), 2, 9),
        (C.code_compose(C.shift_code(3), kit), 1, 3),
    ]
    for c, m, k in cases:
        beta, found_m = C.en_inverse_search(c, 3, 8)
        assert found_m == m
        assert C.degree(c, beta, m) == k
        assert C.degree(beta, c, m) == 1


def test_degree_refutes_wrong_certificates():
    # no preimage of the fixed point at all
    with pytest.raises(C.RefutationError):
        C.degree(C.letter_code(2, (2, 2)), C.identity_code(2), 1)
    # two preimages, which do not divide n^m = 3
    with pytest.raises(C.RefutationError):
        C.degree(C.letter_code(3, (1, 1, 2)), C.identity_code(3), 1)


def test_trace_necessary_check():
    assert C.trace_necessary_check(C.kitchens_code(), 4)
    assert C.trace_necessary_check(C.shift_code(2), 4)
    # a non-balanced rule collapses measure and fails
    bad = C.SlidingBlockCode(2, 1, (1, 1))
    assert not C.trace_necessary_check(bad, 2)


def primitive_root(word):
    k = len(word)
    for d in range(1, k + 1):
        if k % d == 0 and word == word[:d] * (k // d):
            return word[:d]


def least_rotation(word):
    return min(word[i:] + word[:i] for i in range(len(word)))


def code_on_periodic(c, word):
    """Oracle: the primitive repeating word of the image of the periodic
    point with repeating word `word`, sliding the rule around the cycle."""
    word = primitive_root(tuple(word))
    x = word * (-(-c.radius // len(word)) + 1)
    return primitive_root(tuple(c.local(x[j : j + c.radius]) for j in range(len(word))))


def periodic_points_reference(n, r):
    """Oracle: the phi-orbits of the period-r points as sorted lists of
    length-r words, rotating tuples, the orbits sorted."""
    seen, orbits = set(), []
    for w in W.enumerate_words(n, r):
        orbit = []
        while w not in seen:
            seen.add(w)
            orbit.append(w)
            w = w[1:] + w[:1]
        if orbit:
            orbits.append(sorted(orbit))
    return sorted(orbits)


def orbit_permutation_reference(c, r):
    """Oracle: the orbit map keyed by least words, each image the least
    rotation of the expanded image word; a non-permutation is refuted."""
    perm = {}
    for orbit in periodic_points_reference(c.n, r):
        image = code_on_periodic(c, orbit[0])
        assert r % len(image) == 0  # F_c commutes with sigma
        perm[orbit[0]] = least_rotation(image * (r // len(image)))
    if sorted(perm.values()) != sorted(perm):
        raise C.RefutationError("induced orbit map is not a permutation")
    return perm


def test_periodic_points_and_orbits():
    orbits = C.periodic_points(2, 3)
    assert sum(len(o) for o in orbits) == 8
    rank = [W.word_rank(w, 2) for w in [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)]]
    assert [rank[0]] in orbits and sorted(rank[1:]) in orbits
    with pytest.raises(ValueError):
        C.periodic_points(2, 0)


def test_code_on_periodic_matches_oracle():
    c = C.kitchens_code()
    for w in W.enumerate_words(3, 4):
        p = primitive_root(w)
        image = code_on_periodic(c, w)
        long = (p * (8 // len(p) + 2))[: len(p) + c.radius - 1]
        assert image == primitive_root(c.output(long[: len(p) + c.radius - 1]))


def test_orbits_match_the_word_tuple_oracle():
    # the census codes: every 2-letter table up to radius 3, 200 seeded
    # 3-letter tables, and the letter and Kitchens codes times sigma^m
    for n, r in itertools.product((2, 3, 4), range(1, 5)):
        oracle = periodic_points_reference(n, r)
        assert C.periodic_points(n, r) == [[W.word_rank(w, n) for w in o] for o in oracle]
    refuted = moved = 0
    for codes, _ in census_codes():
        for c in codes:
            for r in range(1, 5):
                try:
                    expected = orbit_permutation_reference(c, r)
                except C.RefutationError:
                    with pytest.raises(C.RefutationError):
                        C.orbit_permutation(c, r)
                    refuted += 1
                    continue
                rank = {w: W.word_rank(w, c.n) for w in expected}
                assert C.orbit_permutation(c, r) == {rank[s]: rank[d] for s, d in expected.items()}
                moved += expected != {w: w for w in expected}
    assert (refuted, moved) == (1593, 476)


def test_orbit_permutation_kitchens_swap():
    perm = C.orbit_permutation(C.kitchens_code(), 2)
    w13, w23 = W.word_rank((1, 3), 3), W.word_rank((2, 3), 3)
    assert perm[w13] == w23 and perm[w23] == w13
    assert all(perm[w] == w for w in perm if w not in (w13, w23))


def test_orbit_permutation_refutes_non_bijective_codes():
    collapse = C.SlidingBlockCode(2, 1, (1, 1))
    with pytest.raises(C.RefutationError):
        C.orbit_permutation(collapse, 2)


def test_shift_powers_fix_all_orbits():
    for m in range(3):
        c = C.shift_power_code(2, m)
        for r in range(1, 7):
            perm = C.orbit_permutation(c, r)
            assert all(src == dst for src, dst in perm.items())


def test_residual_separation():
    assert C.residual_separation(C.kitchens_code(), 4) == 2
    assert C.residual_separation(C.shift_power_code(2, 2), 6) is None
    assert C.residual_separation(C.letter_code(2, (2, 1)), 4) == 1


def test_enumerate_two_letter_automorphisms():
    found = C.enumerate_one_sided_automorphisms(2, 3)
    codes = [c for c, _ in found]
    assert codes == [C.identity_code(2), C.letter_code(2, (2, 1))]
    for c, inv in found:
        assert C.code_equal(C.code_compose(c, inv), C.identity_code(2))


def test_enumerate_three_letter_automorphisms_contains_kitchens():
    found = C.enumerate_one_sided_automorphisms(3, 2)
    codes = [c for c, _ in found]
    assert len(codes) == 24
    assert any(C.code_equal(c, C.kitchens_code()) for c in codes)
    for images in itertools.permutations((1, 2, 3)):
        assert any(C.code_equal(c, C.letter_code(3, images)) for c in codes)
    for c, inv in found:
        assert C.code_equal(C.code_compose(c, inv), C.identity_code(3))
        assert C.code_equal(C.code_compose(inv, c), C.identity_code(3))


def test_enumeration_guards_the_tables_it_tries():
    # radius 2 over three letters tries the (3!)^3 = 216 tail-bijective
    # tables, not all 3^9
    from shiftcalc import capacity

    old = capacity.get_limit()
    try:
        capacity.set_limit(215)
        with pytest.raises(capacity.CapacityError):
            C.enumerate_one_sided_automorphisms(3, 2)
        capacity.set_limit(216)
        assert len(C.enumerate_one_sided_automorphisms(3, 2)) == 24
    finally:
        capacity.set_limit(old)


def injective_on_periodics(c, max_r):
    for r in range(1, max_r + 1):
        seen = set()
        for w in W.enumerate_words(c.n, r):
            p = code_on_periodic(c, w)
            expanded = p * (r // len(p))
            if expanded in seen:
                return False
            seen.add(expanded)
    return True


def enumerate_reference(n, max_radius):
    """Oracle: the brute-force table scan, with cheap necessary filters
    (balanced tables, injectivity on short periodic orbits) in front of the
    inverse search at window 2 max_radius + 2."""
    window = 2 * max_radius + 2
    found = {}
    for r in range(1, max_radius + 1):
        for rule in itertools.product(range(1, n + 1), repeat=n**r):
            if any(rule.count(a) != n ** (r - 1) for a in range(1, n + 1)):
                continue
            c = C.SlidingBlockCode(n, r, rule)
            if not injective_on_periodics(c, min(3, max(2, r))):
                continue
            inv = en_inverse_search_reference(c, 0, window)
            if inv is not None:
                cm = C.minimize(c)
                found.setdefault((cm.radius, cm.rule), (cm, inv[0]))
    return [found[key] for key in sorted(found)]


@pytest.mark.parametrize("n, max_radius", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_enumeration_matches_the_brute_force_table_scan(n, max_radius):
    def fields(pairs):
        return [(c.radius, c.rule, inv.radius, inv.rule) for c, inv in pairs]

    got = C.enumerate_one_sided_automorphisms(n, max_radius)
    assert fields(got) == fields(enumerate_reference(n, max_radius))


def automorphism_census():
    """Every 2-letter table up to radius 3, every tail-bijective 3-letter
    radius-2 table and 200 seeded random ones."""
    tables = [
        C.SlidingBlockCode(2, r, rule)
        for r in (1, 2, 3)
        for rule in itertools.product((1, 2), repeat=2**r)
    ]
    tables += [
        C.SlidingBlockCode(3, 2, rule)
        for rule in itertools.product((1, 2, 3), repeat=9)
        if all(len({rule[3 * h + t] for h in range(3)}) == 3 for t in range(3))
    ]
    rng = random.Random(23)
    tables += [C.SlidingBlockCode(3, 2, tuple(rng.randint(1, 3) for _ in range(9))) for _ in range(200)]
    return tables


def test_automorphism_check_matches_the_windowed_reference():
    accepted = 0
    for c in automorphism_census():
        expected = en_inverse_search_reference(c, 0, 2 * c.radius + 2)
        got = C.one_sided_automorphism_check(c)
        assert (got is None) == (expected is None)
        if got is not None:
            assert (got.radius, got.rule) == (expected[0].radius, expected[0].rule)
            accepted += 1
    assert accepted == 2 + 2 + 2 + 24


def test_the_pair_graph_window_is_the_least_that_determines_x1():
    kit = C.kitchens_code()
    letters = [C.letter_code(3, p) for p in itertools.permutations((1, 2, 3))]
    products = [C.code_compose(C.code_compose(p, kit), q) for p in letters for q in letters]
    codes = automorphism_census() + products + [C.code_compose(kit, k) for k in products]
    windows = set()
    for c in codes:
        s = C.automorphism_window(c)
        if s is None:
            assert C.one_sided_automorphism_check(c) is None
            continue
        windows.add(s)
        assert en_inverse_search_reference(c, 0, s) is not None
        assert en_inverse_search_reference(c, 0, s - 1) is None
    assert {1, 2, 3} <= windows


def pair_graph_height_reference(n, step, starts):
    """Every reachable node's successors, then a topological order (a node
    left out of it lies on a cycle), then the heights in reverse order."""
    succ, todo = {}, list(starts)
    while todo:
        p, q = node = todo.pop()
        if node not in succ:
            succ[node] = [
                (s, t)
                for x, s in step[p * n : p * n + n]
                for y, t in step[q * n : q * n + n]
                if x == y
            ]
            todo += succ[node]
    indegree = dict.fromkeys(succ, 0)
    for nxt in itertools.chain(*succ.values()):
        indegree[nxt] += 1
    order = [node for node in succ if not indegree[node]]
    for node in order:
        for nxt in succ[node]:
            indegree[nxt] -= 1
            if not indegree[nxt]:
                order.append(nxt)
    if len(order) < len(succ):
        return None
    height = {}
    for node in reversed(order):
        height[node] = max((height[nxt] + 1 for nxt in succ[node]), default=0)
    return max((height[node] for node in starts), default=0)


def test_the_depth_first_pair_graph_matches_the_topological_order():
    # the transducers of codes (automorphisms of windows 1 to 3 among them),
    # the point maps T_u of all of P_2^2 and of seeded P_2^3 and P_3^2, and
    # seeded step tables, cyclic or not
    rng = random.Random(71)
    kit = C.kitchens_code()
    letters = [C.letter_code(3, p) for p in itertools.permutations((1, 2, 3))]
    products = [C.code_compose(C.code_compose(p, kit), q) for p in letters for q in letters]
    cases = []
    products = products[::4] + [C.code_compose(kit, k) for k in products[::4]]
    for c in automorphism_census()[::7] + sample_codes() + products:
        c = C.pad(c, max(c.radius, 2))
        states = len(c.rule) // c.n
        head = states // c.n  # the starts of automorphism_window
        starts = [(p, q) for p in range(states) for q in range(states) if p // head != q // head]
        cases.append((C.transducer(c), starts))
    units = list(U.all_unitaries(2, 2))
    for n, level in ((2, 3), (3, 2)):
        for _ in range(40):
            perm = list(range(n**level))
            rng.shuffle(perm)
            units.append(U.PermutationUnitary(n, level, tuple(perm)))
    for u in units:
        t = E.endomorphism(u).point_map
        cases.append((t, [(p, q) for p in range(t.tail) for q in range(t.tail) if p != q]))
    for _ in range(300):
        n, states = rng.choice((2, 3)), rng.randint(1, 6)
        step = tuple((rng.randrange(n), rng.randrange(states)) for _ in range(states * n))
        starts = rng.sample([(p, q) for p in range(states) for q in range(states)], states)
        cases.append((C.Transducer(n, states, step), starts))
    heights = []
    for t, starts in cases:
        got = t.height(starts)
        assert got == pair_graph_height_reference(t.n, t.step, starts)
        heights.append(got)
    assert heights.count(None) >= 100 and {None, 0, 1, 2} <= set(heights)


def agree_after_reference(a, b, starts):
    """`agree_after` as a longest path in the graph of ordered pairs (one
    letter read on both sides): a pair is bad when some letter makes the two
    emit different letters, k is one more than the most letters read from a
    start to a bad pair, and None when a cycle reaches a bad pair."""
    n = a.n

    def rows(v):
        p, q = v
        return list(zip(a.step[p * n : p * n + n], b.step[q * n : q * n + n]))

    def bad(v):
        return any(x != y for (x, _), (y, _) in rows(v))

    def succ(v):
        return [(s, t) for (_, s), (_, t) in rows(v)]

    reach, todo = set(starts), list(starts)
    for v in todo:
        for w in succ(v):
            if w not in reach:
                reach.add(w)
                todo.append(w)
    live = {v for v in reach if bad(v)}
    while True:  # the pairs from which a bad pair can be reached
        grown = live | {v for v in reach if any(w in live for w in succ(v))}
        if grown == live:
            break
        live = grown
    depth = {}

    def longest(v, path):
        if v in path:
            raise LookupError("a cycle reaches a bad pair")
        if v not in depth:
            below = [longest(w, path | {v}) + 1 for w in succ(v) if w in live]
            depth[v] = max(below + [0] * bad(v))
        return depth[v]

    try:
        return max((longest(v, frozenset()) + 1 for v in starts if v in live), default=0)
    except LookupError:
        return None


def test_agree_after_matches_the_longest_path_to_a_disagreement():
    # seeded step tables against copies with a few emitted letters changed,
    # and T_u against the identity and, one letter on, against itself
    rng = random.Random(73)
    cases = []
    for _ in range(400):
        n, states = rng.choice((2, 3)), rng.randint(1, 5)
        step = [(rng.randrange(n), rng.randrange(states)) for _ in range(states * n)]
        other = list(step)
        for w in rng.sample(range(states * n), rng.randint(0, 2)):
            other[w] = (rng.randrange(n), other[w][1])
        pairs = [(p, q) for p in range(states) for q in range(states)]
        starts = rng.sample(pairs, rng.randint(1, states))
        a, b = (C.Transducer(n, states, tuple(table)) for table in (step, other))
        cases.append((a, b, starts))
    for n, level in ((2, 2), (2, 3), (3, 2)):
        for _ in range(30):
            ranks = tuple(rng.sample(range(n**level), n**level))
            t = E.endomorphism(U.PermutationUnitary(n, level, ranks)).point_map
            cases.append((t, C.Transducer.identity(n, t.tail), t.diagonal))
            cases.append((t, t, [(s, w % t.tail) for w, (_, s) in enumerate(t.step)]))
    found = []
    for a, b, starts in cases:
        got = a.agree_after(b, starts)
        assert got == agree_after_reference(a, b, starts)
        found.append(got)
    assert found.count(None) >= 50 and {0, 1, 2, 3} <= set(found)


def ordered_pair_height_reference(t, starts):
    """The pair-graph search on ordered pairs: the node (p, q) is p tail + q,
    apart from (q, p), with the same depth-first search as `Transducer.height`."""
    n, tail = t.n, t.tail
    groups = [[[] for _ in range(n)] for _ in range(tail)]
    for w, (x, s) in enumerate(t.step):
        groups[w // n][x].append(s)
    height = [-1] * (tail * tail)  # -1 unseen, -2 on the current path
    succ = {}
    stack = [p * tail + q for p, q in starts]
    while stack:
        node = stack.pop()
        if node < 0:
            node = ~node
            height[node] = max([height[nxt] for nxt in succ.pop(node)], default=-1) + 1
        elif height[node] == -1:
            p, q = divmod(node, tail)
            succ[node] = nxt = [
                s * tail + t
                for here, there in zip(groups[p], groups[q])
                for s in here
                for t in there
            ]
            height[node] = -2
            stack.append(~node)
            stack += nxt
        elif height[node] == -2:
            return None
    return max((height[p * tail + q] for p, q in starts), default=0)


def test_the_unordered_pair_graph_keeps_every_automorphism_window(monkeypatch):
    # every balanced table that the brute-force scan of
    # test_enumeration_matches_the_brute_force_table_scan visits, the
    # enumerator's tail-bijective tables among them
    tables = [
        C.SlidingBlockCode(n, r, rule)
        for n, max_radius in ((2, 3), (3, 2))
        for r in range(1, max_radius + 1)
        for rule in itertools.product(range(1, n + 1), repeat=n**r)
        if all(rule.count(a) == n ** (r - 1) for a in range(1, n + 1))
    ]
    got = [C.automorphism_window(c) for c in tables]
    monkeypatch.setattr(C.Transducer, "height", ordered_pair_height_reference)
    assert got == [C.automorphism_window(c) for c in tables]
    assert len(tables) == 2 + 6 + 70 + 6 + 1680
    assert got.count(None) == 1728 and set(got) == {None, 1, 2}


def test_is_shift_power():
    assert C.is_shift_power(C.shift_power_code(2, 2)) == 2
    assert C.is_shift_power(C.kitchens_code()) is None


def code_compose_reference(c1, c2):
    """Oracle: the word-tuple composition, c1's rule on c2's output words."""
    radius = c1.radius + c2.radius - 1
    rule = tuple(c1.local(c2.output(w)) for w in W.enumerate_words(c1.n, radius))
    return C.SlidingBlockCode(c1.n, radius, rule)


def en_inverse_search_reference(c, max_m, max_window):
    """Oracle: the inverse search that tries every m, from the shift on."""
    n, r = c.n, c.radius
    for m in range(max_m + 1):
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
            beta = C.SlidingBlockCode(n, s, rule)
            sigma_m = C.shift_power_code(n, m)
            if C.code_equal(code_compose_reference(beta, c), sigma_m) and C.code_equal(
                code_compose_reference(c, beta), sigma_m
            ):
                return C.minimize(beta), m
    return None


def letter_and_kitchens_codes():
    """Every letter permutation over 2 and 3 letters, Kitchens, and Kitchens
    composed with each 3-letter permutation on either side."""
    kit = C.kitchens_code()
    codes = [C.letter_code(n, p) for n in (2, 3) for p in itertools.permutations(range(1, n + 1))]
    codes.append(kit)
    for p in itertools.permutations((1, 2, 3)):
        codes += [C.code_compose(kit, C.letter_code(3, p)), C.code_compose(C.letter_code(3, p), kit)]
    return codes


def census_codes():
    """(codes, budgets): every 2-letter table up to radius 3, 200 seeded
    3-letter radius-2 tables, and the codes above times sigma^m, m = 0..3."""
    tables = [
        C.SlidingBlockCode(2, r, rule)
        for r in (1, 2, 3)
        for rule in itertools.product((1, 2), repeat=2**r)
    ]
    rng = random.Random(8)
    tables += [C.SlidingBlockCode(3, 2, tuple(rng.randint(1, 3) for _ in range(9))) for _ in range(200)]
    shifted = [
        C.code_compose(a, C.shift_power_code(a.n, m))
        for a in letter_and_kitchens_codes()
        for m in range(4)
    ]
    return [(tables, [(2, 3), (3, 4)]), (shifted, [(3, 2), (4, 3)])]


def is_shift_power_to_twice_the_radius(c):
    """Oracle: the loop over shift powers that is_shift_power used to run,
    with its earliest bound, every j <= 2 radius - 2."""
    for j in range(2 * c.radius - 1):
        if C.code_equal(c, C.shift_power_code(c.n, j)):
            return j
    return None


def test_is_shift_power_needs_no_j_past_the_radius():
    # sigma^j reads x_{j+1}, so a code of radius r is no sigma^j with j >= r
    powers = set()
    for codes, _ in census_codes():
        for c in codes:
            j = C.is_shift_power(c)
            assert j == is_shift_power_to_twice_the_radius(c)
            if j is not None:
                powers.add((c.n, j))
    assert powers == {(n, j) for n in (2, 3) for j in range(4)}


def test_en_inverse_search_matches_the_reference_on_a_census():
    found = 0
    for codes, budgets in census_codes():
        for c in codes:
            for max_m, max_window in budgets:
                expected = en_inverse_search_reference(c, max_m, max_window)
                assert C.en_inverse_search(c, max_m, max_window) == expected
                found += expected is not None
    assert found > 100


def test_shift_exponent_factors_the_code():
    kit = C.kitchens_code()
    for a in letter_and_kitchens_codes():
        assert C.shift_factor(a) == (a, 0)
        for m in range(4):
            assert C.shift_factor(C.code_compose(a, C.shift_power_code(a.n, m))) == (a, m)
    for n, r in ((2, 1), (2, 4), (3, 3)):
        core, j = C.shift_factor(C.SlidingBlockCode(n, r, (2,) * n**r))
        assert (core.radius, core.rule, j) == (1, (2,) * n, r - 1)
    codes, _ = census_codes()[0]
    for c in codes + [C.code_compose(kit, C.shift_power_code(3, 2))]:
        core, j = C.shift_factor(c)
        assert core.rule == c.rule[: c.n ** (c.radius - j)]
        assert C.code_compose(core, C.shift_power_code(c.n, j)) == c
        # j is the largest: the core reads its first letter, unless it is radius 1
        assert core.radius == 1 or C.shift_factor(core)[1] == 0


def test_code_compose_matches_the_word_tuple_reference():
    codes = sample_codes() + letter_and_kitchens_codes()
    for c1, c2 in itertools.product(codes, repeat=2):
        if c1.n == c2.n and c1.radius + c2.radius <= 6:
            assert C.code_compose(c1, c2).rule == code_compose_reference(c1, c2).rule
