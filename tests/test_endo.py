import itertools
import random
import time
from fractions import Fraction

import pytest

from shiftcalc import bridge as B
from shiftcalc import codes as C
from shiftcalc import endo as E
from shiftcalc import unitaries as U
from shiftcalc import words as W
from test_codes import cycling_unitary, ordered_pair_height_reference
from test_unitaries import adjoint_action, all_unitaries, from_mapping, u_k_product
from test_words import decompose, diagonal, recompose, refine


def timed(budget_seconds):
    def wrap(fn):
        def run():
            start = time.perf_counter()
            fn()
            assert time.perf_counter() - start < budget_seconds
        run.__name__ = fn.__name__
        return run
    return wrap


def endos_agree_on_cylinders(e1, e2, depth):
    n = e1.n
    return all(
        E.apply_diag(e1, W.cylinder(n, w)) == E.apply_diag(e2, W.cylinder(n, w))
        for k in range(1, depth + 1)
        for w in W.enumerate_words(n, k)
    )


def test_convolution_realizes_composition():
    rng = random.Random(5)
    pool = list(all_unitaries(2, 2))
    for _ in range(30):
        u, w = rng.choice(pool), rng.choice(pool)
        composed = E.endomorphism(E.convolution(u, w))
        eu, ew = E.endomorphism(u), E.endomorphism(w)
        for k in range(1, 4):
            for word in W.enumerate_words(2, k):
                p = W.cylinder(2, word)
                assert E.apply_diag(composed, p) == E.apply_diag(
                    eu, E.apply_diag(ew, p)
                )


def test_flip_endomorphism_is_the_shift():
    for n in (2, 3):
        e = E.endomorphism(U.flip_unitary(n))
        for k in range(1, 4):
            for w in W.enumerate_words(n, k):
                p = W.cylinder(n, w)
                assert E.apply_diag(e, p) == W.shift_diag(p)


def test_agree_on_diagonal_is_representation_independent():
    u = U.kitchens_unitary()
    assert E.agree_on_diagonal(u, U.embed(u, 4))
    assert not E.agree_on_diagonal(u, U.identity(3))


def test_agree_on_diagonal_separates_unequal_actions():
    # theta and the letter swap act differently on the diagonal of O_2
    assert not E.agree_on_diagonal(U.flip_unitary(2), U.letter_permutation(2, (2, 1)))


def test_is_identity_on_diagonal():
    # the diagonal restriction determines a permutative unitary, so lambda_u
    # is the identity there exactly when u reduces to level 0
    assert U.identity(2).is_identity()
    assert U.embed(U.identity(2), 3).is_identity()
    assert not U.flip_unitary(2).is_identity()
    assert not U.kitchens_unitary().is_identity()


def test_ad_unitary_realizes_inner_automorphisms():
    rng = random.Random(3)
    pool = list(all_unitaries(2, 2))
    for _ in range(10):
        w = rng.choice(pool)
        inner = E.endomorphism(E.ad_unitary(w))
        for word in W.enumerate_words(2, 3):
            p = W.cylinder(2, word)
            assert E.apply_diag(inner, p) == adjoint_action(w, p)


def test_inner_automorphisms_eventually_commute_with_the_shift():
    rng = random.Random(17)
    for n, k in ((2, 2), (2, 3), (3, 2)):
        pool = None
        for _ in range(5):
            if pool is None:
                size = n**k
                perm = list(range(size))
            rng.shuffle(perm)
            w = U.PermutationUnitary(n, k, tuple(perm))
            e = E.endomorphism(E.ad_unitary(w))
            found = E.is_in_ign(e)
            assert found is not None and found <= k
            # Ad(w) phi^k = phi^k on the diagonal
            rot = U.shift_power_unitary(n, k)
            assert E.agree_on_diagonal(E.convolution(E.ad_unitary(w), rot), rot)


def agree_reference(a, b):
    """The closure search over tail-block permutations.

    lambda_a = lambda_b on the diagonal iff for every k the unitary b_k^* a_k
    fixes the first k letters of every word; those conditions close up into
    a finite search over permutations of the level-1 tail blocks.
    """
    n = a.n
    level = max(a.level, b.level, 1)
    ar = U.embed(a, level).ranks
    binv = U.inverse(U.embed(b, level)).ranks
    size = n**level
    block = size // n

    def fixes_first_letter(node):
        return all(node[r] // block == r // block for r in range(size))

    def blocks_of(node):
        return [tuple(node[i * block + t] - i * block for t in range(block)) for i in range(n)]

    def conjugate(tail_perm):
        # ranks of b^* s a, with s acting on the leading level-1 tail blocks
        mid = [tail_perm[r // n] * n + r % n for r in range(size)]
        return tuple(binv[mid[ar[r]]] for r in range(size))

    root = tuple(binv[ar[r]] for r in range(size))
    if not fixes_first_letter(root):
        return False
    stack, seen = blocks_of(root), set()
    while stack:
        s = stack.pop()
        if s in seen:
            continue
        seen.add(s)
        node = conjugate(s)
        if not fixes_first_letter(node):
            return False
        stack.extend(blocks_of(node))
    return True


def commutes_reference(e):
    # lambda_theta is phi, so convolution(theta, u) is phi(u) theta
    theta = U.flip_unitary(e.n)
    return agree_reference(
        E.convolution(e.unitary, theta), U.multiply(U.phi_shift(e.unitary), theta)
    )


def is_in_ign_reference(e, max_k):
    # the closure search at every k, on the convolution, without the filter
    for k in range(max_k + 1):
        rot = U.shift_power_unitary(e.n, k)
        if agree_reference(E.convolution(e.unitary, rot), rot):
            return k
    return None


def convolution_reference(u, w):
    # lambda_u(w) u with u_m built from scratch
    if w.level == 0:
        return U.reduce(u)
    um = u_k_product(u, w.level)
    return U.reduce(U.multiply(U.multiply(U.multiply(um, w), U.inverse(um)), u))


def test_cached_cocycle_products_match_the_direct_product():
    rng = random.Random(23)
    for n, level in ((2, 1), (2, 2), (3, 1), (3, 2)):
        perm = list(range(n**level))
        rng.shuffle(perm)
        e = E.endomorphism(U.PermutationUnitary(n, level, tuple(perm)))
        for k in (4, 1, 3, 2, 5):  # out of order: later k reuse earlier ones
            assert U.inverse(e.u_k_star(k)).ranks == u_k_product(e.unitary, k).ranks


def test_convolve_matches_the_composition_formula():
    rng = random.Random(29)
    for n in (2, 3):
        pool = [U.kitchens_unitary()] if n == 3 else [U.flip_unitary(2)]
        for level in (1, 2):
            perm = list(range(n**level))
            rng.shuffle(perm)
            pool.append(U.PermutationUnitary(n, level, tuple(perm)))
        pool += [U.shift_power_unitary(n, k) for k in range(3)]
        for u in pool:
            for w in pool:
                assert E.convolution(u, w) == convolution_reference(u, w)
            # lambda_theta is phi
            theta = U.flip_unitary(n)
            assert U.multiply(U.phi_shift(u), theta) == convolution_reference(theta, u)


def test_is_in_ign_matches_the_unfiltered_search():
    rng = random.Random(37)
    cases = [U.identity(2), U.flip_unitary(2), U.kitchens_unitary()]
    for n, level in ((2, 2), (2, 3), (3, 1), (3, 2)):
        for _ in range(3):
            perm = list(range(n**level))
            rng.shuffle(perm)
            w = U.PermutationUnitary(n, level, tuple(perm))
            cases += [w, E.ad_unitary(w), E.convolution(E.ad_unitary(w), U.flip_unitary(n))]
    cases += [e.unitary for e in census()[0]]
    # Ad(w) with w of level 5 passes first at k = 5
    cases.append(E.ad_unitary(random_unitary(rng, 2, 5)))
    found = set()
    for u in cases:
        e = E.endomorphism(u)
        # exact: a budget one past the first repeat of R_k finds no more
        k = E.is_in_ign(e)
        assert k == is_in_ign_reference(e, lag_count_reference(e))
        found.add(k)
    assert None in found and {0, 1, 2, 3, 5} <= found


def agree_census():
    """Pairs (a, b): all of P_2^2 x P_2^2 and P_2^1 x P_2^3; seeded pairs from
    P_2^3 and P_3^2, each also against its own embedding one level up and in
    the shape of the inner test, (lambda_u o phi^k, phi^k); and the pairs
    among the Ad(v) o swap and Ad(v) o Kitchens maps of `certify_census`."""
    rng = random.Random(61)
    pairs = list(itertools.product(all_unitaries(2, 2), repeat=2))
    pairs += itertools.product(all_unitaries(2, 1), all_unitaries(2, 3))
    for n, level in ((2, 3), (3, 2)):
        for _ in range(150):
            a, b = random_unitary(rng, n, level), random_unitary(rng, n, level)
            rot = U.shift_power_unitary(n, rng.randrange(3))
            inner = E.ad_unitary(random_unitary(rng, n, rng.choice((1, 2))))
            pairs += [(a, b), (a, U.embed(a, level + 1)), (E.convolution(inner, rot), rot)]
    maps = [e.unitary for e in certify_census()[-72:]]
    pairs += [(a, b) for a in maps for b in maps if a.n == b.n]
    return pairs


def test_the_lockstep_agreement_matches_the_closure_search():
    outcomes = []
    for a, b in agree_census():
        got = E.agree_on_diagonal(a, b)
        assert got == agree_reference(a, b)
        outcomes.append(got)
    assert outcomes.count(True) >= 300 and outcomes.count(False) >= 80000


def test_the_point_map_tests_match_their_cylinder_oracles():
    rng = random.Random(67)
    inner_maps = [
        E.endomorphism(E.ad_unitary(random_unitary(rng, n, level)))
        for n, level in ((2, 2), (2, 3), (3, 2))
        for _ in range(10)
    ]
    commuting = inner = 0
    for e in certify_census() + inner_maps:
        fresh = E.endomorphism(e.unitary)
        commutes = E.read_code(e) is not None
        assert commutes == commutes_reference(fresh)
        k = E.is_in_ign(e)
        assert k == is_in_ign_reference(fresh, lag_count_reference(e))
        commuting += commutes
        inner += k is not None
    assert commuting >= 30 and inner >= 30


def cylinder_owners_reference(e, k):
    """(level, owner) with lambda_u(x)[q] = x[owner[q]] for x of level k >= 1,
    off the cocycle product, built factor by factor: u_k sends the rank-src
    word to q, so owner[q] is the first k letters of src; `level` is the least
    that keeps the table."""
    uk = u_k_product(e.unitary, k)
    top = max(uk.level, k)
    drop = e.n ** (top - k)
    owner = [0] * e.n**top
    for src, dst in enumerate(U.embed(uk, top).ranks):
        owner[dst] = src // drop
    return W.strip_table(tuple(owner), e.n, top)


def apply_reference(e, x):
    """lambda_u(x): x read through the owner table at its level."""
    x = W.reduce(x)
    if x.level == 0:
        return x
    level, owner = cylinder_owners_reference(e, x.level)
    return W.reduce(W.DiagonalElement(x.n, level, tuple(x.coeffs[w] for w in owner)))


def braid_reference(e, inverse, x):
    """The braiding formula alpha( sum_j P_j phi(alpha^{-1}(x_j)) ) for
    alpha = lambda_u with inverse lambda_inverse, through the owner tables."""
    inv = E.endomorphism(inverse)
    parts = [apply_reference(inv, p) for p in decompose(x)]
    return apply_reference(e, recompose(e.n, parts))


def read_code_reference(e):
    """The rule off the level-1 owner table, checked against the owner table
    at depth level(u) + 2; None where the two disagree."""
    n = e.n
    level, owner = cylinder_owners_reference(e, 1)
    code = C.minimize(C.SlidingBlockCode(n, level, tuple(j + 1 for j in owner)))
    depth = e.unitary.level + 2
    level, owner = cylinder_owners_reference(e, depth)
    length = depth + code.radius - 1
    top = max(level, length)
    if W.lift_table(owner, n, top) != W.lift_table(code.output_ranks(length), n, top):
        return None
    return code


def test_the_lockstep_rule_check_matches_the_owner_table_check():
    # on maps that do not commute with the shift the rule read off the level-1
    # images is wrong, and both checks refuse it
    read = 0
    for e in certify_census():
        got = E.read_code(e)
        want = read_code_reference(E.endomorphism(e.unitary))
        assert (got is None) == (want is None)
        if got is not None:
            assert (got.radius, got.rule) == (want.radius, want.rule)
            read += 1
    assert read >= 30


def read_code_via_convolution(e, m):
    """Oracle: the code of lambda_u o phi^m read at m = 0 off the composite
    unitary, u convolved with the level-(m+1) shift-power unitary."""
    return E.read_code(E.endomorphism(E.convolution(e.unitary, U.shift_power_unitary(e.n, m))))


def read_code_lockstep_reference(e, m):
    """Oracle: the code read off T_u's runs of m + 1 letters, kept only if,
    padded back to radius m + L, its transducer runs in lockstep with T_u
    from the pairs that T_u's runs of m letters give (the state T_u reaches
    on a word w against the code's state w) and the two agree from the first
    letter on."""
    t, radius = e.point_map, m + max(e.unitary.level, 1)
    rule = tuple(y // t.tail % e.n + 1 for y in t.runs(m + 1))
    code = C.minimize(C.SlidingBlockCode(e.n, radius, rule))
    starts = [(y % t.tail, w) for w, y in enumerate(t.runs(m))]
    return code if t.agree_after(C.transducer(C.pad(code, radius)), starts) == 0 else None


def test_the_run_table_read_matches_the_convolution_route():
    # sigma^m o T_u is read off T_u's runs of m + 1 letters; it is a code
    # exactly from the eventual-commutation index on, where a lockstep run of
    # the code against T_u agrees from the first letter on
    read = refused = 0
    for e in certify_census():
        index = E.eventual_commutation(e)
        for m in range(4):
            got, want = E.read_code(e, m), read_code_via_convolution(e, m)
            lockstep = read_code_lockstep_reference(e, m)
            assert (got is None) == (want is None) == (index is None or m < index)
            assert (got is None) == (lockstep is None)
            if got is not None:
                assert (got.radius, got.rule) == (want.radius, want.rule)
                assert (got.radius, got.rule) == (lockstep.radius, lockstep.rule)
                read += 1
            else:
                refused += 1
    assert read >= 300 and refused >= 1300


def test_read_code_refuses_exactly_the_maps_that_do_not_commute_with_the_shift():
    # read_code refuses exactly below the eventual-commutation index, the one
    # shift-commutation test: it is checked against the flip-convolution
    # oracle on the certify census and on fresh seeded samples of P_2^3 and
    # P_3^2
    rng = random.Random(71)
    samples = [random_unitary(rng, n, level) for n, level in ((2, 3), (3, 2)) for _ in range(150)]
    outcomes = []
    for e in certify_census() + [E.endomorphism(u) for u in samples]:
        refused = E.read_code(e) is None
        assert refused == (not commutes_reference(E.endomorphism(e.unitary)))
        outcomes.append(refused)
    assert outcomes.count(False) >= 30 and outcomes.count(True) >= 500


def test_the_census_catches_a_commutation_closure_started_at_r0():
    # T_u against itself from the diagonal pairs passes every map: the census
    # holds maps on which that mutant and the flip-convolution oracle differ
    def started_at_r0(e):
        t = e.point_map
        return t.agree_after(t, t.diagonal) == 0

    missed = [e for e in certify_census() if started_at_r0(e) != commutes_reference(e)]
    assert len(missed) >= 100


def lag_set_reference(e, d):
    """R_d off words: per input z of length d + level(u) - 1, the state T_u is
    in after d letters, paired with the state a run on sigma^d z starts from."""
    n, step, held = e.n, e.point_map.step, max(e.unitary.level, 1) - 1
    pairs = set()
    for z in itertools.product(range(n), repeat=d + held):
        p = W.word_rank([a + 1 for a in z[:held]], n)
        for a in z[held:]:
            p = step[p * n + a][1]
        pairs.add((p, W.word_rank([a + 1 for a in z[d:]], n)))
    return frozenset(pairs)


def lag_count_reference(e):
    """The number of distinct R_d: R_{d+1} is a function of R_d, so they are
    R_0, ..., R_{d-1} for the first d whose R_d is among them."""
    lags = []
    while lag_set_reference(e, len(lags)) not in lags:
        lags.append(lag_set_reference(e, len(lags)))
    return len(lags)


def test_is_in_ign_identity_and_flip():
    assert E.is_in_ign(E.endomorphism(U.identity(2))) == 0
    # lambda_theta = phi is not inner after any shift
    assert E.is_in_ign(E.endomorphism(U.flip_unitary(2))) is None


def test_commutes_with_shift_on_diagonal():
    assert E.read_code(E.endomorphism(U.kitchens_unitary())) is not None
    assert E.read_code(E.endomorphism(U.flip_unitary(2))) is not None
    # Ad of a letter swap relabels only the first coordinate
    skew = E.ad_unitary(U.letter_permutation(2, (2, 1)))
    assert E.read_code(E.endomorphism(skew)) is None


def phi_commutation_identity(v):
    """Oracle: v phi(v) theta phi(v^*) == phi(v) theta, exactly.

    Holds iff lambda_v commutes with the canonical shift on the whole
    algebra; every level-1 v passes, genuinely level-2 unitaries need not.
    """
    theta = U.flip_unitary(v.n)
    pv = U.phi_shift(v, 1)
    lhs = U.multiply(U.multiply(U.multiply(v, pv), theta), U.phi_shift(U.inverse(v), 1))
    return lhs == U.multiply(pv, theta)


def test_phi_commutation_identity():
    for n in (2, 3):
        for images in itertools.permutations(range(1, n + 1)):
            assert phi_commutation_identity(U.letter_permutation(n, images))
    assert not phi_commutation_identity(U.kitchens_unitary())


def test_certify_kitchens_is_self_inverse():
    # at budget 1 the level-2 inverse is out of reach of the direct route, and
    # the degree route lifts the inverse code instead
    for budget in (1, 6):
        verdict = E.certify_automorphism(E.endomorphism(U.kitchens_unitary()), budget)
        assert verdict.verdict == "automorphism"
        assert verdict.inverse == U.kitchens_unitary()


def test_certify_flip_is_refuted_with_degree_two():
    verdict = E.certify_automorphism(E.endomorphism(U.flip_unitary(2)), budget=6)
    assert verdict.verdict == "not_automorphism"
    assert verdict.degree == 2


def test_certify_inner_automorphism():
    w = from_mapping(3, 2, {(a, b): ((a % 3) + 1, b) for a in (1, 2, 3) for b in (1, 2, 3)})
    e = E.endomorphism(E.ad_unitary(w))
    verdict = E.certify_automorphism(e, budget=6)
    assert verdict.verdict == "automorphism"
    assert E.convolution(verdict.inverse, e.unitary).is_identity()


def test_preimage_inverts_kitchens():
    # the certified inverse of Kitchens' map takes lambda(x) back to x
    rng = random.Random(47)
    e = E.endomorphism(U.kitchens_unitary())
    verdict = E.certify_automorphism(e, budget=4)
    assert verdict.verdict == "automorphism"
    inv = E.endomorphism(verdict.inverse)
    y = W.projection(3, [(1, 1), (1, 2), (2, 3)])
    assert E.apply_diag(inv, y) == W.cylinder(3, (1,))
    assert E.apply_diag(inv, W.cylinder(3, (3,))) == W.cylinder(3, (3,))
    for k in range(1, 4):
        x = random_element(rng, 3, k)
        assert E.apply_diag(inv, E.apply_diag(e, x)) == W.reduce(x)


def random_unitary(rng, n, level):
    perm = list(range(n**level))
    rng.shuffle(perm)
    return U.PermutationUnitary(n, level, tuple(perm))


def random_element(rng, n, level):
    values = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n**level)]
    return diagonal(n, level, values)


def test_owner_table_matches_the_adjoint_action():
    # apply_diag reads x through T_u; the owner table off u_k and Ad(u_k)
    # read it through the cocycle product instead
    rng = random.Random(41)
    small = [U.kitchens_unitary()]
    for n in (2, 3):
        small += [U.flip_unitary(n), U.identity(n), E.ad_unitary(random_unitary(rng, n, 2))]
    maps = [E.endomorphism(u) for u in small] + certify_census()
    for i, e in enumerate(maps):
        for k in range(1, 5):
            uk = u_k_product(e.unitary, k)
            if i < len(small):
                levels = [
                    adjoint_action(uk, W.cylinder(e.n, w)).level
                    for w in W.enumerate_words(e.n, k)
                ]
                assert cylinder_owners_reference(e, k)[0] == max(levels)
            for _ in range(3 if i < len(small) else 1):
                x = random_element(rng, e.n, k)
                got = E.apply_diag(e, x)
                assert got == apply_reference(e, x) == adjoint_action(uk, x)


def test_preimage_inverts_certified_automorphisms():
    rng = random.Random(43)
    kitchens = U.kitchens_unitary()
    cases = [kitchens, U.letter_permutation(3, (2, 3, 1))]
    for n in (2, 3):
        swap = U.letter_permutation(n, (2, 1) + tuple(range(3, n + 1)))
        for _ in range(2):
            w = E.ad_unitary(random_unitary(rng, n, 2))
            cases += [w, E.convolution(w, swap)]
    cases.append(E.convolution(E.ad_unitary(random_unitary(rng, 3, 2)), kitchens))
    certified = []
    for e in map(E.endomorphism, cases):
        verdict = E.certify_automorphism(e, budget=5)
        if verdict.verdict == "automorphism":
            certified.append((e, E.endomorphism(verdict.inverse)))
    assert len(certified) == len(cases)
    for e, inv in certified:
        for k in range(1, 4):
            x = random_element(rng, e.n, k)
            assert E.apply_diag(inv, E.apply_diag(e, x)) == W.reduce(x)


def test_preimage_rejects_elements_outside_the_range():
    # lambda_flip is phi, whose range misses P_1: no budget certifies it,
    # and the shift-commuting route refutes it with degree n
    for n in (2, 3):
        for budget in (1, 3, 6):
            verdict = E.certify_automorphism(E.endomorphism(U.flip_unitary(n)), budget)
            assert verdict.verdict == "not_automorphism" and verdict.inverse is None
            assert verdict.degree == n


def test_property_p_data_kitchens():
    u = U.kitchens_unitary()
    m_upper, m_min = E.property_p_data(E.endomorphism(u), u)
    assert m_min == 0
    assert m_upper == u.level - 1


def test_property_p_data_composition_with_inner():
    rng = random.Random(23)
    pool = list(W.enumerate_words(3, 2))
    perm = list(range(9))
    rng.shuffle(perm)
    v = U.PermutationUnitary(3, 2, tuple(perm))
    e = E.endomorphism(E.convolution(E.ad_unitary(v), U.kitchens_unitary()))
    verdict = E.certify_automorphism(e, budget=8)
    assert verdict.verdict == "automorphism"
    m_upper, m_min = E.property_p_data(e, verdict.inverse)
    assert m_upper == max(U.reduce(verdict.inverse).level - 1, 0)
    assert 0 <= m_min <= m_upper


def assert_braid_identity(u):
    """The braiding automorphism of alpha = lambda_u is Ad(u): by the Cuntz
    relations lambda_u(S_i x S_i^*) = u S_i lambda_u(x) S_i^* u^*, and summing
    over i gives lambda_u phi = Ad(u) phi lambda_u, checked exactly on the two
    convolutions."""
    theta = U.flip_unitary(u.n)
    lhs = E.convolution(u, theta)
    rhs = E.convolution(E.convolution(E.ad_unitary(u), theta), u)
    assert E.agree_on_diagonal(lhs, rhs)


def test_braiding_of_kitchens():
    u = U.kitchens_unitary()
    e = E.endomorphism(u)
    assert_braid_identity(u)
    # alpha phi(x) = Ad(u) phi alpha(x) on cylinders
    for k in range(1, 4):
        for word in W.enumerate_words(3, k):
            p = W.cylinder(3, word)
            lhs = E.apply_diag(e, W.shift_diag(p))
            rhs = adjoint_action(u, W.shift_diag(E.apply_diag(e, p)))
            assert lhs == rhs


def test_the_braiding_is_the_old_formula_on_the_certified_census():
    checked = 0
    for e in certify_census():
        verdict = E.certify_automorphism(e, 5)
        if verdict.verdict != "automorphism":
            continue
        assert_braid_identity(e.unitary)
        for k in range(1, 4):
            for word in W.enumerate_words(e.n, k):
                p = W.cylinder(e.n, word)
                assert adjoint_action(e.unitary, p) == braid_reference(e, verdict.inverse, p)
        checked += 1
    assert checked >= 70


def test_the_braiding_of_a_second_letter_swap():
    # 1 (x) swap: its braiding Ad(u) fixes every level-1 cylinder, so a search
    # over cylinder images took the identity, which fails the braid identity
    u = U.PermutationUnitary(2, 2, (1, 0, 3, 2))
    e = E.endomorphism(u)
    verdict = E.certify_automorphism(e, 5)
    assert verdict.verdict == "automorphism"
    found = unitary_from_images_reference(
        2, range(1, 9), lambda word: braid_reference(e, verdict.inverse, W.cylinder(2, word))
    )
    assert found == U.identity(2)
    theta = U.flip_unitary(2)
    assert not E.agree_on_diagonal(
        E.convolution(u, theta), E.convolution(E.convolution(E.ad_unitary(found), theta), u)
    )
    assert_braid_identity(u)
    for k in range(1, 4):
        for word in W.enumerate_words(2, k):
            p = W.cylinder(2, word)
            assert adjoint_action(u, p) == braid_reference(e, verdict.inverse, p)


def census():
    """(endomorphisms, certified automorphisms with their inverses): all of
    P_2^1, P_2^2 and P_3^1, seeded unitaries up to level 3, and seeded
    Ad(v) o swap and Ad(v) o Kitchens."""
    rng = random.Random(53)
    cases = []
    for n, level in ((2, 1), (2, 2), (3, 1)):
        cases += all_unitaries(n, level)
    for n, level, count in ((2, 3, 12), (3, 2, 12), (3, 3, 3)):
        cases += [random_unitary(rng, n, level) for _ in range(count)]
    for n in (2, 3):
        bases = [U.letter_permutation(n, (2, 1) + tuple(range(3, n + 1)))]
        if n == 3:
            bases.append(U.kitchens_unitary())
        for base in bases:
            for level in (1, 1, 2, 2, 2, 2):
                w = E.ad_unitary(random_unitary(rng, n, level))
                cases.append(E.convolution(w, base))
    maps = [E.endomorphism(u) for u in cases]
    certified = []
    for e in maps:
        verdict = E.certify_automorphism(e, budget=5)
        if verdict.verdict == "automorphism":
            certified.append((e, verdict.inverse))
    return maps, certified


def property_p_reference(e, inverse):
    # property (P) on cylinders: lambda_u applied to phi^k(P_i)
    m_upper = max(U.reduce(inverse).level - 1, 0)
    window = m_upper + e.unitary.level + 1
    letters = [W.cylinder(e.n, (i,)) for i in range(1, e.n + 1)]

    def holds(m):
        images = [E.apply_diag(e, W.shift_diag(p, m)) for p in letters]
        return all(
            E.apply_diag(e, W.shift_diag(p, k)) == W.shift_diag(img, k - m)
            for k in range(m, window + 1)
            for p, img in zip(letters, images)
        )

    if not holds(m_upper):
        raise ValueError("inverse certificate violates the guaranteed property-(P) bound")
    return m_upper, next((m for m in range(m_upper) if holds(m)), m_upper)


def property_p_windowed_reference(e, inverse):
    """Property (P) on the point map as it was searched under a budget: each m
    is tested on R_0, ..., R_{window - m} only, window = m_upper + level(u) + 1."""
    m_upper = max(U.reduce(inverse).level - 1, 0)
    window = m_upper + e.unitary.level + 1
    n, tail, step = e.n, e.point_map.tail, e.point_map.step
    moves = [
        ([step[p * n + a][1] for p in range(tail)], [(q * n + a) % tail for q in range(tail)])
        for a in range(n)
    ]
    lags = [{(s, s) for s in range(tail)}]
    for _ in range(window):
        lags.append({(nxt[p], shift[q]) for p, q in lags[-1] for nxt, shift in moves})
    emitted = [tuple(step[p * n + a][0] for a in range(n)) for p in range(tail)]

    def holds(m):
        pairs = set().union(*lags[: window - m + 1])
        for _ in range(m):
            pairs = {(nxt[p], nxt[q]) for p, q in pairs for nxt, _ in moves}
        return all(emitted[p] == emitted[q] for p, q in pairs)

    if not holds(m_upper):
        raise ValueError("inverse certificate violates the guaranteed property-(P) bound")
    return m_upper, next((m for m in range(m_upper) if holds(m)), m_upper)


def test_exact_property_p_matches_the_windowed_search_on_the_certify_census():
    # on the certified automorphisms, and on claimed certificates of levels
    # 0-3 for every map, where both refuse or both answer alike
    results = []
    for e in certify_census():
        verdict = E.certify_automorphism(e, 5)
        if verdict.verdict == "automorphism":
            got = E.property_p_data(e, verdict.inverse)
            assert got == property_p_windowed_reference(e, verdict.inverse)
            results.append(got)
        for j in range(4):
            claim = U.shift_power_unitary(e.n, j)
            got = property_p_outcome(E.property_p_data, e, claim)
            assert got == property_p_outcome(property_p_windowed_reference, e, claim)
    assert len(results) == 84 and any(m_min < m_upper for m_upper, m_min in results)


def property_p_outcome(data, e, inverse):
    try:
        return data(e, inverse)
    except ValueError:
        return "refused"


def test_property_p_on_the_point_map_matches_the_cylinder_test():
    maps, certified = census()
    assert len(certified) >= 20
    results = []
    for e, inverse in certified:
        got = E.property_p_data(e, inverse)
        assert got == property_p_reference(e, inverse)
        results.append(got)
    assert any(m_min < m_upper for m_upper, m_min in results)
    # an identity certificate claims m_upper = 0, too small for these
    wrong = [e for (e, _), (_, m_min) in zip(certified, results) if m_min > 0]
    assert wrong
    for e in wrong:
        with pytest.raises(ValueError):
            property_p_reference(e, U.identity(e.n))
        with pytest.raises(ValueError):
            E.property_p_data(e, U.identity(e.n))
    # claimed certificates of levels 0-2 on every map, automorphism or not
    for e in maps:
        for j in range(3):
            claim = U.shift_power_unitary(e.n, j)
            got = property_p_outcome(E.property_p_data, e, claim)
            assert got == property_p_outcome(property_p_reference, e, claim)


def eventual_commutation_reference(e, length=8):
    """Least k <= 3 with sigma^k o T_u o sigma = sigma^{k+1} o T_u on every
    word z of one length, length + L - 1, or None: T_u(z) past its (k+1)-th
    letter against T_u(sigma z) past its k-th, read off the emitted ranks
    (`runs` over the tail), with sigma z the word z without its first letter."""
    n, t = e.n, e.point_map
    tz, tsz = ([r // t.tail for r in t.runs(k)] for k in (length, length - 1))
    for k in range(4):
        keep = n ** (length - 1 - k)
        if all(y % keep == tsz[z % len(tsz)] % keep for z, y in enumerate(tz)):
            return k
    return None


def test_eventual_commutation_matches_the_word_oracle():
    # on every map of the census, and on T_u and the inverse's point map of
    # each certified automorphism, where it is property (P)'s least m
    indices, outcomes = [], set()
    for e in certify_census():
        k = E.eventual_commutation(e)
        assert k == eventual_commutation_reference(e)
        outcomes.add(k)
        verdict = E.certify_automorphism(e, 5)
        if verdict.verdict == "automorphism":
            inverse = E.endomorphism(verdict.inverse)
            k_inv = E.eventual_commutation(inverse)
            assert k_inv == eventual_commutation_reference(inverse)
            assert E.property_p_data(e, verdict.inverse)[1] == k
            indices.append((k, k_inv))
    assert None in outcomes and {0, 1, 2} <= outcomes
    assert len(indices) == 84 and None not in itertools.chain(*indices)
    assert {0, 1, 2} <= {k for k, _ in indices}


def test_an_automorphism_and_its_inverse_can_have_different_indices():
    u = U.PermutationUnitary(3, 2, (2, 6, 1, 4, 3, 5, 8, 0, 7))
    e = E.endomorphism(u)
    verdict = E.certify_automorphism(e, 5)
    inverse = E.endomorphism(verdict.inverse)
    assert (E.eventual_commutation(e), E.eventual_commutation(inverse)) == (2, 1)
    assert eventual_commutation_reference(e) == 2
    assert eventual_commutation_reference(inverse) == 1
    assert E.property_p_data(e, verdict.inverse) == (2, 2)
    assert E.property_p_data(inverse, u) == (1, 1)


@timed(2.0)
def test_eventual_questions_stay_within_the_pair_graph_on_long_set_cycles():
    # 128 cells: the sets of pairs reached from R_1 can cycle with period
    # lcm(3, 5, 7, 11, 13, 17) = 255,255, while the pair graph has at most
    # 64^2 nodes
    plain, swapped = (E.endomorphism(cycling_unitary(7, s)) for s in ((), (0, 3, 8, 15, 24)))
    assert E.eventual_commutation(plain) == 0
    assert E.eventual_commutation(swapped) is None
    assert E.is_in_ign(plain) is None and E.is_in_ign(swapped) is None


def run_point_map(e, z):
    """T_u on a finite word z of 0-based letters: the letters it emits."""
    step = e.point_map.step
    held = max(e.unitary.level, 1) - 1
    state = 0
    for a in z[:held]:
        state = state * e.n + a
    out = []
    for a in z[held:]:
        letter, state = step[state * e.n + a]
        out.append(letter)
    return tuple(out)


def test_point_map_preimages_are_the_cylinder_images():
    maps, _ = census()
    for e in maps:
        n, level = e.n, max(e.unitary.level, 1)
        for k in range(1, level + 3):
            preimages = {}
            for z in W.enumerate_words(n, k + level - 1):
                word = tuple(a + 1 for a in run_point_map(e, [a - 1 for a in z]))
                preimages.setdefault(word, []).append(z)
            for w in W.enumerate_words(n, k):
                expected = W.projection(n, preimages.get(w, []))
                assert E.apply_diag(e, W.cylinder(n, w)) == expected


def run_state(e, z):
    """The state T_u reaches on a finite word z of 0-based letters."""
    step, held, state = e.point_map.step, max(e.unitary.level, 1) - 1, 0
    for a in z[:held]:
        state = state * e.n + a
    for a in z[held:]:
        state = step[state * e.n + a][1]
    return state


def test_runs_are_the_letters_the_point_map_emits():
    # Transducer.runs runs T_u as it runs a code's transducer: per word, the
    # emitted rank times the tail plus the state reached; e.u_k_star caches it
    maps, _ = census()
    for e in maps:
        t, held = e.point_map, max(e.unitary.level, 1) - 1
        for k in (1, 2, 3):
            words = [[a - 1 for a in z] for z in W.enumerate_words(e.n, k + held)]
            want = [
                W.word_rank([a + 1 for a in run_point_map(e, z)], e.n) * t.tail + run_state(e, z)
                for z in words
            ]
            assert t.runs(k) == want
            if e.unitary.level:
                assert list(e.u_k_star(k).ranks) == want


def u_k_star_reference(u, k):
    """Oracle: u_k^* by the recursion u_k^* = phi(u_{k-1}^*) u^* from
    u_1^* = u^*, each step a shift and a product."""
    star = out = U.inverse(u)
    for _ in range(k - 1):
        out = U.multiply(U.phi_shift(out, 1), star)
    return out


def test_the_cocycle_inverses_are_the_run_tables():
    # on the census and on seeded P_2^2, P_2^3, P_3^2 and P_3^3, with the
    # identity at level 0, rank for rank
    rng = random.Random(71)
    units = [U.identity(2), U.identity(3)]
    for n, level in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for _ in range(12):
            perm = list(range(n**level))
            rng.shuffle(perm)
            units.append(U.PermutationUnitary(n, level, tuple(perm)))
    pairs = 0
    for u in units + [e.unitary for e in certify_census()]:
        e = E.endomorphism(u)
        for k in range(1, 5):
            want = u_k_star_reference(e.unitary, k)
            assert e.u_k_star(k).ranks == want.ranks
            assert e.u_k_star(k).level == want.level == k + e.unitary.level - 1
            pairs += 1
    assert pairs >= 4 * 250


def test_apply_diag_reads_x_with_no_lifted_copy(monkeypatch):
    from shiftcalc import capacity

    e = E.endomorphism(U.kitchens_unitary())
    x, y = diagonal(3, 2, range(9)), diagonal(3, 3, range(27))
    want = apply_reference(e, x)
    monkeypatch.setattr(W, "lift_table", None)
    assert E.apply_diag(e, x) == want
    # the capacity is still checked at level k + level(u) - 1
    old = capacity.get_limit()
    try:
        capacity.set_limit(27)
        assert E.apply_diag(e, x) == want
        with pytest.raises(capacity.CapacityError):
            E.apply_diag(e, y)
    finally:
        capacity.set_limit(old)


def test_the_lockstep_run_is_bounded_by_the_capacity():
    # read_code's eventual-commutation search on u holds 7 pairs of states,
    # before the 8 cells of the radius-3 code are checked; agree_on_diagonal
    # on u and a second level-3 unitary with the same diagonal action reaches
    # 16 pairs from the diagonal
    from shiftcalc import capacity

    e = E.endomorphism(U.PermutationUnitary(2, 3, (2, 4, 0, 6, 1, 7, 5, 3)))
    same = U.PermutationUnitary(2, 3, (0, 2, 4, 6, 1, 3, 5, 7))
    old = capacity.get_limit()
    try:
        capacity.set_limit(6)
        with pytest.raises(capacity.CapacityError, match="lockstep"):
            E.read_code(e)
        capacity.set_limit(8)
        assert E.read_code(e) is not None
        with pytest.raises(capacity.CapacityError, match="lockstep"):
            E.agree_on_diagonal(e.unitary, same)
        capacity.set_limit(16)
        assert E.agree_on_diagonal(e.unitary, same)
    finally:
        capacity.set_limit(old)


def test_is_identity_on_diagonal_matches_the_cylinder_loop():
    maps, _ = census()
    units = [U.embed(U.identity(n), level) for n in (2, 3) for level in (0, 1, 3)]
    for u in units + [e.unitary for e in maps]:
        e = E.endomorphism(u)
        fixed = all(
            E.apply_diag(e, W.cylinder(u.n, w)) == W.cylinder(u.n, w)
            for w in W.enumerate_words(u.n, u.level + 2)
        )
        assert u.is_identity() == fixed


def preimage_reference(e, y, max_depth):
    # lambda_u(x) = y solved by scattering y through the owner table of each
    # source level s <= max_depth; the exact check keeps x iff y is constant
    # on every owner fiber
    n = e.n
    for s in range(1, max_depth + 1):
        owner_level, owner = cylinder_owners_reference(e, s)
        level = max(y.level, owner_level)
        coeffs = [None] * n**s
        for w, c in zip(W.lift_table(owner, n, level), refine(y, level).coeffs):
            coeffs[w] = c
        x = W.reduce(diagonal(n, s, coeffs))
        if E.apply_diag(e, x) == y:
            return x
    return None


def unitary_from_images_reference(n, levels, image):
    # the unitary v with image(w) = P_{v(w)} at the first level of `levels`
    # where the images are distinct single cylinders of that level
    for rho in levels:
        mapping = {}
        for w in W.enumerate_words(n, rho):
            img = image(w)
            if img is None:
                return None
            img = W.reduce(img)
            supp = img.support()
            if not (img.is_projection() and img.level == rho and len(supp) == 1):
                break
            mapping[w] = supp[0]
        else:
            if len(set(mapping.values())) == len(mapping):
                return U.reduce(from_mapping(n, rho, mapping))
    return None


def certify_reference(e, budget):
    """The inverse found by searching cylinder images, or None.

    The braiding automorphism of alpha^{-1} is read off cylinder images with
    alpha^{-1} evaluated through `preimage_reference`; failing that, an inner
    action found by `is_in_ign` gives its conjugator.  Each candidate is
    verified on both sides.
    """
    n, u = e.n, e.unitary

    def braid(z):
        parts = [E.apply_diag(e, p) for p in decompose(z)]
        return preimage_reference(e, recompose(n, parts), budget)

    def verified(v):
        both = (E.convolution(v, u), E.convolution(u, v))
        return v if all(v.is_identity() for v in both) else None

    cand = unitary_from_images_reference(
        n, range(1, budget + 1), lambda w: braid(W.cylinder(n, w))
    )
    if cand is not None and verified(cand) is not None:
        return cand
    k = E.is_in_ign(e)
    if k is None or k > budget:
        return None
    if k == 0:
        return U.identity(n)
    r = max(k, cylinder_owners_reference(e, k)[0])
    w = unitary_from_images_reference(
        n, (r,), lambda word: E.apply_diag(e, W.cylinder(n, word))
    )
    return verified(U.reduce(E.ad_unitary(U.inverse(w))))


def point_map_reference(u):
    """(window, step) of T_u read straight off the ranks of u: the pending
    state is the rank of the last window - 1 letters, 0-based."""
    window = max(u.level, 1)
    ranks = u.ranks if u.level else tuple(range(u.n))
    src = [0] * len(ranks)
    for s, d in enumerate(ranks):
        src[d] = s
    tail = u.n ** (window - 1)
    return window, [divmod(src[block], tail) for block in range(u.n**window)]


def run_point_map_reference(t, n, z):
    window, step = t
    state, out = 0, []
    for a in z[: window - 1]:
        state = state * n + a
    for a in z[window - 1 :]:
        letter, state = step[state * n + a]
        out.append(letter)
    return out


def inverse_on_points(u, v, depth):
    """Do T_u o T_v and T_v o T_u keep the first `depth` letters of every
    point?  On the diagonal that is lambda_v lambda_u = lambda_u lambda_v = 1
    up to level `depth`."""
    maps = (point_map_reference(u), point_map_reference(v))
    length = depth + maps[0][0] + maps[1][0] - 2
    for z in itertools.product(range(u.n), repeat=length):
        for outer, inner in (maps, maps[::-1]):
            image = run_point_map_reference(
                outer, u.n, run_point_map_reference(inner, u.n, list(z))
            )
            if image != list(z[:depth]):
                return False
    return True


def certify_census():
    """All of P_2^1, P_2^2 and P_3^1; seeded samples of P_2^3, P_3^2 and
    P_3^3; seeded Ad(v) o swap and Ad(v) o Kitchens."""
    rng = random.Random(59)
    cases = []
    for n, level in ((2, 1), (2, 2), (3, 1)):
        cases += all_unitaries(n, level)
    for n, level, count in ((2, 3, 200), (3, 2, 100), (3, 3, 8)):
        cases += [random_unitary(rng, n, level) for _ in range(count)]
    for n in (2, 3):
        bases = [U.letter_permutation(n, (2, 1) + tuple(range(3, n + 1)))]
        if n == 3:
            bases.append(U.kitchens_unitary())
        for base in bases:
            for level in (1,) * 6 + (2,) * 18:
                cases.append(E.convolution(E.ad_unitary(random_unitary(rng, n, level)), base))
    return [E.endomorphism(u) for u in cases]


def test_the_direct_inverse_matches_the_search():
    budget = 5
    agreed = found = 0
    for e in certify_census():
        verdict = E.certify_automorphism(e, budget)
        expected = certify_reference(e, budget)
        if expected is not None:
            assert verdict.verdict == "automorphism"
            assert verdict.inverse == expected
            agreed += 1
        elif verdict.verdict == "automorphism":
            # a certification the search missed: check it on points
            assert inverse_on_points(e.unitary, verdict.inverse, 3)
            assert U.reduce(convolution_reference(e.unitary, verdict.inverse)).is_identity()
            found += 1
        if verdict.verdict == "automorphism":
            assert U.reduce(verdict.inverse).level <= budget
    assert agreed >= 60 and found >= 15


def certify_ungated(e, budget):
    """The certification loop with no collision test: every level s <= budget,
    then the degree route, with cocycles built afresh for every convolution."""
    u = e.unitary
    u_star = U.inverse(u)
    for s in range(1, budget + 1):
        us = u_k_product(u, s)
        w = U.reduce(U.multiply(U.multiply(U.inverse(us), u_star), us))
        if w.level <= s:
            both = (E.convolution(w, u), E.convolution(u, w))
            if all(v.is_identity() for v in both):
                return E.AutomorphismVerdict("automorphism", inverse=w)
            raise AssertionError("the direct inverse fails verification")
    code = E.read_code(e)
    if code is not None:
        window = max(budget, 2 * max(code.radius, 1))
        found = C.en_inverse_search(code, budget, window)
        if found is not None:
            beta, m = found
            deg = C.degree(code, beta, m)
            if deg > 1:
                return E.AutomorphismVerdict("not_automorphism", degree=deg)
            v = B.unitary_from_shift_automorphism(beta)
            both = (E.convolution(v, u), E.convolution(u, v))
            if all(v.is_identity() for v in both):
                return E.AutomorphismVerdict("automorphism", inverse=v)
    return E.AutomorphismVerdict("unknown", budget=budget)


def test_the_degree_route_certifies_past_the_budget():
    # budget 1 is below each inverse's level, so every level fails and the
    # degree-one branch certifies: it returns w_s at s = radius(beta), which
    # the ungated loop checks against the lift of beta
    kitchens = U.kitchens_unitary()
    letters = [U.letter_permutation(3, p) for p in itertools.permutations((1, 2, 3))]
    maps = [kitchens] + [E.convolution(p, kitchens) for p in letters]
    maps += [E.convolution(E.convolution(p, kitchens), U.inverse(p)) for p in letters]
    for u in maps:
        verdict = E.certify_automorphism(E.endomorphism(u), budget=1)
        assert verdict.verdict == "automorphism" and verdict.inverse.level > 1
        assert verdict == certify_ungated(E.endomorphism(u), budget=1)
    verdict = E.certify_automorphism(E.endomorphism(kitchens), budget=1)
    assert verdict.inverse == kitchens


def test_point_map_injectivity_census():
    # T_u is a bijection for 8 of P_2^2 and 384 of P_2^3; level <= 1 always
    for n, level, injective in ((2, 1, 2), (3, 1, 6), (2, 2, 8), (2, 3, 384)):
        count = sum(
            E.point_map_is_injective(E.endomorphism(u)) for u in all_unitaries(n, level)
        )
        assert count == injective


def test_point_map_collisions_are_two_points_with_one_image():
    # at level 2 the start state is the first letter, so a colliding T_u maps
    # two points that differ in their first letter to one image, and so two
    # words, once they are long enough; an injective one never does
    for u in all_unitaries(2, 2):
        e = E.endomorphism(u)
        images = {}
        for z in itertools.product(range(2), repeat=7):
            images.setdefault(run_point_map(e, z), set()).add(z[0])
        merged = any(len(firsts) > 1 for firsts in images.values())
        assert merged != E.point_map_is_injective(e)


def test_the_collision_gate_keeps_every_verdict():
    budget = 5
    for cases, automorphisms in (
        (certify_census(), 84),
        (map(E.endomorphism, all_unitaries(2, 3)), 48),
    ):
        found = 0
        for e in cases:
            verdict = E.certify_automorphism(e, budget)
            assert verdict == certify_ungated(E.endomorphism(e.unitary), budget)
            if verdict.verdict == "automorphism":
                assert E.point_map_is_injective(e)
                found += 1
        assert found == automorphisms


def counted(monkeypatch, name):
    """Count the calls of endo.<name> made through the module."""
    calls = []
    fn = getattr(E, name)
    monkeypatch.setattr(E, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def test_certification_builds_no_u_s(monkeypatch):
    # a refutation: the one level tried is s = level(u) = 3, then T_u collides,
    # so no level above it is tried, and the degree route reads the code off e
    # once, and that check on the point map is its one shift-commutation test;
    # w_s and both rank identities read only run tables u_k^*, none past
    # u_{level(u)}^*.  A cocycle u_s could only be built by inverting a run
    # table, and the only unitaries inverted are u and the certified inverse,
    # each into its one-letter run table, so no u_s is built
    inverted = []
    inverse = U.inverse
    monkeypatch.setattr(U, "inverse", lambda v: inverted.append(v) or inverse(v))
    pi, pi2 = U.letter_permutation(3, (2, 3, 1)), U.letter_permutation(3, (2, 1, 3))
    u = E.convolution(E.convolution(pi, U.shift_power_unitary(3, 2)), pi2)
    cases = [E.endomorphism(case.unitary) for case in certify_census()]
    inverted.clear()  # the convolutions above invert u_m^*
    e = E.endomorphism(u)
    attempts = counted(monkeypatch, "_direct_inverse")
    commutation_tests = counted(monkeypatch, "read_code")
    collision_tests = counted(monkeypatch, "point_map_is_injective")
    verdict = E.certify_automorphism(e, budget=8)
    assert verdict == E.AutomorphismVerdict("not_automorphism", degree=9)
    assert [s for _, s in attempts] == [e.unitary.level] == [3]
    assert max(e._uk_star) <= e.unitary.level
    assert len(commutation_tests) == len(collision_tests) == 1
    assert [v.ranks for v in inverted] == [e.unitary.ranks]
    # an inverse found at s <= level(u) needs no collision test: Kitchens is
    # certified by the one attempt at s = level(u) = 2
    attempts.clear()
    inverted.clear()
    verdict = E.certify_automorphism(E.endomorphism(U.kitchens_unitary()), budget=8)
    assert verdict.inverse == U.kitchens_unitary()
    assert [s for _, s in attempts] == [2]
    assert len(collision_tests) == 1
    assert [v.ranks for v in inverted] == [U.kitchens_unitary().ranks] * 2
    # nor does certifying any map of the census, automorphism or not
    for case in cases:
        inverted.clear()
        verdict = E.certify_automorphism(case, budget=5)
        assert all(v in (case.unitary, verdict.inverse) for v in inverted)


def test_certify_starts_at_the_level_of_u():
    # v = w_s for every s >= level(v), and no w_s of level <= s exists below
    # level(v), so each level s < level(u) that the loop skips finds nothing
    # or the v that s = level(u) finds: the loop from s = 1 agrees
    budget, skipped = 5, 0
    for e in certify_census()[::3]:
        verdict = E.certify_automorphism(e, budget)
        fresh = E.endomorphism(e.unitary)
        for s in range(1, min(e.unitary.level, budget)):
            w = E._direct_inverse(fresh, s)
            assert w is None or w == verdict.inverse
            skipped += 1
        assert verdict == certify_ungated(fresh, budget)
    assert skipped >= 100


def test_cached_cocycle_inverses_are_the_inverses():
    for e in certify_census():
        for k in (4, 1, 3, 2):  # out of order: later k reuse earlier ones
            uk = u_k_product(e.unitary, k)
            assert e.u_k_star(k) == U.inverse(uk)
            assert e.u_k_star(k).ranks == U.inverse(uk).ranks


def certified_pairs():
    """(e, v) for every automorphism lambda_u of `certify_census()` with its
    certified inverse v."""
    pairs = []
    for e in certify_census():
        verdict = E.certify_automorphism(e, budget=5)
        if verdict.verdict == "automorphism":
            pairs.append((e, verdict.inverse))
    return pairs


def rank_identities(u, v):
    """convolution(u, v) = 1 and convolution(v, u) = 1, as the rank identities
    of `_direct_inverse`."""
    one = E._convolution_is_one
    return one(E.endomorphism(u), v), one(E.endomorphism(v), u)


def test_the_rank_identities_are_the_convolution_checks():
    # on the certified pairs, where both hold, and on every pair of P_2^0 to
    # P_2^2 and of P_3^0 and P_3^1, where most fail; each in both orders
    pairs = [(e.unitary, v) for e, v in certified_pairs()]
    assert len(pairs) == 84
    for n, levels in ((2, (0, 1, 2)), (3, (0, 1))):
        units = [u for level in levels for u in all_unitaries(n, level)]
        pairs += itertools.product(units, repeat=2)
    held = 0
    for u, v in pairs:
        want = tuple(E.convolution(*p).is_identity() for p in ((u, v), (v, u)))
        assert rank_identities(u, v) == want
        # O_n is simple, so convolution(u, v) = 1 makes lambda_u bijective with
        # inverse lambda_v: either identity implies the other (both are checked)
        assert want[0] == want[1]
        assert E.is_inverse(E.endomorphism(u), v) == all(want)
        held += all(want)
    # 15 of the 729 pairs over two letters (the identity at three levels and
    # the swap at two among them) and 9 of the 49 over three are inverses
    assert held == 84 + 15 + 9


def test_a_transposed_inverse_fails_both_rank_identities():
    rng = random.Random(67)
    pairs = certified_pairs()
    for e, v in pairs:
        if v.level == 0:
            continue
        i, j = rng.sample(range(len(v.ranks)), 2)
        ranks = list(v.ranks)
        ranks[i], ranks[j] = ranks[j], ranks[i]
        wrong = U.PermutationUnitary(v.n, v.level, tuple(ranks))
        assert rank_identities(e.unitary, wrong) == (False, False)


def test_a_wrong_direct_inverse_is_caught(monkeypatch):
    # w_s of level <= s that is not the inverse: the identity, u itself (unless
    # u is its own inverse) and v with two ranks swapped
    cases = 0
    for e, v in certified_pairs()[::4]:
        s = max(e.unitary.level, v.level, 1)
        wrongs = [U.identity(e.n), e.unitary]
        if v.level:
            swapped = (v.ranks[1], v.ranks[0]) + v.ranks[2:]
            wrongs.append(U.PermutationUnitary(v.n, v.level, swapped))
        for wrong in wrongs:
            if wrong == v:
                continue
            monkeypatch.setattr(E, "_w_scatter", lambda *args: wrong)
            with pytest.raises(AssertionError, match="the direct inverse fails verification"):
                E._direct_inverse(E.endomorphism(e.unitary), s)
            cases += 1
    assert cases >= 40


def test_the_unordered_pair_graph_matches_the_ordered_one_on_the_census():
    heights = []
    for e in census()[0]:
        t = e.point_map
        starts = [(p, q) for p in range(t.tail) for q in range(t.tail) if p != q]
        want = ordered_pair_height_reference(t, starts)
        assert t.height(starts) == want
        assert t.height([(p, q) for p, q in starts if p < q]) == want
        heights.append(want)
    assert heights.count(None) >= 20 and {0, 1, 2} <= set(heights)
