"""Acceptance suite: twelve end-to-end criteria, one test each.

Every check is exact (integer/rational arithmetic only); the timed ones
assert their wall-clock budget as well.
"""
import itertools
import random
import time

from shiftcalc import bridge as B
from shiftcalc import codes as C
from shiftcalc import endo as E
from shiftcalc import unitaries as U
from shiftcalc import words as W


def timed(budget_seconds):
    def wrap(fn):
        def run():
            start = time.perf_counter()
            fn()
            assert time.perf_counter() - start < budget_seconds
        run.__name__ = fn.__name__
        return run
    return wrap


@timed(1.0)
def test_criterion_01_kitchens_golden():
    u = B.unitary_from_shift_automorphism(C.kitchens_code())
    expected = {w: w for w in W.enumerate_words(3, 2)}
    expected[(1, 3)] = (2, 3)
    expected[(2, 3)] = (1, 3)
    assert u == U.from_mapping(3, 2, expected)
    assert U.adjoint_action(u, W.cylinder(3, (1,))) == W.projection(
        3, [(1, 1), (1, 2), (2, 3)]
    )
    assert U.adjoint_action(u, W.cylinder(3, (2,))) == W.projection(
        3, [(2, 1), (2, 2), (1, 3)]
    )
    assert U.adjoint_action(u, W.cylinder(3, (3,))) == W.cylinder(3, (3,))


@timed(1.0)
def test_criterion_02_flip_acts_as_the_shift():
    for n in (2, 3):
        e = E.endomorphism(U.flip_unitary(n))
        for k in range(1, 6):
            for w in W.enumerate_words(n, k):
                p = W.cylinder(n, w)
                assert E.apply_diag(e, p) == W.shift_diag(p)


@timed(30.0)
def test_criterion_03_convolution_law():
    def check(n, pairs, max_level):
        cylinders = [
            W.cylinder(n, w)
            for k in range(1, max_level + 1)
            for w in W.enumerate_words(n, k)
        ]
        cache = {}
        for u, w in pairs:
            eu = cache.setdefault(u, E.endomorphism(u))
            ew = cache.setdefault(w, E.endomorphism(w))
            composed = E.compose(eu, ew)
            for p in cylinders:
                assert E.apply_diag(composed, p) == E.apply_diag(
                    eu, E.apply_diag(ew, p)
                )

    pool2 = list(U.all_unitaries(2, 2))
    check(2, itertools.product(pool2, pool2), 4)
    rng = random.Random(42)
    size = 9
    pairs3 = []
    for _ in range(200):
        a, b = list(range(size)), list(range(size))
        rng.shuffle(a)
        rng.shuffle(b)
        pairs3.append(
            (U.PermutationUnitary(3, 2, tuple(a)), U.PermutationUnitary(3, 2, tuple(b)))
        )
    check(3, pairs3, 4)


def test_criterion_04_cocycle_recursions():
    rng = random.Random(7)
    for _ in range(100):
        level = rng.randint(1, 3)
        perm = list(range(2**level))
        rng.shuffle(perm)
        u = U.PermutationUnitary(2, level, tuple(perm))
        for k in range(1, 6):
            uk = U.u_k_product(u, k)
            assert U.u_k_product(u, k + 1) == U.multiply(uk, U.phi_shift(u, k))
            assert U.u_k_product(u, k + 1) == U.multiply(u, U.phi_shift(uk, 1))


@timed(300.0)
def test_criterion_05_automorphism_enumeration():
    two = C.enumerate_one_sided_automorphisms(2, 3)
    assert [c for c, _ in two] == [C.identity_code(2), C.letter_code(2, (2, 1))]
    three = C.enumerate_one_sided_automorphisms(3, 2)
    codes = [c for c, _ in three]
    for images in itertools.permutations((1, 2, 3)):
        assert any(C.code_equal(c, C.letter_code(3, images)) for c in codes)
    assert any(C.code_equal(c, C.kitchens_code()) for c in codes)
    for c, inv in three:
        assert C.code_equal(C.code_compose(c, inv), C.identity_code(3))
        assert C.code_equal(C.code_compose(inv, c), C.identity_code(3))


def test_criterion_06_inverse_search_and_degrees():
    for n in (2, 3):
        for m in range(4):
            c = C.shift_power_code(n, m)
            beta, found_m = C.en_inverse_search(c, 4, 8)
            assert found_m == m
            assert C.degree(c, beta, m) * C.degree(beta, c, m) == n**m
        shift = C.shift_code(n)
        beta, m = C.en_inverse_search(shift, 2, 6)
        assert C.degree(shift, beta, m) == n


def test_criterion_07_trace_preservation():
    certified = [C.kitchens_code()] + [C.shift_power_code(2, m) for m in range(4)]
    certified += [c for c, _ in C.enumerate_one_sided_automorphisms(3, 2)]
    for c in certified:
        assert C.en_inverse_search(c, 4, 8) is not None
        for k in range(1, 5):
            for w in W.enumerate_words(c.n, k):
                p = W.cylinder(c.n, w)
                assert W.trace(C.code_apply_diag(c, p)) == W.trace(p)


def test_criterion_08_residual_separation():
    kit = C.kitchens_code()
    assert C.residual_separation(kit, 4) == 2
    perm = C.orbit_permutation(kit, 2)
    w13, w23 = W.word_rank((1, 3), 3), W.word_rank((2, 3), 3)
    assert perm[w13] == w23 and perm[w23] == w13
    for m in range(3):
        c = C.shift_power_code(2, m)
        for r in range(1, 7):
            assert all(s == d for s, d in C.orbit_permutation(c, r).items())
    # oracle: images of whole orbits computed by brute rule application on
    # word tuples; the image's orbit is the one listed at perm[rep]
    perm = C.orbit_permutation(kit, 3)
    orbits = {orbit[0]: orbit for orbit in C.periodic_points(3, 3)}
    assert sorted(perm) == sorted(orbits)
    for rep in orbits:
        long = W.word_unrank(rep, 3, 3) * 3
        expect = tuple(kit.local(long[j : j + 2]) for j in range(3))
        assert W.word_rank(expect, 3) in orbits[perm[rep]]


def test_criterion_09_inner_kernel():
    rng = random.Random(19)
    for n in (2, 3):
        for _ in range(25):
            k = rng.randint(1, 3)
            perm = list(range(n**k))
            rng.shuffle(perm)
            u = U.PermutationUnitary(n, k, tuple(perm))
            e = E.endomorphism(E.ad_unitary(u))
            rot = U.shift_power_unitary(n, k)
            assert E.agree_on_diagonal(E.convolution(e.unitary, rot), rot)
            found = E.is_in_ign(e, k)
            assert found is not None and found <= k


def test_criterion_10_property_p_certificates():
    kit = U.kitchens_unitary()
    verdict = E.certify_automorphism(E.endomorphism(kit), budget=8)
    assert verdict.verdict == "automorphism" and verdict.inverse == kit
    m_upper, m_min = E.property_p_data(E.endomorphism(kit), verdict.inverse)
    assert m_min == 0
    rng = random.Random(37)
    perm = list(range(9))
    rng.shuffle(perm)
    v = U.PermutationUnitary(3, 2, tuple(perm))
    e = E.compose(E.endomorphism(E.ad_unitary(v)), E.endomorphism(kit))
    verdict2 = E.certify_automorphism(e, budget=8)
    assert verdict2.verdict == "automorphism"
    # property_p_data raises if the guaranteed window check fails
    m_upper2, m_min2 = E.property_p_data(e, verdict2.inverse)
    assert m_upper2 == max(U.reduce(verdict2.inverse).level - 1, 0)
    assert 0 <= m_min2 <= m_upper2


def test_criterion_11_flip_commutation_identity():
    for n in (2, 3):
        for images in itertools.permutations(range(1, n + 1)):
            assert E.phi_commutation_identity(U.letter_permutation(n, images))
    assert not E.phi_commutation_identity(U.kitchens_unitary())
    found = B.phi_commuting_automorphism_unitaries(2, 3)
    assert found == [U.identity(2), U.letter_permutation(2, (2, 1))]


def test_criterion_12_braiding():
    kit = U.kitchens_unitary()
    e = E.endomorphism(kit)
    w = E.braiding(e)
    assert w == kit
    for k in range(1, 6):
        for word in W.enumerate_words(3, k):
            p = W.cylinder(3, word)
            assert E.apply_diag(e, W.shift_diag(p)) == U.adjoint_action(
                w, W.shift_diag(E.apply_diag(e, p))
            )
