import itertools
import random
from fractions import Fraction

import pytest

from shiftcalc import endo as E
from shiftcalc import unitaries as U
from shiftcalc import words as W


def endos_agree_on_cylinders(e1, e2, depth):
    n = e1.n
    return all(
        E.apply_diag(e1, W.cylinder(n, w)) == E.apply_diag(e2, W.cylinder(n, w))
        for k in range(1, depth + 1)
        for w in W.enumerate_words(n, k)
    )


def test_convolution_realizes_composition():
    rng = random.Random(5)
    pool = list(U.all_unitaries(2, 2))
    for _ in range(30):
        u, w = rng.choice(pool), rng.choice(pool)
        composed = E.compose(E.endomorphism(u), E.endomorphism(w))
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
    assert E.is_identity_on_diagonal(U.identity(2))
    assert E.is_identity_on_diagonal(U.embed(U.identity(2), 3))
    assert not E.is_identity_on_diagonal(U.flip_unitary(2))
    assert not E.is_identity_on_diagonal(U.kitchens_unitary())


def test_ad_unitary_realizes_inner_automorphisms():
    rng = random.Random(3)
    pool = list(U.all_unitaries(2, 2))
    for _ in range(10):
        w = rng.choice(pool)
        inner = E.endomorphism(E.ad_unitary(w))
        for word in W.enumerate_words(2, 3):
            p = W.cylinder(2, word)
            assert E.apply_diag(inner, p) == U.adjoint_action(w, p)


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
            found = E.is_in_ign(e, k)
            assert found is not None and found <= k
            # Ad(w) phi^k = phi^k on the diagonal
            rot = U.shift_power_unitary(n, k)
            assert E.agree_on_diagonal(E.convolution(E.ad_unitary(w), rot), rot)


def is_in_ign_reference(e, max_k):
    # the exact test at every k, without the letter filter
    for k in range(max_k + 1):
        rot = U.shift_power_unitary(e.n, k)
        if E.agree_on_diagonal(E.convolution(e.unitary, rot), rot):
            return k
    return None


def convolution_reference(u, w):
    # lambda_u(w) u with u_m built from scratch
    if w.level == 0:
        return U.reduce(u)
    um = U.u_k_product(u, w.level)
    return U.reduce(U.multiply(U.multiply(U.multiply(um, w), U.inverse(um)), u))


def test_cached_cocycle_products_match_the_direct_product():
    rng = random.Random(23)
    for n, level in ((2, 1), (2, 2), (3, 1), (3, 2)):
        perm = list(range(n**level))
        rng.shuffle(perm)
        e = E.endomorphism(U.PermutationUnitary(n, level, tuple(perm)))
        for k in (4, 1, 3, 2, 5):  # out of order: later k reuse earlier ones
            assert e.u_k(k).ranks == U.u_k_product(e.unitary, k).ranks


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
            e = E.endomorphism(u)
            for w in pool:
                assert e.convolve(w) == convolution_reference(u, w)
                assert E.convolution(u, w) == convolution_reference(u, w)


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
    found = set()
    for u in cases:
        e = E.endomorphism(u)
        k = E.is_in_ign(e, 4)
        assert k == is_in_ign_reference(e, 4)
        found.add(k)
    assert None in found and len(found) > 2  # both outcomes, several k


def test_is_in_ign_identity_and_flip():
    assert E.is_in_ign(E.endomorphism(U.identity(2)), 3) == 0
    # lambda_theta = phi is not inner-after-any-shift within this budget
    assert E.is_in_ign(E.endomorphism(U.flip_unitary(2)), 3) is None


def test_commutes_with_shift_on_diagonal():
    assert E.commutes_with_shift_on_diagonal(E.endomorphism(U.kitchens_unitary()))
    assert E.commutes_with_shift_on_diagonal(E.endomorphism(U.flip_unitary(2)))
    # Ad of a letter swap relabels only the first coordinate
    skew = E.ad_unitary(U.letter_permutation(2, (2, 1)))
    assert not E.commutes_with_shift_on_diagonal(E.endomorphism(skew))


def test_phi_commutation_identity():
    for n in (2, 3):
        for images in itertools.permutations(range(1, n + 1)):
            assert E.phi_commutation_identity(U.letter_permutation(n, images))
    assert not E.phi_commutation_identity(U.kitchens_unitary())


def test_certify_kitchens_is_self_inverse():
    verdict = E.certify_automorphism(E.endomorphism(U.kitchens_unitary()), budget=6)
    assert verdict.verdict == "automorphism"
    assert verdict.inverse == U.kitchens_unitary()


def test_certify_flip_is_refuted_with_degree_two():
    verdict = E.certify_automorphism(E.endomorphism(U.flip_unitary(2)), budget=6)
    assert verdict.verdict == "not_automorphism"
    assert verdict.degree == 2


def test_certify_inner_automorphism():
    w = U.from_mapping(3, 2, {(a, b): ((a % 3) + 1, b) for a in (1, 2, 3) for b in (1, 2, 3)})
    e = E.endomorphism(E.ad_unitary(w))
    verdict = E.certify_automorphism(e, budget=6)
    assert verdict.verdict == "automorphism"
    both = E.convolution(verdict.inverse, e.unitary)
    assert E.is_identity_on_diagonal(both)


def test_preimage_inverts_kitchens():
    e = E.endomorphism(U.kitchens_unitary())
    y = W.projection(3, [(1, 1), (1, 2), (2, 3)])
    assert E.preimage(e, y, 4) == W.cylinder(3, (1,))
    assert E.preimage(e, W.cylinder(3, (3,)), 4) == W.cylinder(3, (3,))


def random_unitary(rng, n, level):
    perm = list(range(n**level))
    rng.shuffle(perm)
    return U.PermutationUnitary(n, level, tuple(perm))


def random_element(rng, n, level):
    values = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n**level)]
    return W.diagonal(n, level, values)


def test_owner_table_matches_the_adjoint_action():
    rng = random.Random(41)
    for n in (2, 3):
        pool = [U.flip_unitary(n), U.identity(n)]
        pool += [random_unitary(rng, n, level) for level in (2, 2, 3)]
        pool.append(E.ad_unitary(random_unitary(rng, n, 2)))  # images below u_k's level
        if n == 3:
            pool.append(U.kitchens_unitary())
        for u in pool:
            e = E.endomorphism(u)
            for k in range(1, 5):
                uk = U.u_k_product(e.unitary, k)
                levels = [
                    U.adjoint_action(uk, W.cylinder(n, w)).level
                    for w in W.enumerate_words(n, k)
                ]
                assert e.cylinder_owners(k)[0] == max(levels)
                for _ in range(3):
                    x = random_element(rng, n, k)
                    assert E.apply_diag(e, x) == U.adjoint_action(uk, x)


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
    certified = [
        e
        for e in map(E.endomorphism, cases)
        if E.certify_automorphism(e, budget=5).verdict == "automorphism"
    ]
    assert len(certified) >= 8
    for e in certified:
        for k in range(1, 4):
            x = random_element(rng, e.n, k)
            assert E.preimage(e, E.apply_diag(e, x), 4) == W.reduce(x)


def test_preimage_rejects_elements_outside_the_range():
    # lambda_flip is phi, whose range ignores the first letter: the scatter
    # still builds a candidate, and the exact check must turn it down
    e = E.endomorphism(U.flip_unitary(2))
    assert E.preimage(e, W.cylinder(2, (1,)), 4) is None
    p = W.cylinder(2, (1,))
    assert E.preimage(e, W.shift_diag(p), 4) == p


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
    e = E.compose(E.endomorphism(E.ad_unitary(v)), E.endomorphism(U.kitchens_unitary()))
    verdict = E.certify_automorphism(e, budget=8)
    assert verdict.verdict == "automorphism"
    m_upper, m_min = E.property_p_data(e, verdict.inverse)
    assert m_upper == max(U.reduce(verdict.inverse).level - 1, 0)
    assert 0 <= m_min <= m_upper


def test_braiding_of_kitchens():
    u = U.kitchens_unitary()
    e = E.endomorphism(u)
    result = E.braiding(e, u, budget=8)
    assert result.unitary is not None
    # alpha phi(x) = beta phi alpha(x) on cylinders
    for k in range(1, 4):
        for w in W.enumerate_words(3, k):
            p = W.cylinder(3, w)
            lhs = E.apply_diag(e, W.shift_diag(p))
            rhs = result.apply(W.shift_diag(E.apply_diag(e, p)))
            assert lhs == rhs


def census():
    """(endomorphisms, certified automorphisms with their inverses): all of
    P_2^1, P_2^2 and P_3^1, seeded unitaries up to level 3, and seeded
    Ad(v) o swap and Ad(v) o Kitchens."""
    rng = random.Random(53)
    cases = []
    for n, level in ((2, 1), (2, 2), (3, 1)):
        cases += U.all_unitaries(n, level)
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


def run_point_map(e, z):
    """T_u on a finite word z of 0-based letters: the letters it emits."""
    _, step = E.point_map(e)
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


def test_is_identity_on_diagonal_matches_the_cylinder_loop():
    maps, _ = census()
    units = [U.embed(U.identity(n), level) for n in (2, 3) for level in (0, 1, 3)]
    for u in units + [e.unitary for e in maps]:
        e = E.endomorphism(u)
        fixed = all(
            E.apply_diag(e, W.cylinder(u.n, w)) == W.cylinder(u.n, w)
            for w in W.enumerate_words(u.n, u.level + 2)
        )
        assert E.is_identity_on_diagonal(u) == fixed


def test_a_wrong_reduction_verdict_is_caught(monkeypatch):
    monkeypatch.setattr(U.PermutationUnitary, "is_identity", lambda self: True)
    with pytest.raises(AssertionError, match="reduction and cylinder tests disagree"):
        E.is_identity_on_diagonal(U.flip_unitary(2))
