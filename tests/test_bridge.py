import itertools
import random

import pytest

from shiftcalc import bridge as B
from shiftcalc import codes as C
from shiftcalc import endo as E
from shiftcalc import unitaries as U
from shiftcalc import words as W


def test_kitchens_code_lifts_to_the_swap_unitary():
    u = B.unitary_from_shift_automorphism(C.kitchens_code())
    assert u == U.kitchens_unitary()


def test_letter_codes_lift_to_letter_permutations():
    assert B.unitary_from_shift_automorphism(C.identity_code(2)) == U.identity(2)
    assert B.unitary_from_shift_automorphism(
        C.letter_code(2, (2, 1))
    ) == U.letter_permutation(2, (2, 1))


def test_lift_rejects_non_automorphisms():
    with pytest.raises(ValueError):
        B.unitary_from_shift_automorphism(C.shift_code(2))


def test_the_lift_has_the_code_as_its_point_map():
    # u^* = star, so T_u steps by divmod(star[w], tails), which is the code's
    # transducer: the lift needs no lockstep check
    codes = [c for n, r in ((2, 3), (3, 2)) for c, _ in C.enumerate_one_sided_automorphisms(n, r)]
    for c in codes + [C.pad(C.kitchens_code(), 3)]:
        u = U.embed(B.unitary_from_shift_automorphism(c), c.radius)
        tail, step = E.PermutativeEndomorphism(u).point_map
        assert (tail, step) == (c.n ** (c.radius - 1), C.transducer(c))


def test_lift_then_extract_roundtrip():
    for code, _ in C.enumerate_one_sided_automorphisms(3, 2):
        u = B.unitary_from_shift_automorphism(code)
        e = E.endomorphism(u)
        for w in W.enumerate_words(3, 3):
            p = W.cylinder(3, w)
            assert E.apply_diag(e, p) == C.code_apply_diag(code, p)
        back = B.extract_code(e, 0)
        assert C.code_equal(back, code)


def test_extract_then_lift_roundtrip():
    e = E.endomorphism(U.kitchens_unitary())
    code = B.extract_code(e, 0)
    assert B.unitary_from_shift_automorphism(code) == U.kitchens_unitary()


def test_extract_identity_with_positive_m_gives_shift_power():
    e = E.endomorphism(U.identity(2))
    assert C.code_equal(B.extract_code(e, 1), C.shift_code(2))
    assert C.code_equal(B.extract_code(e, 2), C.shift_power_code(2, 2))


def test_extract_requires_commutation():
    skew = E.ad_unitary(U.letter_permutation(2, (2, 1)))
    with pytest.raises(ValueError):
        B.extract_code(E.endomorphism(skew), 0)
    # one shift power later the composite does commute
    code = B.extract_code(E.endomorphism(skew), 1)
    assert code.radius >= 1


def extract_code_reference(e, m, depth):
    # the rule read off the supports of the level-1 cylinder images, checked
    # cylinder by cylinder
    n = e.n
    comp = E.endomorphism(E.convolution(e.unitary, U.shift_power_unitary(n, m)))
    radius = max(comp.unitary.level, 1)
    rule = [0] * n**radius
    for j in range(1, n + 1):
        for mu in W.refine(E.apply_diag(comp, W.cylinder(n, (j,))), radius).support():
            rule[W.word_rank(mu, n)] = j
    assert 0 not in rule
    code = C.minimize(C.SlidingBlockCode(n, radius, tuple(rule)))
    for w in W.enumerate_words(n, depth):
        p = W.cylinder(n, w)
        assert C.code_apply_diag(code, p) == E.apply_diag(comp, p)
    return code


def test_extract_code_matches_the_cylinder_read_off():
    rng = random.Random(59)
    cases = [(U.identity(2), 1), (U.identity(3), 2), (U.flip_unitary(2), 0)]
    cases.append((E.ad_unitary(U.letter_permutation(2, (2, 1))), 1))
    kit = C.kitchens_code()
    for _ in range(3):
        letters = C.letter_code(3, rng.sample((1, 2, 3), 3))
        for code in (letters, C.code_compose(kit, letters), C.code_compose(letters, kit)):
            cases.append((B.unitary_from_shift_automorphism(code), 0))
        v = E.ad_unitary(U.letter_permutation(3, rng.sample((1, 2, 3), 3)))
        e = E.endomorphism(E.convolution(v, U.kitchens_unitary()))
        verdict = E.certify_automorphism(e, budget=5)
        cases.append((e.unitary, E.property_p_data(e, verdict.inverse)[0]))
    for u, m in cases:
        e = E.endomorphism(u)
        depth = e.unitary.level + m
        got = B.extract_code(e, m)
        want = extract_code_reference(e, m, depth)
        assert (got.radius, got.rule) == (want.radius, want.rule)


def test_a_wrong_extracted_rule_is_caught(monkeypatch):
    minimize = C.minimize

    def one_entry_off(c):
        c = minimize(c)
        rule = (c.rule[0] % c.n + 1,) + c.rule[1:]
        return C.SlidingBlockCode(c.n, c.radius, rule)

    monkeypatch.setattr(C, "minimize", one_entry_off)
    with pytest.raises(AssertionError, match="extracted rule disagrees"):
        B.extract_code(E.endomorphism(U.kitchens_unitary()), 0)


def test_en_class_equal_modulo_shift_powers():
    kit = C.kitchens_code()
    assert B.en_class_equal(kit, C.code_compose(kit, C.shift_code(3)), 3)
    assert B.en_class_equal(C.shift_code(2), C.identity_code(2), 2)
    assert not B.en_class_equal(kit, C.identity_code(3), 3)


def test_weyl_class_equal_inner_quotient():
    kit_u = U.kitchens_unitary()
    e1 = E.endomorphism(kit_u)
    rng = random.Random(31)
    perm = list(range(9))
    rng.shuffle(perm)
    v = U.PermutationUnitary(3, 2, tuple(perm))
    e2 = E.compose(E.endomorphism(E.ad_unitary(v)), e1)
    v2 = E.certify_automorphism(e2, budget=8)
    assert v2.verdict == "automorphism"
    assert B.weyl_class_equal(e2, v2.inverse, e1, kit_u, 4) is True


def test_weyl_class_equal_separates_kitchens_from_identity():
    kit_u = U.kitchens_unitary()
    e1 = E.endomorphism(kit_u)
    e2 = E.endomorphism(U.identity(3))
    assert B.weyl_class_equal(e1, kit_u, e2, U.identity(3), 3) is False


def test_phi_commuting_automorphism_unitaries_level_two():
    found = B.phi_commuting_automorphism_unitaries(2, 2)
    assert found == [U.identity(2), U.letter_permutation(2, (2, 1))]


def sweep_reference(n, max_level):
    """Oracle: every permutation of W_n^max_level, in stages that run the
    cheap tests first (a one-projection necessary condition, the exact
    commutation decision, a rule read-off from the level-1 cylinder images,
    and the two-sided inverse search)."""
    radius = max(max_level, 1)
    window = 2 * radius + 2
    p1 = W.cylinder(n, (1,))
    phi_p1 = W.shift_diag(p1)
    found = set()
    for perm in itertools.permutations(range(n**max_level)):
        u = U.PermutationUnitary(n, max_level, perm)
        e = E.PermutativeEndomorphism(u)
        if E.apply_diag(e, phi_p1) != W.shift_diag(E.apply_diag(e, p1)):
            continue
        if not E.commutes_with_shift_on_diagonal(e):
            continue
        rule = [0] * n**radius
        for j in range(1, n + 1):
            img = E.apply_diag(e, W.cylinder(n, (j,)))
            for mu in W.refine(img, radius).support():
                rule[W.word_rank(mu, n)] = j
        if 0 in rule:
            continue
        code = C.minimize(C.SlidingBlockCode(n, radius, tuple(rule)))
        if C.en_inverse_search(code, 0, window) is None:
            continue
        found.add(U.reduce(u))
    return sorted(found, key=lambda v: (v.level, v.ranks))


@pytest.mark.parametrize("n, level", [(2, 2), (2, 3), (3, 1)])
def test_lifted_automorphism_unitaries_match_the_sweep(n, level):
    assert B.phi_commuting_automorphism_unitaries(n, level) == sweep_reference(n, level)


def test_level_zero_gives_the_identity_only():
    assert B.phi_commuting_automorphism_unitaries(2, 0) == [U.identity(2)]
    assert B.phi_commuting_automorphism_unitaries(3, 0) == [U.identity(3)]
