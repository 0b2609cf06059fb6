import itertools
import random

import pytest

from shiftcalc import bridge as B
from shiftcalc import capacity
from shiftcalc import codes as C
from shiftcalc import endo as E
from shiftcalc import unitaries as U
from shiftcalc import words as W
from test_endo import timed
from test_words import refine

# certified at budget 5, with an inverse of level 4 and property (P)'s least m 2
WIDE_INVERSE = U.PermutationUnitary(3, 2, (1, 0, 2, 7, 3, 4, 5, 6, 8))


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
        B.unitary_from_shift_automorphism(C.shift_power_code(2, 1))


def test_the_lift_has_the_code_as_its_point_map():
    # u^* = star, so T_u steps by divmod(star[w], tails), which is the code's
    # transducer: the lift needs no lockstep check
    codes = [c for n, r in ((2, 3), (3, 2)) for c, _ in C.enumerate_one_sided_automorphisms(n, r)]
    for c in codes + [C.pad(C.kitchens_code(), 3)]:
        u = U.embed(B.unitary_from_shift_automorphism(c), c.radius)
        t = E.PermutativeEndomorphism(u).point_map
        assert t == C.transducer(c) and t.tail == c.n ** (c.radius - 1)


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
    assert C.code_equal(B.extract_code(e, 1), C.shift_power_code(2, 1))
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
        for mu in refine(E.apply_diag(comp, W.cylinder(n, (j,))), radius).support():
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
    # property (P)'s least m and its guaranteed bound
    cases += [(WIDE_INVERSE, 2), (WIDE_INVERSE, 3)]
    for u, m in cases:
        e = E.endomorphism(u)
        depth = e.unitary.level + m
        got = B.extract_code(e, m)
        want = extract_code_reference(e, m, depth)
        assert (got.radius, got.rule) == (want.radius, want.rule)


@timed(1.0)
def test_extract_code_needs_no_inverse_search():
    # each code is read off a run table of m + 1 letters, 3^(m + 2) cells
    e = E.endomorphism(WIDE_INVERSE)
    assert [B.extract_code(e, m).radius for m in (2, 3)] == [4, 5]


def test_a_wrong_extracted_rule_is_caught(monkeypatch):
    minimize = C.minimize

    def one_entry_off(c):
        c = minimize(c)
        rule = (c.rule[0] % c.n + 1,) + c.rule[1:]
        return C.SlidingBlockCode(c.n, c.radius, rule)

    # read_code compares the padded rule with the first letters T_u emits,
    # refuses the rule, and so returns no code
    monkeypatch.setattr(C, "minimize", one_entry_off)
    with pytest.raises(ValueError, match="does not commute"):
        B.extract_code(E.endomorphism(U.kitchens_unitary()), 0)
    # past m = 0 that first letter is read from the state T_u's runs of m
    # letters reach
    skew = E.ad_unitary(U.letter_permutation(2, (2, 1)))
    with pytest.raises(ValueError, match="does not commute"):
        B.extract_code(E.endomorphism(skew), 1)


def en_class_equal(c1, c2):
    """Oracle: equality in E_n modulo shift powers, c1 = c2 sigma^k or vice
    versa; with c = core o sigma^j (`codes.shift_factor`), that holds for
    some k >= 0 exactly when the cores are equal."""
    (core1, _), (core2, _) = C.shift_factor(c1), C.shift_factor(c2)
    return C.code_equal(core1, core2)


def en_class_equal_reference(c1, c2, max_k):
    """Oracle: the budgeted loop, c1 = c2 sigma^k or c2 = c1 sigma^k for k <= max_k."""
    for k in range(max_k + 1):
        rot = C.shift_power_code(c1.n, k)
        if C.code_equal(C.code_compose(rot, c1), c2) or C.code_equal(
            c1, C.code_compose(rot, c2)
        ):
            return True
    return False


def test_en_class_equal_modulo_shift_powers():
    kit = C.kitchens_code()
    assert en_class_equal(kit, C.code_compose(kit, C.shift_power_code(3, 1)))
    assert en_class_equal(C.shift_power_code(2, 1), C.identity_code(2))
    assert not en_class_equal(kit, C.identity_code(3))
    # exact past any budget: the loop at k <= 4 misses sigma^5
    kit5 = C.code_compose(kit, C.shift_power_code(3, 5))
    assert en_class_equal(kit5, kit) and en_class_equal(kit, kit5)
    assert not en_class_equal_reference(kit, kit5, 4)


def test_en_class_equal_matches_the_budgeted_loop():
    # a code of radius r is no c' sigma^k with k >= r unless it is constant,
    # and a constant equals every constant times sigma^k already at k = 0,
    # so the loop is exact at max_k = the larger radius - 1; both are symmetric
    kit = C.kitchens_code()
    pools = {
        2: [
            C.SlidingBlockCode(2, r, rule)
            for r in (1, 2)
            for rule in itertools.product((1, 2), repeat=2**r)
        ],
        3: [kit, C.code_compose(kit, C.letter_code(3, (2, 3, 1))), C.identity_code(3)]
        + [C.letter_code(3, p) for p in ((2, 1, 3), (1, 1, 2), (3, 3, 3))],
    }
    equal = unequal = 0
    for n, pool in pools.items():
        codes = [C.code_compose(c, C.shift_power_code(n, m)) for c in pool for m in range(3)]
        for c1, c2 in itertools.combinations_with_replacement(codes, 2):
            got = en_class_equal(c1, c2)
            assert got == en_class_equal_reference(c1, c2, max(c1.radius, c2.radius) - 1)
            equal += got
            unequal += not got
    assert equal >= 200 and unequal >= 1500


def test_weyl_class_equal_inner_quotient():
    kit_u = U.kitchens_unitary()
    e1 = E.endomorphism(kit_u)
    rng = random.Random(31)
    perm = list(range(9))
    rng.shuffle(perm)
    v = U.PermutationUnitary(3, 2, tuple(perm))
    e2 = E.endomorphism(E.convolution(E.ad_unitary(v), e1.unitary))
    v2 = E.certify_automorphism(e2, budget=8)
    assert v2.verdict == "automorphism"
    assert B.weyl_class_equal(e2, v2.inverse, e1, kit_u) is True


def test_weyl_class_equal_separates_kitchens_from_identity():
    kit_u = U.kitchens_unitary()
    e1 = E.endomorphism(kit_u)
    e2 = E.endomorphism(U.identity(3))
    assert B.weyl_class_equal(e1, kit_u, e2, U.identity(3)) is False


def weyl_class_equal_reference(e1, inv1, e2, inv2):
    """Oracle: True when the quotient is in the inner kernel; else False when
    the extracted codes differ modulo shift powers, and None when they agree.
    Each `extract_code` reads a run table of m + 1 letters at radius
    m + level(u), so the 3^6 limit of the census holds every one."""
    if E.is_in_ign(E.endomorphism(E.convolution(e1.unitary, inv2))) is not None:
        return True
    m1, _ = E.property_p_data(e1, inv1)
    m2, _ = E.property_p_data(e2, inv2)
    if not en_class_equal(B.extract_code(e1, m1), B.extract_code(e2, m2)):
        return False
    return None


def certified_census(seed):
    """(endomorphism, inverse) for every budget-5-certified unitary of P_2^0
    to P_2^2 and P_3^1, of 500 seeded P_3^2 and of 16 seeded
    Ad(v) o lambda_Kitchens."""
    rng = random.Random(seed)
    units = [
        U.PermutationUnitary(n, level, p)
        for n, levels in ((2, (0, 1, 2)), (3, (1,)))
        for level in levels
        for p in itertools.permutations(range(n**level))
    ]
    units += [U.PermutationUnitary(3, 2, tuple(rng.sample(range(9), 9))) for _ in range(500)]
    for _ in range(16):
        v = U.PermutationUnitary(3, 2, tuple(rng.sample(range(9), 9)))
        units.append(E.convolution(E.ad_unitary(v), U.kitchens_unitary()))
    found = []
    for u in units:
        e = E.endomorphism(u)
        verdict = E.certify_automorphism(e, budget=5)
        if verdict.verdict == "automorphism":
            found.append((e, verdict.inverse))
    return found


def test_weyl_class_equal_matches_the_two_route_oracle_on_a_census():
    # the inner-kernel test alone always answers, and the oracle's code route
    # answers False on every pair outside one class
    pairs = [
        (a, b)
        for a, b in itertools.combinations_with_replacement(certified_census(5), 2)
        if a[0].n == b[0].n
    ]
    old = capacity.get_limit()
    capacity.set_limit(3**6)
    outcomes = set()
    try:
        for (e1, inv1), (e2, inv2) in pairs:
            got = B.weyl_class_equal(e1, inv1, e2, inv2)
            assert type(got) is bool
            outcomes.add((got, weyl_class_equal_reference(e1, inv1, e2, inv2)))
    finally:
        capacity.set_limit(old)
    assert outcomes == {(True, True), (False, False)}


def test_weyl_class_equal_separates_a_letter_swap_from_a_level_four_inverse():
    # the oracle's code route answers too: it reads e's code at m = 2 off a
    # run table of 81 cells
    swap = U.letter_permutation(3, (2, 1, 3))
    e = E.endomorphism(WIDE_INVERSE)
    verdict = E.certify_automorphism(e, budget=5)
    assert verdict.verdict == "automorphism" and verdict.inverse.level == 4
    args = E.endomorphism(swap), swap, e, verdict.inverse
    assert B.weyl_class_equal(*args) is False
    assert weyl_class_equal_reference(*args) is False


def test_weyl_class_equal_refuses_a_wrong_certificate():
    kit_u, swap = U.kitchens_unitary(), U.letter_permutation(3, (2, 1, 3))
    e = E.endomorphism(kit_u)
    with pytest.raises(ValueError, match="does not invert"):
        B.weyl_class_equal(e, swap, e, kit_u)
    with pytest.raises(ValueError, match="does not invert"):
        B.weyl_class_equal(e, kit_u, E.endomorphism(swap), kit_u)
    # the rank identities read no ranks at level 0, where the alphabets are
    # compared first
    ident = E.endomorphism(U.identity(2))
    with pytest.raises(ValueError, match="alphabet sizes differ"):
        B.weyl_class_equal(ident, U.identity(3), ident, U.identity(2))


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
        if E.read_code(e) is None:
            continue
        rule = [0] * n**radius
        for j in range(1, n + 1):
            img = E.apply_diag(e, W.cylinder(n, (j,)))
            for mu in refine(img, radius).support():
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
