"""The two-way bridge between shift automorphisms and permutation unitaries.

One direction turns a certified automorphism of the one-sided shift into the
unique permutation unitary implementing it on the diagonal (tail-matching
construction); the other reads the sliding block code of a shift-commuting
permutative endomorphism off the letters its point map emits.  On top of
both sit the outer-class equality tests.
"""
from __future__ import annotations

from typing import Optional

from . import capacity
from . import codes as C
from . import endo as E
from . import unitaries as U
from .codes import SlidingBlockCode
from .endo import PermutativeEndomorphism
from .unitaries import PermutationUnitary


def unitary_from_shift_automorphism(c: SlidingBlockCode) -> PermutationUnitary:
    """The permutation unitary u with lambda_u = alpha on the diagonal.

    `c` must be (certified as) an automorphism of the one-sided shift.  The
    construction keeps the tail: u^* sends the window h t (t of length r - 1)
    to rule(h t) t, so T_u = F_c.  That is a permutation exactly when c is
    tail-bijective, which every automorphism is.  T_u = F_c needs no check:
    the point map of u splits star[w] = (rule[w] - 1) tails + w mod tails
    into (rule[w] - 1, w mod tails), the step of `codes.transducer(c)`.
    """
    n, r = c.n, c.radius
    tails = n ** (r - 1)
    size = capacity.check(n, r)
    star = tuple((c.rule[w] - 1) * tails + w % tails for w in range(size))
    if len(set(star)) != size:
        raise ValueError(
            "rule is not tail-bijective; input is not a certified shift automorphism"
        )
    return U.reduce(U.inverse(PermutationUnitary(n, r, star)))


def read_code(e: PermutativeEndomorphism) -> SlidingBlockCode:
    """The sliding block code of a lambda_u known to commute with the shift.

    The local rule is the letters T_u emits at radius L = max(level(u), 1),
    minimized, checked exactly: padded back to radius L, the code's
    transducer runs in lockstep with T_u from every pair (p, p).  That
    compares T_u's state dynamics with the code's window dynamics, and
    fails exactly when lambda_u does not commute with the shift.
    """
    n, radius = e.n, max(e.unitary.level, 1)
    tail, step = e.point_map
    code = C.minimize(SlidingBlockCode(n, radius, tuple(x + 1 for x, _ in step)))
    padded = C.transducer(C.pad(code, radius))
    if not E.transducers_agree(n, step, padded, [(p, p) for p in range(tail)]):
        raise AssertionError("extracted rule disagrees with the endomorphism")
    return code


def extract_code(e: PermutativeEndomorphism, m: int, certify: bool = True) -> SlidingBlockCode:
    """The sliding block code of lambda_u o phi^m on the diagonal.

    Requires that the composite commutes with the shift (checked exactly;
    the caller's m is too small otherwise).  The code is `read_code` of the
    composite.  With certify=True the result must admit an E_n certificate
    within the window budget.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    comp = e if m == 0 else E.endomorphism(e.convolve(U.shift_power_unitary(e.n, m)))
    if not E.commutes_with_shift_on_diagonal(comp):
        raise ValueError("lambda_u phi^m does not commute with the shift; m too small")
    code = read_code(comp)
    if certify:
        radius = max(comp.unitary.level, 1)
        window = 2 * radius + 2 * m + 2
        if C.en_inverse_search(code, m + radius, window) is None:
            raise ValueError("extracted code admits no inverse certificate in budget")
    return code


def phi_commuting_automorphism_unitaries(n: int, max_level: int) -> list:
    """Reduced unitaries u <= max_level with lambda_u a shift-commuting
    diagonal automorphism.

    Such a lambda_u is a shift automorphism of radius <= max(max_level, 1),
    and u is its unique lift, so the answer is the lifts of the enumerated
    automorphism codes that land at level <= max_level.
    """
    capacity.check(n, max_level)
    lifts = {
        unitary_from_shift_automorphism(code)
        for code, _ in C.enumerate_one_sided_automorphisms(n, max(max_level, 1))
    }
    return sorted(
        (v for v in lifts if v.level <= max_level), key=lambda v: (v.level, v.ranks)
    )


def weyl_class_equal(
    e1: PermutativeEndomorphism,
    inv1: PermutationUnitary,
    e2: PermutativeEndomorphism,
    inv2: PermutationUnitary,
    max_k: int,
) -> Optional[bool]:
    """Outer-class equality of two certified diagonal automorphisms.

    True when the quotient composition is inner (Ad of a permutation);
    False when a periodic-orbit separation proves the classes distinct;
    None when the inner test exhausts its budget without a separation.
    """
    quotient = E.compose(e1, E.endomorphism(inv2))
    k = E.is_in_ign(quotient, max_k)
    if k is not None:
        return True
    # try to disprove: compare induced codes modulo shift powers
    m1, _ = E.property_p_data(e1, inv1)
    m2, _ = E.property_p_data(e2, inv2)
    c1 = extract_code(e1, m1)
    c2 = extract_code(e2, m2)
    if not en_class_equal(c1, c2, max_k):
        return False
    return None


def en_class_equal(c1: SlidingBlockCode, c2: SlidingBlockCode, max_k: int) -> bool:
    """Equality in E_n modulo shift powers: c1 = c2 sigma^k or vice versa."""
    if c1.n != c2.n:
        raise ValueError("alphabet sizes differ")
    for k in range(max_k + 1):
        rot = C.shift_power_code(c1.n, k)
        if C.code_equal(C.code_compose(rot, c1), c2) or C.code_equal(
            c1, C.code_compose(rot, c2)
        ):
            return True
    return False
