"""The two-way bridge between shift automorphisms and permutation unitaries.

One direction turns a certified automorphism of the one-sided shift into the
unique permutation unitary implementing it on the diagonal (tail-matching
construction); the other extracts the sliding block code of lambda_u o phi^m,
which is sigma^m o T_u on points: `endo.read_code` reads its rule off the
(m+1)-th letters of T_u's runs once `endo.eventual_commutation` finds that
it commutes with the shift, and checks its first letter against T_u,
exactly, with no convolution and no search.  The outer-class equality test
needs neither: two certified diagonal automorphisms lie in one outer class
exactly when their quotient is in the inner kernel, which `endo.is_in_ign`
decides exactly.  The image of the restricted Weyl group in Out(O_n)
embeds into Aut(X_n)/<sigma>, so comparing the extracted codes modulo shift
powers would add nothing.
"""
from __future__ import annotations

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
    u^* is the one-letter run table of `codes.transducer(c)`, and the point
    map splits it back.
    """
    capacity.check(c.n, c.radius)
    star = tuple(C.transducer(c).runs(1))
    if len(set(star)) != len(star):
        raise ValueError(
            "rule is not tail-bijective; input is not a certified shift automorphism"
        )
    return U.reduce(U.inverse(PermutationUnitary(c.n, c.radius, star)))


def extract_code(e: PermutativeEndomorphism, m: int) -> SlidingBlockCode:
    """The sliding block code of lambda_u o phi^m on the diagonal, exact:
    `endo.read_code` reads sigma^m o T_u off T_u's runs of m + 1 letters and
    checks its first letter against T_u (m is too small when it is below the
    eventual-commutation index, so sigma^m o T_u does not commute with the
    shift)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    code = E.read_code(e, m)
    if code is None:
        raise ValueError("lambda_u phi^m does not commute with the shift; m too small")
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
) -> bool:
    """Outer-class equality of two certified diagonal automorphisms, exact:
    is the quotient lambda_{u1} o lambda_{inv2} in the inner kernel
    (`endo.is_in_ign`)?

    Both certificates are checked first (each convolution with its unitary is
    the identity), and a wrong one is refused.  Comparing the extracted codes
    modulo shift powers would add nothing.  If they agree, then
    sigma^a T_1 = sigma^b T_2 for large a and b, and a = b because both T_i
    are bijections.  T_2^{-1} eventually commutes with sigma, so
    sigma^k T_2^{-1} T_1 = sigma^k for some k, and T_2^{-1} T_1 is the
    quotient's point map.
    """
    for e, inv in ((e1, inv1), (e2, inv2)):
        if not E.is_inverse(e, inv):
            raise ValueError("inverse certificate does not invert its automorphism")
    return E.is_in_ign(E.endomorphism(E.convolution(e1.unitary, inv2))) is not None
