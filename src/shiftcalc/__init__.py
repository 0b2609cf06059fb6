"""Exact calculus of permutative endomorphisms of the diagonal of a Cuntz
algebra, equivalently sliding block codes on the full one-sided n-shift.

The core objects are diagonal elements with rational coefficients
(`DiagonalElement`), permutation unitaries of the level-k matrix algebras
(`PermutationUnitary`), their induced endomorphisms of the diagonal
(`PermutativeEndomorphism`), and sliding block codes (`SlidingBlockCode`).
All arithmetic is exact; every certification is verified before it is
reported.
"""
from .capacity import CapacityError
from .words import DiagonalElement
from .unitaries import PermutationUnitary
from .endo import (
    AutomorphismVerdict,
    PermutativeEndomorphism,
    ad_unitary,
    agree_on_diagonal,
    apply_diag,
    certify_automorphism,
    convolution,
    endomorphism,
    eventual_commutation,
    is_in_ign,
    property_p_data,
)
from .codes import (
    RefutationError,
    SlidingBlockCode,
    code_apply_diag,
    code_compose,
    degree,
    en_inverse_search,
    enumerate_one_sided_automorphisms,
    orbit_permutation,
    periodic_points,
)
from .bridge import extract_code, unitary_from_shift_automorphism, weyl_class_equal
from .fixtures import fixture_suite

__all__ = [
    "AutomorphismVerdict",
    "CapacityError",
    "DiagonalElement",
    "PermutationUnitary",
    "PermutativeEndomorphism",
    "RefutationError",
    "SlidingBlockCode",
    "ad_unitary",
    "agree_on_diagonal",
    "apply_diag",
    "certify_automorphism",
    "code_apply_diag",
    "code_compose",
    "convolution",
    "degree",
    "en_inverse_search",
    "endomorphism",
    "enumerate_one_sided_automorphisms",
    "eventual_commutation",
    "extract_code",
    "fixture_suite",
    "is_in_ign",
    "orbit_permutation",
    "periodic_points",
    "property_p_data",
    "unitary_from_shift_automorphism",
    "weyl_class_equal",
]
