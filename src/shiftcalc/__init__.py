"""Exact calculus of permutative endomorphisms of the diagonal of a Cuntz
algebra, equivalently sliding block codes on the full one-sided n-shift.

The core objects are diagonal elements with rational coefficients
(`DiagonalElement`), permutation unitaries of the level-k matrix algebras
(`PermutationUnitary`), their induced endomorphisms of the diagonal
(`PermutativeEndomorphism`), and sliding block codes (`SlidingBlockCode`).
All arithmetic is exact; every certification is verified before it is
reported.
"""
from .capacity import CapacityError, get_limit, set_limit
from .words import (
    DiagonalElement,
    add,
    cylinder,
    decompose,
    diagonal,
    enumerate_words,
    format_word,
    parse_word,
    projection,
    recompose,
    reduce,
    refine,
    shift_diag,
    trace,
    unit,
    word_rank,
    word_unrank,
    zero,
)
from .unitaries import (
    PermutationUnitary,
    adjoint_action,
    all_unitaries,
    embed,
    flip_unitary,
    from_mapping,
    identity,
    inverse,
    kitchens_unitary,
    letter_permutation,
    multiply,
    phi_shift,
    shift_power_unitary,
    u_k_product,
)
from .endo import (
    AutomorphismVerdict,
    PermutativeEndomorphism,
    ad_unitary,
    agree_on_diagonal,
    apply_diag,
    braiding,
    certify_automorphism,
    commutes_with_shift_on_diagonal,
    compose,
    convolution,
    endomorphism,
    is_identity_on_diagonal,
    is_in_ign,
    phi_commutation_identity,
    property_p_data,
)
from .codes import (
    RefutationError,
    SlidingBlockCode,
    Transducer,
    code_apply_diag,
    code_compose,
    code_equal,
    degree,
    en_inverse_search,
    enumerate_one_sided_automorphisms,
    identity_code,
    kitchens_code,
    letter_code,
    minimize,
    one_sided_automorphism_check,
    orbit_permutation,
    periodic_points,
    residual_separation,
    shift_code,
    shift_power_code,
    trace_necessary_check,
)
from .bridge import (
    en_class_equal,
    extract_code,
    phi_commuting_automorphism_unitaries,
    unitary_from_shift_automorphism,
    weyl_class_equal,
)
from .fixtures import fixture_suite

__all__ = [name for name in dir() if not name.startswith("_")]
