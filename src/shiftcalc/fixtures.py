"""Built-in verification suite of known identities.

Each check recomputes a published fact of the shift calculus from scratch
and compares it against the hard-coded expected value.  The report is a
list of {"check", "status", "expected", "got"} records; any failure means
the build is broken.  Kitchens' order-two automorphism of the 3-shift and
the flip on two letters are the recurring examples.
"""
from __future__ import annotations

import itertools

from . import bridge as B
from . import codes as C
from . import endo as E
from . import jsonio
from . import unitaries as U
from . import words as W


def _diag(x):
    return jsonio.diag_to_dict(x)


def _check_traces():
    got = [
        str(W.trace(W.cylinder(3, (1, 3)))),
        str(W.trace(W.projection(3, [(1, 1), (1, 2), (2, 3)]))),
    ]
    return ["1/9", "1/3"], got


def _check_kitchens_order_two():
    u = U.kitchens_unitary()
    return jsonio.unitary_to_dict(U.identity(3)), jsonio.unitary_to_dict(
        U.multiply(u, u)
    )


def _check_kitchens_ad_images():
    ad = E.endomorphism(E.ad_unitary(U.kitchens_unitary()))
    expected = [
        _diag(W.projection(3, [(1, 1), (1, 2), (2, 3)])),
        _diag(W.projection(3, [(2, 1), (2, 2), (1, 3)])),
        _diag(W.cylinder(3, (3,))),
    ]
    got = [_diag(E.apply_diag(ad, W.cylinder(3, (j,)))) for j in (1, 2, 3)]
    return expected, got


def _check_kitchens_endomorphism_image():
    e = E.endomorphism(U.kitchens_unitary())
    expected = _diag(W.projection(3, [(1, 1), (1, 2), (2, 3)]))
    return expected, _diag(E.apply_diag(e, W.cylinder(3, (1,))))


def _check_flip_is_shift(n: int, depth: int):
    e = E.endomorphism(U.flip_unitary(n))
    bad = []
    for k in range(1, depth + 1):
        for w in W.enumerate_words(n, k):
            p = W.cylinder(n, w)
            if E.apply_diag(e, p) != W.shift_diag(p):
                bad.append(W.format_word(w))
    return [], bad


def _check_flip_not_identity():
    return False, U.flip_unitary(2).is_identity()


def _check_flip_verdict():
    v = E.certify_automorphism(E.endomorphism(U.flip_unitary(2)), budget=6)
    return {"verdict": "not_automorphism", "degree": 2}, {
        "verdict": v.verdict,
        "degree": v.degree,
    }


def _check_kitchens_shift_commutation():
    u = U.kitchens_unitary()
    e = E.endomorphism(u)
    commutes = E.read_code(e) is not None
    _, m_min = E.property_p_data(e, u)
    return [True, 0], [commutes, m_min]


def _check_level_one_commutation_identity():
    """v phi(v) theta phi(v^*) = phi(v) theta for every level-1 v: lambda_v
    commutes with the canonical shift on the whole algebra."""
    bad = []
    for n in (2, 3):
        theta = U.flip_unitary(n)
        for perm in itertools.permutations(range(n)):
            v = U.PermutationUnitary(n, 1, perm)
            pv = U.phi_shift(v, 1)
            lhs = U.multiply(U.multiply(U.multiply(v, pv), theta), U.phi_shift(U.inverse(v), 1))
            if lhs != U.multiply(pv, theta):
                bad.append((n, v.ranks))
    return [], bad


def _check_kitchens_code_image():
    expected = _diag(W.projection(3, [(1, 1), (1, 2), (2, 3)]))
    got = _diag(C.code_apply_diag(C.kitchens_code(), W.cylinder(3, (1,))))
    return expected, got


def _check_shift_square_degree():
    _, m, k, l = C.degree_certificate(C.shift_power_code(2, 2), 3)
    return [2, 4, 4], [m, k, k * l]


def _check_kitchens_trace_preservation():
    """Each level-4 cylinder has n^(r-1) preimages among the words of length
    4 + r - 1, so the dual images keep the trace (at every lower level too,
    since a word's preimages are those of its extensions, cut)."""
    c = C.kitchens_code()
    counts = [0] * c.n**4
    for y in c.output_ranks(4 + c.radius - 1):
        counts[y] += 1
    return True, all(count == c.n ** (c.radius - 1) for count in counts)


def _check_code_enumeration():
    expected = [
        jsonio.code_to_dict(C.identity_code(2)),
        jsonio.code_to_dict(C.letter_code(2, (2, 1))),
    ]
    got = [jsonio.code_to_dict(c) for c, _ in C.enumerate_one_sided_automorphisms(2, 3)]
    return sorted(expected, key=str), sorted(got, key=str)


def _check_kitchens_unitary_roundtrip():
    expected = jsonio.unitary_to_dict(U.kitchens_unitary())
    got = jsonio.unitary_to_dict(B.unitary_from_shift_automorphism(C.kitchens_code()))
    return expected, got


def _check_kitchens_code_roundtrip():
    expected = jsonio.code_to_dict(C.kitchens_code())
    e = E.endomorphism(U.kitchens_unitary())
    return expected, jsonio.code_to_dict(B.extract_code(e, 0))


def _check_two_letter_automorphism_unitaries():
    expected = [
        jsonio.unitary_to_dict(U.identity(2)),
        jsonio.unitary_to_dict(U.letter_permutation(2, (2, 1))),
    ]
    got = [
        jsonio.unitary_to_dict(u)
        for u in B.phi_commuting_automorphism_unitaries(2, 3)
    ]
    return expected, got


CHECKS = [
    ("projection traces", _check_traces),
    ("kitchens unitary has order two", _check_kitchens_order_two),
    ("kitchens adjoint images of the letters", _check_kitchens_ad_images),
    ("kitchens endomorphism image of the first letter", _check_kitchens_endomorphism_image),
    ("flip acts as the shift, n=2, depth 5", lambda: _check_flip_is_shift(2, 5)),
    ("flip acts as the shift, n=3, depth 5", lambda: _check_flip_is_shift(3, 5)),
    ("flip is not the identity on the diagonal", _check_flip_not_identity),
    ("flip is refuted with degree 2", _check_flip_verdict),
    ("kitchens commutes with the shift at m=0", _check_kitchens_shift_commutation),
    ("level-1 unitaries satisfy the flip commutation identity", _check_level_one_commutation_identity),
    ("kitchens code image of the first letter", _check_kitchens_code_image),
    ("squared shift has degree 4 = n^m", _check_shift_square_degree),
    ("kitchens code preserves traces", _check_kitchens_trace_preservation),
    ("two-letter automorphism codes are id and swap", _check_code_enumeration),
    ("kitchens code lifts to the kitchens unitary", _check_kitchens_unitary_roundtrip),
    ("kitchens unitary projects to the kitchens code", _check_kitchens_code_roundtrip),
    ("two-letter automorphism unitaries up to level 3 are id and swap", _check_two_letter_automorphism_unitaries),
]


def fixture_suite() -> list:
    """Run every check; one report record per check, in a fixed order."""
    report = []
    for name, run in CHECKS:
        try:
            expected, got = run()
            status = "pass" if expected == got else "fail"
        except Exception as exc:  # a crash is a failure, not an abort
            expected, got, status = None, "%s: %s" % (type(exc).__name__, exc), "fail"
        report.append(
            {"check": name, "status": status, "expected": expected, "got": got}
        )
    return report
