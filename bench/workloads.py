"""Seeded inputs, ops and answer checks for the three benchmark workloads.

Every op takes one JSON document and returns the text the matching CLI
subcommand body would print: `jsonio` load, library call, `jsonio` encode.
The inputs are built from the seed before the first timed op; the checks
run after the timed passes and never inside them.

* certify -- `shiftcalc certify` at budget 5 on unitaries over n in {2, 3}
  at levels 1-3: constructed automorphisms Ad(v) o lambda_base, constructed
  refutations pi o phi^m o pi' of degree n^m, and random permutations.
  Time goes to `endo` over dense `Fraction` vectors from `words` and
  `unitaries`; the refutations add the `bridge`/`codes` tail.
* codes -- `shiftcalc degree` plus `orbits --r 1..3` on codes a o sigma^m
  for known automorphisms a (letter codes, Kitchens, their compositions
  and conjugates) and on balanced radius-2 tables; for m = 0 also
  the lift to a unitary and the extraction back.  Time goes to the `codes`
  sliding kernels, `words` rank/unrank and the `bridge` lift/extract.
* search -- the exhaustive searches: both automorphism enumerations and the
  unitary sweep, where most candidates are rejected.
"""
from __future__ import annotations

import importlib
import itertools
import json
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional

LAYERS = ("words", "unitaries", "endo", "codes", "bridge", "jsonio", "capacity")


def layer_modules() -> SimpleNamespace:
    """The shiftcalc layer modules, by layer name."""
    return SimpleNamespace(
        **{layer: importlib.import_module("shiftcalc." + layer) for layer in LAYERS}
    )


def import_shiftcalc() -> SimpleNamespace:
    """Import shiftcalc from scratch and return its layer modules."""
    for name in [m for m in sys.modules if m == "shiftcalc" or m.startswith("shiftcalc.")]:
        del sys.modules[name]
    importlib.import_module("shiftcalc")
    return layer_modules()


@dataclass(frozen=True)
class Case:
    """One op input: its properties, the JSON document and the known answer."""

    props: dict  # class, n, level or radius, index-set size n^k, budget
    doc: str
    expect: dict  # empty when the answer is not known in advance


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _shuffled(rng, n):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return images


# --- independent helpers for the checks (plain tuples, no library code) ---


def _primitive(cycle):
    k = len(cycle)
    for d in range(1, k + 1):
        if k % d == 0 and cycle == cycle[:d] * (k // d):
            return cycle[:d]
    return cycle


def _canonical_point(prefix, cycle):
    """Normal form of the eventually periodic point prefix cycle cycle ..."""
    cycle = _primitive(cycle)
    while prefix and prefix[-1] == cycle[-1]:
        prefix, cycle = prefix[:-1], cycle[-1:] + cycle[:-1]
    return prefix, cycle


def _words(n, k):
    out = [()]
    for _ in range(k):
        out = [w + (s,) for w in out for s in range(1, n + 1)]
    return out


def _collision(rule, n, r):
    """Two distinct eventually periodic points with one image under the
    sliding rule (a dict window -> letter), or None."""
    seen = {}
    for plen in range(r + 1):
        for clen in (1, 2):
            for prefix in _words(n, plen):
                for cycle in _words(n, clen):
                    point = _canonical_point(prefix, cycle)
                    x = prefix + cycle * (r + 1)
                    out = tuple(rule[x[k : k + r]] for k in range(plen + clen))
                    image = _canonical_point(out[:plen], out[plen:])
                    other = seen.setdefault(image, point)
                    if other != point:
                        return other, point
    return None


def _point_map(u):
    """The map T_u on points that lambda_u induces on the diagonal.

    lambda_u(P_w) = Ad(u_k)(P_w) is the set of points z whose image T_u(z)
    starts with w: T_u undoes u on the window at letter 1 and emits that
    letter, then undoes u on the window at letter 2, and so on.  Returned as
    a transducer (window, step) over 0-based letters, where
    step[pending * n + letter] = (emitted letter, new pending) and pending
    is the rank of the window - 1 letters read but not yet emitted.
    """
    n, window = u.n, max(u.level, 1)
    ranks = u.ranks if u.level else tuple(range(n))
    src_of = [0] * len(ranks)
    for src, dst in enumerate(ranks):
        src_of[dst] = src
    tail = n ** (window - 1)
    return window, [divmod(src_of[block], tail) for block in range(n**window)]


def _run_point_map(point_map, n, z):
    window, step = point_map
    pending = 0
    for a in z[: window - 1]:
        pending = pending * n + a
    out = []
    for a in z[window - 1 :]:
        emitted, pending = step[pending * n + a]
        out.append(emitted)
    return out


def _inverse_on_cylinders(t_a, t_b, n, depth):
    """Does T_a o T_b fix every cylinder up to `depth`, so lambda_b o lambda_a
    is the identity on them?  Returns the first word it moves, or None."""
    length = depth + t_a[0] - 1 + t_b[0] - 1
    for z in itertools.product(range(n), repeat=length):
        if _run_point_map(t_a, n, _run_point_map(t_b, n, z)) != list(z[:depth]):
            return tuple(a + 1 for a in z[:depth])
    return None


# --- certify ---------------------------------------------------------------

CERTIFY_BUDGET = 5

# (class, n, parameter, count per pass).  The parameter is the level of v in
# Ad(v) o lambda_base, the shift power m of a refutation, or the level of a
# random permutation.  The n=3, m=2 refutation (seconds each) stays a small
# share so that it sits beyond the p90.
CERTIFY_MIX = (
    ("auto_swap", 2, 1, 10),
    ("auto_swap", 2, 2, 12),
    ("auto_swap", 3, 1, 10),
    ("auto_swap", 3, 2, 6),
    ("auto_kitchens", 3, 1, 12),
    ("auto_kitchens", 3, 2, 3),
    ("refute", 2, 1, 6),
    ("refute", 2, 2, 6),
    ("refute", 3, 1, 8),
    ("refute", 3, 2, 1),
    ("random", 2, 1, 4),
    ("random", 2, 2, 6),
    ("random", 2, 3, 6),
    ("random", 3, 1, 4),
    ("random", 3, 2, 6),
    ("random", 3, 3, 4),
)


def _certify_cases(lib, rng) -> list:
    U, E = lib.unitaries, lib.endo
    cases = []
    for kind, n, param, count in CERTIFY_MIX:
        for _ in range(count):
            expect = {}
            if kind == "refute":
                rot = U.shift_power_unitary(n, param)
                u = E.convolution(U.letter_permutation(n, _shuffled(rng, n)), rot)
                u = E.convolution(u, U.letter_permutation(n, _shuffled(rng, n)))
                expect = {"verdict": "not_automorphism", "degree": n**param}
            else:
                identity = list(range(n**param))
                ranks = identity[:]
                rng.shuffle(ranks)
                while kind != "random" and ranks == identity:  # Ad(1) adds nothing
                    rng.shuffle(ranks)
                u = U.PermutationUnitary(n, param, tuple(ranks))
                if kind != "random":
                    if kind == "auto_kitchens":
                        base = U.kitchens_unitary()
                    else:
                        base = U.letter_permutation(n, (2, 1) + tuple(range(3, n + 1)))
                    u = E.convolution(E.ad_unitary(u), base)
                    expect = {"verdict": "automorphism"}
            data = lib.jsonio.unitary_to_dict(u)
            props = {
                "class": kind,
                "n": n,
                "level": data["level"],
                "cells": n ** data["level"],
                "budget": {"budget_depth": CERTIFY_BUDGET},
            }
            cases.append(Case(props, _dumps(data), expect))
    return cases


def certify_op(lib, doc: str) -> str:
    """The `certify` subcommand body."""
    jsonio, E = lib.jsonio, lib.endo
    e = E.endomorphism(jsonio.unitary_from_dict(json.loads(doc)))
    verdict = E.certify_automorphism(e, CERTIFY_BUDGET)
    if verdict.verdict == "automorphism":
        _, m_min = E.property_p_data(e, verdict.inverse)
        return _dumps(jsonio.verdict_to_dict(verdict, property_p_m=m_min))
    return _dumps(jsonio.verdict_to_dict(verdict))


def _certify_check(lib, case: Case, text: str) -> Optional[str]:
    W, E = lib.words, lib.endo
    out = json.loads(text)
    verdict = out["verdict"]
    if verdict == "unknown":
        return None if out["budget"] == CERTIFY_BUDGET else "wrong budget echoed"
    if case.expect and verdict != case.expect["verdict"]:
        return "expected %s, got %s" % (case.expect["verdict"], verdict)
    u = lib.jsonio.unitary_from_dict(json.loads(case.doc))
    n = u.n
    e = E.endomorphism(u)
    if verdict == "automorphism":
        inv = lib.jsonio.unitary_from_dict(out["inverse"])
        ei = E.endomorphism(inv)
        maps = []
        for x, v in ((e, u), (ei, inv)):
            t = _point_map(v)
            for j in range(1, n + 1):
                support = [
                    w for w in _words(n, t[0])
                    if _run_point_map(t, n, [a - 1 for a in w]) == [j - 1]
                ]
                if E.apply_diag(x, W.cylinder(n, (j,))) != W.projection(n, support):
                    return "lambda(P_%d) is not the preimage of [%d] under the point map" % (j, j)
            maps.append(t)
        for first, second in ((0, 1), (1, 0)):
            moved = _inverse_on_cylinders(maps[first], maps[second], n, u.level + 2)
            if moved is not None:
                return "the inverse fails on P_%s" % W.format_word(moved)
        if not 0 <= out["property_P_m"] <= max(inv.level - 1, 0):
            return "property (P) m outside the certified bound"
        return None
    if verdict != "not_automorphism" or out.get("degree", 0) < 2:
        return "bad verdict record %r" % out
    if "degree" in case.expect and out["degree"] != case.expect["degree"]:
        return "degree %d, expected %d" % (out["degree"], case.expect["degree"])
    # A refuted map commutes with the shift, so lambda_u(P_j) is the set of
    # level-r windows that read j: rule(sigma_u(j t)) = j.
    r = u.level
    if r == 0:
        return "the identity was refuted"
    words = _words(n, r)
    rule = {words[dst]: words[src][0] for src, dst in enumerate(u.ranks)}
    for k in (1, 2):
        preimages = {}
        for v in _words(n, k + r - 1):
            image = tuple(rule[v[j : j + r]] for j in range(k))
            preimages.setdefault(image, []).append(v)
        for w in _words(n, k):
            if E.apply_diag(e, W.cylinder(n, w)) != W.projection(n, preimages.get(w, [])):
                return "rule read off lambda_u(P_j) disagrees at %s" % W.format_word(w)
    if _collision(rule, n, r) is None:
        return "no two points with one image found"
    return None


# --- codes -----------------------------------------------------------------

MAX_M = 2
MAX_WINDOW = 6
ORBIT_PERIODS = (1, 2, 3)

# (class, n, count per pass); the shift power m of a known class cycles 0, 1, 2.
# "balanced" lists each of the six balanced two-letter tables twice, "random"
# draws three-letter tables, nearly all of them not certifiable.  The counts
# put the p50 inside the random three-letter cluster and the p90 inside the
# Kitchens m = 0 cluster (lift and extraction), away from cluster edges.
CODES_MIX = (
    ("letter", 2, 36),
    ("letter", 3, 18),
    ("kitchens_letter", 3, 18),
    ("kitchens_conjugate", 3, 18),
    ("balanced", 2, 12),
    ("random", 3, 72),
)


def _known_automorphism(lib, rng, kind, n):
    C = lib.codes
    letters = C.letter_code(n, _shuffled(rng, n))
    if kind == "letter":
        return letters
    kit = C.kitchens_code()
    if kind == "kitchens_letter":
        pair = (kit, letters) if rng.random() < 0.5 else (letters, kit)
        return C.code_compose(*pair)
    images = _shuffled(rng, n)
    inverse = C.letter_code(n, [images.index(j) + 1 for j in range(1, n + 1)])
    return C.code_compose(C.code_compose(C.letter_code(n, images), kit), inverse)


def _codes_cases(lib, rng) -> list:
    C = lib.codes
    cases = []
    for kind, n, count in CODES_MIX:
        letters = [s for s in range(1, n + 1) for _ in range(n)]
        if kind == "balanced":
            tables = sorted(set(itertools.permutations(letters)))
        for index in range(count):
            expect = {}
            if kind == "balanced":
                c = C.SlidingBlockCode(n, 2, tables[index % len(tables)])
            elif kind == "random":
                rng.shuffle(letters)
                c = C.SlidingBlockCode(n, 2, tuple(letters))
            else:
                m = index % 3
                a = _known_automorphism(lib, rng, kind, n)
                c = C.code_compose(a, C.shift_power_code(n, m))
                expect = {"m": m, "degree": n**m, "partner_degree": 1}
            data = lib.jsonio.code_to_dict(c)
            props = {
                "class": kind,
                "n": n,
                "radius": data["radius"],
                "cells": n ** data["radius"],
                "budget": {"max_m": MAX_M, "max_window": MAX_WINDOW},
            }
            cases.append(Case(props, _dumps(data), expect))
    return cases


def codes_op(lib, doc: str) -> str:
    """The `degree` subcommand body, `orbits` for r = 1..3, and for m = 0
    the lift to a unitary and the extraction back."""
    jsonio, C, B, E = lib.jsonio, lib.codes, lib.bridge, lib.endo
    c = jsonio.code_from_dict(json.loads(doc))
    cert = C.en_inverse_search(c, MAX_M, MAX_WINDOW)
    if cert is None:
        return _dumps({"verdict": "unknown", "budget": MAX_WINDOW})
    beta, m = cert
    k = C.degree(c, beta, m)
    partner = C.degree(beta, c, m)
    if k * partner != c.n**m:
        raise ArithmeticError("degrees %d * %d != n^m" % (k, partner))
    out = {
        "degree": k,
        "m": m,
        "partner_degree": partner,
        "inverse": jsonio.code_to_dict(beta),
        "orbits": [jsonio.orbit_report(c, r) for r in ORBIT_PERIODS],
    }
    if m == 0:
        u = B.unitary_from_shift_automorphism(c)
        out["unitary"] = jsonio.unitary_to_dict(u)
        out["extracted"] = jsonio.code_to_dict(B.extract_code(E.endomorphism(u), 0))
    return _dumps(out)


def _codes_check(lib, case: Case, text: str) -> Optional[str]:
    C, jsonio = lib.codes, lib.jsonio
    out = json.loads(text)
    if "verdict" in out:
        return None if out == {"verdict": "unknown", "budget": MAX_WINDOW} else "bad record"
    c = jsonio.code_from_dict(json.loads(case.doc))
    m, k, partner = out["m"], out["degree"], out["partner_degree"]
    for key, value in case.expect.items():
        if out[key] != value:
            return "%s = %r, expected %r" % (key, out[key], value)
    if k * partner != c.n**m:
        return "k * partner != n^m"
    beta = jsonio.code_from_dict(out["inverse"])
    sigma_m = C.shift_power_code(c.n, m)
    if not (
        C.code_equal(C.code_compose(beta, c), sigma_m)
        and C.code_equal(C.code_compose(c, beta), sigma_m)
    ):
        return "inverse certificate does not compose to sigma^m"
    for report in out["orbits"]:
        perm = report["permutation"]
        if sorted(src for src, _ in perm) != sorted(dst for _, dst in perm):
            return "orbit map at r=%d is not a permutation" % report["r"]
    if m == 0:
        if jsonio.code_from_dict(out["extracted"]) != c:
            return "lift/extract roundtrip changed the code"
        e = lib.endo.endomorphism(jsonio.unitary_from_dict(out["unitary"]))
        for j in range(1, c.n + 1):
            p = lib.words.cylinder(c.n, (j,))
            if lib.endo.apply_diag(e, p) != C.code_apply_diag(c, p):
                return "lifted unitary disagrees with the code on P_%d" % j
    elif "unitary" in out:
        return "lift reported for m > 0"
    return None


# --- search ----------------------------------------------------------------

# The library's default window (2 r + 2) bounds the inverse search of each
# candidate; the CLI default of 12 makes enumerate(3, 2) run for minutes.
SEARCHES = (
    {"search": "enumerate", "n": 2, "radius": 3},
    {"search": "enumerate", "n": 3, "radius": 2},
    {"search": "sweep", "n": 2, "level": 3},
)


def _search_cases(lib, rng) -> list:
    cases = []
    for spec in SEARCHES:
        size = spec.get("radius", spec.get("level"))
        props = dict(spec, cells=spec["n"] ** size, budget={"max_window": 2 * size + 2})
        props["class"] = props.pop("search")
        cases.append(Case(props, json.dumps(spec, sort_keys=True), {}))
    return cases


def search_op(lib, doc: str) -> str:
    """`enumerate` (one JSON line per automorphism), or the unitary sweep."""
    jsonio, C, B = lib.jsonio, lib.codes, lib.bridge
    spec = json.loads(doc)
    if spec["search"] == "enumerate":
        records = [
            {"code": jsonio.code_to_dict(code), "inverse": jsonio.code_to_dict(inv)}
            for code, inv in C.enumerate_one_sided_automorphisms(spec["n"], spec["radius"])
        ]
    else:
        records = [
            jsonio.unitary_to_dict(u)
            for u in B.phi_commuting_automorphism_unitaries(spec["n"], spec["level"])
        ]
    return "\n".join(json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records)


def _search_check(lib, case: Case, text: str) -> Optional[str]:
    C, U, jsonio = lib.codes, lib.unitaries, lib.jsonio
    spec = json.loads(case.doc)
    records = [json.loads(line) for line in text.splitlines()]
    n = spec["n"]
    if spec["search"] == "sweep":
        got = {jsonio.unitary_from_dict(r) for r in records}
        want = {U.identity(2), U.letter_permutation(2, (2, 1))}
        return None if len(records) == 2 and got == want else "sweep is not {id, swap}"
    expected_count = {2: 2, 3: 24}[n]
    if len(records) != expected_count:
        return "%d automorphisms, expected %d" % (len(records), expected_count)
    codes = []
    ident = C.identity_code(n)
    for r in records:
        code, inv = jsonio.code_from_dict(r["code"]), jsonio.code_from_dict(r["inverse"])
        if not (C.code_compose(code, inv) == ident and C.code_compose(inv, code) == ident):
            return "inverse of %s does not compose to the identity" % r["code"]
        codes.append(code)
    members = [C.letter_code(n, p) for p in itertools.permutations(range(1, n + 1))]
    if n == 2 and set(codes) != set(members):  # Hedlund: Aut = {id, swap}
        return "two-letter automorphisms are not {id, swap}"
    if n == 3:
        members.append(C.kitchens_code())
    if any(member not in codes for member in members):
        return "a letter permutation or Kitchens' automorphism is missing"
    return None


# --- registry --------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """A fixed batch of cases, the op run on each, and the answer check."""

    name: str
    make_cases: Callable  # (lib, rng) -> [Case]
    op: Callable  # (lib, doc) -> output text
    check: Callable  # (lib, case, output text) -> problem or None

    def cases(self, lib, rng) -> list:
        out = self.make_cases(lib, rng)
        rng.shuffle(out)
        return out

    @staticmethod
    def decided(text: str) -> bool:
        return '"verdict": "unknown"' not in text


WORKLOADS = {
    "certify": Workload("certify", _certify_cases, certify_op, _certify_check),
    "codes": Workload("codes", _codes_cases, codes_op, _codes_check),
    "search": Workload("search", _search_cases, search_op, _search_check),
}
