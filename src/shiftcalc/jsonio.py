"""JSON encodings for all value types.

Words are digit strings ("13" is the word (1, 3)); rationals are fraction
strings ("1/3").  Encoders emit sorted keys and canonical forms so outputs
are byte-stable.
"""
from __future__ import annotations

import functools
import json
import math
from fractions import Fraction

from . import codes as C
from . import unitaries as U
from . import words as W
from .capacity import check as _check_capacity
from .codes import SlidingBlockCode
from .endo import AutomorphismVerdict
from .unitaries import PermutationUnitary
from .words import DiagonalElement


@functools.lru_cache(maxsize=32)
def _names(n: int, level: int) -> tuple:
    """The digit strings of the words of W_n^level, in rank order."""
    names = [""]
    digits = [str(d) for d in range(1, n + 1)]
    for _ in range(level):
        names = [w + d for w in names for d in digits]
    return tuple(names)


@functools.lru_cache(maxsize=32)
def _name_ranks(n: int, level: int) -> dict:
    """{name: rank}, the inverse of `_names`."""
    return {name: rank for rank, name in enumerate(_names(n, level))}


def _ranks(names, n: int, level: int, wrong_level: str) -> list:
    """The rank of each word name at `level`, read from `_name_ranks`; the
    caller has checked the capacity.  A name the table lacks is refused by
    `W.parse_word` (every name, for n > 9: digit strings name no words
    there), or else is a word of another length, refused with `wrong_level`
    formatted with the name and the level."""
    table = _name_ranks(n, level) if n <= 9 else {}
    try:
        return [table[name] for name in names]
    except (KeyError, TypeError):
        pass
    bad = next(name for name in names if type(name) is not str or name not in table)
    W.parse_word(bad, n)
    raise ValueError(wrong_level.format(bad, level))


def _integer(value, what: str) -> int:
    """A JSON integer; floats, bools and strings are refused, not coerced."""
    if type(value) is not int:
        raise ValueError("%s must be an integer, not %s" % (what, json.dumps(value)))
    return value


def _alphabet(data, kind: str) -> int:
    """data["n"], the alphabet size of a `kind`: an integer at least 2,
    refused before the rest of the document is read."""
    n = _integer(_field(data, "n", kind), "n")
    if n < 2:
        raise ValueError("alphabet size must be at least 2")
    return n


def diag_to_dict(x: DiagonalElement) -> dict:
    x = W.reduce(x)
    if x.is_projection():
        return {
            "n": x.n,
            "level": x.level,
            "support": [W.format_word(w) for w in x.support()],
        }
    return {
        "n": x.n,
        "level": x.level,
        "coeffs": {
            name: str(c) for name, c in zip(_names(x.n, x.level), x.coeffs) if c
        },
    }


def _field(data, key: str, kind: str):
    """data[key], where data must be the JSON object of a `kind`."""
    if type(data) is not dict or key not in data:
        raise ValueError("%s must be a JSON object with the key %r" % (kind, key))
    return data[key]


def _table(data: dict, key: str, kind: str) -> dict:
    """data[key], which must be a JSON object keyed by words."""
    entries = _field(data, key, kind)
    if not isinstance(entries, dict):
        raise ValueError("%r must be an object keyed by words" % key)
    return entries


def _rational(value) -> Fraction:
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError("coefficient %r is not finite" % (value,))
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError("coefficient %r has a zero denominator" % (value,)) from None


def diag_from_dict(data: dict) -> DiagonalElement:
    n = _alphabet(data, "a diagonal element")
    if "support" in data:
        support = data["support"]
        if type(support) is not list:
            raise ValueError("support must be a list of words")
        first = len(support[0]) if support and type(support[0]) is str else 0
        level = _integer(data.get("level", first), "level")
        if level < 0:
            raise ValueError("level must be nonnegative")
        if not support:
            return W.zero(n)
        coeffs = [Fraction(0)] * _check_capacity(n, level)
        for rank in _ranks(support, n, level, "support words do not match the stated level"):
            coeffs[rank] = Fraction(1)
        return DiagonalElement(n, level, tuple(coeffs))
    level = _integer(_field(data, "level", "a diagonal element"), "level")
    coeffs = [Fraction(0)] * _check_capacity(n, level)
    entries = _table(data, "coeffs", "a diagonal element")
    wrong_level = "coefficient word {!r} is not at level {}"
    for rank, value in zip(_ranks(entries, n, level, wrong_level), entries.values()):
        coeffs[rank] = _rational(value)
    return DiagonalElement(n, level, tuple(coeffs))


def unitary_to_dict(u: PermutationUnitary) -> dict:
    u = U.reduce(u)
    names = _names(u.n, u.level)
    return {
        "n": u.n,
        "level": u.level,
        "map": [[names[src], names[dst]] for src, dst in enumerate(u.ranks)],
    }


def unitary_from_dict(data: dict) -> PermutationUnitary:
    n = _alphabet(data, "a unitary")
    level = _integer(_field(data, "level", "a unitary"), "level")
    entries = _field(data, "map", "a unitary")
    if type(entries) is not list or any(type(e) is not list or len(e) != 2 for e in entries):
        raise ValueError("map must be a list of [source, target] pairs")
    size = _check_capacity(n, level)
    names = [name for entry in entries for name in entry]
    if len(entries) != size:
        # malformed names are refused first, and no name table is built
        for name in names:
            W.parse_word(name, n)
        raise ValueError("mapping must list every domain word exactly once")
    flat = iter(_ranks(names, n, level, "mapping words must have the unitary's level"))
    ranks = [-1] * size
    for src, dst in zip(flat, flat):
        if ranks[src] >= 0:
            raise ValueError("domain word %r listed twice" % _names(n, level)[src])
        ranks[src] = dst
    return PermutationUnitary(n, level, tuple(ranks))


def code_to_dict(c: SlidingBlockCode) -> dict:
    c = C.minimize(c)
    return {
        "n": c.n,
        "radius": c.radius,
        "rule": dict(zip(_names(c.n, c.radius), c.rule)),
    }


def code_from_dict(data: dict) -> SlidingBlockCode:
    n = _alphabet(data, "a code")
    radius = _integer(_field(data, "radius", "a code"), "radius")
    rule = [0] * _check_capacity(n, radius)
    entries = _table(data, "rule", "a code")
    if len(entries) != len(rule):
        raise ValueError("rule table must cover every window exactly once")
    wrong_radius = "window {!r} does not have the stated radius"
    for rank, letter in zip(_ranks(entries, n, radius, wrong_radius), entries.values()):
        rule[rank] = _integer(letter, "rule letter")
    return SlidingBlockCode(n, radius, tuple(rule))


def operator_from_dict(data) -> PermutationUnitary | SlidingBlockCode:
    """A unitary (an object with the key 'map') or else a code."""
    if type(data) is not dict:
        raise ValueError("an operator must be a JSON object: a unitary or a code")
    return unitary_from_dict(data) if "map" in data else code_from_dict(data)


def verdict_to_dict(v: AutomorphismVerdict, property_p_m=None) -> dict:
    if v.verdict == "automorphism":
        out = {"verdict": "automorphism", "inverse": unitary_to_dict(v.inverse)}
        if property_p_m is not None:
            out["property_P_m"] = property_p_m
        return out
    if v.verdict == "not_automorphism":
        return {"verdict": "not_automorphism", "reason": "degree", "degree": v.degree}
    return {"verdict": "unknown", "budget": v.budget}


def orbit_report(c: SlidingBlockCode, r: int) -> dict:
    orbits = C.periodic_points(c.n, r)
    perm = C.orbit_permutation(c, r)
    names = _names(c.n, r)
    return {
        "r": r,
        "orbits": [[names[w] for w in orbit] for orbit in orbits],
        "permutation": [[names[src], names[dst]] for src, dst in sorted(perm.items())],
    }
