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


def _rank_tuple(entries, n: int, level: int):
    """The map's rank tuple, built in one pass, when it lists n^level names
    of `_name_ranks`, no domain name twice; else None, for parse_word to read
    or refuse (every name, for n > 9).  A map of another size never builds
    the table."""
    size = len(entries)
    if n > 9 or not 0 <= level <= size.bit_length() or size != n**level:
        return None
    table, ranks = _name_ranks(n, level), [-1] * size
    for src, dst in entries:
        if not (type(src) is str and type(dst) is str and src in table and dst in table):
            return None
        rank = table[src]
        if ranks[rank] >= 0:
            return None
        ranks[rank] = table[dst]
    return tuple(ranks)


def _integer(value, what: str) -> int:
    """A JSON integer; floats, bools and strings are refused, not coerced."""
    if type(value) is not int:
        raise ValueError("%s must be an integer, not %s" % (what, json.dumps(value)))
    return value


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


def _table(data: dict, key: str) -> dict:
    """data[key], which must be a JSON object keyed by words."""
    entries = data[key]
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
    n = _integer(data["n"], "n")
    if "support" in data:
        if type(data["support"]) is not list:
            raise ValueError("support must be a list of words")
        words = [W.parse_word(s, n) for s in data["support"]]
        level = _integer(data.get("level", len(words[0]) if words else 0), "level")
        if level < 0:
            raise ValueError("level must be nonnegative")
        if words and level != len(words[0]):
            raise ValueError("support words do not match the stated level")
        return W.projection(n, words) if words else W.zero(n)
    level = _integer(data["level"], "level")
    coeffs = [Fraction(0)] * _check_capacity(n, level)
    for text, value in _table(data, "coeffs").items():
        word = W.parse_word(text, n)
        if len(word) != level:
            raise ValueError("coefficient word %r is not at level %d" % (text, level))
        coeffs[W.word_rank(word, n)] = _rational(value)
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
    n = _integer(data["n"], "n")
    level = _integer(data["level"], "level")
    entries = data["map"]
    if type(entries) is not list or any(type(e) is not list or len(e) != 2 for e in entries):
        raise ValueError("map must be a list of [source, target] pairs")
    ranks = _rank_tuple(entries, n, level)
    if ranks is not None:
        _check_capacity(n, level)
        return PermutationUnitary(n, level, ranks)
    mapping = {}
    for src, dst in entries:
        key = W.parse_word(src, n)
        if key in mapping:
            raise ValueError("domain word %r listed twice" % src)
        mapping[key] = W.parse_word(dst, n)
    return U.from_mapping(n, level, mapping)


def code_to_dict(c: SlidingBlockCode) -> dict:
    c = C.minimize(c)
    return {
        "n": c.n,
        "radius": c.radius,
        "rule": dict(zip(_names(c.n, c.radius), c.rule)),
    }


def code_from_dict(data: dict) -> SlidingBlockCode:
    n = _integer(data["n"], "n")
    radius = _integer(data["radius"], "radius")
    rule = [0] * _check_capacity(n, radius)
    entries = _table(data, "rule")
    if len(entries) != n**radius:
        raise ValueError("rule table must cover every window exactly once")
    for text, letter in entries.items():
        word = W.parse_word(text, n)
        if len(word) != radius:
            raise ValueError("window %r does not have the stated radius" % text)
        rule[W.word_rank(word, n)] = _integer(letter, "rule letter")
    return SlidingBlockCode(n, radius, tuple(rule))


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
