from fractions import Fraction

import pytest

from shiftcalc import codes as C
from shiftcalc import jsonio
from shiftcalc import unitaries as U
from shiftcalc import words as W
from test_words import diagonal, refine


def test_diag_roundtrip_projection():
    x = W.projection(3, [(1, 1), (2, 3)])
    data = jsonio.diag_to_dict(x)
    assert data["support"] == ["11", "23"]
    assert jsonio.diag_from_dict(data) == x


def test_diag_roundtrip_general():
    x = diagonal(2, 1, (Fraction(1, 3), Fraction(0)))
    data = jsonio.diag_to_dict(x)
    assert data["coeffs"] == {"1": "1/3"}
    assert jsonio.diag_from_dict(data) == x


def test_diag_emits_canonical_form():
    fat = refine(W.cylinder(2, (1,)), 3)
    assert jsonio.diag_to_dict(fat)["level"] == 1


def test_diag_rejects_mismatched_levels():
    with pytest.raises(ValueError):
        jsonio.diag_from_dict({"n": 2, "level": 2, "coeffs": {"1": "1"}})
    with pytest.raises(ValueError):
        jsonio.diag_from_dict({"n": 2, "level": 1, "support": ["11"]})


@pytest.mark.parametrize("support", ["12", {"1": 0}], ids=["string", "object"])
def test_diag_refuses_a_support_that_is_not_a_list(support):
    # a string was read as one word per character and an object through its
    # keys, so these loaded as the unit and as P_1
    with pytest.raises(ValueError, match="^support must be a list of words$"):
        jsonio.diag_from_dict({"n": 2, "support": support})


def test_unitary_roundtrip():
    u = U.kitchens_unitary()
    data = jsonio.unitary_to_dict(u)
    assert jsonio.unitary_from_dict(data) == u


def test_unitary_rejects_non_bijective_maps():
    with pytest.raises(ValueError):
        jsonio.unitary_from_dict(
            {"n": 2, "level": 1, "map": [["1", "1"], ["2", "1"]]}
        )
    with pytest.raises(ValueError):
        jsonio.unitary_from_dict({"n": 2, "level": 1, "map": [["1", "1"]]})


@pytest.mark.parametrize(
    "entries, error, message",
    [
        ([["1", "2"], ["1", "1"]], ValueError, "domain word '1' listed twice"),
        ([["1", "2"]], ValueError, "mapping must list every domain word exactly once"),
        ([["1", "3"], ["2", "1"]], ValueError, "symbol 3 outside alphabet {1..2}"),
        ([["1", "21"], ["2", "1"]], ValueError, "mapping words must have the unitary's level"),
        (
            [["1", "2"], ["2", "1"], ["11", "12"]],
            ValueError,
            "mapping must list every domain word exactly once",
        ),
    ],
)
def test_unitary_refuses_malformed_maps_with_one_message(entries, error, message):
    with pytest.raises(error) as info:
        jsonio.unitary_from_dict({"n": 2, "level": 1, "map": entries})
    assert str(info.value) == message


def test_parse_word_refuses_words_that_are_not_digit_strings():
    # words are strings of ASCII digits: a list of letters, fullwidth digits
    # and an object (read through its keys) are refused, not read as 12;
    # the word is validated before any letter is converted
    words = ([1, 2], "\uff11\uff12", {"1": 0, "2": 0}, "a", "1 ", "-1", "\u00b2", 12, None)
    for word in words:
        with pytest.raises(ValueError, match="^word .* is not a string of ASCII digits$"):
            W.parse_word(word, 2)
    assert W.parse_word("", 2) == ()
    bad = ([[[1], [2]], [[2], [1]]], [["\uff11", "2"], ["2", "1"]], [["1", "x"], ["2", "1"]])
    bad += ([[1, "2"], ["2", "1"]], [["1", None], ["2", "1"]])
    for entries in bad:
        with pytest.raises(ValueError, match="is not a string of ASCII digits"):
            jsonio.unitary_from_dict({"n": 2, "level": 1, "map": entries})
    with pytest.raises(ValueError, match="is not a string of ASCII digits"):
        jsonio.diag_from_dict({"n": 2, "support": [[1, 2]]})
    with pytest.raises(ValueError, match="symbol 0 outside alphabet"):
        W.parse_word("10", 2)
    with pytest.raises(ValueError, match="digit-string words require n <= 9"):
        jsonio.unitary_from_dict({"n": 10, "level": 1, "map": [["1", "1"]]})


@pytest.mark.parametrize(
    "entries",
    [["12", "21"], {"12": "x", "21": "y"}, [["1", "2", "1"], ["2", "1"]], [["1"], ["2"]], "12"],
    ids=["strings", "object", "triples", "singletons", "string"],
)
def test_unitary_refuses_maps_that_are_not_lists_of_pairs(entries):
    # a two-letter string would unpack into a (source, target) pair, and an
    # object into its keys, so both used to load as the swap
    with pytest.raises(ValueError, match=r"^map must be a list of \[source, target\] pairs$"):
        jsonio.unitary_from_dict({"n": 2, "level": 1, "map": entries})


def test_a_map_of_the_wrong_size_builds_no_name_table():
    jsonio._name_ranks.cache_clear()
    with pytest.raises(ValueError, match="mapping must list every domain word exactly once"):
        jsonio.unitary_from_dict({"n": 2, "level": 22, "map": []})
    with pytest.raises(ValueError, match="mapping must list every domain word exactly once"):
        jsonio.unitary_from_dict({"n": 2, "level": 22, "map": [["1", "2"]]})
    assert jsonio._name_ranks.cache_info().currsize == 0


def test_code_roundtrip():
    c = C.kitchens_code()
    data = jsonio.code_to_dict(c)
    assert data["rule"]["13"] == 2 and data["rule"]["23"] == 1
    assert jsonio.code_from_dict(data) == c


def test_code_rejects_incomplete_rules():
    with pytest.raises(ValueError):
        jsonio.code_from_dict({"n": 2, "radius": 1, "rule": {"1": 1}})


def test_orbit_report_kitchens():
    report = jsonio.orbit_report(C.kitchens_code(), 2)
    assert ["13", "31"] in report["orbits"]
    assert ["13", "23"] in report["permutation"]
    assert ["23", "13"] in report["permutation"]
