import itertools
import json
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from shiftcalc import codes as C
from shiftcalc import jsonio
from shiftcalc import unitaries as U
from shiftcalc import words as W
from shiftcalc.cli import main
from test_endo import timed


@pytest.fixture
def runner():
    return CliRunner()


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_certify_kitchens_is_self_inverse(runner, tmp_path):
    f = write(tmp_path / "u.json", jsonio.unitary_to_dict(U.kitchens_unitary()))
    result = runner.invoke(main, ["certify", f])
    assert result.exit_code == 0
    out = json.loads(result.output)
    assert out["verdict"] == "automorphism"
    assert out["inverse"] == jsonio.unitary_to_dict(U.kitchens_unitary())
    assert out["property_P_m"] == 0


def test_certify_flip_exits_two(runner, tmp_path):
    f = write(tmp_path / "u.json", jsonio.unitary_to_dict(U.flip_unitary(2)))
    result = runner.invoke(main, ["certify", f])
    assert result.exit_code == 2
    out = json.loads(result.output)
    assert out == {"verdict": "not_automorphism", "reason": "degree", "degree": 2}


def test_certify_malformed_map_exits_one(runner, tmp_path):
    f = write(
        tmp_path / "u.json",
        {"n": 2, "level": 1, "map": [["1", "1"], ["2", "1"]]},
    )
    result = runner.invoke(main, ["certify", f])
    assert result.exit_code == 1


@pytest.mark.parametrize("entries", [["12", "21"], {"12": "x", "21": "y"}], ids=["strings", "object"])
def test_certify_refuses_maps_that_are_not_lists_of_pairs(runner, tmp_path, entries):
    f = write(tmp_path / "u.json", {"n": 2, "level": 1, "map": entries})
    result = runner.invoke(main, ["certify", f])
    assert result.exit_code == 1
    assert result.stderr == "input error: map must be a list of [source, target] pairs\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--budget-depth", "0", "fixtures"],
        ["--capacity", "-3", "fixtures"],
        ["--capacity", "0", "fixtures"],
        ["certify", "{missing}"],
        ["certify"],
        ["certify", "--bogus"],
        ["bogus"],
        # --budget-depth bounds every search; these two options are gone
        ["--max-m", "1", "fixtures"],
        ["--max-window", "4", "fixtures"],
    ],
    ids=["budget-depth-0", "negative-capacity", "zero-capacity", "missing-file", "no-file",
         "unknown-option", "unknown-command", "max-m", "max-window"],
)
def test_usage_errors_exit_one(runner, tmp_path, argv):
    # a usage error is an input error: exit 1 with click's one-line message,
    # never 2, which is a negative result
    missing = str(tmp_path / "missing.json")
    result = runner.invoke(main, [arg.format(missing=missing) for arg in argv])
    assert result.exit_code == 1
    errors = [line for line in result.stderr.splitlines() if line.startswith("Error: ")]
    assert len(errors) == 1 and result.stdout == ""


def test_bare_command_prints_usage_and_exits_one(runner):
    result = runner.invoke(main, [])
    assert result.exit_code == 1
    assert result.stderr.startswith("Usage: ") and result.stdout == ""


def test_orbits_reports_the_kitchens_swap(runner, tmp_path):
    f = write(tmp_path / "c.json", jsonio.code_to_dict(C.kitchens_code()))
    result = runner.invoke(main, ["orbits", "--code", f, "--r", "2"])
    assert result.exit_code == 0
    out = json.loads(result.output)
    assert ["13", "23"] in out["permutation"]
    assert ["23", "13"] in out["permutation"]


def test_orbits_refutes_non_bijective_codes(runner, tmp_path):
    f = write(tmp_path / "c.json", {"n": 2, "radius": 1, "rule": {"1": 1, "2": 1}})
    result = runner.invoke(main, ["orbits", "--code", f, "--r", "2"])
    assert result.exit_code == 2


def test_stray_arithmetic_error_is_not_a_refutation(runner, tmp_path, monkeypatch):
    def broken(c, x):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(C, "code_apply_diag", broken)
    c = write(tmp_path / "c.json", jsonio.code_to_dict(C.kitchens_code()))
    p = write(tmp_path / "p.json", jsonio.diag_to_dict(W.cylinder(3, (1,))))
    result = runner.invoke(main, ["apply", c, p])
    assert result.exit_code == 1
    assert not result.stderr.startswith("refuted")


def test_degree_of_the_shift(runner, tmp_path):
    f = write(tmp_path / "c.json", jsonio.code_to_dict(C.shift_power_code(2, 1)))
    result = runner.invoke(main, ["degree", "--code", f])
    assert result.exit_code == 0
    out = json.loads(result.output)
    assert out == {"degree": 2, "m": 1, "partner_degree": 1}


def test_degree_inconclusive_exits_three(runner, tmp_path):
    # sigma^3 needs m = 3, past the budget
    f = write(tmp_path / "c.json", jsonio.code_to_dict(C.shift_power_code(2, 3)))
    result = runner.invoke(main, ["--budget-depth", "2", "degree", "--code", f])
    assert result.exit_code == 3
    assert json.loads(result.output) == {"budget": 2, "verdict": "unknown"}


# a three-letter radius-2 table with no certificate within the default
# budget; a search with m <= 4 and windows up to 12 runs over a minute on it
RANDOM3 = {"n": 3, "radius": 2, "rule": {"11": 2, "12": 3, "13": 1, "21": 1, "22": 1,
                                         "23": 3, "31": 2, "32": 3, "33": 2}}


@timed(10.0)
def test_degree_answers_unknown_within_the_default_budget():
    runner = CliRunner()
    with runner.isolated_filesystem():
        result = runner.invoke(main, ["degree", "--code", write(Path("c.json"), RANDOM3)])
    assert result.exit_code == 3
    assert json.loads(result.output) == {"budget": 8, "verdict": "unknown"}


def test_degree_window_stops_at_the_capacity(runner, tmp_path):
    # a binary radius-8 table: windows up to 2r = 16 would build tables of up
    # to 2^23 words, and the default limit is 2^22; under a limit of 2^12 the
    # window stops at s = 5, so the search answers unknown instead of exit 4
    rule = tuple(itertools.islice(itertools.cycle((1, 2, 2, 1, 2)), 2**8))
    c = write(tmp_path / "c.json", jsonio.code_to_dict(C.SlidingBlockCode(2, 8, rule)))
    result = runner.invoke(main, ["--capacity", str(2**12), "degree", "--code", c])
    assert result.exit_code == 3
    assert json.loads(result.output) == {"budget": 8, "verdict": "unknown"}
    from shiftcalc import capacity

    old = capacity.get_limit()
    try:
        capacity.set_limit(2**12)
        with pytest.raises(C.CapacityError):
            C.en_inverse_search(C.SlidingBlockCode(2, 8, rule), 8, 6)
        assert C.degree_certificate(C.SlidingBlockCode(2, 8, rule), 8) is None
    finally:
        capacity.set_limit(old)
    # the window is counted down from below the limit's bit length, not from
    # the budget, so a deep budget builds no n^(s + r - 1) past the limit on
    # the way down; the two-letter swap is its own inverse, found at once
    swap = write(tmp_path / "swap.json", {"n": 2, "radius": 1, "rule": {"1": 2, "2": 1}})
    start = time.perf_counter()
    result = runner.invoke(main, ["--budget-depth", "200000", "degree", "--code", swap])
    assert time.perf_counter() - start < 10
    assert result.exit_code == 0
    assert json.loads(result.output) == {"degree": 1, "m": 0, "partner_degree": 1}


def degree_record_reference(c):
    """The `degree` record under the earlier default bounds, m <= 4 and
    windows up to 12, with "unknown" carrying no budget."""
    found = C.en_inverse_search(c, 4, 12)
    if found is None:
        return {"verdict": "unknown"}
    beta, m = found
    return {"degree": C.degree(c, beta, m), "m": m, "partner_degree": C.degree(beta, c, m)}


def test_degree_at_the_default_budget_matches_the_earlier_bounds(runner, tmp_path):
    cases = [
        C.SlidingBlockCode(2, r, rule)
        for r in (1, 2)
        for rule in itertools.product((1, 2), repeat=2**r)
    ]
    for head in (C.identity_code(3), C.letter_code(3, (2, 3, 1))):
        for m in range(4):
            cases.append(C.code_compose(
                C.code_compose(head, C.kitchens_code()), C.shift_power_code(3, m)
            ))
    assert len(cases) == 28
    for c in cases:
        f = write(tmp_path / "c.json", jsonio.code_to_dict(c))
        result = runner.invoke(main, ["degree", "--code", f])
        out = json.loads(result.output)
        if result.exit_code == 3:
            assert out.pop("budget") == 8
        else:
            assert result.exit_code == 0
        assert out == degree_record_reference(c), c
    # where the answers differ: certificates at m = 5, past the earlier m <= 4
    changed = [
        (C.pad(C.code_compose(C.letter_code(2, (2, 1)), C.shift_power_code(2, 5)), 6),
         {"degree": 32, "m": 5, "partner_degree": 1}),
        (C.code_compose(C.kitchens_code(), C.shift_power_code(3, 5)),
         {"degree": 243, "m": 5, "partner_degree": 1}),
    ]
    for c, record in changed:
        assert degree_record_reference(c) == {"verdict": "unknown"}
        f = write(tmp_path / "c.json", jsonio.code_to_dict(c))
        result = runner.invoke(main, ["degree", "--code", f])
        assert result.exit_code == 0
        assert json.loads(result.output) == record


def test_compose_kitchens_with_itself_is_identity(runner, tmp_path):
    f = write(tmp_path / "u.json", jsonio.unitary_to_dict(U.kitchens_unitary()))
    result = runner.invoke(main, ["compose", f, f])
    assert result.exit_code == 0
    assert json.loads(result.output) == jsonio.unitary_to_dict(U.identity(3))


def test_compose_rejects_mixed_kinds(runner, tmp_path):
    u = write(tmp_path / "u.json", jsonio.unitary_to_dict(U.kitchens_unitary()))
    c = write(tmp_path / "c.json", jsonio.code_to_dict(C.kitchens_code()))
    result = runner.invoke(main, ["compose", u, c])
    assert result.exit_code == 1


def test_apply_unitary_to_projection(runner, tmp_path):
    u = write(tmp_path / "u.json", jsonio.unitary_to_dict(U.kitchens_unitary()))
    p = write(tmp_path / "p.json", jsonio.diag_to_dict(W.cylinder(3, (1,))))
    result = runner.invoke(main, ["apply", u, p])
    assert result.exit_code == 0
    assert json.loads(result.output)["support"] == ["11", "12", "23"]


def test_enumerate_streams_exactly_two_lines(runner):
    result = runner.invoke(main, ["enumerate", "--n", "2", "--max-radius", "3"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert len(lines) == 2
    rules = [json.loads(line)["code"]["rule"] for line in lines]
    assert {"1": 1, "2": 2} in rules and {"1": 2, "2": 1} in rules


def test_enumerate_rejects_a_negative_radius(runner):
    result = runner.invoke(main, ["enumerate", "--n", "2", "--max-radius", "-1"])
    assert result.exit_code == 1
    assert result.stderr.startswith("input error:")


@pytest.mark.parametrize("n", ["1", "-3"])
def test_enumerate_rejects_a_small_alphabet(runner, n):
    result = runner.invoke(main, ["enumerate", "--n", n, "--max-radius", "2"])
    assert result.exit_code == 1
    assert result.stderr == "input error: alphabet size must be at least 2\n"


def test_enumerate_radius_zero_streams_nothing(runner):
    result = runner.invoke(main, ["enumerate", "--n", "2", "--max-radius", "0"])
    assert result.exit_code == 0
    assert result.output == ""


def test_oversized_tables_exit_four_before_allocating(runner, tmp_path):
    u = write(tmp_path / "u.json", jsonio.unitary_to_dict(U.flip_unitary(2)))
    x = write(tmp_path / "x.json", {"n": 2, "level": 23, "coeffs": {}})
    c = write(tmp_path / "c.json", {"n": 2, "radius": 23, "rule": {}})
    assert runner.invoke(main, ["apply", u, x]).exit_code == 4
    assert runner.invoke(main, ["degree", "--code", c]).exit_code == 4
    # past the limit's bit length n^k is neither built nor printed: one short line
    huge_u = write(tmp_path / "huge_u.json", {"n": 2, "level": 10**8, "map": []})
    huge_c = write(tmp_path / "huge_c.json", {"n": 2, "radius": 10**5, "rule": {}})
    wide_u = write(tmp_path / "wide_u.json", {"n": 3, "level": 5000, "map": []})
    for argv in (
        ["certify", huge_u],
        ["degree", "--code", huge_c],
        ["orbits", "--code", huge_c, "--r", "2"],
        ["certify", wide_u],
        ["compose", huge_u, huge_u],
        ["enumerate", "--n", "2", "--max-radius", "100000000"],
    ):
        result = runner.invoke(main, argv)
        assert result.exit_code == 4 and result.stdout == ""
        assert result.stderr.startswith("capacity exceeded: ") and result.stderr.count("\n") == 1
        assert len(result.stderr) < 200


def test_capacity_limit_exits_four(runner, tmp_path):
    from shiftcalc import capacity

    old = capacity.get_limit()
    try:
        f = write(tmp_path / "u.json", jsonio.unitary_to_dict(U.kitchens_unitary()))
        result = runner.invoke(main, ["--capacity", "8", "certify", f])
        assert result.exit_code == 4
    finally:
        capacity.set_limit(old)


def test_capacity_option_is_restored_when_the_command_ends(runner):
    from shiftcalc import capacity

    old = capacity.get_limit()
    runner.invoke(main, ["--capacity", "5", "enumerate", "--n", "2", "--max-radius", "1"])
    assert capacity.get_limit() == old


def test_deeply_nested_json_is_an_input_error(runner, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000)
    x = write(tmp_path / "x.json", jsonio.diag_to_dict(W.cylinder(2, (1,))))
    for args in (["certify", str(deep)], ["apply", str(deep), x]):
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.stderr == "input error: JSON nesting is too deep\n"


def test_words_that_are_not_digit_strings_exit_one(runner, tmp_path):
    for entries, word in (([[[1], [2]], [[2], [1]]], "[1]"), ([[12, "1"], ["2", "1"]], "12")):
        f = write(tmp_path / "u.json", {"n": 2, "level": 1, "map": entries})
        result = runner.invoke(main, ["certify", f])
        assert result.exit_code == 1
        assert result.stderr == "input error: word %s is not a string of ASCII digits\n" % word


def test_output_is_byte_stable(runner, tmp_path):
    f = write(tmp_path / "c.json", jsonio.code_to_dict(C.kitchens_code()))
    first = runner.invoke(main, ["orbits", "--code", f, "--r", "3"])
    second = runner.invoke(main, ["orbits", "--code", f, "--r", "3"])
    assert first.output == second.output


def test_table_format_flattens_canonical_json(runner, tmp_path):
    f = write(tmp_path / "c.json", jsonio.code_to_dict(C.shift_power_code(2, 1)))
    result = runner.invoke(main, ["--format", "table", "degree", "--code", f])
    assert result.exit_code == 0
    assert "degree\t2" in result.output


@pytest.mark.parametrize(
    "diag",
    [
        {"n": 2, "level": 1, "coeffs": {"1": "1/0"}},
        {"n": 2, "level": 1, "coeffs": ["1"]},
        {"n": 2, "level": -1, "support": []},
        {"n": 2, "level": 1, "coeffs": {"1": 1e999}},
        {"n": 2, "level": 1, "coeffs": {"1": float("nan")}},
    ],
    ids=["zero-denominator", "coeffs-as-list", "negative-level", "infinite", "nan"],
)
def test_malformed_diagonal_is_an_input_error(runner, tmp_path, diag):
    u = write(tmp_path / "u.json", jsonio.unitary_to_dict(U.flip_unitary(2)))
    x = write(tmp_path / "x.json", diag)
    result = runner.invoke(main, ["apply", u, x])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("input error:")
    assert len(result.stderr.splitlines()) == 1


FLIP = {"n": 2, "level": 2, "map": [["11", "11"], ["12", "21"], ["21", "12"], ["22", "22"]]}


@pytest.mark.parametrize("support", ["12", {"1": 0}], ids=["string", "object"])
def test_a_support_that_is_not_a_list_exits_one(runner, tmp_path, support):
    # both used to load, as the unit and as P_1, and apply exited 0
    u = write(tmp_path / "u.json", FLIP)
    x = write(tmp_path / "x.json", {"n": 2, "support": support})
    result = runner.invoke(main, ["apply", u, x])
    assert result.exit_code == 1
    assert result.stderr == "input error: support must be a list of words\n"


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["certify", "{doc}"], {"n": 2, "level": -1, "map": [["1", "2"], ["2", "1"]]}),
        (["orbits", "--code", "{doc}", "--r", "2"], {"n": 2, "radius": -1, "rule": {"1": 2, "2": 1}}),
        (["apply", "{flip}", "{doc}"], {"n": 2, "level": -1, "coeffs": {"1": "1/2"}}),
    ],
    ids=["unitary", "code", "coefficients"],
)
def test_a_negative_level_or_radius_exits_one_with_its_own_message(runner, tmp_path, argv, doc):
    # n ** -1 is 0.5, which used to surface as a float error in a table size
    files = {"doc": write(tmp_path / "doc.json", doc), "flip": write(tmp_path / "u.json", FLIP)}
    result = runner.invoke(main, [arg.format(**files) for arg in argv])
    assert result.exit_code == 1
    assert result.stderr == "input error: level or radius -1 is negative\n"


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["certify", "{doc}"], {"n": 2.9, "level": 1.5, "map": [["1", "2"], ["2", "1"]]}),
        (["certify", "{doc}"], {"n": 2, "level": True, "map": [["1", "2"], ["2", "1"]]}),
        (["orbits", "--code", "{doc}", "--r", "2"], {"n": 2, "radius": 1, "rule": {"1": 2.7, "2": 1}}),
        (["orbits", "--code", "{doc}", "--r", "2"], {"n": 2, "radius": 1, "rule": {"1": True, "2": 2}}),
        (["orbits", "--code", "{doc}", "--r", "2"], {"n": 2, "radius": 1.0, "rule": {"1": 2, "2": 1}}),
        (["apply", "{flip}", "{doc}"], {"n": 2, "level": 1.0, "coeffs": {"1": "1/2"}}),
        (["apply", "{flip}", "{doc}"], {"n": "2", "level": 1, "support": ["1"]}),
    ],
    ids=[
        "float-n-and-level", "bool-level", "float-letter", "bool-letter", "float-radius",
        "float-diag-level", "string-n",
    ],
)
def test_numbers_must_be_json_integers(runner, tmp_path, argv, doc):
    files = {"doc": write(tmp_path / "doc.json", doc), "flip": write(tmp_path / "u.json", FLIP)}
    result = runner.invoke(main, [arg.format(**files) for arg in argv])
    assert result.exit_code == 1
    assert result.stderr.startswith("input error:") and "must be an integer" in result.stderr
    assert len(result.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, doc, kind, key",
    [
        (["certify", "{doc}"], [], "a unitary", "n"),
        (["certify", "{doc}"], "x", "a unitary", "n"),
        (["certify", "{doc}"], {"n": 2, "level": 1}, "a unitary", "map"),
        (["degree", "--code", "{doc}"], {"n": 2}, "a code", "radius"),
        (["apply", "{flip}", "{doc}"], {"n": 2, "coeffs": {"1": "1/2"}}, "a diagonal element", "level"),
    ],
    ids=["list", "string", "no-map", "no-radius", "no-level"],
)
def test_a_missing_object_or_key_is_named(runner, tmp_path, argv, doc, kind, key):
    # these used to print Python's own messages, such as "input error: 'map'"
    files = {"doc": write(tmp_path / "doc.json", doc), "flip": write(tmp_path / "u.json", FLIP)}
    result = runner.invoke(main, [arg.format(**files) for arg in argv])
    assert result.exit_code == 1
    assert result.stderr == "input error: %s must be a JSON object with the key '%s'\n" % (kind, key)


@pytest.mark.parametrize("operator", [5, True, None], ids=["number", "true", "null"])
@pytest.mark.parametrize(
    "argv", [["apply", "{op}", "{x}"], ["compose", "{op}", "{flip}"], ["compose", "{flip}", "{op}"]],
    ids=["apply", "compose-left", "compose-right"],
)
def test_an_operator_that_is_not_an_object_is_named(runner, tmp_path, argv, operator):
    # these used to print "argument of type 'int' is not iterable"
    files = {
        "op": write(tmp_path / "op.json", operator),
        "flip": write(tmp_path / "u.json", FLIP),
        "x": write(tmp_path / "x.json", {"n": 2, "level": 1, "support": ["1"]}),
    }
    result = runner.invoke(main, [arg.format(**files) for arg in argv])
    assert result.exit_code == 1
    assert result.stderr == "input error: an operator must be a JSON object: a unitary or a code\n"


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["certify", "{doc}"], {"n": -2, "level": 100000001, "map": []}),
        (["degree", "--code", "{doc}"], {"n": -2, "radius": 100001, "rule": {}}),
        (["apply", "{flip}", "{doc}"], {"n": -3, "level": 25, "coeffs": {}}),
        (["certify", "{doc}"], {"n": -2, "level": 1, "map": [["1", "2"], ["2", "1"]]}),
        (["degree", "--code", "{doc}"], {"n": -2, "radius": 1, "rule": {"1": 1, "2": 2}}),
    ],
    ids=["huge-map", "huge-rule", "huge-coeffs", "small-map", "small-rule"],
)
def test_an_alphabet_below_two_exits_one_before_the_rest_is_read(runner, tmp_path, argv, doc):
    # read later, the first three would fail on their level and the last two
    # on a letter or the table's size
    files = {"doc": write(tmp_path / "doc.json", doc), "flip": write(tmp_path / "u.json", FLIP)}
    result = runner.invoke(main, [arg.format(**files) for arg in argv])
    assert result.exit_code == 1
    assert result.stderr == "input error: alphabet size must be at least 2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "{bad}"],
        ["compose", "{flip}", "{bad}"],
        ["apply", "{flip}", "{bad}"],
        ["orbits", "--code", "{bad}", "--r", "2"],
        ["degree", "--code", "{bad}"],
        ["enumerate", "--n", "1", "--max-radius", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_every_subcommand_exits_one_on_malformed_input(runner, tmp_path, argv):
    # the command group maps the error, whichever subcommand raised it
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2,')
    files = {"bad": str(bad), "flip": write(tmp_path / "u.json", FLIP)}
    result = runner.invoke(main, [arg.format(**files) for arg in argv])
    assert result.exit_code == 1 and result.stdout == ""
    assert result.stderr.startswith("input error: ") and result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr


# T_u of this map is injective and never commutes with the shift, so certify
# answers before any level; the run table u_s^* of a level s has n^(s + 1)
# ranks, past the default limit 2^22 from s = 22 on and past 64 from s = 6 on
NEVER_SHIFT_COMMUTING = {"n": 2, "level": 2, "map": [["11", "12"], ["12", "11"], ["21", "21"], ["22", "22"]]}


@pytest.mark.parametrize(
    "argv, budget",
    [(["--budget-depth", "30"], 30), (["--capacity", "64", "--budget-depth", "8"], 8)],
    ids=["deep-budget", "small-capacity"],
)
def test_certify_stops_its_levels_at_the_capacity(runner, tmp_path, argv, budget):
    f = write(tmp_path / "u.json", NEVER_SHIFT_COMMUTING)
    result = runner.invoke(main, argv + ["certify", f])
    assert result.exit_code == 3
    assert json.loads(result.output) == {"budget": budget, "verdict": "unknown"}


# --- fuzzing: every subcommand is total on small documents -----------------

# Bounded scalars only: a large n or level would ask for a huge table.
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 4),
    st.sampled_from([0.5, 1e999, float("nan")]),
    st.text("0123/-x", max_size=3),
)
JUNK = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("123", max_size=2), inner, max_size=3),
    max_leaves=5,
)


def _words(n, k):
    return [W.format_word(w) for w in W.enumerate_words(n, k)]


@st.composite
def unitary_docs(draw):
    n, level = draw(st.integers(2, 3)), draw(st.integers(0, 2))
    words = _words(n, level)
    images = draw(st.permutations(words))
    return {"n": n, "level": level, "map": [list(p) for p in zip(words, images)]}


@st.composite
def code_docs(draw):
    n, radius = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    rule = {w: draw(st.integers(1, n)) for w in _words(n, radius)}
    return {"n": n, "radius": radius, "rule": rule}


@st.composite
def diag_docs(draw):
    n, level = draw(st.integers(2, 3)), draw(st.integers(0, 2))
    words = _words(n, level)
    if draw(st.booleans()):
        support = draw(st.lists(st.sampled_from(words), unique=True))
        return {"n": n, "level": level, "support": support}
    values = st.sampled_from(["1/2", "-3", "0", 2])
    coeffs = {w: draw(values) for w in words if draw(st.booleans())}
    return {"n": n, "level": level, "coeffs": coeffs}


@st.composite
def _malformed(draw, valid):
    """A valid document with one key dropped or replaced, or one entry of
    its table replaced."""
    doc = draw(valid)
    key = draw(st.sampled_from(sorted(doc)))
    table = doc[key]
    if isinstance(table, (list, dict)) and table and draw(st.booleans()):
        if isinstance(table, list):
            table[draw(st.integers(0, len(table) - 1))] = draw(JUNK)
        else:
            table[draw(st.sampled_from(sorted(table)))] = draw(JUNK)
    elif draw(st.booleans()):
        del doc[key]
    else:
        doc[key] = draw(JUNK)
    return doc


def _documents(*valid):
    docs = st.one_of(*valid)
    return st.one_of(docs, _malformed(docs), JUNK)


UNITARIES = _documents(unitary_docs())
CODES = _documents(code_docs())
OPERATORS = _documents(unitary_docs(), code_docs())
DIAGONALS = _documents(diag_docs())

NO_ARGS = st.just([])
PERIOD = st.integers(-1, 3).map(lambda r: ["--r", str(r)])
SMALL_SEARCH = ["--budget-depth", "2"]

# subcommand -> (arguments before the files, documents, arguments after)
FUZZED = {
    "certify": (["--budget-depth", "2", "certify"], [UNITARIES], NO_ARGS),
    "apply": (["apply"], [OPERATORS, DIAGONALS], NO_ARGS),
    "compose": (["compose"], [OPERATORS, OPERATORS], NO_ARGS),
    "degree": (SMALL_SEARCH + ["degree", "--code"], [CODES], NO_ARGS),
    "orbits": (["orbits", "--code"], [CODES], PERIOD),
}


@settings(deadline=None, derandomize=True, max_examples=400)
@given(command=st.sampled_from(sorted(FUZZED)), data=st.data())
def test_cli_is_total_on_small_documents(command, data):
    head, kinds, tail = FUZZED[command]
    runner = CliRunner()
    with runner.isolated_filesystem():
        files = [
            write(Path("doc%d.json" % i), data.draw(kind)) for i, kind in enumerate(kinds)
        ]
        result = runner.invoke(main, head + files + data.draw(tail))
    assert result.exit_code in range(5), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(
        result.exception
    )
