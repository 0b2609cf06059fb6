"""Golden CLI transcripts: the exact stdout and exit code of each subcommand.

The expected transcripts live in golden_cli.json next to this file.  When a
change of output is intended, regenerate them with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of golden_cli.json.
"""
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from shiftcalc import codes as C
from shiftcalc import endo as E
from shiftcalc import jsonio
from shiftcalc import unitaries as U
from shiftcalc import words as W
from shiftcalc.cli import main
from test_cli import RANDOM3
from test_words import diagonal

GOLDEN = Path(__file__).with_name("golden_cli.json")

INPUTS = {
    "kitchens_u": lambda: jsonio.unitary_to_dict(U.kitchens_unitary()),
    "flip_u": lambda: jsonio.unitary_to_dict(U.flip_unitary(2)),
    "swap_u": lambda: jsonio.unitary_to_dict(U.letter_permutation(3, (2, 1, 3))),
    # Ad(v) o lambda_swap for the level-2 v exchanging the words 21 and 22
    "ad_swap_u": lambda: jsonio.unitary_to_dict(
        E.convolution(
            E.ad_unitary(U.PermutationUnitary(2, 2, (0, 1, 3, 2))),
            U.letter_permutation(2, (2, 1)),
        )
    ),
    # its point map collides, and it does not commute with the shift
    "collision_u": lambda: jsonio.unitary_to_dict(
        U.PermutationUnitary(3, 2, (1, 5, 6, 0, 8, 4, 7, 2, 3))
    ),
    "kitchens_c": lambda: jsonio.code_to_dict(C.kitchens_code()),
    "shift3_c": lambda: jsonio.code_to_dict(C.shift_power_code(3, 1)),
    "kitchens_shift2_c": lambda: jsonio.code_to_dict(
        C.code_compose(C.kitchens_code(), C.shift_power_code(3, 2))
    ),
    "shift2_c": lambda: jsonio.code_to_dict(C.shift_power_code(2, 1)),
    "shift2sq_c": lambda: jsonio.code_to_dict(C.shift_power_code(2, 2)),
    "random3_c": lambda: RANDOM3,
    "p1": lambda: jsonio.diag_to_dict(W.cylinder(3, (1,))),
    "x": lambda: jsonio.diag_to_dict(
        diagonal(3, 2, ["1/3", 0, 2, 0, 0, "-1/2", 0, 1, 0])
    ),
}

# case name -> argv, with {input} placeholders naming files built from INPUTS
CASES = {
    "certify_kitchens": ["certify", "{kitchens_u}"],
    "certify_flip": ["certify", "{flip_u}"],
    "certify_ad_swap": ["certify", "{ad_swap_u}"],
    "certify_collision_unknown": ["certify", "{collision_u}"],
    "compose_unitaries": ["compose", "{kitchens_u}", "{swap_u}"],
    "compose_codes": ["compose", "{kitchens_c}", "{shift3_c}"],
    "apply_unitary": ["apply", "{kitchens_u}", "{x}"],
    "apply_code": ["apply", "{kitchens_c}", "{p1}"],
    "orbits_r3": ["orbits", "--code", "{kitchens_c}", "--r", "3"],
    "degree_shift": ["degree", "--code", "{shift2_c}"],
    "degree_shift_squared": ["degree", "--code", "{shift2sq_c}"],
    # codes that ignore their first letters: no inverse is sought below that shift
    "degree_shift3": ["degree", "--code", "{shift3_c}"],
    "degree_kitchens_shift2": ["degree", "--code", "{kitchens_shift2_c}"],
    "degree_unknown_random3": ["degree", "--code", "{random3_c}"],
    "enumerate_n2_r2": ["enumerate", "--n", "2", "--max-radius", "2"],
    # all 24 automorphisms of the one-sided 3-shift up to radius 2 (Kitchens' among them)
    "enumerate_n3_r2": ["enumerate", "--n", "3", "--max-radius", "2"],
    "fixtures": ["fixtures"],
}


def transcript(case, directory):
    """(exit code, stdout) of one golden case, run in-process."""
    files = {}
    for name, build in INPUTS.items():
        path = Path(directory) / (name + ".json")
        path.write_text(json.dumps(build()))
        files[name] = str(path)
    argv = [arg.format(**files) for arg in CASES[case]]
    result = CliRunner().invoke(main, argv)
    return [result.exit_code, result.stdout]


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path):
    expected = json.loads(GOLDEN.read_text())[case]
    assert transcript(case, tmp_path) == expected


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_transcripts_ignore_the_environment(case, tmp_path, monkeypatch):
    # the group options read no environment variables
    for name, value in (
        ("BUDGET_DEPTH", "1"), ("MAX_M", "1"), ("MAX_WINDOW", "1"), ("CAPACITY", "5"),
        ("FORMAT", "table"),
    ):
        monkeypatch.setenv(name, value)
    expected = json.loads(GOLDEN.read_text())[case]
    assert transcript(case, tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        golden = {case: transcript(case, tmp) for case in sorted(CASES)}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
