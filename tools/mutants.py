"""Mutant gate: each mutant in tools/mutants.json must fail its named tests.

Each mutant is a file, an exact source snippet that occurs once in it, the
replacement, and the ids of the tests that must fail once it is applied.
The script copies the repository to a temporary directory, runs every named
test once on the unchanged copy (each must pass), then applies each mutant
alone and runs only its tests.  It exits 1 when a snippet no longer occurs
exactly once, a named test does not run, or a mutant leaves a named test
passing.  Standard library only; run from anywhere as

    python tools/mutants.py
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info")


def run_tests(copy: Path, ids) -> dict:
    """Outcome by test id ("passed", "failed" or "error") of one pytest run
    on the copy, with the copy's own sources first on the path.  No bytecode
    is written: a mutant of the same size, saved within the same second,
    could otherwise be read from the unmutated cache."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *ids]
    result = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)
    if result.returncode not in (0, 1):  # pytest itself failed: say why
        print("pytest exited %d: %s" % (result.returncode, result.stderr.strip() or result.stdout[-500:]))
    outcomes = {}
    for line in result.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR"):
            outcomes[rest.split(" - ")[0]] = word.lower()
    return outcomes


def main() -> int:
    mutants = json.loads((ROOT / "tools" / "mutants.json").read_text())
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        where = subprocess.run(
            [sys.executable, "-c", "import shiftcalc; print(shiftcalc.__file__)"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not Path(where).resolve().is_relative_to(copy.resolve()):
            print("shiftcalc imports from %s, not from the copy" % where)
            return 1
        ids = sorted({t for m in mutants for t in m["tests"]})
        baseline = run_tests(copy, ids)
        for test in ids:
            if baseline.get(test) != "passed":
                problems.append("unmutated: %s %s" % (test, baseline.get(test, "did not run")))
        for m in mutants:
            path = copy / m["file"]
            source = path.read_text()
            found = source.count(m["snippet"])
            if found != 1 or not m["tests"]:
                problems.append("%s: snippet found %d times, %d tests" % (m["name"], found, len(m["tests"])))
                continue
            path.write_text(source.replace(m["snippet"], m["replacement"]))
            outcomes = run_tests(copy, m["tests"])
            path.write_text(source)
            survivors = [t for t in m["tests"] if outcomes.get(t) not in ("failed", "error")]
            print("%s: %s" % ("survived" if survivors else "killed", m["name"]))
            for test in survivors:
                problems.append("%s: %s %s" % (m["name"], test, outcomes.get(test, "did not run")))
    for problem in problems:
        print("FAIL " + problem)
    print("%d mutants, %d problems" % (len(mutants), len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
