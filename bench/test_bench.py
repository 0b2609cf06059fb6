"""Tests of the benchmark itself: seeded inputs, printed names, answer checks.

    PYTHONPATH=src python -m pytest -q bench
"""
from __future__ import annotations

import functools
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS, layer_modules

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@functools.cache
def _run(workload: str, trace: int) -> tuple:
    """(result line, stdout) of one short benchmark run on seed 3."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_for_a_seed(name):
    lib = layer_modules()
    workload = WORKLOADS[name]
    first = workload.cases(lib, random.Random(11))
    again = workload.cases(lib, random.Random(11))
    assert [(c.props, c.doc, c.expect) for c in first] == [
        (c.props, c.doc, c.expect) for c in again
    ]
    for case in first:
        assert {"class", "n", "cells", "budget"} <= set(case.props)
        assert "level" in case.props or "radius" in case.props
    if name != "search":  # the searches take no random input
        other = workload.cases(lib, random.Random(12))
        assert [c.doc for c in first] != [c.doc for c in other]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_small_seed_runs_without_failures(name):
    result, stdout = _run(name, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert "failed_share 0.000000 share" in stdout
    records = (ROOT / ".bench_out" / ("%s-seed3-ops.jsonl" % name)).read_text().splitlines()
    assert all("problem" not in json.loads(line) for line in records)


def test_printed_names_match_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    for w in SPEC["workloads"]:
        metrics = _run(w["name"], 0)[0]["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == {
            m["name"]: m["unit"] for m in SPEC["end_to_end"]
        }
        assert all(v["value"] > 0 for v in metrics.values())
    metrics = _run("codes", 1)[0]["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }


def test_traced_run_gives_the_untraced_answers():
    result, _ = _run("codes", 1)
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 1
    assert result["metrics"]["codes.output_calls"]["value"] > 0


def test_checks_reject_wrong_answers():
    lib = layer_modules()
    certify, codes = WORKLOADS["certify"], WORKLOADS["codes"]
    autos = [c for c in certify.cases(lib, random.Random(5)) if c.props["class"] == "auto_kitchens"]
    case = autos[0]
    out = json.loads(certify.op(lib, case.doc))
    assert out["verdict"] == "automorphism"
    assert certify.check(lib, case, json.dumps(out)) is None
    wrong = dict(out, inverse=lib.jsonio.unitary_to_dict(lib.unitaries.identity(3)))
    assert certify.check(lib, case, json.dumps(wrong))

    known = [c for c in codes.cases(lib, random.Random(5)) if c.expect.get("m") == 1]
    case = known[0]
    out = json.loads(codes.op(lib, case.doc))
    assert codes.check(lib, case, json.dumps(out)) is None
    assert codes.check(lib, case, json.dumps(dict(out, degree=1)))
