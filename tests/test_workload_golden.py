"""Golden benchmark outputs: the sha256 of every `certify` and `codes` op output.

The ops are the benchmark's own (bench/workloads.py, imported read-only), on
the inputs it builds from seed 101, so a change that alters any output byte
of those workloads fails here.  The expected digests live in
golden_workloads.json next to this file.  When a change of output is
intended, regenerate them with

    PYTHONPATH=src python tests/test_workload_golden.py

and review the diff of golden_workloads.json.
"""
import hashlib
import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("golden_workloads.json")
WORKLOADS_PY = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
SEED = 101
NAMES = ("certify", "codes")


def _workloads():
    """bench/workloads.py as a module of its own, under a private name."""
    name = "_golden_bench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS_PY)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def digests(name: str) -> list:
    """sha256 of each op output of one workload, in case order."""
    bench = _workloads()
    lib = bench.layer_modules()
    workload = bench.WORKLOADS[name]
    return [
        hashlib.sha256(workload.op(lib, case.doc).encode()).hexdigest()
        for case in workload.cases(lib, random.Random(SEED))
    ]


@pytest.mark.parametrize("name", NAMES)
def test_workload_outputs_are_byte_identical(name):
    expected = json.loads(GOLDEN.read_text())[name]
    got = digests(name)
    assert len(got) == len(expected)
    changed = [i for i, (a, b) in enumerate(zip(got, expected)) if a != b]
    assert not changed, "op outputs changed at case indices %s" % changed


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: digests(name) for name in NAMES}, indent=1) + "\n"
    )
