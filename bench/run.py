"""shiftcalc benchmark: time to a certified verdict.

    python3 bench/run.py --workload certify --seed 1 --seconds 50 --trace 0

One client runs the workload's fixed batch of ops in a closed loop (the
next op starts when the previous one returns), pass after pass until the
next pass would end after --seconds; there is always at least one pass.
Every answer of the first pass is checked, and every later pass must
reproduce it byte for byte.

Times are reported at a fixed reference speed.  Each op is followed by one
run of `calibration_kernel`, and its time is divided by the kernel's time:
the machine's speed, which other tenants of a shared host change by up to
1.8x for minutes at a time, cancels out.  The median of that ratio over the
passes, times KERNEL_REFERENCE_S, is the op's time in seconds at the
reference speed.  Set-up is scaled the same way.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes (see tracer.py) in the same way, prints the per-layer metrics
per traced pass, and counts any traced answer that differs from the
untraced one as a failure.  The last line of stdout is the JSON result; the
op records, and the spans of the first traced pass, go to .bench_out/ at
the repository root.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from tracer import Tracer
from workloads import LAYERS, WORKLOADS, import_shiftcalc

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
# The fastest time of `calibration_kernel` on the machine that defined the
# benchmark, a shared 2-core Xeon VM (see README.md, "Reference speed").
KERNEL_REFERENCE_S = 0.0025

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "decided_share": "share",
    "peak_rss_mb": "MB",
}

# per-layer metric -> inclusive seconds of one function, outermost calls only
TIMED = {
    "endo.preimage_s": "endo.preimage",
    "endo.candidate_inverse_s": "endo.candidate_inverse",
    "endo.property_p_s": "endo.property_p_data",
    "endo.agree_on_diagonal_s": "endo.agree_on_diagonal",
    "endo.is_in_ign_s": "endo.is_in_ign",
    "unitaries.adjoint_action_s": "unitaries.adjoint_action",
    "unitaries.u_k_product_s": "unitaries.u_k_product",
    "codes.apply_diag_s": "codes.code_apply_diag",
    "codes.compose_s": "codes.code_compose",
    "codes.en_inverse_search_s": "codes.en_inverse_search",
    "codes.degree_s": "codes.degree",
    "codes.enumerate_s": "codes.enumerate_one_sided_automorphisms",
    "bridge.extract_s": "bridge.extract_code",
    "bridge.lift_s": "bridge.unitary_from_shift_automorphism",
    "bridge.sweep_s": "bridge.phi_commuting_automorphism_unitaries",
}

# per-layer metric -> number of calls of one function
COUNTED = {
    "words.rank_calls": "words.word_rank",
    "codes.output_calls": "codes.SlidingBlockCode.output",
    "codes.automorphism_check_calls": "codes.one_sided_automorphism_check",
    "endo.agree_on_diagonal_calls": "endo.agree_on_diagonal",
}

# per-layer metric -> (tally of accepted, function whose calls are the attempts)
RATIOS = {
    "codes.en_inverse_found_ratio": ("codes.en_inverse_found", "codes.en_inverse_search"),
    "codes.automorphism_accept_ratio": (
        "codes.automorphism_accepted",
        "codes.one_sided_automorphism_check",
    ),
}

# per-layer metric read off call arguments or results (see tracer.HOOKS)
TALLIES = ("words.refine_cells", "unitaries.adjoint_action_cells", "capacity.peak_cells")


def per_layer_units() -> dict:
    units = {name: "s" for name in TIMED}
    units.update({name: "count" for name in COUNTED})
    units.update({name: "ratio" for name in RATIOS})
    units.update({name: "count" for name in TALLIES})
    for layer in LAYERS:
        units[layer + ".self_s"] = "s"
        units[layer + ".calls"] = "count"
    units["trace.overhead_ratio"] = "ratio"
    return units


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def calibration_kernel():
    """A fixed slice of pure-Python work shaped like the library's hot loops:
    a dense `Fraction` vector refined and permuted, then words unranked,
    slid over and ranked again.  It never changes, so the time it takes
    measures the speed the machine gives this process at that moment."""
    n, k = 3, 6
    size = n**k
    coeffs = tuple(Fraction(i % 5, 1 + i % 3) for i in range(n**2))
    fine = tuple(c for c in coeffs for _ in range(size // len(coeffs)))
    out = [None] * size
    for src in range(size):
        out[(src * 7 + 3) % size] = fine[src] + fine[-src]
    seen = {}
    for r in range(size):
        word = []
        for _ in range(k):
            r, d = divmod(r, n)
            word.append(d + 1)
        word = tuple(word)
        image = tuple(word[j] ^ word[j + 1] for j in range(k - 1))
        rank = 0
        for s in image:
            rank = rank * n + s % n
        seen[image] = seen.get(image, 0) + rank
    return out, seen


def timed(fn, *args):
    """(result, seconds of fn, seconds of the calibration kernel run right after)."""
    clock = time.perf_counter
    t0 = clock()
    result = fn(*args)
    t1 = clock()
    calibration_kernel()
    return result, t1 - t0, clock() - t1


def at_reference_speed(seconds, kernel_seconds):
    """Median over samples of seconds / kernel seconds, in reference seconds."""
    return statistics.median(s / k for s, k in zip(seconds, kernel_seconds)) * KERNEL_REFERENCE_S


def _attempt(call, *args):
    try:
        return call(*args), None
    except Exception as exc:  # a raising op is a failed op
        return None, "%s: %s" % (type(exc).__name__, exc)


class Pass:
    """One closed-loop run over the batch; each op is followed by one run of
    the calibration kernel, outside the op's time."""

    def __init__(self, workload, lib, cases, call):
        self.outputs, self.latencies, self.kernel, self.errors = [], [], [], {}
        start = time.perf_counter()
        for i, case in enumerate(cases):
            (out, error), seconds, kernel = timed(_attempt, call, i, workload.op, lib, case.doc)
            if error:
                self.errors[i] = error
            self.outputs.append(out)
            self.latencies.append(seconds)
            self.kernel.append(kernel)
        self.wall = time.perf_counter() - start


def _setup(workload, seed):
    lib = import_shiftcalc()
    return lib, workload.cases(lib, random.Random(seed))


def _plain(index, fn, *args):
    return fn(*args)


def _traced_pairs(workload, lib, cases, tracer, deadline):
    """(untraced, traced) pass pairs until the next pair would end after the
    deadline; spans are recorded in the first traced pass only."""
    pairs = []
    while not pairs or time.perf_counter() + pairs[-1][0].wall + pairs[-1][1].wall <= deadline:
        plain = Pass(workload, lib, cases, _plain)
        tracer.install(vars(lib))
        try:
            traced = Pass(workload, lib, cases, tracer.run_op)
        finally:
            tracer.uninstall()
        tracer.recording = False
        pairs.append((plain, traced))
    return pairs


def _layer_metrics(tracer: Tracer, passes: int, overhead: float) -> dict:
    values = {name: tracer.inclusive(fn) / passes for name, fn in TIMED.items()}
    values.update({name: tracer.count(fn) / passes for name, fn in COUNTED.items()})
    for name, (accepted, attempts) in RATIOS.items():
        calls = tracer.count(attempts)
        values[name] = tracer.tally[accepted] / calls if calls else 0.0
    for name in TALLIES:
        values[name] = tracer.tally[name] / (1 if name == "capacity.peak_cells" else passes)
    totals = tracer.layer_totals()
    for layer in LAYERS:
        self_s, calls = totals.get(layer, (0.0, 0))
        values[layer + ".self_s"] = self_s / passes
        values[layer + ".calls"] = calls / passes
    values["trace.overhead_ratio"] = overhead
    return values


def _judge(workload, lib, cases, reference, passes):
    """Check the reference answers; count failed and decided ops over passes.

    Returns ({op index: problem}, failed, decided).
    """
    problems = dict(reference.errors)
    for i, case in enumerate(cases):
        if i in problems:
            continue
        try:
            message = workload.check(lib, case, reference.outputs[i])
        except Exception as exc:  # a crashing check is a failed op
            message = "check raised %s: %s" % (type(exc).__name__, exc)
        if message:
            problems[i] = message
    wrong = set(problems)
    failed = decided = 0
    for p in passes:
        for i, out in enumerate(p.outputs):
            if out != reference.outputs[i]:
                problems.setdefault(i, "answer differs between passes")
                failed += 1
            elif i in wrong:
                failed += 1
            elif workload.decided(out):
                decided += 1
    return problems, failed, decided


def _write_records(path, cases, untraced, op_seconds, problems):
    """One JSON line per op: its input properties, its result, its time at
    the reference speed (ms) and its median measured time (raw_ms)."""
    reference = untraced[0]
    with open(path, "w") as records:
        for i, case in enumerate(cases):
            out = reference.outputs[i]
            if out is None:
                result = {}
            elif out.startswith("{\n"):  # one indented JSON object
                fields = json.loads(out).items()
                result = {k: v for k, v in fields if not isinstance(v, (dict, list))}
            else:  # JSON lines
                result = {"records": len(out.splitlines())}
            raw = statistics.median(p.latencies[i] for p in untraced)
            row = dict(case.props, result=result, ms=round(op_seconds[i] * 1e3, 3))
            row["raw_ms"] = round(raw * 1e3, 3)
            if i in problems:
                row["problem"] = problems[i]
            records.write(json.dumps(row, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "shiftcalc" / "__init__.py").is_file():
        print("bench: no shiftcalc sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    # set-up: fresh import, seeded inputs, JSON encoding; median of repeats
    setup_times, setup_kernel = [], []
    for _ in range(SETUP_REPEATS):
        (lib, cases), seconds, kernel = timed(_setup, workload, args.seed)
        setup_times.append(seconds)
        setup_kernel.append(kernel)
    if SRC not in Path(lib.words.__file__).resolve().parents:
        print("bench: shiftcalc was imported from outside %s" % SRC, file=sys.stderr)
        return 2

    deadline = time.perf_counter() + args.seconds
    if args.trace:
        tracer = Tracer()
        pairs = _traced_pairs(workload, lib, cases, tracer, deadline)
        untraced = [plain for plain, _ in pairs]
        passes = [p for pair in pairs for p in pair]
    else:
        untraced = [Pass(workload, lib, cases, _plain)]
        while time.perf_counter() + untraced[-1].wall <= deadline:
            untraced.append(Pass(workload, lib, cases, _plain))
        passes = untraced
    reference = untraced[0]
    problems, failed, decided = _judge(workload, lib, cases, reference, passes)
    attempted = len(cases) * len(passes)

    op_seconds = [
        at_reference_speed([p.latencies[i] for p in untraced], [p.kernel[i] for p in untraced])
        for i in range(len(cases))
    ]
    OUT.mkdir(exist_ok=True)
    stem = OUT / ("%s-seed%d" % (args.workload, args.seed))
    _write_records(str(stem) + "-ops.jsonl", cases, untraced, op_seconds, problems)
    by_class = {}
    for i, case in enumerate(cases):
        by_class.setdefault(case.props["class"], []).append(op_seconds[i])
    for name, lat in sorted(by_class.items()):
        print(
            "%-18s ops %4d  p50 %9.3f ms  max %9.3f ms"
            % (name, len(lat), percentile(lat, 0.5) * 1e3, max(lat) * 1e3)
        )
    for i, message in sorted(problems.items()):
        print("FAILED op %d %s: %s" % (i, json.dumps(cases[i].props, sort_keys=True), message))
    print(
        "passes %d  failed_share %.6f share (%d of %d ops)"
        % (len(passes), failed / attempted, failed, attempted)
    )

    if args.trace:
        tracer.write_spans(str(stem) + "-spans.tsv.gz")
        overhead = statistics.median(
            sum(traced.latencies) / sum(plain.latencies) for plain, traced in pairs
        )
        values = _layer_metrics(tracer, len(pairs), overhead)
        units = per_layer_units()
    else:
        wall = sum(op_seconds)
        values = {
            "setup_s": at_reference_speed(setup_times, setup_kernel),
            "wall_s": wall,
            "ops_per_s": len(cases) / wall,
            "op_p50_ms": percentile(op_seconds, 0.5) * 1e3,
            "op_p90_ms": percentile(op_seconds, 0.9) * 1e3,
            "decided_share": decided / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
