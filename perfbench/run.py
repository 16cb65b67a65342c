"""Benchmark of bfredholm's two index routes.

    python3 perfbench/run.py --workload index-mix --seed 1 --seconds 20 --trace 0

Runs one workload in this process as a closed loop: each operation starts
when the previous one returns.  The inputs are a fixed seeded set sized
from --seconds, so a run does the same work however fast the program is.
Every output is checked against the oracles in ``oracles.py``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1).  The line before it carries the host-speed
probe and the facts behind the metrics.  Details go to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
MIN_OPS = 40  # the tail percentile needs at least ten samples beyond it
SETUP_STARTS = 7
TAIL_BEYOND = 10

PER_LAYER = (  # (metric, unit, kind, span names or count key)
    ("dsl.evaluate_ms", "ms/op", "self_ms", ("dsl.evaluate", "dsl.eval_sym", "dsl.eval_seq")),
    ("engine.classify_calls", "calls/op", "calls", ("engine.classify",)),
    ("engine.drazin_witness_ms", "ms/op", "self_ms", ("engine.drazin_witness",)),
    ("engine.index_trace_ms", "ms/op", "self_ms", ("engine.index_trace",)),
    ("engine.index_winding_ms", "ms/op", "self_ms", ("engine.index_winding",)),
    ("operators.op_mul_calls", "calls/op", "calls", ("operators.op_mul",)),
    ("operators.op_mul_ms", "ms/op", "self_ms", ("operators.op_mul",)),
    ("operators.op_power_ms", "ms/op", "self_ms", ("operators.op_power",)),
    ("operators.hankel_defect_ms", "ms/op", "self_ms", ("operators.hankel_defect",)),
    ("operators.toeplitz_apply_ms", "ms/op", "self_ms",
     ("operators.toeplitz_apply", "operators.toeplitz_apply_transpose")),
    ("operators.op_entry_ms", "ms/op", "self_ms", ("operators.op_entry",)),
    ("finiterank.terms_built", "terms/op", "count", "terms_built"),
    ("finiterank.compose_ms", "ms/op", "self_ms", ("finiterank.compose",)),
    ("finiterank.trace_ms", "ms/op", "self_ms", ("finiterank.trace",)),
    ("finiterank.fr_entry_ms", "ms/op", "self_ms", ("finiterank.fr_entry",)),
    ("sequences.value_calls", "calls/op", "calls", ("sequences.value",)),
    ("sequences.value_ms", "ms/op", "self_ms", ("sequences.value",)),
    ("sequences.pairing_ms", "ms/op", "self_ms", ("sequences.pairing",)),
    ("symbols.laurent_expansion_calls", "calls/op", "calls", ("symbols.laurent_expansion",)),
    ("symbols.laurent_expansion_ms", "ms/op", "self_ms", ("symbols.laurent_expansion",)),
    ("symbols.expansion_repeat_ratio", "ratio", "repeat_ratio", ("symbols.laurent_expansion",)),
    ("symbols.winding_number_ms", "ms/op", "self_ms", ("symbols.winding_number",)),
    ("symbols.sym_arith_ms", "ms/op", "self_ms", ("symbols.sym_arith",)),
    ("rootloc.circle_tests", "calls/op", "calls", ("rootloc.has_zero_on_circle",)),
    ("rootloc.circle_test_ms", "ms/op", "self_ms", ("rootloc.has_zero_on_circle",)),
    ("rootloc.disk_counts", "calls/op", "calls", ("rootloc.count_zeros_in_disk",)),
    ("rootloc.disk_count_ms", "ms/op", "self_ms", ("rootloc.count_zeros_in_disk",)),
    ("rootloc.max_degree", "degree", "max_degree", ()),
    ("poly.mul_calls", "calls/op", "calls", ("poly.mul",)),
    ("poly.mul_ms", "ms/op", "self_ms", ("poly.mul",)),
    ("matrices.drazin_ms", "ms/op", "self_ms", ("matrices.drazin",)),
    ("scalars.mul_calls", "calls/op", "scalar", "mul"),
    ("scalars.add_calls", "calls/op", "scalar", "add"),
)


def setup_seconds() -> float:
    """Median time to import bfredholm and bfredholm.cli in a fresh interpreter."""
    code = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); t = time.perf_counter(); "
        "import bfredholm, bfredholm.cli; print(time.perf_counter() - t)"
    )
    times = []
    for k in range(SETUP_STARTS + 1):  # the first start also writes bytecode caches
        out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                             timeout=60, check=True)
        if k:
            times.append(float(out.stdout))
    return statistics.median(times)


def host_probe_ms(reps: int = 5) -> float:
    """Median time of a fixed stdlib Fraction loop; calls no program code."""
    times = []
    for _ in range(reps):
        t = perf_counter_ns()
        acc = 0
        for k in range(1, 3001):
            x = Fraction(k, 7) * Fraction(3, k + 1) + Fraction(1, k + 2)
            acc += x.numerator & 1
        times.append((perf_counter_ns() - t) / 1e6)
    return statistics.median(times)


def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with TAIL_BEYOND samples above it."""
    s = sorted(latencies_ms)
    n = len(s)
    return 100.0 * (n - TAIL_BEYOND) / n, s[n - TAIL_BEYOND - 1]


def build(w, seed: int, seconds: int):
    """The timed cases and the warm-up cases, both made ready to run."""
    import bfredholm as bf
    from workloads import make_cases

    rounds = max(math.ceil(MIN_OPS / len(w.shapes)), round(seconds * w.rounds_per_second))
    seen: set[str] = set()
    cases = make_cases(w, random.Random(f"{w.name}:{seed}"), rounds, seen)
    warmup = make_cases(w, random.Random(f"{w.name}:warmup:{seed}"), 1, seen)
    if w.prepare is not None:
        for c in cases + warmup:
            c.op = w.prepare(bf, c)
    for c in warmup:
        try:
            w.operate(bf, c)
        except Exception:  # the timed loop counts failures; warming up only needs the calls
            pass
    return bf, cases


def timed_loop(bf, w, cases):
    outputs, latencies = [], []
    gc.collect()
    start = perf_counter_ns()
    for c in cases:
        t = perf_counter_ns()
        try:
            out = w.operate(bf, c)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = exc
        latencies.append(perf_counter_ns() - t)
        outputs.append(out)
    return outputs, latencies, perf_counter_ns() - start


def per_layer(tracer, scalar_counts: dict, ops: int) -> dict:
    totals = tracer.totals()
    metrics = {}
    for name, unit, kind, source in PER_LAYER:
        if kind == "calls":
            value = sum(totals.get(s, {}).get("calls", 0) for s in source) / ops
        elif kind == "self_ms":
            value = sum(totals.get(s, {}).get("self_ns", 0) for s in source) / 1e6 / ops
        elif kind == "count":
            value = tracer.counts[source] / ops
        elif kind == "repeat_ratio":
            calls = totals.get(source[0], {}).get("calls", 0)
            value = tracer.counts["expansion_repeats"] / calls if calls else 0.0
        elif kind == "max_degree":
            value = tracer.max_degree
        else:
            value = scalar_counts.get(source, 0) / ops
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def scalar_pass(args) -> dict:
    """Scalar counts over the same cases, in a fresh process like the timed run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--count-scalars"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--count-scalars", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "bfredholm" / "__init__.py").is_file():
        print(f"error: no bfredholm sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    w = WORKLOADS[args.workload]

    if args.count_scalars:
        from layertrace import count_scalars

        bf, cases = build(w, args.seed, args.seconds)
        counts, restore = count_scalars()
        timed_loop(bf, w, cases)
        restore()
        print(json.dumps(dict(counts)))
        return 0

    setup_s = None if args.trace else setup_seconds()
    t_build = perf_counter_ns()
    bf, cases = build(w, args.seed, args.seconds)
    build_s = (perf_counter_ns() - t_build) / 1e9
    probe_before = host_probe_ms()
    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    outputs, lat_ns, total_ns = timed_loop(bf, w, cases)
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # read before numpy loads
    probe_after = host_probe_ms()

    failures = [(c.text, repr(out)) for c, out in zip(cases, outputs) if isinstance(out, Exception)]
    t_check = perf_counter_ns()
    errors = []
    for c, out in zip(cases, outputs):
        if not isinstance(out, Exception):
            errors += w.check(c, out)
    check_s = (perf_counter_ns() - t_check) / 1e9
    attempted = len(cases)
    done_ms = [t / 1e6 for t, out in zip(lat_ns, outputs) if not isinstance(out, Exception)]
    info = {"workload": w.name, "seed": args.seed, "trace": args.trace, "timed_s": total_ns / 1e9,
            "build_s": build_s, "check_s": check_s,
            "probe_ms_before": probe_before, "probe_ms_after": probe_after}
    if args.trace:
        metrics = per_layer(tracer, scalar_pass(args), attempted)
    else:
        pct, tail_ms = tail(done_ms)
        info.update(tail_percentile=pct, tail_samples=len(done_ms), tail_samples_beyond=TAIL_BEYOND)
        metrics = {
            "ops_per_s": {"value": len(done_ms) / (total_ns / 1e9), "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(done_ms), "unit": "ms"},
            "latency_tail_ms": {"value": tail_ms, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    RESULTS.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    detail = dict(info, metrics=metrics, latencies_ms=[t / 1e6 for t in lat_ns],
                  shapes=[c.shape for c in cases], failures=failures, errors=errors[:50])
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if tracer is not None:
        tracer.write(RESULTS / f"trace-{w.name}-seed{args.seed}.json.gz")
    for e in errors[:10]:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
