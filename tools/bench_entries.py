"""Time exact entry reads, punctured scans, split-symbol analysis and the commands built on them.

Usage:

    python3 tools/bench_entries.py [--side LABEL=SRC ...] [--repeat N] [--out FILE]

Each ``--side`` names the ``src`` directory of a bfredholm checkout; by
default the one next to this script is timed, as ``this``.  Every
measurement runs in a fresh interpreter with ``PYTHONPATH`` set to that
directory, and the sides take turns, so two checkouts (a parent and a
change) are timed under the same load:

- ``op_entry_window_ms``: one n x n window of block 0 of ``PRODUCT``, read
  entry by entry with ``op_entry`` on a freshly evaluated operator, for
  n = 8, 16, 32 (in-process wall time, parse and evaluate not timed; the
  median of ``PASSES`` reads, each of a new operator);
- ``verify_windows_s``: ``bfredholm verify --suite windows``;
- ``entries_200_s``: ``bfredholm entries PRODUCT --rows 200 --cols 200``,
  with the SHA-256 of its output so that outputs can be compared;
- ``scan_readme_s``: the README's ``bfredholm scan "T(z - 1/2)" --radii
  1/8,1/16 --format csv``;
- ``scan_dense40_s``: ``bfredholm scan DENSE_40``, a dense degree-40
  numerator over ``z^40 + 1/7*z + 1/9``, with its output's SHA-256; its
  disk test holds, so no sample runs a Schur-Cohn loop;
- ``scan_dense40_miss_s``: ``bfredholm scan DENSE_40_MISS``, the worst case
  of the disk test: (z + 1)*q + 1/16 over the same denominator, with q
  dense of degree 39, has |f(1)| > 1/8 but |f(-1)| < 1/8, so the test
  runs to the end of its Schur-Cohn loop, fails, and every sample runs
  its own; with its output's SHA-256;
- ``verify_punctured_s``: ``bfredholm verify --suite punctured``;
- ``analyze_split_ms``: parse, evaluate and ``analyze`` of each operator of
  ``SPLIT_OPERATORS``, a fixed seeded list of products and sums of split
  symbols, in process; the mean per operator over one pass, as the median
  of ``PASSES`` passes after one that warms the interpreter up;
- ``layers``: from the same process, in-process time per call of
  ``from_roots`` (``from_roots_us``, on the roots of those operators'
  symbols), ``Polynomial(...)`` of three coefficients
  (``polynomial_us``), ``laurent_expansion`` of a fresh split symbol
  (``laurent_expansion_us``), ``op_entry`` per entry of a 16 x 16 window of
  ``PRODUCT`` that was read once before, so that only the entry sum is
  timed (``entry_sum_us``), ``parse`` and ``evaluate`` per text of
  ``SPLIT_OPERATORS`` (``parse_ms``, ``evaluate_ms``), and
  ``_drazin_witness`` and ``index_trace`` per operator
  (``drazin_witness_ms``, ``index_trace_ms``), each the median of
  ``PASSES`` passes over fresh ASTs and operators; the witness is the one
  ``analyze`` builds, with a zero block for each matrix block; also
  ``_drazin_witness`` per operator of ``MATRIX_OPERATORS``, a fixed seeded
  list of split symbols beside 2 x 2 and 3 x 3 nilpotent, invertible and
  mixed matrix blocks (``drazin_witness_matrix_ms``), and ``drazin`` per
  call on those blocks (``drazin_us``);
- ``index_split16_s``: ``bfredholm index "T((z-1/2)^16/(z-3)^16)"``;
- ``index_power20_s``: ``bfredholm index POWER_20``, the 20th power of a
  symbol with no circle split;
- ``verify_all_s``: ``bfredholm verify --suite all``, with its output's
  SHA-256;
- ``cold_start_s``: ``import bfredholm.cli`` in a new interpreter;
- ``budget_trace_ms``: ``index_trace`` alone on each of ``BUDGET_TRACE``,
  inputs with poles and zeros of order 4 to 16, as the best of
  ``PASSES`` calls on fresh operators (in process);
- ``ab``, with two or more sides: each side's ``bfredholm`` is copied
  under its own package name, and one interpreter imports them all and
  takes ``AB_ROUNDS`` rounds over the cases of 25-second perfbench
  index-mix and punctured-scan runs, for each of ``AB_SEEDS``, the sides
  taking turns in alternating order.  A round times the trace stage
  (``index_trace`` on fresh operators, their witnesses built untimed) and
  the whole op (parse, evaluate and ``analyze``) per index-mix text, and
  ``punctured_scan`` at the workload's radii per punctured-scan case
  (``scan_ms``, operators evaluated untimed).  The runner stops before
  timing if the sides' outputs differ on the warm-up pass, and after any
  round where they differ.  Each side's ratio to the first side is taken
  per round, and their median is reported.

``op_entry_window_ms``, ``analyze_split_ms`` and ``layers`` are in-process;
the other timings include process start and follow one untimed run per side
that writes bytecode caches.  Each in-process sample also carries its ratio
to ``reference_ms``, a fixed stdlib loop (``Fraction`` products and sums)
timed in the same process, one pass after each measured pass, as the median
of those passes.  A slow host slows both, so the ratios spread less across
processes than the times.  Each measurement is taken ``--repeat`` times
per side; the result keeps every sample and their median (and every ratio
and theirs), as JSON on standard output or in the ``--out`` file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PRODUCT = (
    "(T((z-1/2)/(z-3)) + FR{geo(1/2) | fin[1,2,3]})"
    " * (T((z-2)/(z-1/3)) + FR{geo(1/3) | geo(-1/4)})"
)
WINDOW_SIDES = (8, 16, 32)
PASSES = 5  # in-process passes per sample; a sample is their median


def _dense_40() -> str:
    """The symbol of the scan budget test in tests/test_acceptance.py."""
    rng = random.Random(40)
    terms = [f"({rng.randint(-5, 5)}/{rng.randint(1, 4)} + {rng.randint(-5, 5)}/{rng.randint(1, 4)}*i)*z^{k}" for k in range(41)]
    return f"T(({' + '.join(terms)})/(z^40 + 1/7*z + 1/9))"


DENSE_40 = _dense_40()


def _dense_40_miss() -> str:
    """(z + 1)*q + 1/16 over DENSE_40's denominator, q dense of degree 39."""
    rng = random.Random(45)
    terms = [f"({rng.randint(-5, 5)}/{rng.randint(1, 4)} + {rng.randint(-5, 5)}/{rng.randint(1, 4)}*i)*z^{k}" for k in range(40)]
    return f"T(((z + 1)*({' + '.join(terms)}) + 1/16)/(z^40 + 1/7*z + 1/9))"


DENSE_40_MISS = _dense_40_miss()


def _split_operators() -> list[str]:
    """Products, sums and powers of symbols with simple zeros and poles on
    both sides of the circle, some with a finite-rank part or a matrix block."""
    rng = random.Random(19)

    def root() -> str:
        while True:
            d = rng.randint(2, 4)
            x, y = rng.randint(-3 * d, 3 * d), rng.choice((0, rng.randint(-2 * d, 2 * d)))
            if x * x + y * y != d * d:  # off the circle
                return f"({x}/{d}{y:+}/{d}i)"

    def sym(zeros: int, poles: int) -> str:
        num = "*".join(f"(z-{root()})" for _ in range(zeros))
        den = "*".join(f"(z-{root()})" for _ in range(poles))
        return f"({num}/({den}))"

    ops = []
    for k in range(24):
        f, g = sym(1, 1), sym(2, 1)
        ops.append([
            f"T{f} * T{g}",
            f"(T{f} + FR{{geo(1/2) | fin[1,-1/3i]}}) * T{g}",
            f"T({g}^2 * {f})",
            f"T{f} * T{g} (++) M[[0,1],[0,0]]",
        ][k % 4])
    return ops


SPLIT_OPERATORS = _split_operators()


def _matrix_operators() -> list[str]:
    """A split symbol beside a matrix block: nilpotent, invertible or mixed
    (an invertible part coupled to a nilpotent one), 2 x 2 and 3 x 3."""
    rng = random.Random(21)

    def q(nonzero: bool = False) -> str:
        while True:
            x = f"{rng.randint(-3, 3)}/{rng.randint(1, 3)}"
            if not nonzero or not x.startswith("0"):
                return x

    def mat(rows) -> str:
        return "M[" + ", ".join("[" + ", ".join(rows[i]) + "]" for i in range(len(rows))) + "]"

    blocks = [
        lambda: mat([["0", q(True)], ["0", "0"]]),
        lambda: mat([["0", q(True), q()], ["0", "0", q(True)], ["0", "0", "0"]]),
        lambda: mat([[q(True), q()], ["0", q(True)]]),
        lambda: mat([[q(True), q(), q()], ["0", q(True), q()], ["0", "0", q(True)]]),
        lambda: mat([[q(True), q()], ["0", "0"]]),
        lambda: mat([[q(True), q(), q()], ["0", "0", q(True)], ["0", "0", "0"]]),
    ]
    def root() -> str:
        while True:
            d = rng.randint(2, 4)
            x = rng.randint(-3 * d, 3 * d)
            if abs(x) != d:  # off the circle
                return f"({x}/{d})"

    return [
        f"T((z-{root()})*(z-{root()})/(z-{root()})) (++) {blocks[k % len(blocks)]()}"
        for k in range(24)
    ]


MATRIX_OPERATORS = _matrix_operators()
SPLIT16 = "T((z-1/2)^16/(z-3)^16)"
BUDGET_TRACE = (
    "T((z-1/2)^16/(z-1/3)^16)",
    SPLIT16,
    "T(z^-5 * (z-1/2)^10 * (z-(1/3+1/4i))^6 / ((z-3)^8 * (z-1/5)^8))",
    "T((z-1/2)^4*(z-2)^4/((z-1/3)^4*(z-3)^4)) * T((z-(1/4i))^4/(z-5)^4)",
)
AB_SEEDS = (1, 47)  # 47 was not used while the residue pairing was written
AB_ROUNDS = 10
POWER_20 = "T(((z^3+z+5)/(z^2-3))^20)"

REFERENCE = """
from fractions import Fraction
reference = []

def reference_pass():
    \"\"\"One pass of the fixed stdlib loop, kept in ``reference``.\"\"\"
    start = time.perf_counter()
    for k in range(1000):
        Fraction(k % 97 - 48, k % 89 + 1) * Fraction(k % 13 + 1, k % 7 + 1) + Fraction(k, 360)
    reference.append((time.perf_counter() - start) * 1e3)
"""

WITNESS = """
def witness_of(engine):
    \"\"\"engine._drazin_witness as analyze calls it.  Checkouts from before
    matrix_mode was retired take matrix_mode="zero" for that.\"\"\"
    build = engine._drazin_witness
    return build if build.__code__.co_argcount == 1 else lambda a: build(a, "zero")
"""

SPLIT_TIMER = """
import json, statistics, sys, time
""" + REFERENCE + WITNESS + """
from bfredholm import engine
from bfredholm.dsl import evaluate, parse
from bfredholm.engine import analyze, index_trace
from bfredholm.matrices import drazin
from bfredholm.operators import MatrixBlock, ToeplitzBlock, op_entry
from bfredholm.poly import Polynomial, from_roots
from bfredholm.scalars import ONE, gr
from bfredholm.symbols import laurent_expansion, make_factored
texts, passes, budget = json.loads(sys.argv[1]), int(sys.argv[4]), json.loads(sys.argv[5])
drazin_witness = witness_of(engine)
analyze_ms = []
for _ in range(passes + 1):  # the first pass warms the interpreter up
    start = time.perf_counter()
    for t in texts:
        analyze(evaluate(parse(t)))
    analyze_ms.append((time.perf_counter() - start) * 1e3 / len(texts))
    reference_pass()
ops = [evaluate(parse(t)) for t in texts]
symbols = [b.symbol for a in ops for b in a.blocks if isinstance(b, ToeplitzBlock) and b.symbol.split]
splits = [f.split for f in symbols]
roots = [(f.num.leading(), f.split.zeros) for f in symbols] + [(ONE, s.poles) for s in splits]

def per_call(fn, args, reps):
    start = time.perf_counter()
    for _ in range(reps):
        for a in args:
            fn(*a)
    return (time.perf_counter() - start) / (reps * len(args))

parse_ms, evaluate_ms = [], []
for _ in range(passes):
    start = time.perf_counter()
    asts = [parse(t) for t in texts]
    mid = time.perf_counter()
    for a in asts:
        evaluate(a)
    parse_ms.append((mid - start) * 1e3 / len(texts))
    evaluate_ms.append((time.perf_counter() - mid) * 1e3 / len(texts))
    reference_pass()
witness_ms, trace_ms = [], []
for _ in range(passes):
    witness_s = trace_s = 0.0
    for a in [evaluate(parse(t)) for t in texts]:
        start = time.perf_counter()
        w = drazin_witness(a)
        mid = time.perf_counter()
        index_trace(a, w)
        witness_s += mid - start
        trace_s += time.perf_counter() - mid
    witness_ms.append(witness_s * 1e3 / len(texts))
    trace_ms.append(trace_s * 1e3 / len(texts))
    reference_pass()
matrix_ops = [evaluate(parse(t)) for t in json.loads(sys.argv[2])]
witness_args = [(a,) for a in matrix_ops]
per_call(drazin_witness, witness_args, 1)  # warms the interpreter up
matrices = [(b.m,) for a in matrix_ops for b in a.blocks if isinstance(b, MatrixBlock)]
coeffs = (gr(1, 2), gr(3), gr(0, -1))
fresh = [(make_factored(gr(2), 0, s.zeros, s.poles),) for s in splits * 20]
product = evaluate(parse(sys.argv[3]))
window = [(product, 0, i, j) for i in range(16) for j in range(16)]
per_call(op_entry, window, 1)  # the first read keeps every value the entries need

def best_trace_ms(text):
    best = None
    for _ in range(passes):
        a = evaluate(parse(text))
        w = drazin_witness(a)
        start = time.perf_counter()
        index_trace(a, w)
        ms = (time.perf_counter() - start) * 1e3
        best = ms if best is None else min(best, ms)
    return best

print(json.dumps({
    "budget_trace_ms": {text: best_trace_ms(text) for text in budget},
    "reference_ms": statistics.median(reference[1:]),
    "analyze_split_ms": statistics.median(analyze_ms[1:]),
    "layers": {
        "from_roots_us": per_call(from_roots, roots, 50) * 1e6,
        "polynomial_us": per_call(Polynomial, [(coeffs,)] * 1000, 100) * 1e6,
        "laurent_expansion_us": per_call(laurent_expansion, fresh, 1) * 1e6,
        "entry_sum_us": per_call(op_entry, window, 20) * 1e6,
        "parse_ms": statistics.median(parse_ms),
        "evaluate_ms": statistics.median(evaluate_ms),
        "drazin_witness_ms": statistics.median(witness_ms),
        "index_trace_ms": statistics.median(trace_ms),
        "drazin_witness_matrix_ms": per_call(drazin_witness, witness_args, 5) * 1e3,
        "drazin_us": per_call(drazin, matrices, 20) * 1e6,
    },
}))
"""

AB_TIMER = """
import importlib, json, random, statistics, sys, time
""" + WITNESS + """
from workloads import DIRECTIONS, INDEX_MIX, PUNCTURED_SCAN, RADII, make_cases
labels, seed, rounds = json.loads(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])

def texts_of(w):
    return [c.text for c in make_cases(w, random.Random(f"{w.name}:{seed}"), round(25 * w.rounds_per_second), set())]

texts, scan_texts = texts_of(INDEX_MIX), texts_of(PUNCTURED_SCAN)
sides = {label: (importlib.import_module(f"bf_{label}"), importlib.import_module(f"bf_{label}.engine"))
         for label in labels}

def trace_stage(bf, engine):
    ops = [bf.evaluate(bf.parse(t)) for t in texts]
    witnesses = list(map(witness_of(engine), ops))
    start = time.perf_counter()
    out = [engine.index_trace(a, w) for a, w in zip(ops, witnesses)]
    return (time.perf_counter() - start) * 1e3 / len(texts), out

def whole_op(bf, engine):
    start = time.perf_counter()
    out = [repr(bf.analyze(bf.evaluate(bf.parse(t)))) for t in texts]
    return (time.perf_counter() - start) * 1e3 / len(texts), out

def scan(bf, engine):
    ops = [bf.evaluate(bf.parse(t)) for t in scan_texts]
    start = time.perf_counter()
    out = [repr(bf.punctured_scan(a, list(RADII), len(DIRECTIONS))) for a in ops]
    return (time.perf_counter() - start) * 1e3 / len(scan_texts), out

units = {"trace_stage_ms": trace_stage, "whole_op_ms": whole_op, "scan_ms": scan}
for name, unit in units.items():  # warms the interpreter up, and times no side whose outputs differ
    if len({repr(unit(bf, engine)[1]) for bf, engine in sides.values()}) > 1:
        sys.exit(f"the sides' outputs differ in {name} on seed {seed}")
times = {name: {label: [] for label in labels} for name in units}
for r in range(rounds):
    outputs = {}
    for label in (labels if r % 2 == 0 else labels[::-1]):
        for name, unit in units.items():
            ms, out = unit(*sides[label])
            times[name][label].append(ms)
            outputs.setdefault(name, []).append(out)
    if any(out != outs[0] for outs in outputs.values() for out in outs):
        sys.exit(f"the sides' outputs differ on seed {seed}")
print(json.dumps(times))
"""

WINDOW_TIMER = """
import json, statistics, sys, time
""" + REFERENCE + """
from bfredholm.dsl import evaluate, parse
from bfredholm.operators import op_entry
text, sides, passes = sys.argv[1], json.loads(sys.argv[2]), int(sys.argv[3])
out = {}
for n in sides:
    ms = []
    for _ in range(passes + 1):  # the first read warms the interpreter up
        op = evaluate(parse(text))
        start = time.perf_counter()
        for i in range(n):
            for j in range(n):
                op_entry(op, 0, i, j)
        ms.append((time.perf_counter() - start) * 1e3)
        reference_pass()
    out[n] = statistics.median(ms[1:])
out["reference_ms"] = statistics.median(reference[1:])
print(json.dumps(out))
"""


def _run(src: Path, args: list[str]) -> tuple[float, bytes]:
    # without PYTHONDONTWRITEBYTECODE the untimed first run per side writes
    # the bytecode caches, so no timed start-up includes compiling
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, check=True)
    return time.perf_counter() - start, done.stdout


def _summary(samples: list[float], digits: int) -> dict:
    return {"median": round(statistics.median(samples), digits), "samples": [round(x, digits) for x in samples]}


def _in_process(samples: list[tuple[float, float]]) -> dict:
    """_summary of in-process (value, reference_ms) samples, with each value's
    ratio to the reference loop of its own process."""
    ratios = _summary([value / ref for value, ref in samples], 4)
    return {**_summary([value for value, _ in samples], 3),
            "ratio_median": ratios["median"], "ratios": ratios["samples"]}


def _timed(sides: dict[str, Path], args: list[str], repeat: int) -> dict:
    """Wall time of one command per side, the sides taking turns."""
    samples = {label: [] for label in sides}
    outputs = {label: set() for label in sides}
    for label, src in sides.items():
        _run(src, args)
    for _ in range(repeat):
        for label, src in sides.items():
            seconds, stdout = _run(src, args)
            samples[label].append(seconds)
            outputs[label].add(hashlib.sha256(stdout).hexdigest())
    out = {}
    for label in sides:
        out[label] = _summary(samples[label], 4)
        if len(outputs[label]) == 1:
            out[label]["stdout_sha256"] = outputs[label].pop()
    return out


def in_process_ab(sides: dict[str, Path]) -> dict:
    """The trace stage and the whole index-mix op, and the punctured scan,
    of every side in one interpreter, each side's bfredholm imported as
    bf_<label>."""
    root = Path(__file__).resolve().parent.parent
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for label, src in sides.items():
            shutil.copytree(src / "bfredholm", Path(tmp) / f"bf_{label}", ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([tmp, str(root / "perfbench")]))
        for seed in AB_SEEDS:
            done = subprocess.run([sys.executable, "-c", AB_TIMER, json.dumps(list(sides)), str(seed), str(AB_ROUNDS)],
                                  env=env, capture_output=True, text=True, check=True)
            times, first = json.loads(done.stdout), next(iter(sides))
            out[f"seed {seed}"] = {
                name: {
                    label: {**_summary(ms, 4), "ratio": _summary([b / a for a, b in zip(per[first], ms)], 3)}
                    for label, ms in per.items()
                }
                for name, per in times.items()
            }
    return out


def measure(sides: dict[str, Path], repeat: int) -> dict:
    windows = {label: {} for label in sides}
    split = {label: {} for label in sides}
    for _ in range(repeat):
        for label, src in sides.items():
            _, stdout = _run(src, ["-c", WINDOW_TIMER, PRODUCT, json.dumps(WINDOW_SIDES), str(PASSES)])
            out = json.loads(stdout)
            ref = out.pop("reference_ms")
            for n, ms in out.items():
                windows[label].setdefault(f"n={n}", []).append((ms, ref))
            _, stdout = _run(src, ["-c", SPLIT_TIMER, json.dumps(SPLIT_OPERATORS), json.dumps(MATRIX_OPERATORS),
                                   PRODUCT, str(PASSES), json.dumps(BUDGET_TRACE)])
            out = json.loads(stdout)
            ref = out["reference_ms"]
            for text, ms in out["budget_trace_ms"].items():
                split[label].setdefault("budget_trace_ms", {}).setdefault(text, []).append(ms)
            split[label].setdefault("reference_ms", []).append(ref)
            split[label].setdefault("analyze_split_ms", []).append((out["analyze_split_ms"], ref))
            for name, value in out["layers"].items():
                split[label].setdefault(name, []).append((value, ref))
    cli = ["-m", "bfredholm.cli"]
    timed = {
        "verify_windows_s": _timed(sides, cli + ["verify", "--suite", "windows"], repeat),
        "entries_200_s": _timed(sides, cli + ["entries", PRODUCT, "--rows", "200", "--cols", "200"], repeat),
        "scan_readme_s": _timed(sides, cli + ["scan", "T(z - 1/2)", "--radii", "1/8,1/16", "--format", "csv"], repeat),
        "scan_dense40_s": _timed(sides, cli + ["scan", DENSE_40], repeat),
        "scan_dense40_miss_s": _timed(sides, cli + ["scan", DENSE_40_MISS], repeat),
        "verify_punctured_s": _timed(sides, cli + ["verify", "--suite", "punctured"], repeat),
        "index_split16_s": _timed(sides, cli + ["index", SPLIT16], repeat),
        "index_power20_s": _timed(sides, cli + ["index", POWER_20], repeat),
        "verify_all_s": _timed(sides, cli + ["verify", "--suite", "all"], repeat),
        "cold_start_s": _timed(sides, ["-c", "import bfredholm.cli"], repeat),
    }
    return {
        label: {
            "reference_ms": _summary(split[label].pop("reference_ms"), 3),
            "op_entry_window_ms": {n: _in_process(ms) for n, ms in windows[label].items()},
            "analyze_split_ms": _in_process(split[label].pop("analyze_split_ms")),
            "budget_trace_ms": {text: _summary(ms, 3) for text, ms in split[label].pop("budget_trace_ms").items()},
            "layers": {name: _in_process(values) for name, values in split[label].items()},
            **{name: result[label] for name, result in timed.items()},
        }
        for label in sides
    }


def _side(text: str) -> tuple[str, Path]:
    label, sep, src = text.partition("=")
    if not sep or not label.isidentifier():
        raise argparse.ArgumentTypeError(f"expected LABEL=SRC with LABEL a Python name, got {text!r}")
    return label, Path(src).resolve()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", type=_side, action="append", metavar="LABEL=SRC")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error(f"--repeat must be at least 1, got {args.repeat}")
    sides = dict(args.side or [("this", Path(__file__).resolve().parent.parent / "src")])
    result = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "product": PRODUCT,
        "dense_40": DENSE_40,
        "dense_40_miss": DENSE_40_MISS,
        "split_operators": SPLIT_OPERATORS,
        "matrix_operators": MATRIX_OPERATORS,
        "power_20": POWER_20,
        "budget_trace": BUDGET_TRACE,
        "repeat": args.repeat,
        "passes": PASSES,
        "sides": measure(sides, args.repeat),
    }
    if len(sides) > 1:
        result["ab"] = in_process_ab(sides)
    text = json.dumps(result, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
