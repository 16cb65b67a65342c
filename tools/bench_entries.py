"""Time exact entry reads and punctured scans, and the commands built on them.

Usage:

    python3 tools/bench_entries.py [--side LABEL=SRC ...] [--repeat N] [--out FILE]

Each ``--side`` names the ``src`` directory of a bfredholm checkout; by
default the one next to this script is timed, as ``this``.  Every
measurement runs in a fresh interpreter with ``PYTHONPATH`` set to that
directory, and the sides take turns, so two checkouts (a parent and a
change) are timed under the same load:

- ``op_entry_window_ms``: one n x n window of block 0 of ``PRODUCT``, read
  entry by entry with ``op_entry`` on a freshly evaluated operator, for
  n = 8, 16, 32 (in-process wall time, parse and evaluate not timed);
- ``verify_windows_s``: ``bfredholm verify --suite windows``;
- ``entries_200_s``: ``bfredholm entries PRODUCT --rows 200 --cols 200``,
  with the SHA-256 of its output so that outputs can be compared;
- ``scan_readme_s``: the README's ``bfredholm scan "T(z - 1/2)" --radii
  1/8,1/16 --format csv``;
- ``scan_dense40_s``: ``bfredholm scan DENSE_40``, a dense degree-40
  numerator over ``z^40 + 1/7*z + 1/9``, with its output's SHA-256;
- ``verify_punctured_s``: ``bfredholm verify --suite punctured``;
- ``cold_start_s``: ``import bfredholm.cli`` in a new interpreter.

All but the first include process start and follow one untimed run per side
that writes bytecode caches.  Each measurement is taken ``--repeat`` times
per side; the result keeps every sample and their median, as JSON on
standard output or in the ``--out`` file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

PRODUCT = (
    "(T((z-1/2)/(z-3)) + FR{geo(1/2) | fin[1,2,3]})"
    " * (T((z-2)/(z-1/3)) + FR{geo(1/3) | geo(-1/4)})"
)
WINDOW_SIDES = (8, 16, 32)


def _dense_40() -> str:
    """The symbol of the scan budget test in tests/test_acceptance.py."""
    rng = random.Random(40)
    terms = [f"({rng.randint(-5, 5)}/{rng.randint(1, 4)} + {rng.randint(-5, 5)}/{rng.randint(1, 4)}*i)*z^{k}" for k in range(41)]
    return f"T(({' + '.join(terms)})/(z^40 + 1/7*z + 1/9))"


DENSE_40 = _dense_40()

WINDOW_TIMER = """
import json, sys, time
from bfredholm.dsl import evaluate, parse
from bfredholm.operators import op_entry
text, sides = sys.argv[1], json.loads(sys.argv[2])
out = {}
for n in sides:
    for _ in range(2):  # the first read warms the interpreter up
        op = evaluate(parse(text))
        start = time.perf_counter()
        for i in range(n):
            for j in range(n):
                op_entry(op, 0, i, j)
        out[n] = (time.perf_counter() - start) * 1e3
print(json.dumps(out))
"""


def _run(src: Path, args: list[str]) -> tuple[float, bytes]:
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, check=True)
    return time.perf_counter() - start, done.stdout


def _summary(samples: list[float], digits: int) -> dict:
    return {"median": round(statistics.median(samples), digits), "samples": [round(x, digits) for x in samples]}


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


def measure(sides: dict[str, Path], repeat: int) -> dict:
    windows = {label: {} for label in sides}
    for _ in range(repeat):
        for label, src in sides.items():
            _, stdout = _run(src, ["-c", WINDOW_TIMER, PRODUCT, json.dumps(WINDOW_SIDES)])
            for n, ms in json.loads(stdout).items():
                windows[label].setdefault(f"n={n}", []).append(ms)
    cli = ["-m", "bfredholm.cli"]
    timed = {
        "verify_windows_s": _timed(sides, cli + ["verify", "--suite", "windows"], repeat),
        "entries_200_s": _timed(sides, cli + ["entries", PRODUCT, "--rows", "200", "--cols", "200"], repeat),
        "scan_readme_s": _timed(sides, cli + ["scan", "T(z - 1/2)", "--radii", "1/8,1/16", "--format", "csv"], repeat),
        "scan_dense40_s": _timed(sides, cli + ["scan", DENSE_40], repeat),
        "verify_punctured_s": _timed(sides, cli + ["verify", "--suite", "punctured"], repeat),
        "cold_start_s": _timed(sides, ["-c", "import bfredholm.cli"], repeat),
    }
    return {
        label: {
            "op_entry_window_ms": {n: _summary(ms, 3) for n, ms in windows[label].items()},
            **{name: result[label] for name, result in timed.items()},
        }
        for label in sides
    }


def _side(text: str) -> tuple[str, Path]:
    label, sep, src = text.partition("=")
    if not sep or not label:
        raise argparse.ArgumentTypeError(f"expected LABEL=SRC, got {text!r}")
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
        "repeat": args.repeat,
        "sides": measure(sides, args.repeat),
    }
    text = json.dumps(result, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
