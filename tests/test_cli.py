import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bfredholm
from bfredholm import suites
from bfredholm.cli import main
from bfredholm.errors import ExactError
from bfredholm.dsl import MAX_HEIGHT, pretty
from astgen import random_ast


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_index_shift(capsys):
    code, out, _ = run(capsys, "index", "T(z)")
    assert code == 0
    assert out.strip().startswith("-1")


def test_index_json(capsys):
    code, out, _ = run(capsys, "index", "T((z - 1/2)^2 / (z - 3))", "--format", "json")
    assert code == 0
    body = json.loads(out)
    assert body == {"index": -2, "route": "trace+winding"}


def test_analyze_json_schema(capsys):
    code, out, _ = run(capsys, "analyze", "T(z) (++) M[[0,1],[0,0]]", "--format", "json")
    assert code == 0
    body = json.loads(out)
    assert body["classification"] == "Fredholm"
    assert body["index_trace"] == body["index_winding"] == -1
    assert body["quotient_index"] == 2
    assert body["defects_in_ideal"] is True
    assert isinstance(body["pathway_notes"], list) and body["pathway_notes"]


def test_analyze_not_in_class_exit_2(capsys):
    code, out, _ = run(capsys, "analyze", "T(z - 1)")
    assert code == 2
    assert "NotInClass" in out


@pytest.mark.parametrize(
    "power, quotient, expected",
    [
        ("T((z^2 - 1/3)^-1)", "T(1/(z^2 - 1/3))", "index (winding route): 2"),
        ("T((z^2 - 1/3)^-2)", "T(1/(z^2 - 1/3)^2)", "index (winding route): 4"),
        ("T((z^2+1)^-1)", "T(1/(z^2+1))", "error: denominator 1 + z^2 vanishes on the unit circle"),
    ],
)
def test_a_negative_power_of_a_split_free_symbol_reads_as_its_quotient(capsys, power, quotient, expected):
    outputs = [run(capsys, "analyze", text, *fmt) for fmt in ((), ("--format", "json")) for text in (power, quotient)]
    assert outputs[0] == outputs[1] and outputs[2] == outputs[3]
    assert expected in outputs[0][1] + outputs[0][2]


def test_a_negative_power_of_zero_has_no_inverse(capsys):
    code, _, err = run(capsys, "analyze", "T(0^-1)")
    assert code == 2 and "the zero symbol has no inverse" in err


@pytest.mark.parametrize("text, index", [("T(4 + 1*z)", "0"), ("T(4 + z)", "0"), ("T(z - 1 - 2*z)", None)])
def test_real_literal_parts_are_added_as_terms(capsys, text, index):
    # 4 + 1*z is 4 + z, not 5*z; z - 1 - 2*z = -1 - z vanishes at z = -1
    code, out, _ = run(capsys, "index", text)
    if index is None:
        assert code == 2 and "no index: NotInClass" in out
    else:
        assert code == 0 and out.split()[0] == index


@pytest.mark.parametrize(
    "text, index",
    [("T((z-1)/(z-1))", 0), ("T((z^2+1)*(z-3)/((z^2+1)*(z-1/2)))", 1)],
)
def test_quotient_cancels_a_circle_factor(capsys, text, index):
    code, out, err = run(capsys, "index", text)
    assert code == 0, err
    assert out.strip() == f"{index}  (route: trace+winding)"


@pytest.mark.parametrize("text, den", [("T(1/(z-1))", "-1 + z"), ("T(z/(z^2+1))", "1 + z^2")])
def test_quotient_keeps_a_pole_on_the_circle(capsys, text, den):
    code, out, err = run(capsys, "index", text)
    assert code == 2 and out == ""
    assert err == f"error: denominator {den} vanishes on the unit circle\n"


def test_parse_error_exit_1(capsys):
    code, _, err = run(capsys, "analyze", "T(z")
    assert code == 1
    assert "parse error" in err


# every character of the grammar, two non-ASCII digits, a non-ASCII
# letter and a newline
_MUTATION_CHARS = "0123456789zTIFRMfingeo+-*/^()[]{},;| \u00b2\u0663\u00e9\n"


def _mutant(seed):
    """pretty(random_ast) with one character inserted, deleted or replaced."""
    rng = random.Random(seed)
    s = pretty(random_ast(rng))
    i = rng.randrange(len(s))
    edit = rng.choice(("insert", "delete", "replace"))
    if edit == "delete":
        return s[:i] + s[i + 1:]
    c = rng.choice(_MUTATION_CHARS)
    return s[:i] + c + s[i + (edit == "replace"):]


def test_no_mutated_input_ends_in_a_traceback(capsys):
    for seed in range(400):
        text = _mutant(seed)
        code = main(["index", text])
        capsys.readouterr()
        assert code in (0, 1, 2, 3), text


@pytest.mark.parametrize("text, char", [("T(z^\u00b2)", "\u00b2"), ("T(z^\u0663)", "\u0663")])
def test_non_ascii_digit_is_a_parse_error(capsys, text, char):
    code, out, err = run(capsys, "index", text)
    assert code == 1 and out == ""
    assert err == f"parse error: unexpected character {char!r} at 1:5\n"


def test_deep_nesting_is_a_parse_error(capsys):
    code, _, err = run(capsys, "index", "(" * 3000 + "T(z)" + ")" * 3000)
    assert code == 1
    assert "parse error" in err and "nested" in err


@pytest.mark.parametrize(
    "text",
    [pytest.param(" + ".join(["T(z)"] * 3000), id="operator-chain-3000"),
     pytest.param("T(" + " + ".join(["z"] * 3000) + ")", id="symbol-chain-3000")],
)
def test_long_chain_is_a_parse_error(capsys, text):
    code, _, err = run(capsys, "index", text)
    assert code == 1
    assert "parse error" in err and "levels high" in err


def test_chain_at_the_height_bound(capsys):
    # n terms of T(z) make a tree n + 1 levels high: n - 1 operators, T, z
    code, out, _ = run(capsys, "index", " + ".join(["T(z)"] * (MAX_HEIGHT - 1)))
    assert code == 0
    assert out.split()[0] == "-1"


def _fin(n):
    return "fin[" + ", ".join(["1"] * n) + "]"


# (budget, an input at the bound, the same input just past it)
BUDGETS = [
    ("MAX_LITERAL_DIGITS",
     ["index", "T(z - 1" + "0" * 999 + ")"], ["index", "T(z - 1" + "0" * 1000 + ")"]),
    ("MAX_EXPONENT", ["index", "T((1/2)^400 * z)"], ["index", "T((1/2)^401 * z)"]),
    ("MAX_SYMBOL_DEGREE", ["index", "T(z^200 * z^200)"], ["index", "T(z^200 * z^201)"]),
    ("MAX_SYMBOL_DEGREE", ["index", "T(z^-200) * T(z^-200)"], ["index", "T(z^-200) * T(z^-201)"]),
    ("MAX_SPLIT_DEGREE", ["index", "T((z - 1/2)^32)"], ["index", "T((z - 1/2)^33)"]),
    ("MAX_SPLIT_DEGREE",
     ["index", "T((z - 1/2)^16) * T(1/(z - 3)^16)"], ["index", "T((z - 1/2)^16) * T(1/(z - 3)^17)"]),
    ("MAX_SEQ_INDEX", ["index", "T(z) + FR{e500 | e0}"], ["index", "T(z) + FR{e501 | e0}"]),
    ("MAX_SEQ_INDEX",
     ["index", "T(z) + FR{e0 | " + _fin(501) + "}"], ["index", "T(z) + FR{e0 | " + _fin(502) + "}"]),
    ("MAX_GEO_DEGREE",
     ["index", "T(z) + FR{geo(1/2; 64) | e0}"], ["index", "T(z) + FR{geo(1/2; 65) | e0}"]),
    ("MAX_WINDOW",
     ["entries", "T(z)", "--rows", "200", "--cols", "1"],
     ["entries", "T(z)", "--rows", "1", "--cols", "201"]),
]


@pytest.mark.parametrize(
    "budget, at_bound, past_bound", BUDGETS, ids=[f"{b[0]}-{i}" for i, b in enumerate(BUDGETS)]
)
def test_input_budget(capsys, budget, at_bound, past_bound):
    code, out, err = run(capsys, *at_bound)
    assert code == 0, err
    code, out, err = run(capsys, *past_bound)
    assert code == 2 and out == ""
    assert "input budget" in err and budget in err


@pytest.mark.parametrize(
    "text",
    ["T(z^100000)", "T((z-1/2)^2000)", "T(z) + FR{e100000000 | e0}",
     "T(z) + FR{geo(1/2; 5000) | e0}", "T(z^2000 - 1/2)", "T((z-1/2)^100)"],
)
def test_unbounded_inputs_are_refused_at_once(capsys, text):
    start = time.monotonic()
    code, _, err = run(capsys, "index", text)
    assert code == 2 and "input budget" in err
    assert time.monotonic() - start < 2.0


def test_usage_error_exit_1(capsys):
    code, _, err = run(capsys, "analyze")
    assert code == 1


def test_unknown_suite_exit_1(capsys):
    code, _, _ = run(capsys, "verify", "--suite", "nope")
    assert code == 1


def test_entries_shift_product(capsys):
    # T(z) T(z^-1) = I - e0 (x) e0, displayed exactly
    code, out, _ = run(capsys, "entries", "T(z) * T(z^-1)", "--rows", "3", "--cols", "3")
    assert code == 0
    assert out.splitlines()[:3] == ["0,0,0", "0,1,0", "0,0,1"]


@pytest.mark.parametrize("rows, cols, want", [(2, 0, [[], []]), (0, 3, []), (2, 2, [["0", "0"], ["1", "0"]])])
def test_entries_json_window_shape(capsys, rows, cols, want):
    code, out, _ = run(capsys, "entries", "T(z)", "--rows", str(rows), "--cols", str(cols), "--format", "json")
    assert code == 0
    assert json.loads(out) == {"rows": want}


def test_index_of_a_16_factor_product(capsys):
    # a term-by-term product would carry 2^16 - 1 correction terms
    factor = "(T((z-1/2)/(z-3)) + FR{geo(1/2) | e0})"
    start = time.monotonic()
    code, out, err = run(capsys, "index", " * ".join([factor] * 16))
    assert code == 0, err
    assert out.split()[0] == "-16"
    assert time.monotonic() - start < 5.0


def test_entries_block_out_of_range(capsys):
    code, _, err = run(capsys, "entries", "T(z)", "--block", "5")
    assert code == 2
    assert "precondition" in err


@pytest.mark.parametrize("size", [["--rows", "-3"], ["--cols", "-1"]])
def test_entries_negative_size_exit_2(capsys, size):
    code, out, err = run(capsys, "entries", "T(z)", *size)
    assert code == 2
    assert out == "" and "negative" in err


def test_entries_missing_split_exit_2(capsys):
    # coefficients of (z-1)/(z-2) are unavailable without a circle split
    code, _, err = run(capsys, "entries", "T((z - 1) / (z - 2))")
    assert code == 2


def test_scan_csv(capsys):
    code, out, _ = run(
        capsys, "scan", "T(z - 1/2)", "--radii", "1/8", "--directions", "4"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,classification,index"
    assert len(lines) == 5
    assert all(line.endswith(",-1") for line in lines[1:])


def test_scan_empty_radii(capsys):
    code, out, _ = run(capsys, "scan", "T(z)", "--radii", "")
    assert code == 0
    assert out.strip() == "lambda,classification,index"


@pytest.mark.parametrize("argv", [
    ("T(z)", "--radii", "", "--directions=-3"),
    ("T(z - 1)", "--radii", ""),
], ids=["bad-directions", "not-in-class"])
def test_scan_empty_radii_still_checks(capsys, argv):
    # an empty grid still validates the directions and the base operator
    code, out, _ = run(capsys, "scan", *argv)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("radii", ["abc", "1/0"])
def test_scan_malformed_radius_exit_1(capsys, radii):
    code, out, err = run(capsys, "scan", "T(z - 1/2)", "--radii", radii)
    assert code == 1
    assert out == "" and "malformed radius" in err and radii in err


@pytest.mark.parametrize("suite", ["ideal", "welldefined"])
@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_trials_below_one(capsys, suite, trials):
    # no trial would run, so no check would back a pass
    code, out, err = run(capsys, "verify", "--suite", suite, "--trials", trials)
    assert code == 1
    assert out == "" and "--trials" in err and trials in err


@pytest.mark.parametrize("arg, value", [
    ("--directions=-3", "-3"),
    ("--directions=100", "100"),
    ("--radii=0", "0"),
])
def test_scan_out_of_range_exit_2(capsys, arg, value):
    code, out, err = run(capsys, "scan", "T(z - 1/2)", arg)
    assert code == 2
    assert out == "" and f" {value} " in err


def test_scan_json_stable_radius(capsys):
    code, out, _ = run(
        capsys, "scan", "T((z - 1/2)^2 / (z - 3))",
        "--radii", "1/8,1/16", "--format", "json",
    )
    assert code == 0
    body = json.loads(out)
    assert body["base_index"] == -2
    assert body["stable_radius"] == "1/16"
    assert len(body["samples"]) == 16
    # no floating point anywhere in the scalars
    assert all("." not in s["lambda"] for s in body["samples"])


def test_verify_suite_pass(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "loglaw")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith(("PASS", "FAIL")) for line in lines[:-1])
    assert lines[-1].endswith("cases passed")


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "fedosov", "--format", "json")
    assert code == 0
    body = json.loads(out)
    assert body["failed"] == 0
    assert body["passed"] == len(body["cases"]) > 0


def test_a_library_error_in_the_trace_axioms_is_a_failed_case(capsys, monkeypatch):
    def broken(F):
        raise ExactError("broken trace")

    monkeypatch.setattr(suites, "fr_trace", broken)
    code, out, _ = run(capsys, "verify", "--suite", "all")
    assert code == 3
    lines = out.strip().splitlines()
    axioms = [line for line in lines if "trace axiom" in line]
    # axiom 4 reads the trace through the engine, which is not patched
    assert axioms == [
        "FAIL  trace axiom 1: rank-one idempotents: broken trace",
        "FAIL  trace axioms 2-3: linearity: broken trace",
        "PASS  trace axiom 4: tau(FB) = tau(BF): 25 random pairs",
    ]
    assert any(line.startswith("PASS  fedosov: ") for line in lines)
    assert lines[-1] == f"{len(lines) - 3}/{len(lines) - 1} cases passed"


def test_demo_nonstability(capsys):
    code, out, _ = run(capsys, "demo", "nonstability")
    assert code == 0
    assert "0,NotInClass," in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "index", "T(z)", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["index"] == -1


def test_reader_closing_the_pipe_early_is_no_error():
    # 200 x 200 entries is far more than a pipe buffer holds, so the write
    # meets the closed pipe
    env = dict(os.environ, PYTHONPATH=str(Path(bfredholm.__file__).resolve().parent.parent))
    proc = subprocess.Popen(
        [sys.executable, "-m", "bfredholm.cli", "entries", "T((z-1/2)/(z-3))", "--rows", "200", "--cols", "200"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(100).startswith(b"1/6,0,0")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert b"Traceback" not in err and b"BrokenPipe" not in err, err.decode()
