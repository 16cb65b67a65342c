"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

All equalities are exact; the only tolerance appears in criterion 11,
where a floating-point contour integral pre-checks the integer winding
number to within 1e-3 before rounding.  Run with ``pytest -s`` to see
the per-criterion lines.
"""

import random
import time
from fractions import Fraction

from astgen import random_ast
from references import inverse
from bfredholm import cli
from bfredholm.dsl import parse, pretty
from bfredholm.finiterank import trace
from bfredholm.matrices import (
    drazin,
    jordan_nilpotent,
    matrix,
    rank,
    spectral_trace_check,
)
from bfredholm.operators import op_arith, toeplitz_operator
from bfredholm.poly import poly
from bfredholm.rootloc import count_zeros_in_disk
from bfredholm.scalars import gr
from bfredholm.suites import run_suite
from bfredholm.symbols import invert_symbol, make_symbol


def _suite_criterion(num: int, label: str, cases) -> None:
    failed = [(n, d) for n, ok, d in cases if not ok]
    status = "FAIL" if failed else "PASS"
    print(f"criterion {num:2d} {status}  {label}: {len(cases) - len(failed)}/{len(cases)} cases")
    assert not failed, failed


def _plain_criterion(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} {status}  {label}{': ' + detail if detail else ''}")
    assert ok, detail


def test_criterion_01_fedosov_trace_formula():
    start = time.monotonic()
    cases = run_suite("fedosov")
    elapsed = time.monotonic() - start
    _suite_criterion(1, "trace index = winding index on the corpus", cases)
    assert elapsed < 5.0, f"fedosov suite took {elapsed:.2f}s (budget 5s)"


def test_criterion_02_shift_commutator_trace():
    z = make_symbol(poly([0, 1]), poly([1]))
    S = toeplitz_operator(z)
    St = toeplitz_operator(invert_symbol(z))
    comm = op_arith(op_arith(S, St, "mul"), op_arith(St, S, "mul"), "sub")
    t = trace(comm.blocks[0].correction)
    _plain_criterion(2, "tau(S S* - S* S) = -1", t == gr(-1), f"trace = {t}")


def test_criterion_03_well_definedness():
    cases = run_suite("welldefined", trials=20)
    _suite_criterion(3, "index invariant under 20 witness perturbations", cases)


def test_criterion_04_punctured_neighborhood():
    start = time.monotonic()
    cases = run_suite("punctured")
    elapsed = time.monotonic() - start
    _suite_criterion(4, "punctured scans stabilize at the base index", cases)
    assert elapsed < 10.0, f"punctured suite took {elapsed:.2f}s (budget 10s)"


def test_criterion_05_log_law():
    cases = run_suite("loglaw")
    _suite_criterion(5, "Bezout log law and scalar invariance", cases)


def test_criterion_06_ideal_perturbation():
    cases = run_suite("ideal", trials=20)
    _suite_criterion(6, "i(a + j) = i(a) for 20 ideal elements each", cases)


def test_criterion_07_power_law():
    cases = run_suite("powerlaw")
    _suite_criterion(7, "i(a^p) = p i(a) for p = 2, 3, 4", cases)


def test_criterion_08_trace_axioms():
    cases = run_suite("traceaxioms")
    _suite_criterion(8, "trace axioms (idempotents, linearity, cyclicity)", cases)


def _random_invertible(rng, n):
    while True:
        A = matrix(
            [
                [
                    gr(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
        )
        if rank(A) == n:
            return A


def _block_diag(A, B):
    n, m = A.rows, B.rows
    rows = [[gr(0)] * (n + m) for _ in range(n + m)]
    for i in range(n):
        for j in range(n):
            rows[i][j] = A.at(i, j)
    for i in range(m):
        for j in range(m):
            rows[n + i][n + j] = B.at(i, j)
    return matrix(rows)


def test_criterion_09_matrix_drazin():
    rng = random.Random(9)
    bad = []
    for t in range(50):
        n = rng.randint(2, 8)
        nil = rng.randint(1, n - 1)
        core = _block_diag(
            _random_invertible(rng, n - nil), jordan_nilpotent(nil)
        )
        P = _random_invertible(rng, n)
        A = P * core * inverse(P)
        AD, k = drazin(A)
        ok = (
            k == nil
            and A * AD == AD * A
            and AD * A * AD == AD
            and A.power(k + 1) * AD == A.power(k)
            and spectral_trace_check(A)
        )
        if not ok:
            bad.append(t)
    _plain_criterion(
        9, "Drazin identities on 50 seeded matrices", not bad, f"failures: {bad}"
    )


def test_criterion_10_window_oracle():
    start = time.monotonic()
    cases = run_suite("windows")
    elapsed = time.monotonic() - start
    _suite_criterion(10, "100 expressions match the 32x32 window oracle", cases)
    assert elapsed < 30.0, f"window suite took {elapsed:.2f}s (budget 30s)"


def test_criterion_11_winding_oracle():
    cases = run_suite("windingoracle")
    _suite_criterion(11, "contour integral confirms 25 winding numbers", cases)


def test_criterion_12_cli_and_round_trip(capsys):
    ok = True
    detail = ""
    for seed in range(50):
        ast = random_ast(random.Random(seed))
        if parse(pretty(ast)) != ast:
            ok = False
            detail = f"round trip failed at seed {seed}"
            break
    if ok and cli.main(["verify", "--suite", "all", "--seed", "7"]) != 0:
        ok = False
        detail = "verify --suite all exited nonzero"
    if ok and cli.main(["analyze", "T(z - 1)"]) != 2:
        ok = False
        detail = "analyze T(z-1) did not exit 2"
    capsys.readouterr()  # swallow CLI output; keep the criterion line clean
    _plain_criterion(12, "50 AST round trips and CLI exit codes", ok, detail)


def test_budget_index_of_degree_400_symbol(capsys):
    # the trinomial reaches a nonzero constant in a few Schur-Cohn steps, so
    # no degree-400 Cayley image or Sturm chain is built
    for expr in ("T(z^400 - 1/2)", "T(z^400 - 5/6*z^200 + 1/6)"):
        start = time.monotonic()
        code = cli.main(["index", expr])
        elapsed = time.monotonic() - start
        out = capsys.readouterr().out
        assert code == 0 and out.split()[0] == "-400", out
        assert elapsed < 5.0, f"index of {expr} took {elapsed:.2f}s (budget 5s)"


def test_budget_index_of_a_self_inversive_symbol(capsys):
    # the first Schur-Cohn step is degenerate with q = 0; Cohn's rule
    # continues on the derivative instead of building a degree-400 Cayley
    # image
    start = time.monotonic()
    code = cli.main(["index", "T(z^400 - 5/2*z^200 + 1)"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 0 and out.split()[0] == "-200", out
    assert elapsed < 1.0, f"index of a self-inversive symbol took {elapsed:.2f}s (budget 1s)"


def test_budget_index_of_a_symbol_power(capsys):
    # f^20 of a split-free f is num^20/den^20 in one step, with no gcd and
    # no symbol formed per factor
    start = time.monotonic()
    code = cli.main(["index", "T(((z^3+z+5)/(z^2-3))^20)"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 0 and out.split()[0] == "0", out
    assert elapsed < 2.0, f"index of a symbol power took {elapsed:.2f}s (budget 2s)"


def test_budget_dense_degree_80_disk_count():
    rng = random.Random(3)
    p = poly([gr(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(81)])
    start = time.monotonic()
    inside = count_zeros_in_disk(p)
    elapsed = time.monotonic() - start
    # numpy's root moduli give 40 inside, none within 1e-4 of the circle
    assert inside == 40
    assert elapsed < 5.0, f"degree-80 disk count took {elapsed:.2f}s (budget 5s)"


def test_budget_scan_of_a_dense_degree_40_symbol(capsys):
    # each sample is one Schur-Cohn run on num - lambda*den; no symbol, and
    # so no degree-40 gcd of num - lambda*den with den, is formed per sample
    rng = random.Random(40)
    terms = [f"({rng.randint(-5, 5)}/{rng.randint(1, 4)} + {rng.randint(-5, 5)}/{rng.randint(1, 4)}*i)*z^{k}" for k in range(41)]
    expr = f"T(({' + '.join(terms)})/(z^40 + 1/7*z + 1/9))"
    start = time.monotonic()
    code = cli.main(["scan", expr])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 0 and len(out.split()) == 25, out
    assert elapsed < 5.0, f"scan of a dense degree-40 symbol took {elapsed:.2f}s (budget 5s)"
