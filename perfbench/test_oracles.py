"""Hand cases for the benchmark's oracles.

    python3 -m pytest perfbench -q
"""

import json
from fractions import Fraction
from pathlib import Path

from oracles import GQ, Seq, Sym, laurent_coeffs, window_of_product
from workloads import ScanInput, _expect_index, _float_class, _float_roots

Z = Sym(GQ(1), 1, (), ())
Z_INV = Sym(GQ(1), -1, (), ())
CORPUS = Sym(GQ(1), 0, ((GQ(Fraction(1, 2)), 2),), ((GQ(3), 1),))  # (z - 1/2)^2 / (z - 3)


def test_index_of_shift():
    assert _expect_index([("T", [Z])]) == ("Fredholm", -1, 0)


def test_index_of_corpus_symbol():
    assert _expect_index([("T", [CORPUS])]) == ("Fredholm", -2, 0)


def test_index_of_blocks():
    # T(z) T(z^-1) has winding 0; a zero-symbol block makes it B-Fredholm
    assert _expect_index([("T", [Z, Z_INV])]) == ("InvertibleModJ", 0, 0)
    assert _expect_index([("T", [Z]), ("Z",), ("M", 3)]) == ("BFredholm", -1, 3)


def test_window_of_shift_product_is_identity_minus_e0():
    n = 6
    w = window_of_product(Z, None, Z_INV, None, n)
    for i in range(n):
        for j in range(n):
            assert w[i][j] == GQ(int(i == j and i > 0))


def test_laurent_coefficients_on_both_sides():
    outer = laurent_coeffs(Sym(GQ(1), 0, (), ((GQ(3), 1),)), -2, 3)  # 1/(z - 3)
    assert [outer[e] for e in range(-2, 4)] == [GQ(0), GQ(0)] + [GQ(-Fraction(1, 3 ** (n + 1))) for n in range(4)]
    inner = laurent_coeffs(Sym(GQ(1), 0, (), ((GQ(Fraction(1, 2)), 1),)), -4, 1)  # 1/(z - 1/2)
    assert [inner[e] for e in range(-4, 2)] == [GQ(Fraction(1, 8)), GQ(Fraction(1, 4)), GQ(Fraction(1, 2)),
                                                GQ(1), GQ(0), GQ(0)]
    corpus = laurent_coeffs(CORPUS, -1, 1)  # (z - 1/2)^2 / (z - 3) = -1/12 + 11/36 z + ...
    assert [corpus[e] for e in (-1, 0, 1)] == [GQ(0), GQ(Fraction(-1, 12)), GQ(Fraction(11, 36))]


def test_window_with_finite_rank_terms():
    # (I + e0 (x) e1) * (I + geo(1/2) (x) e0) = I + e0 (x) e1 + geo(1/2) (x) e0 + (1/2) e0 (x) e0
    one = Sym(GQ(1), 0, (), ())
    geo = Seq("geo", ratio=GQ(Fraction(1, 2)))
    w = window_of_product(one, (Seq("e", degree=0), Seq("e", degree=1)), one, (geo, Seq("e", degree=0)), 4)
    want = [[GQ(int(i == j)) for j in range(4)] for i in range(4)]
    want[0][1] = want[0][1] + GQ(1)
    for i in range(4):
        want[i][0] = want[i][0] + GQ(Fraction(1, 2 ** i))
    want[0][0] = want[0][0] + GQ(Fraction(1, 2))
    assert w == want


def test_scan_oracle():
    shift = ScanInput((GQ(Fraction(-1, 2)), GQ(1)), 0, None)  # z - 1/2
    assert _float_class(shift, GQ(0)) == ("Fredholm", -1)
    assert _float_class(shift, GQ(Fraction(-1, 8))) == ("Fredholm", -1)
    assert _float_class(shift, GQ(Fraction(3, 4))) == ("InvertibleModJ", 0)  # z - 5/4
    hit = ScanInput((GQ(Fraction(-9, 8)), GQ(1)), 0, GQ(Fraction(-1, 8)))  # f(1) = -1/8
    assert _float_class(hit, GQ(Fraction(-1, 8))) is None  # on the circle: left to the construction


def test_float_roots():
    roots = _float_roots([1 + 0j, -2.5 + 0j, 1 + 0j])  # (z - 2)(z - 1/2)
    assert sorted(round(abs(r), 9) for r in roots) == [0.5, 2.0]


def test_benchmark_json_names_the_reported_layers():
    from run import PER_LAYER

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, _, _ in PER_LAYER]
