import ast
import itertools
import random
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

from bfredholm.dsl import evaluate, parse
from bfredholm.engine import analyze
from bfredholm.errors import IndexOutOfRange, MissingSplit, SignatureMismatch
from bfredholm.finiterank import FR_ZERO, fr_entry, fr_equal, fr_is_zero, make_finite_rank, outer, trace
from bfredholm import operators, scalars
from bfredholm.matrices import jordan_nilpotent, matrix
from bfredholm.operators import (
    BlockOperator,
    MatrixBlock,
    direct_sum,
    embed_finite_rank,
    hankel_defect,
    identity_like,
    matrix_operator,
    op_arith,
    op_entry,
    op_equal,
    op_power,
    op_scale,
    _toeplitz_mul,
    ToeplitzBlock,
    scalar_shift,
    toeplitz_apply,
    toeplitz_apply_transpose,
    toeplitz_operator,
)
from bfredholm.poly import poly
from bfredholm.scalars import gr
from bfredholm.sequences import RationalSequence, make_sequence, pairing, seq_basis, seq_finite, seq_geo
from bfredholm.symbols import (
    ZERO_SYMBOL,
    LaurentExpansion,
    fourier_coeff,
    invert_symbol,
    laurent_expansion,
    make_symbol,
    sym_arith,
    sym_pow,
    winding_number,
)
from references import (
    hankel_cross_reference,
    hankel_trace,
    product_correction_reference,
    product_needs_split_reference,
    quotient_equal,
    random_finite_rank,
    random_symbol,
)

Z = make_symbol(poly([0, 1]), poly([1]))
ZINV = invert_symbol(Z)
F1 = make_symbol(poly([gr(Fraction(-1, 2)), 1]), poly([1]))          # z - 1/2
F3 = sym_arith(sym_arith(F1, F1, "mul"),
               invert_symbol(make_symbol(poly([-3, 1]), poly([1]))), "mul")

HALF = gr(Fraction(1, 2))
TEST_VECTORS = [
    seq_finite([1, gr(0, Fraction(1, 2)), -2]),
    make_sequence([gr(3)], [(gr(Fraction(1, 3), Fraction(1, 5)), poly([1, 2]))]),
    make_sequence([], [(gr(Fraction(-2, 5)), poly([0, 0, 1])),
                       (gr(Fraction(1, 2)), poly([5]))]),
    seq_geo(HALF, 1),  # n (1/2)^n: its generating function has a double pole at 2
    seq_geo(HALF, 2),
    # a head longer than the degree of every symbol below, plus a tail
    seq_finite([1, 2, 0, -1, gr(0, 3), HALF, 4]) + make_sequence([], [(HALF, poly([1, 0, 2]))]),
]


def _column(E: LaurentExpansion, n: int):
    """Reference: column n of the Toeplitz matrix of E, i -> fhat(i - n)."""
    head = [E.neg.value(n - 1 - i) for i in range(n)]
    return E.pos.shift_up(n) + seq_finite(head)


def swap_expansion(e: LaurentExpansion) -> LaurentExpansion:
    """Reference: the expansion of f(1/z), coefficients reversed around 0."""
    pos = e.neg.shift_up(1) + seq_finite([e.pos.value(0)])
    neg = e.pos.drop(1)
    return LaurentExpansion(pos, neg)


def test_swap_reference_matches_fourier():
    S = swap_expansion(laurent_expansion(F3))
    for n in range(-6, 6):
        assert S.value(n) == fourier_coeff(F3, -n)


def test_shift_identity():
    # T(z) T(1/z) = I - e0 (x) e0, while T(1/z) T(z) = I
    prod = op_arith(toeplitz_operator(Z), toeplitz_operator(ZINV), "mul")
    b = prod.blocks[0]
    assert str(b.symbol.num) == "1" and b.symbol.shift == 0
    e0 = seq_basis(0)
    assert fr_equal(b.correction, outer(e0, e0).scale(gr(-1)))
    rev = op_arith(toeplitz_operator(ZINV), toeplitz_operator(Z), "mul")
    assert fr_is_zero(rev.blocks[0].correction)


@pytest.mark.parametrize("f", [Z, F1, F3], ids=["z", "z-1/2", "ratio"])
def test_commutator_trace_is_minus_winding(f):
    finv = invert_symbol(f)
    A, B = toeplitz_operator(f), toeplitz_operator(finv)
    comm = op_arith(op_arith(A, B, "mul"), op_arith(B, A, "mul"), "sub")
    assert trace(comm.blocks[0].correction) == gr(-winding_number(f))


@pytest.mark.parametrize(
    "f",
    [
        Z, ZINV, F1, F3, sym_arith(F3, ZINV, "mul"),
        invert_symbol(make_symbol(poly([-2, 1]), poly([1]))),
        invert_symbol(F1),
        make_symbol(poly([-2, 1]), poly([-3, 1])),
        sym_arith(F3, sym_pow(Z, 2), "mul"),
        sym_arith(F3, sym_pow(ZINV, 2), "mul"),
    ],
    # 1/(z-2) and 1/(z-1/2) share a pole with the tails at ratio 1/2 (after
    # z -> 1/z for the second); (z-2)/(z-3) and z-1/2 vanish there
    ids=["z", "1/z", "z-1/2", "ratio", "ratio/z", "1/(z-2)", "1/(z-1/2)",
         "(z-2)/(z-3)", "ratio*z^2", "ratio/z^2"],
)
def test_apply_matches_pairing_oracle(f):
    E = laurent_expansion(f)
    Es = swap_expansion(E)
    for x in TEST_VECTORS:
        y = toeplitz_apply(f, x)
        yt = toeplitz_apply_transpose(f, x)
        for i in range(10):
            assert y.value(i) == pairing(_column(Es, i), x), (f, i)
            assert yt.value(i) == pairing(_column(E, i), x), (f, i)


def test_apply_long_head():
    f = make_symbol(poly([-HALF, 1]), poly([-3, 1]))  # (z - 1/2)/(z - 3)
    start = time.perf_counter()
    y = toeplitz_apply(f, seq_basis(1000))
    assert time.perf_counter() - start < 2
    for i in (0, 999, 1000, 1001, 1500):
        assert y.value(i) == fourier_coeff(f, i - 1000)
    start = time.perf_counter()
    yt = toeplitz_apply_transpose(f, seq_finite([1] * 1000))
    assert time.perf_counter() - start < 2
    for j in (0, 998, 999, 1000, 1200):
        expected = gr(0)
        for n in range(1000):
            expected = expected + fourier_coeff(f, n - j)
        assert yt.value(j) == expected


@pytest.mark.parametrize(
    "f, g",
    [(Z, ZINV), (F1, F3), (F3, F1), (F3, invert_symbol(F1)), (ZINV, F3)],
)
def test_product_entries_match_pairing_oracle(f, g):
    P = op_arith(toeplitz_operator(f), toeplitz_operator(g), "mul")
    Ef_s = swap_expansion(laurent_expansion(f))
    Eg = laurent_expansion(g)
    for i in range(6):
        for j in range(6):
            assert op_entry(P, 0, i, j) == pairing(_column(Ef_s, i), _column(Eg, j))


def test_hankel_defect_float_check():
    from bfredholm.symbols import fourier_coeff

    g = invert_symbol(F1)
    H = hankel_defect(F3, g)
    for i in range(4):
        for j in range(4):
            approx = sum(
                fourier_coeff(F3, i + k).to_complex()
                * fourier_coeff(g, -k - j).to_complex()
                for k in range(1, 200)
            )
            assert abs(approx - fr_entry(H, i, j).to_complex()) < 1e-12


def test_hankel_defect_triple_poles_one_term_per_alpha():
    from bfredholm.symbols import fourier_coeff, sym_pow

    # a triple pole outside and one inside: both tails have degree-2
    # polynomials, so three shifted pieces on each side
    f = sym_pow(invert_symbol(make_symbol(poly([-3, 1]), poly([1]))), 3)
    g = sym_pow(invert_symbol(F1), 3)
    H = hankel_defect(f, g)
    assert len(H.terms) == 3
    for i in range(3):
        for j in range(3):
            approx = sum(
                fourier_coeff(f, i + k).to_complex() * fourier_coeff(g, -k - j).to_complex()
                for k in range(1, 120)
            )
            assert abs(approx - fr_entry(H, i, j).to_complex()) < 1e-12


def test_hankel_defect_matches_the_four_case_reference():
    rng = random.Random(17)
    for _ in range(300):
        f, g = random_symbol(rng), random_symbol(rng)
        H = hankel_defect(f, g)
        assert hankel_trace(f, g) == trace(H), (f, g)
        if f.is_zero() or g.is_zero():
            assert H.terms == ()
            continue
        ref = hankel_cross_reference(laurent_expansion(f).pos.drop(1), laurent_expansion(g).neg)
        assert fr_equal(H, ref), (f, g)
        assert len(H.terms) <= len(ref.terms), (f, g)


@pytest.mark.parametrize(
    "left, right",
    [
        # a long head against a pole of order 4, and the reverse
        ("T((z^2+z+3)^10)", "T(1/(z-1/2)^4)"),
        ("T(1/(z-3)^4)", "T((z^-2+z^-1+5)^10)"),
        # heads and tails on both sides
        ("T(z^12 * (z-1/3)/(z-3)^2)", "T(z^-8 * (z-3)/(z-1/2)^2)"),
    ],
)
def test_hankel_defect_with_long_heads_matches_the_reference(left, right):
    f = evaluate(parse(left)).blocks[0].symbol
    g = evaluate(parse(right)).blocks[0].symbol
    ref = hankel_cross_reference(laurent_expansion(f).pos.drop(1), laurent_expansion(g).neg)
    H = hankel_defect(f, g)
    assert fr_equal(H, ref)
    assert len(H.terms) <= len(ref.terms)


_TRACE_CASES = [
    # simple poles on both sides, and a double zero over an outer pole
    (F3, invert_symbol(F1)),
    (F1, F3),
    # triple poles outside and inside
    (sym_pow(invert_symbol(make_symbol(poly([-3, 1]), poly([1]))), 3), sym_pow(invert_symbol(F1), 3)),
    # shifts: z^-2 moves coefficients across 0, z^2 the other way
    (sym_arith(F3, sym_pow(ZINV, 2), "mul"), sym_arith(invert_symbol(F3), sym_pow(Z, 2), "mul")),
    (sym_arith(F3, sym_pow(Z, 2), "mul"), sym_arith(F3, sym_pow(ZINV, 3), "mul")),
    (Z, ZINV),
] + [
    (evaluate(parse(left)).blocks[0].symbol, evaluate(parse(right)).blocks[0].symbol)
    for left, right in [
        # long heads against poles of order 4, and heads and tails on both sides
        ("T((z^2+z+3)^10)", "T(1/(z-1/2)^4)"),
        ("T(1/(z-3)^4)", "T((z^-2+z^-1+5)^10)"),
        ("T(z^12 * (z-1/3)/(z-3)^2)", "T(z^-8 * (z-3)/(z-1/2)^2)"),
    ]
]


@pytest.mark.parametrize("f, g", _TRACE_CASES + [(g, f) for f, g in _TRACE_CASES])
def test_hankel_trace_is_the_trace_of_the_defect(f, g):
    assert hankel_trace(f, g) == trace(hankel_defect(f, g))


@pytest.mark.parametrize("f, g", _TRACE_CASES[:5])
def test_hankel_trace_float_check(f, g):
    approx = sum(n * fourier_coeff(f, n).to_complex() * fourier_coeff(g, -n).to_complex() for n in range(1, 200))
    assert abs(approx - hankel_trace(f, g).to_complex()) < 1e-9


@pytest.mark.parametrize(
    "f, g",
    [
        (ZERO_SYMBOL, F3),
        (F3, ZERO_SYMBOL),
        (ZINV, F3),  # fhat(n) = 0 for n >= 1
        (F3, Z),     # ghat(-n) = 0 for n >= 1
    ],
    ids=["f=0", "g=0", "no positive part", "no negative part"],
)
def test_hankel_trace_of_an_empty_defect_is_zero(f, g):
    assert hankel_defect(f, g).terms == ()
    assert hankel_trace(f, g) == gr(0)


def test_budget_long_head_times_a_high_order_pole():
    # H(f) applied to each of the 16 tail terms of H(g~): the head of length
    # 380 acts through one expansion per term, not 380 pairings
    start = time.perf_counter()
    P = evaluate(parse("T((z^2+z+3)^190) * T(1/(z-1/2)^16)"))
    assert time.perf_counter() - start < 5
    assert len(P.blocks[0].correction.terms) == 16


@pytest.mark.parametrize(
    "text, terms",
    [
        # H(z) has one term and H of the fifth-order pole five: the
        # product takes the shorter factor on the right
        ("T(z) * T(1/(z-1/2)^5)", 1),
        ("(T((z-1/2)/(z-3)) + FR{geo(1/2) | e0}) * T(z^-2 * (z-1/3))", 2),
    ],
)
def test_product_correction_term_counts(text, terms):
    assert len(evaluate(parse(text)).blocks[0].correction.terms) == terms


def test_block_operator_algebra():
    J = matrix_operator(jordan_nilpotent(3))
    A = direct_sum(toeplitz_operator(F1), J)
    assert A.signature() == ("T", ("M", 3))
    assert not op_power(A, 2).blocks[1].m.is_zero()
    assert op_power(A, 3).blocks[1].m.is_zero()
    S = scalar_shift(A, gr(Fraction(1, 2)))
    assert op_entry(S, 0, 0, 0) == op_entry(A, 0, 0, 0) - gr(Fraction(1, 2))
    assert op_equal(A, A)
    assert not op_equal(A, S)


def test_signature_mismatch_rejected():
    A = toeplitz_operator(Z)
    B = matrix_operator(matrix([[1]]))
    with pytest.raises(SignatureMismatch):
        op_arith(A, B, "add")


def test_missing_split_only_when_needed():
    # (z-1)/(z-2) has no split (circle zero in the numerator) and a
    # non-constant denominator, so its coefficients are unavailable;
    # adding is fine, multiplying (which needs coefficients) is not
    bad = toeplitz_operator(make_symbol(poly([-1, 1]), poly([-2, 1])))
    assert bad.blocks[0].symbol.split is None
    ok = op_arith(bad, toeplitz_operator(Z), "add")
    assert ok.blocks[0].symbol.shift == 0
    with pytest.raises(MissingSplit):
        op_arith(bad, toeplitz_operator(F1), "mul")
    # multiplying by a zero-symbol block never touches the coefficients
    zero = toeplitz_operator(make_symbol(poly([]), poly([1])))
    prod = op_arith(bad, zero, "mul")
    assert prod.blocks[0].symbol.is_zero()


def test_missing_split_raised_exactly_when_a_product_reads_coefficients():
    quartic = poly([1, 0, 0, 1, 1])  # z^4 + z^3 + 1
    symbols = [
        ZERO_SYMBOL,
        F3,  # split
        make_symbol(quartic, poly([1])),  # constant denominator
        make_symbol(quartic, poly([-3, 0, 1])),  # no split: roots +-sqrt(3)
    ]
    assert symbols[3].split is None
    corrections = [FR_ZERO, make_finite_rank([(seq_basis(1), seq_geo(HALF))])]
    cases = list(itertools.product(symbols, corrections, symbols, corrections))
    assert len(cases) == 64
    raised = 0
    for f, F, g, G in cases:
        expected = product_needs_split_reference(f, F, g, G)
        try:
            _toeplitz_mul(ToeplitzBlock(f, F), ToeplitzBlock(g, G))
        except MissingSplit:
            assert expected, (str(f), len(F.terms), str(g), len(G.terms))
            raised += 1
        else:
            assert not expected, (str(f), len(F.terms), str(g), len(G.terms))
    assert raised == 24


def test_scale_and_identity():
    A = toeplitz_operator(F1)
    twice = op_scale(A, gr(2))
    assert op_entry(twice, 0, 3, 1) == gr(2) * op_entry(A, 0, 3, 1)
    I = identity_like(A)
    assert op_equal(op_arith(I, A, "mul"), A)
    assert op_equal(op_arith(A, I, "mul"), A)


def test_quotient_equal_ignores_ideal():
    A = toeplitz_operator(F3)
    j = outer(seq_finite([1, 2]), seq_finite([0, gr(0, 1)]))
    B = op_arith(A, embed_finite_rank(A, j, 0), "add")
    assert not op_equal(A, B)
    assert quotient_equal(A, B)


@pytest.mark.parametrize("op", ["div", "pow", "", "Add"])
def test_op_arith_rejects_an_unknown_op(op):
    a = evaluate(parse("T((z-1/2)/(z-3)) + FR{e0 | e1} (++) M[[1,2],[3,4]]"))
    with pytest.raises(ValueError, match="unknown op"):
        op_arith(a, a, op)
    # also when no block would reach the op
    with pytest.raises(ValueError, match="unknown op"):
        op_arith(BlockOperator(()), BlockOperator(()), op)


@pytest.mark.parametrize("i, j", [(0, -1), (-1, 0), (-1, -1), (-2, 3)])
def test_negative_entry_index_raises_on_every_block_kind(i, j):
    # Python indexing would read head[-1] and fhat at the wrong index
    a = evaluate(parse("T((z-1/2)/(z-3)) + FR{fin[1,2] | geo(1/2)} (++) M[[1,2],[3,4]]"))
    for block in (0, 1):
        with pytest.raises(IndexOutOfRange):
            op_entry(a, block, i, j)
    with pytest.raises(IndexOutOfRange):
        fr_entry(a.blocks[0].correction, i, j)
    assert op_entry(a, 0, 0, 1) == fourier_coeff(a.blocks[0].symbol, -1) + gr(Fraction(1, 2))


@pytest.mark.parametrize("block", [-1, -2, 2])
def test_block_index_outside_the_sum_raises(block):
    a = evaluate(parse("T(z) (++) M[[7]]"))
    with pytest.raises(IndexOutOfRange):
        op_entry(a, block, 0, 0)


@pytest.mark.parametrize("block", [-1, 2])
def test_embed_finite_rank_outside_the_sum_raises(block):
    a = evaluate(parse("T(z) (++) T(z-1/2)"))
    with pytest.raises(IndexOutOfRange, match=f"^block {block} of 2$"):
        embed_finite_rank(a, outer(seq_basis(0), seq_basis(0)), block)
    assert embed_finite_rank(a, FR_ZERO, 1).signature() == a.signature()


def test_product_correction_matches_the_four_pieces():
    rng = random.Random(45)
    for _ in range(40):
        f, g = random_symbol(rng), random_symbol(rng)
        F = random_finite_rank(rng, rng.randint(0, 3))
        G = random_finite_rank(rng, rng.randint(0, 3))
        P = op_arith(toeplitz_operator(f, F), toeplitz_operator(g, G), "mul").blocks[0]
        assert P.symbol == sym_arith(f, g, "mul")
        corr = P.correction
        assert len(corr.terms) <= len(F.terms) + len(G.terms) + len(hankel_defect(f, g).terms)
        assert fr_equal(corr, product_correction_reference(f, F, g, G)), (f, g)


PFOLD_FACTOR = "(T((z-1/2)/(z-3)) + FR{geo(1/2) | e0})"


def test_p_fold_product_correction_grows_linearly():
    # term by term, the correction of p factors has 2^p - 1 outer products
    P = evaluate(parse(" * ".join([PFOLD_FACTOR] * 8)))
    assert len(P.blocks[0].correction.terms) <= 8
    start = time.perf_counter()
    report = analyze(evaluate(parse(" * ".join([PFOLD_FACTOR] * 16))))
    assert time.perf_counter() - start < 2
    assert report.index_trace == report.index_winding == -16


WINDOW_OPERATORS = [
    # corrections on both factors of a product
    "(T((z-1/2)/(z-3)) + FR{geo(1/2) | fin[1,2,3]}) * (T((z-2)/(z-1/3)) + FR{geo(1/3) | geo(-1/4)})",
    # a matrix block between two Toeplitz blocks
    "T(z-1/2) + FR{fin[1,0,2] | geo(1/3); e1 | fin[0,5]} (++) M[[1,2],[3,4]]"
    " (++) T((z-2)/(z-1/4)) + FR{geo(-1/2; 1) | e0}",
    # the zero symbol with a correction whose u vanishes at some rows
    "T(0) + FR{fin[0,1,0,2] | fin[3,0,i]; geo(1/3) | fin[0,0,7]}",
]


def _entry_reference(a, block, i, j):
    b = a.blocks[block]
    if isinstance(b, MatrixBlock):
        return b.m.at(i, j)
    return fourier_coeff(b.symbol, i - j) + fr_entry(b.correction, i, j)


def _window_orders(n, rng):
    row_major = [(i, j) for i in range(n) for j in range(n)]
    shuffled = list(row_major)
    rng.shuffle(shuffled)
    return [row_major, [(i, j) for j in range(n) for i in range(n)], row_major[::-1], shuffled]


def test_window_reads_match_fresh_entries_in_every_order():
    ops = [evaluate(parse(text)) for text in WINDOW_OPERATORS]
    rng = random.Random(46)
    n = 7
    for op in ops:
        for block, b in enumerate(op.blocks):
            size = b.m.rows if isinstance(b, MatrixBlock) else n
            for order in _window_orders(size, rng):
                for i, j in order:
                    assert op_entry(op, block, i, j) == _entry_reference(op, block, i, j), (block, i, j)
    # two operators, then two blocks of one operator, read in turn
    for (a, ba), (b, bb) in [((ops[0], 0), (ops[2], 0)), ((ops[1], 0), (ops[1], 2))]:
        for (i, j), (k, m) in zip(*_window_orders(n, rng)[2:]):
            assert op_entry(a, ba, i, j) == _entry_reference(a, ba, i, j), (ba, i, j)
            assert op_entry(b, bb, k, m) == _entry_reference(b, bb, k, m), (bb, k, m)


@pytest.mark.parametrize("i, j", [(0, -1), (-1, 0), (-1, -1), (-2, 3)])
def test_negative_entry_index_raises_after_the_block_was_read(i, j):
    a = evaluate(parse("T((z-1/2)/(z-3)) + FR{fin[1,2] | geo(1/2)} (++) M[[1,2],[3,4]]"))
    for block in (0, 1):
        op_entry(a, block, 0, 0)
        with pytest.raises(IndexOutOfRange):
            op_entry(a, block, i, j)
    op_entry(a, 0, 0, 0)
    with pytest.raises(IndexOutOfRange):
        op_entry(a, 0, i, j)
    assert op_entry(a, 0, 0, 1) == fourier_coeff(a.blocks[0].symbol, -1) + gr(Fraction(1, 2))


def test_reading_another_block_drops_the_last_one():
    a = evaluate(parse("T(z-1/2) + FR{geo(1/2) | e0} (++) T(z) + FR{e1 | e1}"))
    first, second = a.blocks
    unread = sys.getrefcount(first)
    op_entry(a, 0, 2, 1)
    assert operators._last_reads.block is first
    assert sys.getrefcount(first) == unread + 1
    op_entry(a, 1, 2, 1)
    assert operators._last_reads.block is second
    assert sys.getrefcount(first) == unread


def test_a_window_reads_each_row_column_and_diagonal_once(monkeypatch):
    op = evaluate(parse(WINDOW_OPERATORS[0]))
    block = op.blocks[0]
    terms = len(block.correction.terms)
    value_reads, coeff_reads = [], []
    value, coeff = RationalSequence.value, operators.fourier_coeff

    def recording_value(self, k):
        value_reads.append(k)
        return value(self, k)

    def recording_coeff(f, d):
        coeff_reads.append(d)
        return coeff(f, d)

    monkeypatch.setattr(RationalSequence, "value", recording_value)
    monkeypatch.setattr(operators, "fourier_coeff", recording_coeff)
    n = 12
    for i in range(n):
        for j in range(n):
            op_entry(op, 0, i, j)
    assert sorted(coeff_reads) == list(range(1 - n, n))
    # u_k(i) once per row, v_k(j) at most once per column, and one
    # expansion value per diagonal
    assert len(value_reads) <= 2 * n * terms + 2 * n - 1


def test_a_second_window_read_reduces_at_most_once_per_entry(monkeypatch):
    # every value is kept after the first read, so an entry is one dot
    # product and at most one gcd reduction
    ops = [evaluate(parse(text)) for text in WINDOW_OPERATORS]
    reductions = []
    reduced = scalars._reduced

    def counting_reduced(a, b, d):
        reductions.append(d)
        return reduced(a, b, d)

    n = 9
    for op in ops:
        for block, b in enumerate(op.blocks):
            if not isinstance(b, ToeplitzBlock):
                continue
            want = [[_entry_reference(op, block, i, j) for j in range(n)] for i in range(n)]
            assert [[op_entry(op, block, i, j) for j in range(n)] for i in range(n)] == want
            monkeypatch.setattr(scalars, "_reduced", counting_reduced)
            for i in range(n):
                for j in range(n):
                    reductions.clear()
                    got = op_entry(op, block, i, j)
                    assert len(reductions) <= 1, (block, i, j)
                    assert got == want[i][j], (block, i, j)
            monkeypatch.setattr(scalars, "_reduced", reduced)


def test_window_reads_from_many_threads_agree():
    ops = [evaluate(parse(text)) for text in WINDOW_OPERATORS]
    blocks = [(op, b) for op in ops for b, blk in enumerate(op.blocks) if isinstance(blk, ToeplitzBlock)]
    n = 6
    want = [[[_entry_reference(op, b, i, j) for j in range(n)] for i in range(n)] for op, b in blocks]
    errors = []

    def read(seed):
        rng = random.Random(seed)
        try:
            for _ in range(60):
                k = rng.randrange(len(blocks))
                op, b = blocks[k]
                for i, j in _window_orders(n, rng)[rng.randrange(4)]:
                    if op_entry(op, b, i, j) != want[k][i][j]:
                        errors.append((seed, k, i, j))
        except Exception as exc:  # reported below; a thread cannot fail the test itself
            errors.append((seed, repr(exc)))

    threads = [threading.Thread(target=read, args=(seed,)) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


MATRIX_FIRST = "M[[2,1],[0,0]] (++) T((z-1/2)/(z-3)) + FR{e0 | geo(1/3)} (++) T(0) + FR{e1 | e1}"


def _windows(op: BlockOperator, n: int = 3) -> str:
    """Each block's top-left window, n x n on a Toeplitz block and the whole
    matrix block, rows joined by '; ' and blocks by ' | '."""
    sizes = [n if kind == "T" else kind[1] for kind in op.signature()]
    return " | ".join(
        "; ".join(" ".join(scalars.format_scalar(op_entry(op, k, i, j)) for j in range(size)) for i in range(size))
        for k, size in enumerate(sizes)
    )


def test_an_operator_whose_matrix_block_comes_first():
    # the expected windows and report were read off before the block kinds
    # carried their own operations
    a = evaluate(parse(MATRIX_FIRST))
    assert a.signature() == (("M", 2), "T", "T")
    assert _windows(a) == "2 1; 0 0 | 7/6 1/3 1/9; -5/18 1/6 0; -5/54 -5/18 1/6 | 0 0 0; 0 1 0; 0 0 0"
    assert _windows(identity_like(a)) == "1 0; 0 1 | 1 0 0; 0 1 0; 0 0 1 | 1 0 0; 0 1 0; 0 0 1"
    assert _windows(op_scale(a, gr(Fraction(1, 2), 1))) == (
        "1+2i 1/2+i; 0 0 | 7/12+7/6i 1/6+1/3i 1/18+1/9i; -5/36-5/18i 1/12+1/6i 0; "
        "-5/108-5/54i -5/36-5/18i 1/12+1/6i | 0 0 0; 0 1/2+i 0; 0 0 0"
    )
    assert _windows(scalar_shift(a, gr(Fraction(1, 3)))) == (
        "5/3 1; 0 -1/3 | 5/6 1/3 1/9; -5/18 -1/6 0; -5/54 -5/18 -1/6 | -1/3 0 0; 0 2/3 0; 0 0 -1/3"
    )
    assert _windows(op_arith(a, a, "add")) == (
        "4 2; 0 0 | 7/3 2/3 2/9; -5/9 1/3 0; -5/27 -5/9 1/3 | 0 0 0; 0 2 0; 0 0 0"
    )
    assert _windows(op_arith(a, a, "sub")) == "0 0; 0 0 | 0 0 0; 0 0 0; 0 0 0 | 0 0 0; 0 0 0; 0 0 0"
    square = op_arith(a, a, "mul")
    assert _windows(square) == (
        "4 2; 0 0 | 181/144 59/144 59/432; -10/27 -7/108 -5/162; -5/108 -10/81 17/972 | 0 0 0; 0 1 0; 0 0 0"
    )
    assert op_equal(a, a) and not op_equal(a, square)
    assert op_equal(op_arith(a, a, "sub"), embed_finite_rank(a, FR_ZERO, 1))
    F = outer(seq_basis(2), seq_geo(gr(Fraction(1, 2))))
    embedded = embed_finite_rank(a, F, 1)
    assert embedded.signature() == a.signature()
    assert _windows(embedded) == "0 0; 0 0 | 0 0 0; 0 0 0; 1 1/2 1/4 | 0 0 0; 0 0 0; 0 0 0"
    with pytest.raises(SignatureMismatch, match="must target a Toeplitz block"):
        embed_finite_rank(a, F, 0)
    rep = analyze(a)
    assert (rep.classification, rep.index_trace, rep.index_winding, rep.quotient_index, rep.defects_in_ideal) == (
        "BFredholm", -1, -1, 1, True
    )


def test_no_library_module_asks_which_kind_a_block_is():
    # each block kind answers for itself; a new kind is one class, not an
    # edit wherever the package reads a block
    for path in sorted(Path(operators.__file__).parent.glob("*.py")):
        kind_tests = [
            n.lineno for n in ast.walk(ast.parse(path.read_text()))
            if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "isinstance"
            and {getattr(x, "id", None) for x in ast.walk(n.args[1])} & {"ToeplitzBlock", "MatrixBlock"}
        ]
        assert kind_tests == [], path.name
