import cmath
import random
from fractions import Fraction

import pytest

from bfredholm import symbols
from bfredholm.dsl import evaluate, parse
from bfredholm.errors import FactorOnCircle, MissingSplit, ZeroOnCircle, ZeroSymbol
from bfredholm.finiterank import make_finite_rank
from bfredholm.operators import op_arith, op_entry, toeplitz_operator
from bfredholm.poly import poly
from bfredholm.scalars import gr
from bfredholm.sequences import seq_basis, seq_geo
from bfredholm.symbols import (
    ZERO_SYMBOL,
    fourier_coeff,
    invert_symbol,
    laurent_expansion,
    make_factored,
    make_symbol,
    sym_arith,
    sym_pow,
    sym_scale,
    widom_pairings,
    winding_number,
)
from references import hankel_trace, random_symbol, sym_pow_reference

Z = make_symbol(poly([0, 1]), poly([1]))
F1 = make_symbol(poly([gr(Fraction(-1, 2)), 1]), poly([1]))          # z - 1/2
F3 = sym_arith(sym_arith(F1, F1, "mul"),
               invert_symbol(make_symbol(poly([-3, 1]), poly([1]))), "mul")


def _eval(f, z: complex) -> complex:
    return z ** f.shift * f.num.eval_complex(z) / f.den.eval_complex(z)


def test_canonical_shift_extraction():
    # z^2 * (z - 1/2) enters as num with a double root at zero
    f = make_symbol(poly([0, 0, gr(Fraction(-1, 2)), 1]), poly([1]))
    assert f.shift == 2
    assert f.num.order_at_zero() == 0
    g = invert_symbol(Z)
    assert g.shift == -1 and str(g.num) == "1"


@pytest.mark.parametrize(
    "f, w",
    [
        (Z, 1),
        (invert_symbol(Z), -1),
        (F1, 1),
        (sym_arith(F1, F1, "mul"), 2),
        (F3, 2),
        (sym_pow(Z, 5), 5),
        (make_factored(gr(1), 0, [(gr(Fraction(1, 2)), 2)], [(gr(3), 1)]), 2 - 0),
        (make_factored(gr(1), -1, [(gr(2), 1)], []), -1),
    ],
)
def test_winding_number(f, w):
    assert winding_number(f) == w


def test_winding_number_rejects_circle_zero():
    # z^2 (z + 1) / (z + 1/2): the disk count of the numerator finds z = -1
    with pytest.raises(ZeroOnCircle):
        winding_number(make_symbol(poly([0, 0, 1, 1]), poly([gr(Fraction(1, 2)), 1])))


def test_winding_additive_under_mul():
    rng = random.Random(9)
    for _ in range(15):
        f = make_factored(
            gr(1),
            rng.randint(-2, 2),
            [(gr(Fraction(rng.choice([1, 3]), 2)), rng.randint(1, 2))],
            [(gr(Fraction(rng.choice([1, 5]), 3)), 1)],
        )
        g = make_factored(gr(1), rng.randint(-2, 2), [(gr(-2), 1)], [])
        assert winding_number(sym_arith(f, g, "mul")) == winding_number(f) + winding_number(g)


def test_arith_matches_pointwise():
    pts = [cmath.exp(2j * cmath.pi * k / 7) for k in range(7)]
    for op, fn in (("add", lambda a, b: a + b), ("sub", lambda a, b: a - b),
                   ("mul", lambda a, b: a * b)):
        h = sym_arith(F1, F3, op)
        for z in pts:
            assert abs(_eval(h, z) - fn(_eval(F1, z), _eval(F3, z))) < 1e-9


def test_zero_symbols_have_shift_zero():
    # so that == on (num, den, shift) is equality of rational functions
    zero = poly([])
    zeros = [
        make_symbol(zero, poly([1]), 3),
        make_symbol(zero, poly([1, 1]), -2),
        make_factored(gr(0), 4, [(gr(2), 1)], [(gr(Fraction(1, 3)), 2)]),
        sym_scale(sym_arith(Z, F3, "mul"), gr(0)),
        sym_scale(make_symbol(poly([1, 0, 1]), poly([3, 1]), -1), gr(0)),
        sym_pow(make_symbol(zero, poly([1]), 5), 3),
        sym_arith(F3, F3, "sub"),
    ]
    for f in zeros:
        assert f.is_zero() and f.shift == 0
        assert f == ZERO_SYMBOL


def test_invert_symbol():
    finv = invert_symbol(F3)
    prod = sym_arith(F3, finv, "mul")
    assert prod == make_symbol(poly([1]), poly([1]))
    with pytest.raises(ZeroSymbol):
        invert_symbol(make_symbol(poly([]), poly([1])))


def test_missing_split_blocks_inversion():
    # z - 1 vanishes on the circle: no CircleSplit, no inverse
    f = make_symbol(poly([-1, 1]), poly([1]))
    assert f.split is None
    with pytest.raises(MissingSplit):
        invert_symbol(f)


def test_fourier_coeffs_float_check():
    # compare with the numeric Fourier integral over the unit circle
    N = 4096
    for f in (F1, F3, invert_symbol(F1), sym_arith(F3, invert_symbol(Z), "mul")):
        for n in range(-4, 5):
            approx = sum(
                _eval(f, cmath.exp(2j * cmath.pi * k / N))
                * cmath.exp(-2j * cmath.pi * k * n / N)
                for k in range(N)
            ) / N
            exact = fourier_coeff(f, n).to_complex()
            assert abs(exact - approx) < 1e-8, (n, exact, approx)


def test_expansion_matches_fourier():
    E = laurent_expansion(F3)
    for n in range(-6, 6):
        assert E.value(n) == fourier_coeff(F3, n)


def test_sym_pow_negative():
    f = sym_pow(F1, -2)
    prod = sym_arith(f, sym_arith(F1, F1, "mul"), "mul")
    assert prod == make_symbol(poly([1]), poly([1]))


def test_split_rejects_a_root_on_the_circle():
    with pytest.raises(FactorOnCircle):
        make_factored(gr(1), 0, [(gr(1), 1)], [])  # zero at 1
    with pytest.raises(FactorOnCircle):
        make_factored(gr(1), 0, [], [(gr(0, 1), 1)])  # pole at i


def test_split_is_the_merged_roots():
    # equal roots merge, the root at 0 goes to the shift, the root at 3 cancels
    half = gr(Fraction(1, 2))
    f = make_factored(gr(2), 0, [(half, 2), (gr(0), 1), (half, 1), (gr(3), 1)], [(gr(3), 1)])
    assert f.split.zeros == ((half, 3),)
    assert f.split.poles == ()
    assert f.shift == 1
    assert f.num.leading() == gr(2)


def test_symbol_keeps_its_expansion():
    f = sym_arith(F3, F1, "mul")
    assert laurent_expansion(f) is laurent_expansion(f)


def test_entry_windows_expand_the_block_symbol_once(monkeypatch):
    a = op_arith(
        toeplitz_operator(F3, make_finite_rank([(seq_geo(gr(Fraction(1, 2))), seq_basis(0))])),
        toeplitz_operator(invert_symbol(F1)),
        "mul",
    )
    target = a.blocks[0].symbol
    expanded = []
    original = symbols.expand_rational

    def counting(num, poles, shift):
        expanded.append((num, shift))
        return original(num, poles, shift)

    monkeypatch.setattr(symbols, "expand_rational", counting)
    for _ in range(2):
        for i in range(12):
            for j in range(12):
                op_entry(a, 0, i, j)
    assert expanded.count((target.num, target.shift)) <= 1


def _pow_cases():
    """Split, split-free, zero and circle-zero symbols."""
    rng = random.Random(20)
    out = [random_symbol(rng) for _ in range(24)]
    texts = ["z^2 - 3", "(z^3 + z + 5)/(z^2 - 3)", "z^-1*(z^2 - z - 1)", "0", "z - 1",
             "(z^2 + 1)*(z - 3)", "z^2*(z - i)", "(z - 1/2)/(z^2 - 3)", "5/2*z^-2"]
    return out + [evaluate(parse(f"T({t})")).blocks[0].symbol for t in texts]


@pytest.mark.parametrize("k", range(-5, 6))
def test_sym_pow_matches_repeated_products(k):
    # a negative power inverts f first, which needs a split
    for f in _pow_cases():
        if k >= 0 or f.split is not None:
            got, want = sym_pow(f, k), sym_pow_reference(f, k)
            assert got == want and got.split == want.split and got.lead == want.lead, (str(f), k)


# ---------------------------------------------------------------------------
# Widom pairings by residues, against the expansion pairing (hankel_trace).
# ---------------------------------------------------------------------------


def _side_root(rng: random.Random, inside: bool):
    """A root with modulus at most 3/4 (inside) or in [4/3, 3] (outside)."""
    while True:
        d = rng.randint(2, 4)
        r = gr(Fraction(rng.randint(-3 * d, 3 * d), d), Fraction(rng.choice((0, rng.randint(-2 * d, 2 * d))), d))
        if (0 < r.abs2() <= Fraction(9, 16)) if inside else (Fraction(16, 9) <= r.abs2() <= 9):
            return r


def _index_mix_symbol(rng: random.Random):
    """Simple zeros and poles on either side and a shift in -2..2, as the
    symbol of a product of two index-mix factors."""
    zeros = [(_side_root(rng, rng.random() < 0.5), 1) for _ in range(rng.randint(1, 3))]
    poles = [(_side_root(rng, rng.random() < 0.5), 1) for _ in range(rng.randint(1, 2))]
    scale = gr(Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 2)))
    return make_factored(scale, rng.randint(-2, 2), zeros, poles)


# inside: 1/2, -1/3+1/4i, 2/3i, -1/5; outside: 3, -5/2+i, 4/3-2/3i
_ROOTS = [gr(Fraction(1, 2)), gr(Fraction(-1, 3), Fraction(1, 4)), gr(0, Fraction(2, 3)), gr(Fraction(-1, 5)),
          gr(3), gr(Fraction(-5, 2), 1), gr(Fraction(4, 3), Fraction(-2, 3))]


def _rooted_symbol(rng: random.Random):
    """Zero, or one to four roots from a pool of seven with multiplicities
    1 to 3 and a shift in -3..3, so that two draws often share a pole."""
    if rng.random() < 0.1:
        return ZERO_SYMBOL
    zeros, poles = [], []
    for r in rng.sample(_ROOTS, rng.randint(1, 4)):
        (zeros if rng.random() < 0.5 else poles).append((r, rng.randint(1, 3)))
    return make_factored(gr(rng.randint(1, 3), rng.randint(-2, 2)), rng.randint(-3, 3), zeros, poles)


def _split_random_symbol(rng: random.Random):
    """random_symbol, drawn again until it is zero or has a split."""
    while True:
        f = random_symbol(rng)
        if f.is_zero() or f.split is not None:
            return f


def _inside_poles(f) -> set:
    """The inside poles of f other than 0."""
    return {p for p, _ in f.split.poles if p.abs2() < 1} if f.split is not None else set()


def _check_both_ways(f, g):
    assert widom_pairings(f, g) == (hankel_trace(g, f), hankel_trace(f, g)), (f, g)
    assert widom_pairings(g, f) == (hankel_trace(f, g), hankel_trace(g, f)), (f, g)


def test_widom_pairings_of_index_mix_symbols_and_their_inverses():
    rng = random.Random(38)
    for _ in range(150):
        f = _index_mix_symbol(rng)
        _check_both_ways(f, invert_symbol(f))
        _check_both_ways(f, sym_scale(invert_symbol(f), gr(Fraction(-2, 3), 1)))


def test_widom_pairings_on_multiple_roots_shifts_and_shared_poles():
    rng = random.Random(39)
    seen = {"shared inside pole": 0, "triple root": 0, "negative shift": 0, "positive shift": 0, "zero": 0}
    for _ in range(400):
        f, g = _rooted_symbol(rng), _rooted_symbol(rng) if rng.random() < 0.7 else _split_random_symbol(rng)
        _check_both_ways(f, g)
        seen["shared inside pole"] += bool(_inside_poles(f) & _inside_poles(g))
        seen["zero"] += f.is_zero() or g.is_zero()
        for h in (f, g):
            seen["triple root"] += any(m == 3 for _, m in h.split.zeros + h.split.poles) if h.split else 0
            seen["negative shift"] += h.shift < 0
            seen["positive shift"] += h.shift > 0
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize(
    "f, g, nonzero",
    [
        # no pole outside and bounded at infinity: fhat(n) = 0 for n >= 1
        ("(z-1/2)^2/(z-1/3)^2", "(z-1/3)^2/(z-1/2)^2", False),
        ("z^-1*(z-3)/(z-1/2)", "1/(z-1/4)^2", False),
        # a pole outside, or a pole at infinity: the pairing is not zero
        ("1/(z-3)", "1/(z-1/2)", True),
        ("(z-1/2)^2/((z-1/3)*(z-3))", "(z-1/3)*(z-3)/(z-1/2)^2", True),
        ("z*(z-1/2)/(z-1/3)", "(z-1/3)/(z*(z-1/2))", True),
    ],
)
def test_widom_pairing_of_a_symbol_bounded_outside_the_disk(f, g, nonzero):
    f, g = (evaluate(parse(f"T({s})")).blocks[0].symbol for s in (f, g))
    _check_both_ways(f, g)
    assert (not widom_pairings(f, g)[1].is_zero()) == nonzero


def test_widom_pairings_name_the_first_symbol_without_a_split():
    f = make_symbol(poly([5, 1, 0, 1]), poly([1]))  # z^3 + z + 5
    g = make_symbol(poly([1]), poly([5, 1, 0, 1]))
    for left, right in ((f, g), (g, f), (F1, g)):
        with pytest.raises(MissingSplit) as info:
            widom_pairings(left, right)
        named = left if left.split is None else right
        assert str(info.value) == f"symbol {named} has no CircleSplit; coefficients unavailable"
    assert widom_pairings(ZERO_SYMBOL, f) == widom_pairings(g, ZERO_SYMBOL) == (gr(0), gr(0))
