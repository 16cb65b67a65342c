import copy
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from bfredholm.dsl import parse_scalar
from bfredholm.errors import DivisionByZero
from bfredholm.scalars import (
    GaussianRational,
    _dot,
    format_scalar,
    gaussian_sqrt,
    gr,
)

fracs = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
scalars = st.builds(gr, fracs, fracs)


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + gr(0) == a
    assert a * gr(1) == a
    assert a + (-a) == gr(0)


@given(scalars)
def test_inverse_and_conj(a):
    if not a.is_zero():
        assert a * a.inv() == gr(1)
        assert a / a == gr(1)
    assert a * a.conj() == gr(a.abs2())
    assert a.conj().conj() == a


@given(scalars)
def test_format_parse_round_trip(a):
    assert parse_scalar(format_scalar(a)) == a


def test_format_examples():
    assert format_scalar(gr(Fraction(1, 2), Fraction(-1, 2))) == "1/2-1/2i"
    assert format_scalar(gr(0)) == "0"
    assert format_scalar(gr(0, 1)) == "i"
    assert format_scalar(gr(0, -1)) == "-i"
    assert format_scalar(gr(-3)) == "-3"
    assert format_scalar(gr(0, Fraction(2, 3))) == "2/3i"


def test_is_rational_integer():
    assert gr(-7).is_rational_integer()
    assert not gr(Fraction(1, 2)).is_rational_integer()
    assert not gr(1, 1).is_rational_integer()


@given(scalars)
def test_gaussian_sqrt_squares_back(a):
    s = gaussian_sqrt(a)
    if s is not None:
        assert s * s == a


def test_gaussian_sqrt_known():
    assert gaussian_sqrt(gr(0, 2)) in (gr(1, 1), gr(-1, -1))
    assert gaussian_sqrt(gr(Fraction(1, 4))) in (gr(Fraction(1, 2)), gr(Fraction(-1, 2)))
    assert gaussian_sqrt(gr(2)) is None


def test_to_complex():
    z = gr(Fraction(3, 4), Fraction(-1, 2)).to_complex()
    assert z == complex(0.75, -0.5)


# ---------------------------------------------------------------------------
# The canonical triple (a + b*i)/d against a Fraction-pair reference.
# ---------------------------------------------------------------------------


class PairRef:
    """Q(i) as a pair of Fractions, kept here as the reference."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return PairRef(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return PairRef(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return PairRef(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        d = o.abs2()
        return PairRef((self.re * o.re + self.im * o.im) / d, (self.im * o.re - self.re * o.im) / d)

    def abs2(self):
        return self.re * self.re + self.im * self.im

    def power(self, n):
        out = PairRef(1)
        for _ in range(abs(n)):
            out = out * self
        return out if n >= 0 else PairRef(1) / out


def ref(x):
    return PairRef(x.re, x.im)


def agrees(x, r):
    return isinstance(x, GaussianRational) and x.re == r.re and x.im == r.im


def is_canonical(x):
    a, b, d = x
    return all(type(v) is int for v in (a, b, d)) and d > 0 and gcd(a, b, d) == 1


@given(scalars, scalars, st.integers(-20, 20))
def test_every_result_is_canonical(a, b, n):
    results = [a + b, a - b, a * b, -a, a.conj(), gr(0) ** 0]
    if not b.is_zero():
        results += [a / b, b.inv(), b**n]
    results.append(a ** abs(n))
    assert all(is_canonical(x) for x in results)


@given(scalars, scalars)
def test_field_operations_match_the_fraction_pair_reference(a, b):
    ra, rb = ref(a), ref(b)
    assert agrees(a + b, ra + rb)
    assert agrees(a - b, ra - rb)
    assert agrees(a * b, ra * rb)
    if not b.is_zero():
        assert agrees(a / b, ra / rb)
    assert a.abs2() == ra.abs2() and isinstance(a.abs2(), Fraction)


@given(fracs, fracs)
def test_parts_round_trip(re, im):
    x = gr(re, im)
    assert (x.re, x.im) == (re, im)
    assert GaussianRational(re, im) == x
    a, b, d = x
    assert Fraction(a, d) == re and Fraction(b, d) == im


@given(scalars, st.integers(-20, 20))
def test_pow_matches_repeated_multiplication(a, n):
    if n < 0 and a.is_zero():
        return
    assert agrees(a**n, ref(a).power(n))


@given(scalars, scalars)
def test_equal_values_hash_equally(a, b):
    if b.is_zero():
        b = gr(1)
    c = (a * b) / b
    assert c == a and hash(c) == hash(a)
    assert parse_scalar(format_scalar(a)) == a
    assert hash(parse_scalar(format_scalar(a))) == hash(a)
    assert len({a, c, GaussianRational(a.re, a.im)}) == 1


def test_values_are_immutable():
    x = gr(Fraction(1, 2), 3)
    with pytest.raises(AttributeError):
        x.re = Fraction(1)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x == gr(Fraction(1, 2), 3)


def test_int_times_scalar_is_not_repetition():
    with pytest.raises(TypeError):
        2 * gr(1)


def test_copy_and_pickle_keep_the_value():
    x = gr(Fraction(-3, 4), Fraction(5, 6))
    assert copy.copy(x) == x and copy.deepcopy(x) == x
    assert pickle.loads(pickle.dumps(x)) == x


def test_zero_has_no_inverse():
    with pytest.raises(DivisionByZero):
        gr(0) ** -1
    with pytest.raises(DivisionByZero):
        gr(0).inv()
    with pytest.raises(DivisionByZero):
        gr(1) / gr(0)
    assert gr(0) ** 0 == gr(1)


def test_canonical_form_examples():
    assert tuple(gr(0)) == (0, 0, 1)
    assert tuple(gr(Fraction(1, 2), Fraction(1, 3))) == (3, 2, 6)
    assert tuple(gr(Fraction(2, 4), Fraction(-6, 4))) == (1, -3, 2)
    # (1+i)/2 squared is 2i/4; the reduction happens after the power
    assert tuple(gr(Fraction(1, 2), Fraction(1, 2)) ** 2) == (0, 1, 2)


# ---------------------------------------------------------------------------
# _dot: a sum of products over one common denominator, reduced once
# ---------------------------------------------------------------------------


def _fold(pairs, total=gr(0)):
    for x, y in pairs:
        total = total + x * y
    return total


def _dot_scalar(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return gr(0)
    if kind == 1:  # purely imaginary
        return gr(0, Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
    if kind == 2:  # large, coprime denominators
        return gr(Fraction(rng.randint(-10**30, 10**30), rng.choice((10**18 + 9, 2**61 - 1, 3**37))),
                  Fraction(rng.randint(-10**20, 10**20), rng.choice((7**23, 10**18 + 3))))
    if kind == 3:  # a denominator shared with many others
        return gr(Fraction(rng.randint(-9, 9), 12), Fraction(rng.randint(-9, 9), 12))
    return gr(Fraction(rng.randint(-9, 9), rng.randint(1, 12)), Fraction(rng.randint(-9, 9), rng.randint(1, 12)))


def test_dot_matches_the_left_fold():
    rng = random.Random(24)
    for _ in range(2000):
        pairs = [(_dot_scalar(rng), _dot_scalar(rng)) for _ in range(rng.randint(0, 6))]
        start = _dot_scalar(rng)
        for got, want in ((_dot(pairs), _fold(pairs)), (_dot(pairs, start), _fold(pairs, start))):
            assert got == want, pairs
            assert is_canonical(got), pairs


def test_dot_edge_cases():
    half, third = gr(Fraction(1, 2)), gr(Fraction(1, 3))
    x = gr(Fraction(2, 3), Fraction(-5, 7))
    assert tuple(_dot([])) == (0, 0, 1)
    assert _dot([], x) == x and is_canonical(_dot([], x))
    assert _dot([(gr(0), x), (x, gr(0))], x) == x
    # equal and coprime denominators
    assert _dot([(half, half), (half, half)]) == half
    assert _dot([(half, third), (third, half)]) == third
    # purely imaginary factors: i/2 * i/3 = -1/6
    assert tuple(_dot([(gr(0, Fraction(1, 2)), gr(0, Fraction(1, 3)))])) == (-1, 0, 6)
    # sums that cancel to zero, with and without a start value
    assert tuple(_dot([(x, half), (-x, half)])) == (0, 0, 1)
    assert tuple(_dot([(x, gr(-1))], x)) == (0, 0, 1)
    assert tuple(_dot([(half, half), (gr(0, Fraction(1, 2)), gr(0, Fraction(1, 2)))])) == (0, 0, 1)
