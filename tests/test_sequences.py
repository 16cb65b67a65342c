from fractions import Fraction

import random

from hypothesis import given, settings, strategies as st

from bfredholm.poly import poly
from bfredholm.scalars import gr
from bfredholm.sequences import (
    make_sequence,
    pairing,
    power_series_sum,
    seq_basis,
    seq_finite,
    seq_geo,
)
from references import pairing_reference, random_sequence, value_reference

fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
scalars = st.builds(gr, fracs, fracs)
small_fracs = st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(1, 2), max_denominator=6)
# ratios strictly inside the unit disk so tails are summable
ratios = st.builds(gr, small_fracs, small_fracs).filter(lambda r: r.abs2() < 1)
polys = st.lists(scalars, min_size=1, max_size=3).map(poly)

seqs = st.one_of(
    st.lists(scalars, min_size=1, max_size=4).map(seq_finite),
    st.builds(
        lambda h, r, p: make_sequence(h, [(r, p)]),
        st.lists(scalars, max_size=3),
        ratios.filter(lambda r: not r.is_zero()),
        polys,
    ),
)


def test_basic_values():
    x = seq_finite([1, 2, 3])
    assert [str(x.value(n)) for n in range(5)] == ["1", "2", "3", "0", "0"]
    e2 = seq_basis(2)
    assert e2.value(2) == gr(1) and e2.value(0).is_zero()
    g = seq_geo(gr(Fraction(1, 2)), degree=1)
    # n * (1/2)^n
    assert g.value(3) == gr(Fraction(3, 8))


@given(seqs, seqs, scalars)
def test_pointwise_algebra(x, y, c):
    s = x + y
    d = x - y
    sc = x.scale(c)
    for n in range(12):
        assert s.value(n) == x.value(n) + y.value(n)
        assert d.value(n) == x.value(n) - y.value(n)
        assert sc.value(n) == c * x.value(n)


@given(seqs, st.integers(min_value=0, max_value=4))
def test_drop_and_shift(x, s):
    for n in range(10):
        assert x.drop(s).value(n) == x.value(n + s)
        up = x.shift_up(s)
        assert up.value(n + s) == x.value(n)
    for n in range(s):
        assert x.shift_up(s).value(n).is_zero()


@given(seqs, seqs)
def test_canonical_equality(x, y):
    # structural equality must agree with pointwise equality on a window
    # long enough to separate distinct canonical forms of this size
    same = all(x.value(n) == y.value(n) for n in range(40))
    assert (x == y) == same


@settings(max_examples=40)
@given(polys, ratios)
def test_power_series_sum_float_check(p, r):
    exact = power_series_sum(p, r)
    approx = sum(
        p.eval(gr(n)).to_complex() * r.to_complex() ** n for n in range(400)
    )
    assert abs(exact.to_complex() - approx) < 1e-6


@settings(max_examples=25, deadline=None)
@given(seqs, seqs)
def test_pairing_float_check(v, x):
    exact = pairing(v, x)
    approx = sum(
        (v.value(n).to_complex()) * (x.value(n).to_complex()) for n in range(200)
    )
    assert abs(exact.to_complex() - approx) < 1e-6


def test_pairing_bilinear():
    u = make_sequence([gr(1)], [(gr(Fraction(1, 3)), poly([2]))])
    v = seq_finite([1, -1, gr(0, 1)])
    w = seq_geo(gr(Fraction(-1, 2)))
    c = gr(Fraction(2, 5), 1)
    assert pairing(u.scale(c), v + w) == c * (pairing(u, v) + pairing(u, w))


def test_value_matches_reference_for_n_0_to_40():
    rng = random.Random(31)
    seen = set()
    for _ in range(80):
        s = random_sequence(rng)
        seen |= {("degree", p.degree) for _, p in s.tails}
        for n in range(41):
            got = s.value(n)
            assert got == value_reference(s, n), (str(s), n)
            if n < len(s.head) and not s.head[n].is_zero():
                seen.add("read inside the head")
            if s.head and n >= len(s.head):
                seen.add("read past the head")
    # the seeded inputs reach every case the fast path treats apart
    want = {("degree", d) for d in range(4)} | {"read inside the head", "read past the head"}
    assert want <= seen


def test_pairing_matches_reference():
    rng = random.Random(32)
    for _ in range(60):
        v, x = random_sequence(rng), random_sequence(rng)
        assert pairing(v, x) == pairing_reference(v, x), (str(v), str(x))
