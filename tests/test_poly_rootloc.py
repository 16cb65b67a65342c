from fractions import Fraction

import random

import pytest
from hypothesis import given, strategies as st

from bfredholm.poly import (
    Polynomial,
    from_roots,
    poly,
    poly_divmod,
    poly_gcd,
)
from bfredholm.rootloc import count_zeros_in_disk, has_zero_on_circle
from bfredholm.scalars import gr
from references import eval_reference, random_poly, random_ratio

fracs = st.fractions(min_value=-6, max_value=6, max_denominator=6)
scalars = st.builds(gr, fracs, fracs)
polys = st.lists(scalars, min_size=0, max_size=5).map(poly)


def poly_pow(a: Polynomial, n: int) -> Polynomial:
    out = poly([1])
    for _ in range(n):
        out = out * a
    return out


def count_zeros_outside_disk(p: Polynomial) -> int:
    """Zeros with |z| > 1, with multiplicity; same preconditions."""
    return p.degree - count_zeros_in_disk(p)


@given(polys, polys, scalars)
def test_poly_ring_and_eval(p, q, x):
    assert (p + q).eval(x) == p.eval(x) + q.eval(x)
    assert (p * q).eval(x) == p.eval(x) * q.eval(x)
    assert (p - q).eval(x) == p.eval(x) - q.eval(x)


@given(polys, polys)
def test_divmod_invariant(a, b):
    if b.is_zero():
        return
    q, r = poly_divmod(a, b)
    assert q * b + r == a
    assert r.is_zero() or r.degree < b.degree


@given(polys, polys)
def test_gcd_divides_both(a, b):
    if a.is_zero() and b.is_zero():
        return
    g = poly_gcd(a, b)
    for p in (a, b):
        if not p.is_zero():
            _, r = poly_divmod(p, g)
            assert r.is_zero()


@given(polys, scalars, scalars)
def test_taylor_shift(p, a, x):
    assert p.taylor_shift(a).eval(x) == p.eval(x + a)


def test_poly_pow_and_derivative():
    p = poly([1, 1])  # 1 + z
    assert poly_pow(p, 3) == poly([1, 3, 3, 1])
    assert poly([1, 2, 3]).derivative() == poly([2, 6])


def _roots_poly(roots):
    return from_roots(gr(1), [(gr(*r), m) for r, m in roots])


@pytest.mark.parametrize(
    "roots, inside",
    [
        ([((Fraction(1, 2), 0), 1)], 1),
        ([((2, 0), 1)], 0),
        ([((Fraction(1, 2), 0), 2), ((3, 0), 1)], 2),
        ([((0, Fraction(1, 3)), 1), ((0, -4), 1)], 1),
        # reciprocal pair: degenerate Schur-Cohn step, exercises the
        # Cauchy-index fallback
        ([((2, 0), 1), ((Fraction(1, 2), 0), 1)], 1),
        ([((Fraction(-2, 3), 0), 1), ((Fraction(-3, 2), 0), 1)], 1),
        ([((0, 0), 3)], 3),
        # odd degree with |a0| = |an|: the fallback's leading coefficient is
        # purely imaginary, so its boundary term at t = +/- infinity counts
        ([((2, 0), 2), ((Fraction(1, 4), 0), 1)], 1),
        ([((0, 2), 1), ((0, Fraction(-1, 3)), 1), ((Fraction(3, 2), 0), 1)], 1),
    ],
)
def test_count_zeros_in_disk(roots, inside):
    p = _roots_poly(roots)
    total = sum(m for _, m in roots)
    assert count_zeros_in_disk(p) == inside
    assert count_zeros_outside_disk(p) == total - inside
    assert not has_zero_on_circle(p)


@pytest.mark.parametrize(
    "root",
    [(1, 0), (-1, 0), (0, 1), (Fraction(3, 5), Fraction(4, 5)),
     (Fraction(-3, 5), Fraction(4, 5))],
)
def test_zero_on_circle_detected(root):
    p = _roots_poly([((root), 1)])
    assert has_zero_on_circle(p)


def test_mixed_circle_zero():
    # (z - 1/2)(z - i): only the second factor sits on the circle
    p = _roots_poly([((Fraction(1, 2), 0), 1), ((0, 1), 1)])
    assert has_zero_on_circle(p)


@given(st.lists(st.tuples(fracs, fracs), min_size=1, max_size=4))
def test_random_root_counts(raw):
    roots = []
    for re, im in raw:
        a = gr(re, im)
        if a.abs2() == 1:
            a = a * gr(Fraction(1, 2))
        roots.append((a, 1))
    p = from_roots(gr(1), roots)
    inside = sum(1 for a, _ in roots if a.abs2() < 1)
    assert not has_zero_on_circle(p)
    assert count_zeros_in_disk(p) == inside


def test_eval_matches_reference_horner():
    rng = random.Random(2024)
    for _ in range(300):
        p = random_poly(rng, rng.randint(0, 5)) if rng.random() < 0.9 else poly([])
        x = random_ratio(rng) if rng.random() < 0.5 else gr(rng.randint(0, 40))
        assert p.eval(x) == eval_reference(p, x), (p, x)
