"""Differential checks of exact root location against independent counts.

Planted polynomials are built with ``from_roots`` from Gaussian-rational
roots, so whether a root lies inside, on or outside the unit circle is
known exactly.  Dense Gaussian-integer polynomials are checked against
numpy's root moduli, away from the circle by a fixed margin.
"""

import random
from fractions import Fraction

import pytest

from bfredholm import rootloc
from bfredholm.errors import ZeroOnCircle
from bfredholm.poly import from_roots, poly
from bfredholm.rootloc import count_zeros_in_disk, has_zero_on_circle
from bfredholm.scalars import gr

CIRCLE = [
    gr(1), gr(-1), gr(0, 1), gr(0, -1),
    gr(Fraction(3, 5), Fraction(4, 5)), gr(Fraction(3, 5), Fraction(-4, 5)),
    gr(Fraction(5, 13), Fraction(12, 13)),
]


def _off_circle(rng):
    while True:
        r = gr(Fraction(rng.randint(-7, 7), rng.randint(1, 4)),
               Fraction(rng.randint(-7, 7), rng.randint(1, 4)))
        if r.abs2() not in (0, 1):
            return r


def _planted(rng, degree, kind):
    """Roots of a seeded polynomial, with repeated roots or reciprocal pairs."""
    roots = []
    while len(roots) < degree:
        r = _off_circle(rng)
        if kind == "repeated" and roots and rng.random() < 0.5:
            r = rng.choice(roots)
        roots.append(r)
        if kind == "reciprocal" and len(roots) < degree:
            roots.append(gr(1) / r.conj())
    return roots


def _from_roots(rng, roots):
    return from_roots(gr(rng.randint(1, 4), rng.randint(-3, 3)), [(r, 1) for r in roots])


CASES = [(kind, degree, seed)
         for kind in ("distinct", "repeated", "reciprocal")
         for degree, seed in ((3, 0), (8, 1), (20, 2), (40, 3), (60, 4))]


@pytest.mark.parametrize("kind, degree, seed", CASES)
def test_planted_roots(kind, degree, seed, monkeypatch):
    rng = random.Random(f"{kind}:{degree}:{seed}")
    roots = _planted(rng, degree, kind)
    p = _from_roots(rng, roots)
    degenerate = []
    winding_count = rootloc._winding_count

    def counted(re, im):
        degenerate.append(len(re) - 1)
        return winding_count(re, im)

    monkeypatch.setattr(rootloc, "_winding_count", counted)
    assert count_zeros_in_disk(p) == sum(1 for r in roots if r.abs2() < 1)
    if kind == "reciprocal" and degree % 2 == 0:
        # the roots pair up with product of moduli 1, so |a0| = |an| at once
        assert degenerate == [degree]


@pytest.mark.parametrize("zeta, degree", zip(CIRCLE, (3, 8, 20, 40, 60, 30, 12)))
def test_planted_circle_zero(zeta, degree):
    rng = random.Random(f"circle:{zeta}:{degree}")
    roots = _planted(rng, degree - 1, "repeated")
    roots.insert(rng.randrange(degree), zeta)
    p = _from_roots(rng, roots)
    assert has_zero_on_circle(p)
    with pytest.raises(ZeroOnCircle):
        count_zeros_in_disk(p)


@pytest.mark.parametrize("degree, seed", [(d, s) for d in (10, 20, 40, 60) for s in range(3)])
def test_dense_against_numpy(degree, seed):
    np = pytest.importorskip("numpy")
    rng = random.Random(f"dense:{degree}:{seed}")
    coeffs = [gr(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(degree)]
    coeffs.append(gr(rng.choice((1, -1, 2, 3)), rng.randint(-5, 5)))
    p = poly(coeffs)
    moduli = np.abs(np.roots([c.to_complex() for c in reversed(p.coeffs)]))
    if np.min(np.abs(moduli - 1)) < 1e-6:
        pytest.skip("a numpy root lies within 1e-6 of the circle")
    assert not has_zero_on_circle(p)
    assert count_zeros_in_disk(p) == int(np.sum(moduli < 1))
