"""Differential checks of exact root location against independent counts.

Planted polynomials are built with ``from_roots`` from Gaussian-rational
roots, so whether a root lies inside, on or outside the unit circle is
known exactly.  Dense Gaussian-integer polynomials are checked against
numpy's root moduli, away from the circle by a fixed margin.  A standalone
circle test over the rationals (the Cayley image, the gcd of its real and
imaginary parts, and the Cauchy index of g'/g), with an argument-principle
count on the same image, is kept here as a reference for the Schur-Cohn
loop on a few thousand small seeded polynomials.

The loop itself is checked step for step against the form it once had
(references.locate_reference) on 20,000 seeded Gaussian-integer
polynomials, and the disk test against a float minimum of |f| over 4,096
points of the circle.
"""

import cmath
import random
from fractions import Fraction
from functools import cache

import pytest
from references import locate_reference, random_poly, random_symbol

from bfredholm import rootloc
from bfredholm.errors import ZeroOnCircle
from bfredholm.poly import P_ONE, from_roots, poly
from bfredholm.rootloc import count_zeros_in_disk, exceeds_on_circle, has_zero_on_circle
from bfredholm.scalars import gr
from bfredholm.symbols import make_symbol

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
    cohn, fallback = [], []
    cohn_step, winding_count = rootloc._cohn, rootloc._winding_count

    def counted_cohn(re, im):
        cohn.append(len(re) - 1)
        return cohn_step(re, im)

    def counted_fallback(re, im):
        fallback.append(len(re) - 1)
        return winding_count(re, im)

    monkeypatch.setattr(rootloc, "_cohn", counted_cohn)
    monkeypatch.setattr(rootloc, "_winding_count", counted_fallback)
    assert count_zeros_in_disk(p) == sum(1 for r in roots if r.abs2() < 1)
    if kind == "reciprocal" and degree % 2 == 0:
        # the roots pair up with product of moduli 1, so p is self-inversive
        # and Cohn's rule takes the first step, at full degree
        assert cohn[:1] == [degree] and fallback == []


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


@cache
def _cayley_basis(n):
    """(1+it)^k (1-it)^(n-k) for k = 0..n."""
    plus, minus = poly([1, gr(0, 1)]), poly([1, gr(0, -1)])
    out = []
    for k in range(n + 1):
        b = P_ONE
        for f in [plus] * k + [minus] * (n - k):
            b = b * f
        out.append(b)
    return out


def _trimmed(a):
    while a and not a[-1]:
        a.pop()
    return a


def _index_and_gcd(den, num):
    """V(-inf) - V(+inf) over the Euclidean Sturm chain den, num, -rem, ...,
    which is the Cauchy index of num/den; and the last element, a gcd."""
    chain, a, b = [den], den, num
    while b:
        chain.append(b)
        r = list(a)
        while len(r) >= len(b):
            c, k = r[-1] / b[-1], len(r) - len(b)
            for j, y in enumerate(b):
                r[k + j] -= c * y
            _trimmed(r)
        a, b = b, [-x for x in r]

    def variations(signs):
        return sum(s != t for s, t in zip(signs, signs[1:]))

    at_pos = [f[-1] > 0 for f in chain]
    at_neg = [(f[-1] > 0) == (len(f) % 2 == 1) for f in chain]
    return variations(at_neg) - variations(at_pos), chain[-1]


def _reference(p):
    """(circle flag, zeros inside or None) from the Cayley image alone."""
    n = p.degree
    if p.eval(gr(-1)).is_zero():
        return True, None
    q = poly([0])
    for c, b in zip(p.coeffs, _cayley_basis(n)):
        q = q + b.scale(c)
    qr = _trimmed([c.re for c in q.coeffs])
    qi = _trimmed([c.im for c in q.coeffs])
    jump, g = _index_and_gcd(qr, qi) if qr else (0, qi)
    if len(g) > 1 and _index_and_gcd(g, [k * c for k, c in enumerate(g)][1:])[0] > 0:
        return True, None
    # arg q(t) from t = -inf to +inf, in units of pi; only the ends of
    # arctan(qi/qr) count when deg qi > deg qr
    ends = 0
    if qr and len(qi) > len(qr):
        same = (qi[-1] > 0) == (qr[-1] > 0)
        ends = (1 if same else -1) * (1 if (len(qi) - len(qr)) % 2 else 0)
    return False, (ends - jump + n) // 2


def _small_case(rng):
    """A seeded polynomial of degree <= 12: planted roots (circle zeros,
    repeated roots, reciprocal pairs, zeros at 0) or dense coefficients,
    some real, some made self-inversive so that Schur-Cohn degenerates."""
    if rng.random() < 0.25:
        n = rng.randint(1, 12)
        real = rng.random() < 0.4  # odd real iterates make deg qi > deg qr
        cs = [gr(rng.randint(-5, 5), 0 if real else rng.randint(-5, 5)) for _ in range(n + 1)]
        if rng.random() < 0.4:
            sign = gr(rng.choice((1, -1)))
            cs = [c + cs[n - k].conj() * sign for k, c in enumerate(cs)]
        cs[-1] = cs[-1] if not cs[-1].is_zero() else gr(1)
        return poly(cs), None
    n = rng.randint(1, 12)
    roots = []
    while len(roots) < n:
        u = rng.random()
        r = (rng.choice(CIRCLE) if u < 0.15 else rng.choice(roots) if u < 0.3 and roots
             else gr(0) if u < 0.4 else _off_circle(rng))
        roots.append(r)
        if len(roots) < n and not r.is_zero() and r.abs2() != 1 and rng.random() < 0.3:
            roots.append(gr(1) / r.conj())
    inside = None if any(r.abs2() == 1 for r in roots) else sum(1 for r in roots if r.abs2() < 1)
    return _from_roots(rng, roots), inside


@pytest.mark.parametrize("seed", range(4))
def test_against_standalone_circle_test(seed):
    rng = random.Random(f"reference:{seed}")
    for _ in range(750):
        p, planted = _small_case(rng)
        on_circle, inside = _reference(p)
        if planted is not None:
            assert (on_circle, inside) == (False, planted), p
        assert has_zero_on_circle(p) == on_circle, p
        if on_circle:
            with pytest.raises(ZeroOnCircle):
                count_zeros_in_disk(p)
        else:
            assert count_zeros_in_disk(p) == inside, p


def test_cayley_image_only_at_a_degenerate_step(monkeypatch):
    def refuse(re, im):
        raise AssertionError("Cayley image built")

    monkeypatch.setattr(rootloc, "_cayley", refuse)
    rng = random.Random(3)
    dense = poly([gr(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(81)])
    trinomial = poly([gr(Fraction(1, 6))] + [0] * 199 + [gr(Fraction(-5, 6))] + [0] * 199 + [1])
    rng = random.Random("distinct:40:3")
    roots = _planted(rng, 40, "distinct")
    planted = _from_roots(rng, roots)
    for p, inside in ((dense, 40), (trinomial, 400), (planted, sum(1 for r in roots if r.abs2() < 1))):
        assert not has_zero_on_circle(p)
        assert count_zeros_in_disk(p) == inside
    # |a0| = |an| at once with q = 0: Cohn's rule finds the circle zero
    assert has_zero_on_circle(poly([-1, 1]))
    # |a0| = |an| with q = -3iz: the fallback, and so the Cayley image, is
    # reached (roots 2i and -i/2)
    with pytest.raises(AssertionError, match="Cayley image built"):
        count_zeros_in_disk(poly([1, gr(0, Fraction(-3, 2)), 1]))
    monkeypatch.undo()
    assert count_zeros_in_disk(poly([1, gr(0, Fraction(-3, 2)), 1])) == 1


UNIT_POINTS = ((1, 0, 1), (0, 1, 1), (3, 4, 5), (5, 12, 13))  # u + iv = d*zeta, |zeta| = 1
LOOP_KINDS = ("dense", "self-inversive", "equal ends", "zeros at 0", "circle zero")


def _loop_case(rng, kind):
    """re, im of a seeded Gaussian-integer polynomial of degree <= 12."""
    n, size = rng.randint(0, 12), rng.choice((1, 2, 6))
    c = [(rng.randint(-size, size), rng.randint(-size, size)) for _ in range(n + 1)]
    if kind == "self-inversive" and n > 6:  # p*p#, p#(z) = z^h*conj(p(1/conj z)), as the disk test builds
        p, h = c[:n - 5], n - 6
        c = [(0, 0)] * (2 * h + 1)
        for j, (a, b) in enumerate(p):
            for k, (x, y) in enumerate(p):  # p_j*conj(p_k) at z^(j+h-k)
                r, i = c[j + h - k]
                c[j + h - k] = (r + a * x + b * y, i + b * x - a * y)
    elif kind == "self-inversive":  # a_k + conj(a_(n-k)), times -1 at random
        s = rng.choice((1, -1))
        c = [(s * (a + c[n - k][0]), s * (b - c[n - k][1])) for k, (a, b) in enumerate(c)]
    elif kind == "equal ends":  # a_n is a_0 turned or mirrored, so |a_0| = |a_n|
        a, b = c[0]
        c[-1] = rng.choice(((b, a), (-a, b), (-b, a), (a, -b), (-a, -b)))
    elif kind == "circle zero":  # (d*z - (u + iv)) * q: d*q_(k-1) - (u + iv)*q_k at z^k
        u, v, d = rng.choice(UNIT_POINTS)
        u, v = rng.choice((1, -1)) * u, rng.choice((1, -1)) * v
        c = [(d * x - u * a + v * b, d * y - u * b - v * a) for (x, y), (a, b) in zip([(0, 0)] + c, c + [(0, 0)])]
    if kind == "zeros at 0":
        c = [(0, 0)] * rng.randint(1, 3) + c + [(0, 0)] * rng.randint(0, 2)
    if not any(a or b for a, b in c):
        c[-1] = (1, 0)
    return [a for a, _ in c], [b for _, b in c]


@pytest.mark.parametrize("seed", range(8))
def test_loop_against_its_former_form(seed):
    rng = random.Random(f"loop:{seed}")
    for k in range(2500):
        re, im = _loop_case(rng, LOOP_KINDS[k % len(LOOP_KINDS)])
        assert rootloc._locate(list(re), list(im)) == locate_reference(re, im), (re, im)


CIRCLE_POINTS = [cmath.exp(2j * cmath.pi * k / 4096) for k in range(4096)]


def _min_modulus(f):
    """min |num/den| over 4,096 points of the circle, in floats."""
    num, den = [c.to_complex() for c in f.num.coeffs], [c.to_complex() for c in f.den.coeffs]

    def at(cs, z):
        out = 0j
        for c in reversed(cs):
            out = out * z + c
        return out

    return min(abs(at(num, z)) / abs(at(den, z)) for z in CIRCLE_POINTS)


@pytest.mark.parametrize("seed", range(4))
def test_disk_test_against_a_float_minimum(seed):
    rng = random.Random(f"disk:{seed}")
    checked = 0
    while checked < 100:
        if rng.random() < 0.5:
            f = random_symbol(rng)  # split or Laurent
        else:
            f = make_symbol(random_poly(rng, rng.randint(0, 4)), random_poly(rng, rng.randint(0, 4)), 0)
        if f.is_zero() or has_zero_on_circle(f.den):
            continue
        low = _min_modulus(f)
        for r in (Fraction(0), Fraction(round(64 * low * rng.uniform(0.5, 1.5)), 64), Fraction(rng.randint(1, 40), 8)):
            if abs(r - low) > 1e-3:
                assert exceeds_on_circle(f.num, f.den, r * r) == (low > r), (f, r)
                checked += 1
