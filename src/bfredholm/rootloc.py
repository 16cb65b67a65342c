"""Exact root location relative to the unit circle.

Circle-zero detection maps the circle to the real line by the Cayley
transform z = (1+it)/(1-it) and counts real roots with Sturm sequences
(the point z = -1 is tested by direct evaluation).  Disk counting runs
the Schur-Cohn recursion; a degenerate step (reflection coefficient of
modulus exactly one) falls back to an exact argument-principle count
built on Cauchy indices over the same Cayley image.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ZeroOnCircle, ZeroPolynomial
from .poly import (
    Polynomial,
    cauchy_index,
    count_real_roots,
    poly,
    rp_trim,
)
from .scalars import gr

_CAYLEY_PLUS = poly([1, gr(0, 1)])  # 1 + i t
_CAYLEY_MINUS = poly([1, gr(0, -1)])  # 1 - i t


def _cayley_numerator(p: Polynomial) -> Polynomial:
    """q(t) = (1 - it)^n * p((1+it)/(1-it)) as a polynomial in t."""
    n = p.degree
    plus_pows = [Polynomial((gr(1),))]
    minus_pows = [Polynomial((gr(1),))]
    for _ in range(n):
        plus_pows.append(plus_pows[-1] * _CAYLEY_PLUS)
        minus_pows.append(minus_pows[-1] * _CAYLEY_MINUS)
    q = Polynomial(())
    for k, a in enumerate(p.coeffs):
        if not a.is_zero():
            q = q + (plus_pows[k] * minus_pows[n - k]).scale(a)
    return q


def has_zero_on_circle(p: Polynomial) -> bool:
    """True iff p has a zero of modulus exactly 1; decided exactly."""
    if p.is_zero():
        raise ZeroPolynomial("circle test on the zero polynomial")
    if p.is_constant():
        return False
    if p.eval(gr(-1)).is_zero():
        return True
    q = _cayley_numerator(p)
    qr = rp_trim([c.re for c in q.coeffs])
    qi = rp_trim([c.im for c in q.coeffs])
    if not qr and not qi:
        return False  # unreachable: q = 0 would force p = 0
    if not qr:
        g = qi
    elif not qi:
        g = qr
    else:
        from .poly import rp_gcd

        g = rp_gcd(qr, qi)
    if len(g) <= 1:
        return False
    return count_real_roots(g) > 0


def _winding_count(p: Polynomial) -> int:
    """Zeros of p inside the unit disk via an exact argument principle.

    Requires p(0) != 0 and no zeros on the circle.  The winding of p
    around the circle is recovered from the Cauchy index of the Cayley
    image q(t) = qr(t) + i*qi(t).
    """
    n = p.degree
    if n == 0:
        return 0
    q = _cayley_numerator(p)
    qr = rp_trim([c.re for c in q.coeffs])
    qi = rp_trim([c.im for c in q.coeffs])
    jump_index = cauchy_index(qr, qi) if qr else 0
    # Boundary contribution of arctan(qi/qr) at t = +/- infinity, in units
    # of pi: nonzero only when deg qi > deg qr.
    boundary = 0
    di, dr = len(qi) - 1, len(qr) - 1
    if not qr:
        # q is purely imaginary on the real line: no real-axis crossings,
        # and the argument is constant +/- pi/2.
        boundary = 0
        jump_index = 0
    elif di > dr:
        s_pos = 1 if (qi[-1] / qr[-1]) > 0 else -1
        s_neg = s_pos * (1 if (di - dr) % 2 == 0 else -1)
        boundary = (s_pos - s_neg) // 2  # in units of pi
    total = boundary - jump_index + n  # Delta arg / pi plus n
    if total % 2 != 0:
        raise AssertionError("argument-principle count is not an integer")
    return total // 2


def count_zeros_in_disk(p: Polynomial) -> int:
    """Zeros of p with |z| < 1, counted with multiplicity; exact.

    Raises ZeroOnCircle if a unit-modulus zero exists, ZeroPolynomial on
    the zero polynomial.
    """
    if p.is_zero():
        raise ZeroPolynomial("disk count of the zero polynomial")
    m = p.order_at_zero()
    if m:
        p = Polynomial(p.coeffs[m:])
    if has_zero_on_circle(p):
        raise ZeroOnCircle(f"{p} has a zero on the unit circle")
    return m + _schur_cohn(p)


def _schur_cohn(p: Polynomial) -> int:
    """Schur-Cohn recursion; p(0) != 0 and no circle zeros (preserved)."""
    n = p.degree
    if n <= 0:
        return 0
    a0 = p.coeffs[0]
    an = p.leading()
    delta: Fraction = a0.abs2() - an.abs2()
    if delta == 0:
        return _winding_count(p)
    q = p.scale(a0.conj()) - p.reverse_conj().scale(an)
    # q(0) = delta != 0 and |q| >= ||a0|-|an|| |p| > 0 on the circle.
    if delta > 0:
        return _schur_cohn(q)
    return n - _schur_cohn(q)


def count_zeros_outside_disk(p: Polynomial) -> int:
    """Zeros with |z| > 1, with multiplicity; same preconditions."""
    if p.is_zero():
        raise ZeroPolynomial("disk count of the zero polynomial")
    return p.degree - count_zeros_in_disk(p)
