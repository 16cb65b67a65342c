"""Exact complex scalars: the Gaussian rationals Q(i).

Every computation in the library happens over this field; there is no
floating-point mode.  A scalar is one integer triple (a, b, d) standing
for (a + b*i)/d, kept in canonical form: d > 0 and gcd(a, b, d) = 1, so
zero is (0, 0, 1).  Each field operation does its integer arithmetic and
then one gcd reduction (Henrici, J. ACM 3(1), 1956; Knuth, TAOCP vol. 2,
4.5.1); ``**`` squares and multiplies the Gaussian-integer numerator and
reduces once at the end.  Because the form is canonical, ``==`` and
``hash`` of the triple are structural and mathematical equality at the
same time.  The real and imaginary parts ``.re`` and ``.im`` are derived
``Fraction`` values.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import DivisionByZero

RationalLike = int | Fraction

_new = tuple.__new__


def _reduced(a: int, b: int, d: int) -> "GaussianRational":
    """(a + b*i)/d in canonical form; d > 0."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _new(GaussianRational, (a, b, d))


class GaussianRational(tuple):
    """An element of the field Q(i), the canonical triple (a + b*i)/d.

    The class is an immutable tuple, so construction, ``==`` and ``hash``
    run in C and ``a, b, d = x`` reads the triple; it is not meant to be
    used as a sequence.
    """

    __slots__ = ()

    def __new__(cls, re: RationalLike = 0, im: RationalLike = 0) -> "GaussianRational":
        re, im = Fraction(re), Fraction(im)
        d = lcm(re.denominator, im.denominator)
        # re and im are in lowest terms, so gcd(a, b, d) is already 1.
        return _new(cls, (
            re.numerator * (d // re.denominator),
            im.numerator * (d // im.denominator),
            d,
        ))

    def __getnewargs__(self) -> tuple[Fraction, Fraction]:
        return self.re, self.im

    @property
    def re(self) -> Fraction:
        return Fraction(self[0], self[2])

    @property
    def im(self) -> Fraction:
        return Fraction(self[1], self[2])

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        a, b, d = self
        c, e, f = other
        if d == f:
            return _reduced(a + c, b + e, d)
        return _reduced(a * f + c * d, b * f + e * d, d * f)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        a, b, d = self
        c, e, f = other
        if d == f:
            return _reduced(a - c, b - e, d)
        return _reduced(a * f - c * d, b * f - e * d, d * f)

    def __neg__(self) -> "GaussianRational":
        a, b, d = self
        return _new(GaussianRational, (-a, -b, d))

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        a, b, d = self
        c, e, f = other
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    def __rmul__(self, other):
        # Without this, int * scalar would fall through to tuple repetition.
        raise TypeError(f"unsupported operand type for *: {type(other).__name__!r} and scalar")

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        c, e, f = other
        n = c * c + e * e
        if not n:
            raise DivisionByZero("division by zero scalar")
        a, b, d = self
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, d * n)

    def __pow__(self, n: int) -> "GaussianRational":
        """self**n for any integer n; a negative exponent inverts first.

        Squares and multiplies the numerator a + b*i, raises d to the n,
        and reduces once at the end.
        """
        if n < 0:
            return self.inv() ** -n
        a, b, d = self
        if not b:
            # gcd(a, d) = 1, so gcd(a**n, d**n) = 1 as well.
            return _new(GaussianRational, (a**n, 0, d**n))
        dn = d**n
        ra, rb = 1, 0
        while n:
            if n & 1:
                ra, rb = ra * a - rb * b, ra * b + rb * a
            n >>= 1
            if n:
                a, b = a * a - b * b, 2 * a * b
        return _reduced(ra, rb, dn)

    def conj(self) -> "GaussianRational":
        a, b, d = self
        return _new(GaussianRational, (a, -b, d))

    def abs2(self) -> Fraction:
        """|a|^2 = re^2 + im^2, a nonnegative rational."""
        a, b, d = self
        return Fraction(a * a + b * b, d * d)

    def inv(self) -> "GaussianRational":
        a, b, d = self
        n = a * a + b * b
        if not n:
            raise DivisionByZero("division by zero scalar")
        return _reduced(a * d, -b * d, n)

    def is_zero(self) -> bool:
        return not (self[0] or self[1])

    def is_rational_integer(self) -> bool:
        return self[1] == 0 and self[2] == 1

    def to_complex(self) -> complex:
        a, b, d = self
        return complex(a / d, b / d)

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"GR({format_scalar(self)})"


def gr(re: RationalLike = 0, im: RationalLike = 0) -> GaussianRational:
    """Build a GaussianRational from integers or Fractions."""
    if type(re) is int and type(im) is int:
        return _new(GaussianRational, (re, im, 1))
    return GaussianRational(re, im)


ZERO = gr(0)
ONE = gr(1)
I = gr(0, 1)


def _dot(pairs, total: GaussianRational = ZERO) -> GaussianRational:
    """total + sum of x*y over the (x, y) in pairs, reduced once.

    The running sum is a Gaussian integer a + b*i over the lcm d of the
    denominators seen so far, so a product costs integer arithmetic and
    no reduction of its own (Knuth, TAOCP vol. 2, 4.5.1).
    """
    a, b, d = total
    for (p, q, e), (r, s, f) in pairs:
        m = e * f
        if m == d:
            a, b = a + p * r - q * s, b + p * s + q * r
            continue
        g = gcd(d, m)  # move the sum to lcm(d, m)
        k, l = d // g, m // g
        a, b, d = a * l + (p * r - q * s) * k, b * l + (p * s + q * r) * k, d * l
    return _reduced(a, b, d)


def _frac_str(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_scalar(a: GaussianRational) -> str:
    """Exact string form, e.g. ``1/2-1/2i``; never decimals."""
    if a.im == 0:
        return _frac_str(a.re)
    im_abs = _frac_str(abs(a.im))
    im_part = "i" if im_abs == "1" else f"{im_abs}i"
    sign = "+" if a.im > 0 else "-"
    if a.re == 0:
        return im_part if a.im > 0 else f"-{im_part}"
    return f"{_frac_str(a.re)}{sign}{im_part}"


def _frac_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    ns = isqrt(q.numerator)
    ds = isqrt(q.denominator)
    if ns * ns == q.numerator and ds * ds == q.denominator:
        return Fraction(ns, ds)
    return None


def gaussian_sqrt(a: GaussianRational) -> GaussianRational | None:
    """A square root of ``a`` inside Q(i), or None if there is none.

    Solves (x + yi)^2 = a: x^2 - y^2 = re, 2xy = im.
    """
    n = _frac_sqrt(a.abs2())
    if n is None:
        return None
    x2 = (a.re + n) / 2
    x = _frac_sqrt(x2)
    if x is None:
        return None
    if x == 0:
        y = _frac_sqrt(n)  # a.re <= 0 case: a = -y^2
        if y is None:
            return None
        root = GaussianRational(Fraction(0), y)
    else:
        y = a.im / (2 * x)
        root = GaussianRational(x, y)
    return root if root * root == a else None
