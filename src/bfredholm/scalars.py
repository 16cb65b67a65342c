"""Exact complex scalars a + b*i with rational a, b.

Every computation in the library happens over this field; there is no
floating-point mode.  Values are immutable and canonical (``Fraction``
keeps fractions reduced with a positive denominator), so ``==`` is a
structural and mathematical equality at the same time.
"""

from __future__ import annotations

import math
import re as _re
from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionByZero, ParseError

RationalLike = int | Fraction


@dataclass(frozen=True, slots=True)
class GaussianRational:
    """An element of the field Q(i)."""

    re: Fraction
    im: Fraction

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        if other.is_zero():
            raise DivisionByZero("division by zero scalar")
        d = other.abs2()
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def conj(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|a|^2 = re^2 + im^2, a nonnegative rational."""
        return self.re * self.re + self.im * self.im

    def inv(self) -> "GaussianRational":
        return ONE / self

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_rational_integer(self) -> bool:
        return self.im == 0 and self.re.denominator == 1

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"GR({format_scalar(self)})"


def gr(re: RationalLike = 0, im: RationalLike = 0) -> GaussianRational:
    """Build a GaussianRational from integers or Fractions."""
    return GaussianRational(Fraction(re), Fraction(im))


ZERO = gr(0)
ONE = gr(1)
I = gr(0, 1)
MINUS_ONE = gr(-1)


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


_SCALAR_RE = _re.compile(
    r"^(?P<s1>[+-])?"
    r"(?:(?P<b1>\d+(?:/\d+)?)?i"
    r"|(?P<a>\d+(?:/\d+)?)(?:(?P<s2>[+-])(?P<b2>\d+(?:/\d+)?)?i)?)$"
)


def parse_scalar(text: str) -> GaussianRational:
    """Parse strings like ``3``, ``-1/2``, ``i``, ``2i``, ``1/2-1/2i``."""
    m = _SCALAR_RE.match(text.replace(" ", ""))
    if not m:
        raise ParseError(f"bad scalar literal {text!r}", 1, 1)
    sign1 = -1 if m.group("s1") == "-" else 1
    if m.group("a") is None:
        # pure imaginary: [s1] [b1] i
        mag = Fraction(m.group("b1")) if m.group("b1") else Fraction(1)
        return GaussianRational(Fraction(0), sign1 * mag)
    re_part = sign1 * Fraction(m.group("a"))
    im_part = Fraction(0)
    if m.group("s2") is not None:
        sign2 = -1 if m.group("s2") == "-" else 1
        mag = Fraction(m.group("b2")) if m.group("b2") else Fraction(1)
        im_part = sign2 * mag
    return GaussianRational(re_part, im_part)


def _frac_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    ns = math.isqrt(q.numerator)
    ds = math.isqrt(q.denominator)
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
