"""Univariate polynomials over Q(i).

Coefficients are stored lowest degree first; the zero polynomial is the
empty coefficient tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ZeroPolynomial
from .scalars import GaussianRational, ZERO, ONE, gr


def _trim(coeffs: Iterable[GaussianRational]) -> tuple[GaussianRational, ...]:
    cs = list(coeffs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True, slots=True)
class Polynomial:
    """Polynomial over Q(i); ``coeffs[k]`` multiplies z^k."""

    coeffs: tuple[GaussianRational, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading(self) -> GaussianRational:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> GaussianRational:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(tuple(self.coeff(k) + other.coeff(k) for k in range(n)))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(tuple(self.coeff(k) - other.coeff(k) for k in range(n)))

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero() or other.is_zero():
            return P_ZERO
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(tuple(out))

    def scale(self, c: GaussianRational) -> "Polynomial":
        return Polynomial(tuple(a * c for a in self.coeffs))

    def shift_degree(self, k: int) -> "Polynomial":
        """Multiply by z^k (k >= 0)."""
        if self.is_zero():
            return self
        return Polynomial((ZERO,) * k + self.coeffs)

    def eval(self, x: GaussianRational) -> GaussianRational:
        acc = self.coeffs[-1] if self.coeffs else ZERO  # a constant costs no arithmetic
        for c in self.coeffs[-2::-1]:
            acc = acc * x + c
        return acc

    def eval_complex(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c.to_complex()
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial(
            tuple(c * gr(k) for k, c in enumerate(self.coeffs) if k > 0)
        )

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        inv = self.leading().inv()
        return self.scale(inv)

    def taylor_shift(self, a: GaussianRational) -> "Polynomial":
        """Coefficients of p(a + u) as a polynomial in u.

        Repeated synthetic division by (z - a); the remainders are the
        Taylor coefficients at a.
        """
        cs = list(self.coeffs)
        out = []
        while cs:
            quot = [ZERO] * (len(cs) - 1)
            acc = ZERO
            for k in range(len(cs) - 1, 0, -1):
                acc = cs[k] + acc * a
                quot[k - 1] = acc
            out.append(cs[0] + acc * a if len(cs) > 1 else cs[0])
            cs = quot
        return Polynomial(tuple(out))

    def order_at_zero(self) -> int:
        """Multiplicity of the root z = 0 (0 if p(0) != 0)."""
        if self.is_zero():
            raise ZeroPolynomial("order at zero of the zero polynomial")
        k = 0
        while self.coeffs[k].is_zero():
            k += 1
        return k

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if k == 0:
                parts.append(str(c))
            else:
                zs = "z" if k == 1 else f"z^{k}"
                parts.append(zs if c == ONE else f"({c})*{zs}")
        return " + ".join(parts)


P_ZERO = Polynomial(())
P_ONE = Polynomial((ONE,))


def poly(values: Sequence) -> Polynomial:
    """Convenience constructor: ints, Fractions, or GaussianRationals."""
    out = []
    for v in values:
        out.append(v if isinstance(v, GaussianRational) else gr(v))
    return Polynomial(tuple(out))


def poly_divmod(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    if b.is_zero():
        raise ZeroPolynomial("division by the zero polynomial")
    if a.degree < b.degree:
        return P_ZERO, a
    rem = list(a.coeffs)
    lead_inv = b.leading().inv()
    quot = [ZERO] * (a.degree - b.degree + 1)
    for k in range(a.degree - b.degree, -1, -1):
        c = rem[k + b.degree] * lead_inv
        quot[k] = c
        if not c.is_zero():
            for j, bc in enumerate(b.coeffs):
                rem[k + j] = rem[k + j] - c * bc
    return Polynomial(tuple(quot)), Polynomial(tuple(rem))


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd over Q(i); gcd(0, 0) = 0."""
    while not b.is_zero():
        _, r = poly_divmod(a, b)
        a, b = b, r
    return a.monic() if not a.is_zero() else a


def from_roots(scale: GaussianRational, roots: Sequence[tuple[GaussianRational, int]]) -> Polynomial:
    """scale * prod (z - r)^m."""
    out = Polynomial((scale,))
    for r, m in roots:
        factor = Polynomial((-r, ONE))
        for _ in range(m):
            out = out * factor
    return out


def binom_poly(k: int) -> Polynomial:
    """C(n, k) as a polynomial in n: n(n-1)...(n-k+1)/k!."""
    out = P_ONE
    fact = 1
    for j in range(k):
        out = out * poly([-j, 1])
        fact *= j + 1
    return out.scale(gr(Fraction(1, fact)))


def rising_binom_poly(k: int) -> Polynomial:
    """C(n+k, k) as a polynomial in n: (n+1)...(n+k)/k!."""
    out = P_ONE
    fact = 1
    for j in range(1, k + 1):
        out = out * poly([j, 1])
        fact *= j
    return out.scale(gr(Fraction(1, fact)))
