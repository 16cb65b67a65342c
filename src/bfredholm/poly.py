"""Univariate polynomials over Q(i).

A polynomial is the tuple ``coeffs`` of its coefficients, lowest degree
first, trimmed so that the top coefficient is nonzero; the zero
polynomial is the empty tuple.  Trimmed coefficients are canonical, so
``==`` and ``hash`` of the tuple are equality of polynomials.  A
``Polynomial`` is a slotted class whose constructor trims; it cannot be
assigned to after construction.

``from_roots`` expands scale * prod (z - r)^m by synthetic multiplication
over the Gaussian integers: the running product is kept as integer real
and imaginary parts over one common denominator, and each coefficient is
reduced once at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import ZeroPolynomial
from .scalars import GaussianRational, ZERO, ONE, _reduced, gr


class Polynomial:
    """Polynomial over Q(i); ``coeffs[k]`` multiplies z^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[GaussianRational, ...]):
        if coeffs and not (coeffs[-1][0] or coeffs[-1][1]):
            cs = list(coeffs)
            while cs and not (cs[-1][0] or cs[-1][1]):
                cs.pop()
            coeffs = tuple(cs)
        _set_coeffs(self, coeffs)

    def __setattr__(self, name, value):
        raise AttributeError(f"Polynomial is immutable; cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Polynomial is immutable; cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not Polynomial:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    def __reduce__(self):
        return Polynomial, (self.coeffs,)

    def __repr__(self) -> str:
        return f"Polynomial(coeffs={self.coeffs!r})"

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


_set_coeffs = Polynomial.coeffs.__set__

P_ZERO = Polynomial(())
P_ONE = Polynomial((ONE,))


def poly(values: list | tuple) -> Polynomial:
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


def from_roots(scale: GaussianRational, roots: list | tuple) -> Polynomial:
    """scale * prod (z - r)^m over the (r, m) pairs of roots.

    With scale = (a + b*i)/e, the product is held as Gaussian-integer
    coefficients over one denominator D = e; each factor
    z - (x + y*i)/d = (d*z - (x + y*i))/d multiplies them in place and D
    by d.
    """
    if not roots:
        return Polynomial((scale,))
    a, b, D = scale
    re, im = [a], [b]
    for (x, y, d), m in roots:
        for _ in range(m):
            re.append(0)
            im.append(0)
            for k in range(len(re) - 1, 0, -1):
                p, q = re[k], im[k]
                re[k] = d * re[k - 1] - x * p + y * q
                im[k] = d * im[k - 1] - x * q - y * p
            p, q = re[0], im[0]
            re[0], im[0] = y * q - x * p, -x * q - y * p
            D *= d
    return Polynomial(tuple(_reduced(p, q, D) for p, q in zip(re, im)))


def binom_poly(k: int) -> Polynomial:
    """C(n, k) as a polynomial in n: n(n-1)...(n-k+1)/k!."""
    return from_roots(gr(Fraction(1, factorial(k))), [(gr(j), 1) for j in range(k)])


def rising_binom_poly(k: int) -> Polynomial:
    """C(n+k, k) as a polynomial in n: (n+1)...(n+k)/k!."""
    return from_roots(gr(Fraction(1, factorial(k))), [(gr(-j), 1) for j in range(1, k + 1)])
