"""Reference computations made apart from bfredholm.

Nothing here imports the library.  Exact values use a small Gaussian
rational type built on ``fractions.Fraction``; the punctured-scan check
counts roots in floating point with numpy, which is imported lazily so
that the timed process never loads it before its memory is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class GQ:
    """Exact a + b*i with rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, o: "GQ") -> "GQ":
        return GQ(self.re + o.re, self.im + o.im)

    def __sub__(self, o: "GQ") -> "GQ":
        return GQ(self.re - o.re, self.im - o.im)

    def __neg__(self) -> "GQ":
        return GQ(-self.re, -self.im)

    def __mul__(self, o: "GQ") -> "GQ":
        return GQ(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o: "GQ") -> "GQ":
        d = o.abs2()
        return GQ((self.re * o.re + self.im * o.im) / d, (self.im * o.re - self.re * o.im) / d)

    def __pow__(self, k: int) -> "GQ":  # k >= 0
        out = GQ(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, o) -> bool:
        return isinstance(o, GQ) and self.re == o.re and self.im == o.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"GQ({fmt(self)})"


def same(lib_scalar, q: GQ) -> bool:
    """A library scalar (anything with exact ``re``/``im``) equals q."""
    return lib_scalar.re == q.re and lib_scalar.im == q.im


def _frac(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def fmt(q: GQ) -> str:
    """DSL scalar literal: ``3``, ``-1/2``, ``2/3i``, ``1/2-1/4i``."""
    if q.im == 0:
        return _frac(q.re)
    mag = "" if abs(q.im) == 1 else _frac(abs(q.im))
    if q.re == 0:
        return f"{'-' if q.im < 0 else ''}{mag}i"
    return f"{_frac(q.re)}{'-' if q.im < 0 else '+'}{mag}i"


# ---------------------------------------------------------------------------
# Symbols given by their root factorization.
# ---------------------------------------------------------------------------

Roots = tuple[tuple[GQ, int], ...]


@dataclass(frozen=True)
class Sym:
    """f(z) = scale * z^shift * prod (z - a)^m / prod (z - b)^n."""

    scale: GQ
    shift: int
    zeros: Roots
    poles: Roots

    def dsl(self) -> str:
        parts = [] if self.scale == GQ(1) else [f"({fmt(self.scale)})"]
        if self.shift:
            parts.append(f"z^{self.shift}")
        parts += [_factor(a, m) for a, m in self.zeros]
        num = " * ".join(parts) if parts else "1"
        if not self.poles:
            return num
        return f"{num} / ({' * '.join(_factor(b, n) for b, n in self.poles)})"


def _factor(a: GQ, m: int) -> str:
    base = f"(z - ({fmt(a)}))"
    return base if m == 1 else f"{base}^{m}"


def winding(f: Sym) -> int:
    """shift + zeros inside - poles inside, with multiplicity."""
    inside = lambda roots: sum(m for r, m in roots if r.abs2() < 1)  # noqa: E731
    return f.shift + inside(f.zeros) - inside(f.poles)


def _mul_trunc(a: list[GQ], b: list[GQ], n: int) -> list[GQ]:
    out = [GQ(0)] * n
    for i, x in enumerate(a[:n]):
        if x.is_zero():
            continue
        for j, y in enumerate(b[: n - i]):
            out[i + j] = out[i + j] + x * y
    return out


def laurent_coeffs(f: Sym, lo: int, hi: int) -> dict[int, GQ]:
    """Exact Fourier coefficients fhat(e), lo <= e <= hi, by series products.

    Every pole must lie on the same side of the unit circle, so the
    expansion is one-sided and each coefficient is a finite sum:
    1/(z-b) = -sum z^k / b^(k+1) for |b| > 1, and sum b^k z^(-1-k) for
    |b| < 1.
    """
    inner = [p for p in f.poles if p[0].abs2() < 1]
    if inner and len(inner) != len(f.poles):
        raise ValueError("poles on both sides give a two-sided infinite sum")
    num = [f.scale]
    for a, m in f.zeros:
        for _ in range(m):
            num = _mul_trunc(num, [-a, GQ(1)], len(num) + 1)
    if not inner:
        # power series in z, exponent e = shift + k
        n = max(0, hi - f.shift + 1)
        series = num + [GQ(0)] * max(0, n - len(num))
        for b, m in f.poles:
            geo = [GQ(-1) / b ** (k + 1) for k in range(n)]
            for _ in range(m):
                series = _mul_trunc(series, geo, n)
        return {e: (series[e - f.shift] if 0 <= e - f.shift < n else GQ(0)) for e in range(lo, hi + 1)}
    # power series in w = 1/z: prod 1/(z-b)^n = w^q * prod (sum b^k w^k)^n,
    # so z^shift * z^i * w^(q+k) has exponent e = shift + i - q - k
    q = sum(m for _, m in f.poles)
    top = f.shift + len(num) - 1 - q
    n = max(0, top - lo + 1)
    series = [GQ(1)] + [GQ(0)] * max(0, n - 1)
    for b, m in f.poles:
        geo = [b ** k for k in range(n)]
        for _ in range(m):
            series = _mul_trunc(series, geo, n)
    out = {}
    for e in range(lo, hi + 1):
        acc = GQ(0)
        for i, c in enumerate(num):
            k = f.shift + i - q - e
            if 0 <= k < n:
                acc = acc + c * series[k]
        out[e] = acc
    return out


# ---------------------------------------------------------------------------
# Sequences and finite-rank terms.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Seq:
    """``fin[values]``, ``e<index>`` or ``geo(ratio; degree)``: n^degree ratio^n."""

    kind: str
    values: tuple[GQ, ...] = ()
    ratio: GQ | None = None
    degree: int = 0

    def dsl(self) -> str:
        if self.kind == "fin":
            return "fin[" + ", ".join(fmt(v) for v in self.values) + "]"
        if self.kind == "e":
            return f"e{self.degree}"
        return f"geo({fmt(self.ratio)}; {self.degree})" if self.degree else f"geo({fmt(self.ratio)})"

    def value(self, n: int) -> GQ:
        if self.kind == "fin":
            return self.values[n] if n < len(self.values) else GQ(0)
        if self.kind == "e":
            return GQ(1) if n == self.degree else GQ(0)
        return GQ(n**self.degree) * self.ratio**n

    def support(self) -> int | None:
        """One past the last nonzero entry, or None for a geometric tail."""
        if self.kind == "fin":
            return len(self.values)
        return self.degree + 1 if self.kind == "e" else None


# ---------------------------------------------------------------------------
# Oracles used by the workloads.
# ---------------------------------------------------------------------------


def _scaled(values: list[GQ]) -> tuple[list[tuple[int, int]], int]:
    """Gaussian integers c * v for one common denominator c."""
    c = math.lcm(1, *(x.denominator for v in values for x in (v.re, v.im)))
    return [(int(v.re * c), int(v.im * c)) for v in values], c


def window_of_product(f: Sym, u1v1: tuple[Seq, Seq] | None, g: Sym,
                      u2v2: tuple[Seq, Seq] | None, n: int) -> list[list[GQ]]:
    """Entries (i, j) < n of (T(f) + u1(x)v1) * (T(g) + u2(x)v2), exactly.

    f has no pole inside the disk, so fhat(m) = 0 for m < f.shift and every
    sum over the inner index k stops at i - f.shift; g has no pole
    outside, so ghat(m) = 0 above a finite degree; v1 is finitely
    supported.  Each sum is truncated where its terms vanish, which makes
    the truncated product equal to the operator entry.
    """
    kmax = max(n - 1 - f.shift, 0)  # largest inner index any row needs
    fh = laurent_coeffs(f, f.shift, n - 1)
    gh = laurent_coeffs(g, -(n - 1), kmax)
    fhat = lambda m: fh.get(m, GQ(0))  # noqa: E731  (zero below f.shift)
    # sum_k fhat(i - k) ghat(k - j) in Gaussian integers over one denominator
    fs, cf = _scaled([fh[m] for m in range(f.shift, n)])  # fs[m - f.shift]
    gs, cg = _scaled([gh[m] for m in range(-(n - 1), kmax + 1)])  # gs[m + n - 1]
    out = [[GQ(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            re = im = 0
            for k in range(0, i - f.shift + 1):
                a, b = fs[i - k - f.shift]
                c, d = gs[k - j + n - 1]
                re += a * c - b * d
                im += a * d + b * c
            out[i][j] = GQ(Fraction(re, cf * cg), Fraction(im, cf * cg))
    outer_terms = []  # rank-one parts a (x) b, as value lists
    if u2v2 is not None:  # T(f) u2 (x) v2
        u2, v2 = u2v2
        u2v = [u2.value(k) for k in range(kmax + 1)]
        tu2 = [sum((fhat(i - k) * u2v[k] for k in range(0, i - f.shift + 1)), GQ(0)) for i in range(n)]
        outer_terms.append((tu2, [v2.value(j) for j in range(n)]))
    if u1v1 is not None:  # u1 (x) T(g)^T v1
        u1, v1 = u1v1
        support = v1.support()
        if support is None:
            raise ValueError("v1 must be finitely supported")
        gv1 = laurent_coeffs(g, -(n - 1), support)
        row = [sum((v1.value(k) * gv1[k - j] for k in range(support)), GQ(0)) for j in range(n)]
        u1v = [u1.value(i) for i in range(n)]
        outer_terms.append((u1v, row))
        if u2v2 is not None:  # u1 (x) v2 scaled by the pairing <v1, u2>
            c = sum((v1.value(k) * u2.value(k) for k in range(support)), GQ(0))
            outer_terms.append(([x * c for x in u1v], [v2.value(j) for j in range(n)]))
    for a, b in outer_terms:
        for i in range(n):
            for j in range(n):
                out[i][j] = out[i][j] + a[i] * b[j]
    return out


def root_moduli(coeffs: list[GQ]) -> list[float]:
    """|roots| of sum coeffs[k] z^k (lowest degree first), by numpy."""
    import numpy as np

    c = [x.to_complex() for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return [float(abs(r)) for r in np.roots(c[::-1])]


def min_modulus_on_circle(coeffs: list[GQ], points: int = 8192) -> float:
    """A lower bound for min |p(z)| over |z| = 1, computed in floats.

    The sampled minimum is lowered by the Lipschitz bound
    sum k |c_k| times half the angular grid step, plus a rounding margin.
    """
    import numpy as np

    c = np.array([x.to_complex() for x in coeffs])
    z = np.exp(2j * np.pi * np.arange(points) / points)
    values = np.polynomial.polynomial.polyval(z, c)
    lipschitz = float(sum(k * abs(ck) for k, ck in enumerate(c)))
    return float(np.min(np.abs(values))) - lipschitz * np.pi / points - 1e-9
