"""Exact square-summable sequences: finite heads plus polynomial-times-
geometric tails.

A sequence is x_n = head[n] + sum_t poly_t(n) * ratio_t^n, where each
ratio satisfies |ratio|^2 < 1 exactly.  Tails are canonically anchored at
n = 0 (a nonzero public ``start`` is folded into head corrections), the
head is trimmed, tails with equal ratios are merged and zero tails are
dropped.  That makes the representation unique, so structural equality
is mathematical equality.

``value(n)`` (n >= 0) and the tail-times-head part of ``pairing`` share
one tail sum: a constant tail reads its coefficient without evaluating
its polynomial, and the first nonzero term starts the sum, so a constant
tail costs one power, one product and at most one sum; nothing is cached.
"""

from __future__ import annotations

from .errors import ExactError
from .poly import Polynomial, poly
from .record import Record, _set
from .scalars import GaussianRational, ONE, ZERO, gr


class RationalSequence(Record):
    """Element of l2(N) with exact closed-form entries."""

    __slots__ = ("head", "tails")

    def __init__(self, head: tuple[GaussianRational, ...], tails: tuple[tuple[GaussianRational, Polynomial], ...]):
        _set(self, "head", head)
        _set(self, "tails", tails)

    def value(self, n: int) -> GaussianRational:
        """x_n for n >= 0: the head entry plus one term per tail."""
        return _tail_sum(self.tails, n, self.head[n] if n < len(self.head) else ZERO)

    def is_zero(self) -> bool:
        return not self.head and not self.tails

    def __add__(self, other: "RationalSequence") -> "RationalSequence":
        n = max(len(self.head), len(other.head))
        head = [
            (self.head[k] if k < len(self.head) else ZERO)
            + (other.head[k] if k < len(other.head) else ZERO)
            for k in range(n)
        ]
        return make_sequence(head, self.tails + other.tails)

    def __sub__(self, other: "RationalSequence") -> "RationalSequence":
        return self + other.scale(gr(-1))

    def __neg__(self) -> "RationalSequence":
        return self.scale(gr(-1))

    def scale(self, c: GaussianRational) -> "RationalSequence":
        if c.is_zero():
            return SEQ_ZERO
        return RationalSequence(
            tuple(h * c for h in self.head),
            tuple((r, p.scale(c)) for r, p in self.tails),
        )

    def drop(self, s: int) -> "RationalSequence":
        """y(n) = x(n + s) for s >= 0."""
        head = list(self.head[s:])
        tails = []
        for r, p in self.tails:
            # poly(n+s) r^(n+s) = [r^s poly(n+s)] r^n
            tails.append((r, p.taylor_shift(gr(s)).scale(r**s)))
        return make_sequence(head, tails)

    def shift_up(self, s: int) -> "RationalSequence":
        """y(n) = x(n - s) for n >= s, 0 below (s >= 0)."""
        tails = []
        corrections = [ZERO] * s
        for r, p in self.tails:
            p_shift = p.taylor_shift(gr(-s)).scale(r ** -s)
            tails.append((r, p_shift))
            for n in range(s):
                corrections[n] = corrections[n] - p_shift.eval(gr(n)) * r**n
        head = corrections + list(self.head)
        return make_sequence(head, tails)

    def __str__(self) -> str:
        parts = [f"fin[{', '.join(str(h) for h in self.head)}]"] if self.head else []
        for r, p in self.tails:
            parts.append(f"({p})*({r})^n")
        return " + ".join(parts) if parts else "0"


def make_sequence(head, tails) -> RationalSequence:
    """Canonicalizing constructor; merges/validates tails, trims head."""
    merged: dict[GaussianRational, Polynomial] = {}
    for r, p in tails:
        if p.is_zero():
            continue
        a, b, d = r
        if not (a or b):
            raise ExactError("tail ratio must be nonzero (fold into head)")
        if a * a + b * b >= d * d:
            raise ExactError(f"tail ratio {r} is not inside the unit circle")
        merged[r] = merged[r] + p if r in merged else p
    clean = [(r, p) for r, p in merged.items() if not p.is_zero()]
    if len(clean) > 1:
        clean.sort(key=lambda t: (t[0].re, t[0].im))
    hs = list(head)
    while hs and hs[-1].is_zero():
        hs.pop()
    return RationalSequence(tuple(hs), tuple(clean))


SEQ_ZERO = make_sequence([], [])


def seq_finite(values) -> RationalSequence:
    """Finitely supported sequence from a list of scalars."""
    vals = [v if isinstance(v, GaussianRational) else gr(v) for v in values]
    return make_sequence(vals, [])


def seq_basis(i: int) -> RationalSequence:
    """Standard basis vector e_i."""
    return make_sequence([ZERO] * i + [ONE], [])


def seq_geo(ratio: GaussianRational, degree: int = 0) -> RationalSequence:
    """x_n = n^degree * ratio^n."""
    return make_sequence([], [(ratio, poly([0] * degree + [1]))])


# ---------------------------------------------------------------------------
# Exact summation of polynomial-times-geometric series.
# ---------------------------------------------------------------------------


def power_series_sum(p: Polynomial, r: GaussianRational) -> GaussianRational:
    """sum_{k>=0} p(k) r^k, exact, for |r| < 1.

    Uses the binomial transform: p(k) = sum_j d_j C(k, j) with
    d_j = Delta^j p(0), and sum_k C(k, j) r^k = r^j / (1-r)^{j+1}.
    """
    if p.is_zero():
        return ZERO
    if r.abs2() >= 1:
        raise ExactError(f"series ratio {r} does not converge")
    d = p.degree
    values = [p.eval(gr(k)) for k in range(d + 1)]
    total = ZERO
    one_minus = ONE - r
    for j in range(d + 1):
        dj = values[0]
        # finite differences in place
        total = total + dj * r**j / one_minus ** (j + 1)
        values = [values[k + 1] - values[k] for k in range(len(values) - 1)]
        if not values:
            break
    return total


def _tail_sum(tails, n: int, total: GaussianRational = ZERO) -> GaussianRational:
    """total + sum_t p_t(n) r_t^n (n >= 0); a constant tail is not evaluated."""
    for r, p in tails:
        term = (p.coeffs[0] if p.is_constant() else p.eval(gr(n))) * r**n
        total = term if total.is_zero() else total + term
    return total


def pairing(v: RationalSequence, x: RationalSequence) -> GaussianRational:
    """Bilinear pairing sum_n v_n x_n, exact (no conjugation)."""
    total = ZERO
    # head x head and head x tail
    for n, hv in enumerate(v.head):
        if not hv.is_zero():
            total = total + hv * x.value(n)
    # tail x head (head part of x only, avoiding double count of x tails)
    for n, hx in enumerate(x.head):
        if v.tails and not hx.is_zero():
            total = total + _tail_sum(v.tails, n) * hx
    # tail x tail
    for rv, pv in v.tails:
        for rx, px in x.tails:
            total = total + power_series_sum(pv * px, rv * rx)
    return total
