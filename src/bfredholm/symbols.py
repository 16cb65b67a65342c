"""Rational Toeplitz symbols over Q(i).

A symbol is f(z) = z^shift * num(z) / den(z) in canonical form: den is
monic with den(0) != 0, num(0) != 0 (powers of z are folded into the
shift), gcd(num, den) is constant, and den never vanishes on the unit
circle.  Structural equality of the canonical fields is equality of
rational functions.

A symbol may carry a CircleSplit witness: its zeros and poles with
multiplicities, none on the unit circle.  The split is what makes
Fourier coefficients and inverse symbols exactly computable; winding
numbers never need it.  Which side of the circle a root lies on is read
where it is used: by the expansion, which a symbol computes on the first
read and keeps, and by widom_pairings, which sums residues at the roots.
Both take Taylor coefficients at a point from one routine, _taylor_at:
the partial fractions of the expansion, the principal parts the pairings
read, and the Taylor values of f and of its other principal parts.

A split symbol made by make_factored (products, scalings, inverses and
powers of split symbols) holds its leading coefficient and its split,
and builds num and den from the roots when they are first read; it then
keeps them.  The difference of two split symbols is decided on their
roots: it is zero exactly when lead, shift, zeros and poles agree with
multiplicity, and otherwise it is formed from num and den.
"""

from __future__ import annotations

from functools import reduce

from .errors import (
    FactorOnCircle,
    MissingSplit,
    PoleOnCircle,
    ZeroDenominator,
    ZeroSymbol,
)
from .poly import (
    P_ONE,
    P_ZERO,
    Polynomial,
    binom_poly,
    from_roots,
    poly_divmod,
    poly_gcd,
    rising_binom_poly,
)
from .record import Record, _set
from .rootloc import count_zeros_in_disk, has_zero_on_circle
from .scalars import GaussianRational, ONE, ZERO, gaussian_sqrt, gr
from .sequences import (
    RationalSequence,
    SEQ_ZERO,
    make_sequence,
    seq_finite,
)

Roots = tuple[tuple[GaussianRational, int], ...]


class CircleSplit(Record):
    """Factorization witness: the zeros and poles, none on the circle."""

    __slots__ = ("zeros", "poles")

    def __init__(self, zeros: Roots, poles: Roots):
        _set(self, "zeros", zeros)
        _set(self, "poles", poles)


class RationalSymbol:
    """f = z^shift * num / den, with ``lead`` the leading coefficient of num.

    A symbol built from num and den holds them.  A symbol built by
    make_factored holds only its lead and split, and builds num and den
    from the roots when they are first read; it keeps them, as it keeps
    its expansion.  No other field changes after construction.  Equality
    and hash are those of (num, den, shift); every constructor gives a
    zero symbol shift 0, so == is equality of rational functions.
    """

    __slots__ = ("_num", "_den", "shift", "split", "lead", "expansion")

    def __init__(self, num: Polynomial | None, den: Polynomial | None, shift: int,
                 split: CircleSplit | None = None, lead: GaussianRational | None = None):
        if num is not None:
            lead = num.coeffs[-1] if num.coeffs else ZERO
        self._num, self._den, self.shift, self.split, self.lead = num, den, shift, split, lead
        self.expansion = None

    @property
    def num(self) -> Polynomial:
        if self._num is None:
            self._num = from_roots(self.lead, self.split.zeros)
        return self._num

    @property
    def den(self) -> Polynomial:
        if self._den is None:
            self._den = from_roots(ONE, self.split.poles)
        return self._den

    def is_zero(self) -> bool:
        return self.lead.is_zero()

    def __eq__(self, other):
        if other.__class__ is not RationalSymbol:
            return NotImplemented
        return self.shift == other.shift and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den, self.shift))

    def __repr__(self) -> str:
        return f"RationalSymbol(num={self.num!r}, den={self.den!r}, shift={self.shift!r}, split={self.split!r})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        core = f"({self.num})"
        if self.den != P_ONE:
            core += f"/({self.den})"
        if self.shift:
            core = f"z^{self.shift}*{core}"
        return core


def _circle_split(zeros, poles) -> CircleSplit:
    for r, _ in zeros + poles:
        a, b, d = r
        if a * a + b * b == d * d:
            raise FactorOnCircle(f"factor root {r} lies on the unit circle")
    return CircleSplit(tuple(zeros), tuple(poles))


def _merge_roots(roots) -> dict[GaussianRational, int]:
    acc: dict[GaussianRational, int] = {}
    for r, m in roots:
        acc[r] = acc.get(r, 0) + m
    return acc


def _cancel_common(zeros, poles):
    zacc = _merge_roots(zeros)
    out_poles = []
    for r, m in _merge_roots(poles).items():
        common = min(m, zacc.get(r, 0))
        if common:
            zacc[r] -= common
            m -= common
        if m:
            out_poles.append((r, m))
    out_zeros = [(r, m) for r, m in zacc.items() if m]
    return out_zeros, out_poles


ZERO_SYMBOL = RationalSymbol(P_ZERO, P_ONE, 0, None)


def make_symbol(num: Polynomial, den: Polynomial, shift: int = 0) -> RationalSymbol:
    """Canonicalizing constructor; attaches a split when one is cheap."""
    if den.is_zero():
        raise ZeroDenominator("symbol denominator is the zero polynomial")
    if num.is_zero():
        return ZERO_SYMBOL
    if not num.is_constant() and not den.is_constant():
        g = poly_gcd(num, den)
        if not g.is_constant():
            num, _ = poly_divmod(num, g)
            den, _ = poly_divmod(den, g)
    zn = num.order_at_zero()
    zd = den.order_at_zero()
    if zn:
        num = Polynomial(num.coeffs[zn:])
    if zd:
        den = Polynomial(den.coeffs[zd:])
    shift += zn - zd
    lead = den.leading()
    if lead != ONE:
        inv = lead.inv()
        num = num.scale(inv)
        den = den.scale(inv)
    if not den.is_constant() and has_zero_on_circle(den):
        raise PoleOnCircle(f"denominator {den} vanishes on the unit circle")
    split = _try_split(num, den)
    return RationalSymbol(num, den, shift, split)


def make_factored(scale: GaussianRational, shift: int, zeros, poles) -> RationalSymbol:
    """Build a symbol from a linear factorization, keeping the witness."""
    if scale.is_zero():
        return ZERO_SYMBOL
    zs, ps = _cancel_common(zeros, poles)
    clean_z, clean_p = [], []
    for r, m in zs:
        if r.is_zero():
            shift += m
        else:
            clean_z.append((r, m))
    for r, m in ps:
        if r.is_zero():
            shift -= m
        else:
            clean_p.append((r, m))
    return RationalSymbol(None, None, shift, _circle_split(clean_z, clean_p), scale)


def _factor_roots(p: Polynomial) -> list | None:
    """The Gaussian-rational roots of p for degree <= 2, else None."""
    d = p.degree
    if d == 0:
        return []
    if d == 1:
        c0, c1 = p.coeffs
        return [(-(c0 / c1), 1)]
    if d == 2:
        c0, c1, c2 = p.coeffs
        b = c1 / c2
        c = c0 / c2
        disc = b * b - gr(4) * c
        root = gaussian_sqrt(disc)
        if root is None:
            return None
        two = gr(2)
        r1 = (-b + root) / two
        r2 = (-b - root) / two
        if r1 == r2:
            return [(r1, 2)]
        return [(r1, 1), (r2, 1)]
    return None


def _try_split(num: Polynomial, den: Polynomial) -> CircleSplit | None:
    zeros = _factor_roots(num)
    poles = _factor_roots(den)
    if zeros is None or poles is None:
        return None
    try:
        return _circle_split(zeros, poles)
    except FactorOnCircle:
        return None


def _times(p: Polynomial, q: Polynomial) -> Polynomial:
    """p * q, without forming the product when a factor is the constant 1."""
    if p == P_ONE:
        return q
    if q == P_ONE:
        return p
    return p * q


def sym_arith(f: RationalSymbol, g: RationalSymbol, op: str) -> RationalSymbol:
    if op == "mul":
        if f.is_zero() or g.is_zero():
            return ZERO_SYMBOL
        if f.split is not None and g.split is not None:
            return make_factored(
                f.lead * g.lead,
                f.shift + g.shift,
                f.split.zeros + g.split.zeros,
                f.split.poles + g.split.poles,
            )
        return make_symbol(_times(f.num, g.num), _times(f.den, g.den), f.shift + g.shift)
    if op not in ("add", "sub"):
        raise ValueError(f"unknown op {op!r}")
    if g.is_zero():
        return f
    if f.is_zero():
        return g if op == "add" else sym_scale(g, gr(-1))
    if op == "sub" and f.split is not None and g.split is not None and _same_factors(f, g):
        return ZERO_SYMBOL
    m = min(f.shift, g.shift)
    left = _times(f.num, g.den).shift_degree(f.shift - m)
    right = _times(g.num, f.den).shift_degree(g.shift - m)
    combined = left + right if op == "add" else left - right
    return make_symbol(combined, _times(f.den, g.den), m)


def _same_factors(f: RationalSymbol, g: RationalSymbol) -> bool:
    """f == g for split symbols, read from the roots.

    make_factored cancels common roots and folds zeros at 0 into the
    shift, and a split lists each root once, so equal functions have
    equal lead, shift and root multiplicities.
    """
    fs, gs = f.split, g.split
    return (
        f.lead == g.lead and f.shift == g.shift
        and dict(fs.zeros) == dict(gs.zeros) and dict(fs.poles) == dict(gs.poles)
    )


def sym_scale(f: RationalSymbol, c: GaussianRational) -> RationalSymbol:
    if c.is_zero() or f.is_zero():
        return ZERO_SYMBOL
    if f.split is not None:
        return make_factored(f.lead * c, f.shift, f.split.zeros, f.split.poles)
    return make_symbol(f.num.scale(c), f.den, f.shift)


def invert_symbol(f: RationalSymbol) -> RationalSymbol:
    """1/f; zeros and poles swap in the split."""
    if f.is_zero():
        raise ZeroSymbol("the zero symbol has no inverse")
    if f.split is None:
        raise MissingSplit(f"symbol {f} has no CircleSplit; its inverse is unavailable")
    return make_factored(f.lead.inv(), -f.shift, f.split.poles, f.split.zeros)


def sym_div(f: RationalSymbol, g: RationalSymbol) -> RationalSymbol:
    """f/g, reduced before its denominator is checked: raises PoleOnCircle
    when a circle zero of g is left in the reduced denominator."""
    if g.is_zero():
        raise ZeroSymbol("division by the zero symbol")
    if f.is_zero():
        return ZERO_SYMBOL
    if g.split is not None:
        return sym_arith(f, invert_symbol(g), "mul")
    return make_symbol(f.num * g.den, f.den * g.num, f.shift - g.shift)


def sym_pow(f: RationalSymbol, k: int) -> RationalSymbol:
    """f^k in one step.  A split symbol multiplies its multiplicities by k.
    Otherwise num^k and den^k are coprime and canonical as num and den
    are, and have no split, since f^k splits only when f does.  A negative
    power of a nonzero symbol with no split inverts through make_symbol,
    as sym_div does, so a circle zero of num raises PoleOnCircle."""
    if k < 0:
        if f.split is None and not f.is_zero():
            return sym_pow(make_symbol(f.den, f.num, -f.shift), -k)
        return sym_pow(invert_symbol(f), -k)
    if k == 0:
        return make_factored(ONE, 0, [], [])
    if f.split is not None:
        zeros = [(r, k * m) for r, m in f.split.zeros]
        poles = [(r, k * m) for r, m in f.split.poles]
        return make_factored(f.lead**k, k * f.shift, zeros, poles)
    return RationalSymbol(reduce(_times, [f.num] * k), reduce(_times, [f.den] * k), k * f.shift)


def winding_number(f: RationalSymbol) -> int:
    """Exact winding of f around 0 along the unit circle.

    Equals shift + (zeros of num inside) - (zeros of den inside); needs
    no split witness.  The disk count of num raises ZeroOnCircle when num
    vanishes on the circle.
    """
    if f.is_zero():
        raise ZeroSymbol("winding of the zero symbol")
    inside_num = 0 if f.num.is_constant() else count_zeros_in_disk(f.num)
    inside_den = 0 if f.den.is_constant() else count_zeros_in_disk(f.den)
    return f.shift + inside_num - inside_den


# ---------------------------------------------------------------------------
# Exact Laurent expansion in the annulus containing the unit circle.
# ---------------------------------------------------------------------------


class LaurentExpansion(Record):
    """Two one-sided sequences: pos(n) = fhat(n), neg(u) = fhat(-1-u)."""

    __slots__ = ("pos", "neg")

    def __init__(self, pos: RationalSequence, neg: RationalSequence):
        _set(self, "pos", pos)
        _set(self, "neg", neg)

    def value(self, n: int) -> GaussianRational:
        return self.pos.value(n) if n >= 0 else self.neg.value(-1 - n)


def symbol_poles(f: RationalSymbol) -> Roots:
    """The poles of f with multiplicities; needs a split or constant den."""
    if f.den.is_constant():
        return ()
    if f.split is None:
        raise MissingSplit(f"symbol {f} has no CircleSplit; coefficients unavailable")
    return f.split.poles


def laurent_expansion(f: RationalSymbol) -> LaurentExpansion:
    """Exact coefficient stream of f, kept on f; needs a split or constant den."""
    if f.expansion is None:
        f.expansion = expand_rational(f.num, symbol_poles(f), f.shift)
    return f.expansion


def expand_rational(num: Polynomial, poles, shift: int) -> LaurentExpansion:
    """Laurent expansion of z^shift * num / prod (z-p)^m on the annulus
    containing the unit circle, by partial fractions.

    Equal poles merge by multiplicity; no pole is 0 or on the circle.
    """
    if num.is_zero():
        return LaurentExpansion(SEQ_ZERO, SEQ_ZERO)
    if shift > 0:
        num, shift = num.shift_degree(shift), 0
    merged = _merge_roots(poles)
    if num.degree < sum(merged.values()):
        quot, rem = P_ZERO, num
    else:
        quot, rem = poly_divmod(num, from_roots(ONE, list(merged.items())))
    pos_tails = []
    neg_tails = []
    # c_k of (z-p)^(-k), k = m..1: the Taylor coefficients at p of
    # rem / prod_{q != p} (z-q)^mq, up to u^(m-1) with u = z - p
    neg_exps = {q: -mq for q, mq in merged.items()}
    for p, m in merged.items():
        t = _taylor_at(rem.taylor_shift(p).coeffs, neg_exps, p, m)
        residues = [(m - j, t[j]) for j in range(m) if not t[j].is_zero()]
        if not residues:
            continue
        a, b, d = p
        outside = a * a + b * b > d * d
        if m == 1:
            # 1/(z-p) = -sum_n p^(-1-n) z^n outside, sum_u p^u z^(-1-u) inside
            c = residues[0][1]
            if outside:
                pos_tails.append((p.inv(), Polynomial((-(c / p),))))
            else:
                neg_tails.append((p, Polynomial((c,))))
        elif outside:
            # 1/(z-p)^k = sum_n (-1)^k C(n+k-1, k-1) p^(-k-n) z^n
            acc = P_ZERO
            for k, c in residues:
                sign = gr(-1) if k % 2 else gr(1)
                coef = c * sign * p**-k
                acc = acc + rising_binom_poly(k - 1).scale(coef)
            pos_tails.append((p.inv(), acc))
        else:
            # 1/(z-p)^k = sum_{u>=k-1} C(u, k-1) p^(u-k+1) z^(-1-u)
            acc = P_ZERO
            for k, c in residues:
                coef = c * p ** (1 - k)
                acc = acc + binom_poly(k - 1).scale(coef)
            neg_tails.append((p, acc))
    pos = make_sequence(quot.coeffs, pos_tails)
    neg = make_sequence([], neg_tails)
    if shift == 0:
        return LaurentExpansion(pos, neg)
    # z^shift with shift < 0 moves the first -shift coefficients of pos to neg
    s = -shift
    head = [pos.value(s - 1 - u) for u in range(s)]
    return LaurentExpansion(pos.drop(s), neg.shift_up(s) + seq_finite(head))


def fourier_coeff(f: RationalSymbol, n: int) -> GaussianRational:
    """The n-th Laurent coefficient of f on the annulus of the circle."""
    return laurent_expansion(f).value(n)


# ---------------------------------------------------------------------------
# Widom pairings as residue sums at the roots.
# ---------------------------------------------------------------------------


def widom_pairings(f: RationalSymbol, g: RationalSymbol) -> tuple[GaussianRational, GaussianRational]:
    """(W(g, f), W(f, g)), with W(f, g) = sum_{n>=1} n fhat(n) ghat(-n).

    W(f, g) is the circle integral of f+' g / (2 pi i), f+ being f less its
    principal parts at its inside poles (Boettcher and Silbermann, Sect. 2;
    Helton and Howe 1973): the sum of k d_k F_k over the inside poles q of
    g, sum_k d_k (z-q)^-k being g's principal part at q and F_k the Taylor
    coefficients of f+ at q.  W(f, g) = 0 when f has no pole outside and is
    bounded at infinity, as then fhat(n) = 0 for n >= 1.
    """
    if f.is_zero() or g.is_zero():
        return ZERO, ZERO
    for h in (f, g):  # f first, so that a MissingSplit names f when both lack a split
        if h.split is None:
            raise MissingSplit(f"symbol {h} has no CircleSplit; coefficients unavailable")
    # f = lead * prod (z - r)^e_r: +m at a zero, -m at a pole, shift at 0
    ef, eg = ({**dict(h.split.zeros), **{p: -m for p, m in h.split.poles}, **({ZERO: h.shift} if h.shift else {})}
              for h in (f, g))
    flat_f, flat_g = (sum(e.values()) <= 0 and all(m > 0 or _inside(r) for r, m in e.items()) for e in (ef, eg))
    if flat_f and flat_g:
        return ZERO, ZERO
    # [c_1..c_m] of sum_k c_k (z - p)^-k at each inside pole p, for both pairings
    pf, pg = ({p: _taylor_at((h.lead,), e, p, -m)[::-1] for p, m in e.items() if m < 0 and _inside(p)}
              for h, e in ((f, ef), (g, eg)))
    return (ZERO if flat_g else _widom(g.lead, eg, pg, pf),
            ZERO if flat_f else _widom(f.lead, ef, pf, pg))


def _inside(r: GaussianRational) -> bool:
    a, b, d = r
    return a * a + b * b < d * d


def _taylor_at(s: tuple, exps: dict, q: GaussianRational, n: int) -> list:
    """The first n Taylor coefficients at q of S * prod_{r != q} (z - r)^e_r,
    given those of S in s (zero past its end): a series in u = z - q, times
    or divided by (u + q - r) once per factor."""
    s = list(s[:n]) + [ZERO] * (n - len(s))
    for r, e in exps.items():
        if r != q:
            c = q - r if e > 0 else (q - r).inv()
            for _ in range(abs(e)):
                if e > 0:  # s (u + q - r)
                    for j in range(n - 1, 0, -1):
                        s[j] = s[j] * c + s[j - 1]
                    s[0] = s[0] * c
                else:  # s / (u + q - r), c being 1 / (q - r)
                    s[0] = s[0] * c
                    for j in range(1, n):
                        s[j] = (s[j] - s[j - 1]) * c
    return s


def _widom(lead: GaussianRational, ef: dict, pf: dict, pg: dict) -> GaussianRational:
    """W(f, g) from f = lead * prod (z - r)^ef_r and both principal parts."""
    total = ZERO
    for q, d in pg.items():
        # F_j: the Taylor coefficient of f, or of its regular part, at q, less
        # those of f's other principal parts: sum_k c_k (z - p)^-k is
        # N / (z - p)^len(c), with N = sum_k c_k (z - p)^(len(c) - k)
        m, e = len(d), ef.get(q, 0)
        s = _taylor_at((lead,), ef, q, m + 1 - e) if m >= e else []
        F = [s[j - e] if j >= e else ZERO for j in range(1, m + 1)]
        for p, c in pf.items():
            if p != q:
                t = _taylor_at(Polynomial(tuple(c[::-1])).taylor_shift(q - p).coeffs, {p: -len(c)}, q, m + 1)
                F = [x - y for x, y in zip(F, t[1:])]
        total = sum((dk * F[k] * gr(k + 1) for k, dk in enumerate(d)), total)
    return total
