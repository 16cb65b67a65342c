"""Reference formulas for exact entry reads, kept only for the tests.

Each one is the plain textbook form of a library routine, with no
shortcut: Horner's rule started from zero, a sequence value as the head
entry plus every tail added to zero, the pairing with its own tail loop,
and a finite-rank entry as the full sum of products.  The library's
evaluation skips arithmetic that cannot change the result; the
differential tests check that it still agrees with these.

Products are kept in their expanded form: a composition as |F|·|G|
outer products, and the correction of (T(f) + F)(T(g) + G) as four
separate pieces.  The library forms both by their action, with one term
per factor term, and the tests check that the operators are equal.

The Hankel defect is kept as the four-case double loop the library once
used: entries sum_k a(i+k) b(j+k) written out head against head, head
against tail and tail against tail.  The library forms it as a product
of two Hankel operators.

The Widom pairing W(f, g) = sum_{n>=1} n fhat(n) ghat(-n) is kept as the
sequence pairing the library once ran on both Laurent expansions
(hankel_trace).  The library sums residues at the roots of the split
instead, with no expansion.

When a product raises MissingSplit is kept as the rule the library once
tested up front; the library now raises where a coefficient is read.

The punctured scan is kept as the loop the library once ran: a - lambda*e
built as an operator for every sample and classified like the base, and
the stable radius found by comparing every radius with every row.  The
library locates the roots of one polynomial pencil per sample instead.

A polynomial from its roots is kept as the loop of products by one
linear factor (z - r) at a time, and the Laurent expansion of a rational
function as the partial fractions the library once ran: always dividing
num by the full pole product, and every tail, simple poles included,
written through the binomial polynomials.  The library multiplies out
the roots over the Gaussian integers, skips the division when num is
already proper, and writes a simple-pole tail directly.  The residues
at a pole p are the Taylor coefficients at p of rem over the other poles'
factors, taken here as one truncated series division of rem(p + u) by
that product written out as a polynomial in u; the library multiplies or
divides by one linear factor at a time (symbols._taylor_at), and this
shares no code with it.

A symbol power is kept as the loop of k products by f, each through
sym_arith.  The library raises the multiplicities of a split symbol, or
num and den of any other, in one step.

The Schur-Cohn loop is kept as the library once ran it (locate_reference):
the support of p as a list, every coefficient divided by the content even
when it is 1, and each step's reversed coefficients zipped into a new
list of pairs.  The library indexes the coefficients, scans for the ends
of the support and skips a division by 1; the steps are the same, and
the Cayley fallback (_winding_count) is shared.

A matrix Drazin inverse is kept as the Fitting decomposition the library
once built: a basis of range(A^k) beside one of ker(A^k), the core block
inverted in that basis and conjugated back.  The library reads A^k X A^k
off one row reduction of [A^(2k+1) | I] instead.

The ordinary inverse of a matrix, which the library no longer needs, is
kept as the row reduction of [A | I].  So are two predicates that only
the tests read: the nilpotency order of a matrix, by powers of A, and
equality of two operators modulo the finite-rank ideal, by symbols.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, gcd

from bfredholm.engine import FREDHOLM_CLASSES, SCAN_DIRECTIONS, ScanReport, ScanRow, _class_and_index
from bfredholm.finiterank import FiniteRankOperator, make_finite_rank
from bfredholm.errors import ExactError, ZeroPolynomial
from bfredholm.matrices import ExactMatrix, _rref, identity, matrix, rank, zeros
from bfredholm.operators import (
    BlockOperator,
    ToeplitzBlock,
    _check_signature,
    hankel_defect,
    scalar_shift,
    toeplitz_apply,
    toeplitz_apply_transpose,
)
from bfredholm.poly import P_ZERO, Polynomial, binom_poly, poly, poly_divmod, rising_binom_poly
from bfredholm.rootloc import _winding_count
from bfredholm.scalars import ONE, ZERO, GaussianRational, gr
from bfredholm.sequences import (
    SEQ_ZERO,
    RationalSequence,
    make_sequence,
    pairing,
    power_series_sum,
    seq_finite,
)
from bfredholm.symbols import (
    ZERO_SYMBOL,
    LaurentExpansion,
    RationalSymbol,
    invert_symbol,
    laurent_expansion,
    make_factored,
    make_symbol,
    sym_arith,
)


def eval_reference(p: Polynomial, x: GaussianRational) -> GaussianRational:
    acc = ZERO
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def value_reference(s: RationalSequence, n: int) -> GaussianRational:
    v = s.head[n] if n < len(s.head) else ZERO
    for r, p in s.tails:
        v = v + eval_reference(p, gr(n)) * r**n
    return v


def pairing_reference(v: RationalSequence, x: RationalSequence) -> GaussianRational:
    total = ZERO
    for n, hv in enumerate(v.head):
        total = total + hv * value_reference(x, n)
    for n, hx in enumerate(x.head):
        acc = ZERO
        for r, p in v.tails:
            acc = acc + eval_reference(p, gr(n)) * r**n
        total = total + acc * hx
    for rv, pv in v.tails:
        for rx, px in x.tails:
            total = total + power_series_sum(pv * px, rv * rx)
    return total


def fr_entry_reference(F: FiniteRankOperator, i: int, j: int) -> GaussianRational:
    total = ZERO
    for u, v in F.terms:
        total = total + value_reference(u, i) * value_reference(v, j)
    return total


def compose_reference(F: FiniteRankOperator, G: FiniteRankOperator) -> FiniteRankOperator:
    """(u (x) v) o (u' (x) v') = pairing(v, u') u (x) v', over every pair."""
    terms = []
    for u, v in F.terms:
        for up, vp in G.terms:
            c = pairing(v, up)
            if not c.is_zero():
                terms.append((u.scale(c), vp))
    return make_finite_rank(terms)


def from_roots_reference(scale: GaussianRational, roots) -> Polynomial:
    """scale * prod (z - r)^m, one linear factor at a time."""
    out = Polynomial((scale,))
    for r, m in roots:
        factor = Polynomial((-r, ONE))
        for _ in range(m):
            out = out * factor
    return out


def residues_reference(rem: Polynomial, poles: dict, p: GaussianRational, m: int):
    """[(k, c_k)] of the principal part sum_k c_k (z-p)^(-k) of rem / prod (z-q)^mq
    at p, k = m..1, nonzero c_k only: with u = z - p, the series rem(p + u) /
    prod_{q != p} (u - (q - p))^mq truncated after u^(m-1) gives c_(m-j) at u^j."""
    r = list(rem.taylor_shift(p).coeffs) + [ZERO] * m
    d = list(from_roots_reference(ONE, [(q - p, mq) for q, mq in poles.items() if q != p]).coeffs) + [ZERO] * m
    t = []
    for j in range(m):
        acc = r[j]
        for i in range(j):
            acc = acc - t[i] * d[j - i]
        t.append(acc / d[0])
    return [(m - j, t[j]) for j in range(m) if not t[j].is_zero()]


def expand_rational_reference(num: Polynomial, poles, shift: int) -> LaurentExpansion:
    """Laurent expansion of z^shift * num / prod (z-p)^m on the annulus of the circle."""
    if num.is_zero():
        return LaurentExpansion(SEQ_ZERO, SEQ_ZERO)
    if shift > 0:
        num, shift = num.shift_degree(shift), 0
    merged: dict = {}
    for p, m in poles:
        merged[p] = merged.get(p, 0) + m
    quot, rem = poly_divmod(num, from_roots_reference(ONE, list(merged.items())))
    pos_tails = []
    neg_tails = []
    for p, m in merged.items():
        residues = residues_reference(rem, merged, p, m)
        acc = P_ZERO
        if p.abs2() > 1:
            for k, c in residues:
                sign = gr(-1) if k % 2 else gr(1)
                acc = acc + rising_binom_poly(k - 1).scale(c * sign * p**-k)
            pos_tails.append((p.inv(), acc))
        else:
            for k, c in residues:
                acc = acc + binom_poly(k - 1).scale(c * p ** (1 - k))
            neg_tails.append((p, acc))
    pos = make_sequence(quot.coeffs, pos_tails)
    neg = make_sequence([], neg_tails)
    if shift == 0:
        return LaurentExpansion(pos, neg)
    s = -shift
    head = [pos.value(s - 1 - u) for u in range(s)]
    return LaurentExpansion(pos.drop(s), neg.shift_up(s) + seq_finite(head))


def eager_reference(f: RationalSymbol, split: bool = True) -> RationalSymbol:
    """f with num and den built up front from its split, by from_roots_reference;
    without its split when ``split`` is false."""
    if f.split is None:
        return RationalSymbol(f.num, f.den, f.shift, f.split if split else None)
    num = from_roots_reference(f.lead, f.split.zeros)
    den = from_roots_reference(ONE, f.split.poles)
    return RationalSymbol(num, den, f.shift, f.split if split else None)


def sym_pow_reference(f: RationalSymbol, k: int) -> RationalSymbol:
    """f^k as k products by f."""
    if k < 0:
        return sym_pow_reference(invert_symbol(f), -k)
    out = make_factored(ONE, 0, [], [])
    for _ in range(k):
        out = sym_arith(out, f, "mul")
    return out


def _split_shifted(p: Polynomial) -> list[Polynomial]:
    """Polynomials g_e with p(i + m) = sum_e g_e(i) m^e."""
    if p.is_zero():
        return []
    out = [P_ZERO] * (p.degree + 1)
    for deg, c in enumerate(p.coeffs):
        if c.is_zero():
            continue
        for e in range(deg + 1):
            out[e] = out[e] + poly([0] * (deg - e) + [1]).scale(c * gr(comb(deg, e)))
    return out


def hankel_cross_reference(a: RationalSequence, b: RationalSequence) -> FiniteRankOperator:
    """Finite-rank operator with entries sum_{k>=0} a(i+k) b(j+k)."""
    terms = []
    ha, hb = a.head, b.head
    for k in range(min(len(ha), len(hb))):
        terms.append((seq_finite(ha[k:]), seq_finite(hb[k:])))
    for sigma, q in b.tails:
        for k in range(len(ha)):
            v = make_sequence([], [(sigma, q.taylor_shift(gr(k)).scale(sigma**k))])
            terms.append((seq_finite(ha[k:]), v))
    for rho, p in a.tails:
        for k in range(len(hb)):
            u = make_sequence([], [(rho, p.taylor_shift(gr(k)).scale(rho**k))])
            terms.append((u, seq_finite(hb[k:])))
    for rho, p in a.tails:
        alphas = _split_shifted(p)
        for sigma, q in b.tails:
            betas = _split_shifted(q)
            # w[s] = sum_k k^s (rho*sigma)^k, once per power s
            w = [power_series_sum(poly([0] * s + [1]), rho * sigma) for s in range(len(alphas) + len(betas) - 1)]
            for e, alpha in enumerate(alphas):
                if alpha.is_zero():
                    continue
                v = P_ZERO
                for fdeg, beta in enumerate(betas):
                    v = v + beta.scale(w[e + fdeg])
                terms.append((make_sequence([], [(rho, alpha)]), make_sequence([], [(sigma, v)])))
    return make_finite_rank(terms)


def hankel_trace(f: RationalSymbol, g: RationalSymbol) -> GaussianRational:
    """tau(hankel_defect(f, g)) = sum_{n>=1} n fhat(n) ghat(-n), without
    forming the defect (Widom; Boettcher and Silbermann, Sect. 2).  With a
    and b as in hankel_defect, the trace sum_m (m + 1) a(m) b(m) is one
    pairing of b with A(m) = (m + 1) a(m): head entry k times k + 1 and
    each tail polynomial p(n) times n + 1, which keeps A canonical.  f is
    expanded before g, as in hankel_defect."""
    if f.is_zero() or g.is_zero():
        return ZERO
    a = laurent_expansion(f).pos.drop(1)
    b = laurent_expansion(g).neg
    if a.is_zero() or b.is_zero():
        return ZERO
    n_plus_1 = Polynomial((ONE, ONE))
    A = RationalSequence(
        tuple(x * gr(k + 1) for k, x in enumerate(a.head)),
        tuple((r, p * n_plus_1) for r, p in a.tails),
    )
    return pairing(A, b)


def product_correction_reference(
    f: RationalSymbol, F: FiniteRankOperator, g: RationalSymbol, G: FiniteRankOperator
) -> FiniteRankOperator:
    """(T(f) + F)(T(g) + G) - T(fg) = -H(f, g) + T(f) G + F T(g) + F G."""
    corr = -hankel_defect(f, g)
    if not f.is_zero() and G.terms:
        corr = corr + make_finite_rank([(toeplitz_apply(f, u), v) for u, v in G.terms])
    if not g.is_zero() and F.terms:
        corr = corr + make_finite_rank([(u, toeplitz_apply_transpose(g, v)) for u, v in F.terms])
    return corr + compose_reference(F, G)


def product_needs_split_reference(
    f: RationalSymbol, F: FiniteRankOperator, g: RationalSymbol, G: FiniteRankOperator
) -> bool:
    """(T(f) + F)(T(g) + G) reads the coefficients of f when g or G is
    nonzero, and those of g when f or F is nonzero; a symbol lacks them
    when it is nonzero, has a nonconstant denominator and has no split."""

    def lacks(s: RationalSymbol) -> bool:
        return not s.is_zero() and not s.den.is_constant() and s.split is None

    return (lacks(f) and (not g.is_zero() or bool(G.terms))) or (
        lacks(g) and (not f.is_zero() or bool(F.terms))
    )


def punctured_scan_reference(a: BlockOperator, radii: list[Fraction], directions: int = 8) -> ScanReport:
    """punctured_scan on a valid grid and an operator in class."""
    radii = sorted(set(Fraction(x) for x in radii))
    base_c, base = _class_and_index(a)
    rows = []
    for r in radii:
        for d in SCAN_DIRECTIONS[:directions]:
            lam = d * gr(r)
            c, idx = _class_and_index(scalar_shift(a, lam))
            rows.append(ScanRow(lam, r, c, idx))
    stable = None
    for r in sorted(set(row.radius for row in rows)):
        group = [row for row in rows if row.radius <= r]
        if all(row.classification in FREDHOLM_CLASSES and row.index == base for row in group):
            stable = r
        else:
            break
    return ScanReport(base_c, base, tuple(rows), stable)


def locate_reference(re: list[int], im: list[int]) -> tuple[int, int | None]:
    """rootloc._locate as the library once ran it."""
    support = [k for k, (a, b) in enumerate(zip(re, im)) if a or b]
    if not support:
        raise ZeroPolynomial("root location of the zero polynomial")
    m, n, g = support[0], support[-1] + 1, gcd(*re, *im)
    return m, _inside_reference([a // g for a in re[m:n]], [b // g for b in im[m:n]])


def _inside_reference(re: list[int], im: list[int]) -> int | None:
    count, sign = 0, 1
    while len(re) > 1:
        n = len(re) - 1
        a, b, c, d = re[0], im[0], re[-1], im[-1]
        rev = list(zip(re[::-1], im[::-1]))
        qr = [a * x + b * y - c * u - d * v for x, y, (u, v) in zip(re[:-1], im[:-1], rev)]
        qi = [a * y - b * x - d * u + c * v for x, y, (u, v) in zip(re[:-1], im[:-1], rev)]
        delta = a * a + b * b - c * c - d * d
        if delta == 0:
            k = _winding_count(re, im) if any(qr) or any(qi) else _cohn_reference(re, im)
            return None if k is None else count + sign * k
        while not qr[-1] and not qi[-1]:
            qr.pop()
            qi.pop()
        g = gcd(*qr, *qi)
        re, im = [x // g for x in qr], [y // g for y in qi]
        if delta < 0:
            count, sign = count + sign * n, -sign
    return count


def _cohn_reference(re: list[int], im: list[int]) -> int | None:
    n = len(re) - 1
    if n % 2:
        return None
    dr = [k * x for k, x in enumerate(re)][1:]
    di = [k * y for k, y in enumerate(im)][1:]
    m = next(k for k in range(n) if dr[k] or di[k])
    k = _inside_reference(dr[m:], di[m:])
    return n // 2 if k is not None and m + k == n // 2 - 1 else None


def _null_space(A: ExactMatrix) -> list[list[GaussianRational]]:
    """Basis of the kernel as column vectors (lists of length cols)."""
    rows, pivots = _rref([A.row(i) for i in range(A.rows)])
    basis = []
    for fc in (c for c in range(A.cols) if c not in pivots):
        vec = [ZERO] * A.cols
        vec[fc] = ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis


def _column_space(A: ExactMatrix) -> list[list[GaussianRational]]:
    """Basis of the column space as column vectors."""
    _, pivots = _rref([A.row(i) for i in range(A.rows)])
    return [[A.at(i, c) for i in range(A.rows)] for c in pivots]


def _from_columns(cols: list[list[GaussianRational]]) -> ExactMatrix:
    n = len(cols[0])
    return ExactMatrix(n, len(cols), tuple(cols[j][i] for i in range(n) for j in range(len(cols))))


def inverse(A: ExactMatrix) -> ExactMatrix:
    """A^-1 from one row reduction of [A | I]; ExactError if A is singular."""
    A._square()
    n = A.rows
    aug = [A.row(i) + identity(n).row(i) for i in range(n)]
    rows, pivots = _rref(aug)
    if pivots != list(range(n)):
        raise ExactError("matrix is singular")
    return ExactMatrix(n, n, tuple(rows[i][n + j] for i in range(n) for j in range(n)))


def is_nilpotent(A: ExactMatrix) -> int | None:
    """Smallest p with A^p = 0, or None if A is not nilpotent."""
    A._square()
    n = A.rows
    power = identity(n)
    for p in range(1, n + 1):
        power = power * A
        if power.is_zero():
            return p
    return None


def quotient_equal(a: BlockOperator, b: BlockOperator) -> bool:
    """True iff a - b lies in the blockwise finite-rank ideal."""
    _check_signature(a, b)
    for x, y in zip(a.blocks, b.blocks):
        if isinstance(x, ToeplitzBlock) and x.symbol != y.symbol:
            return False
    return True


def drazin_reference(A: ExactMatrix) -> tuple[ExactMatrix, int]:
    """(D, k) through the Fitting decomposition C^n = range(A^k) (+) ker(A^k)."""
    n = A.rows
    if n == 0:
        return A, 0
    k = 0
    power = identity(n)
    r_prev = n
    while True:
        nxt = power * A
        r_next = rank(nxt)
        if r_next == r_prev:
            break
        power = nxt
        r_prev = r_next
        k += 1
    if r_prev == n:
        return inverse(A), 0
    if r_prev == 0:
        return zeros(n, n), k
    P = _from_columns(_column_space(power) + _null_space(power))
    Pinv = inverse(P)
    B = Pinv * A * P
    r = r_prev
    core_inv = inverse(ExactMatrix(r, r, tuple(B.at(i, j) for i in range(r) for j in range(r))))
    block = [[core_inv.at(i, j) if i < r and j < r else ZERO for j in range(n)] for i in range(n)]
    return P * matrix(block) * Pinv, k


def _scalar(rng: random.Random, zero_share: float = 0.0) -> GaussianRational:
    if rng.random() < zero_share:
        return ZERO
    return gr(Fraction(rng.randint(-4, 4), rng.randint(1, 5)), Fraction(rng.randint(-4, 4), rng.randint(1, 5)))


def random_ratio(rng: random.Random) -> GaussianRational:
    """A nonzero complex ratio strictly inside the unit disk."""
    while True:
        r = gr(Fraction(rng.randint(-3, 3), rng.randint(4, 7)), Fraction(rng.randint(-3, 3), rng.randint(4, 7)))
        if not r.is_zero() and r.abs2() < 1:
            return r


def random_poly(rng: random.Random, degree: int) -> Polynomial:
    coeffs = [_scalar(rng, 0.25) for _ in range(degree)] + [_scalar(rng)]
    while coeffs[-1].is_zero():
        coeffs[-1] = _scalar(rng)
    return Polynomial(tuple(coeffs))


def random_sequence(rng: random.Random) -> RationalSequence:
    """A head of 0 to 45 entries, a third of them zero, and 0 to 3 tails of
    degree 0 to 3 with complex ratios; zero, one or both parts may be empty."""
    head = [_scalar(rng, 1 / 3) for _ in range(rng.choice([0, 1, 3, 6, 45]))]
    tails = [(random_ratio(rng), random_poly(rng, rng.randint(0, 3))) for _ in range(rng.randint(0, 3))]
    return make_sequence(head, tails)


def random_finite_rank(rng: random.Random, terms: int = 4) -> FiniteRankOperator:
    return make_finite_rank([(random_sequence(rng), random_sequence(rng)) for _ in range(terms)])


def random_symbol(rng: random.Random) -> RationalSymbol:
    """Zero, a Laurent polynomial, or a split symbol with poles inside and
    outside the unit circle, each with multiplicity 1 or 2."""
    kind = rng.choice(["zero", "laurent", "split", "split"])
    if kind == "zero":
        return ZERO_SYMBOL
    if kind == "laurent":
        return make_symbol(random_poly(rng, rng.randint(0, 3)), poly([1]), rng.randint(-3, 1))
    zeros = [(random_ratio(rng), rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
    inner = [(random_ratio(rng), rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
    outer = [(random_ratio(rng).inv(), rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
    scale = random_poly(rng, 0).coeffs[0]  # nonzero
    return make_factored(scale, rng.randint(-1, 1), zeros, inner + outer)
