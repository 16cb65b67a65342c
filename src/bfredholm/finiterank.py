"""Finite-rank operators on l2(N) as sums of outer products u (x) v.

The action is F(x) = sum_k pairing(v_k, x) u_k with the bilinear pairing
(no conjugation), so everything stays inside Q(i).  The term count is an
upper bound on the rank; exact rank is not computed.  A composition F o G
is formed by its action, F(u') (x) v' for each term of G, so it has one
term per term of the right factor.  An entry F_ij = sum_k u_k(i) v_k(j)
reads v_k(j) only where u_k(i) is nonzero and is one Gaussian-integer dot
product over a common denominator, reduced once; ``operators.op_entry``
shares that sum and keeps the u_k(i) and v_k(j) it read for the next entry.
"""

from __future__ import annotations

from .errors import IndexOutOfRange
from .record import Record, _set
from .scalars import GaussianRational, ZERO, _dot, gr
from .sequences import RationalSequence, SEQ_ZERO, pairing


class FiniteRankOperator(Record):
    """F = sum_k u_k (x) v_k with F(x) = sum_k pairing(v_k, x) u_k."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[RationalSequence, RationalSequence], ...]):
        _set(self, "terms", terms)

    def apply(self, x: RationalSequence) -> RationalSequence:
        out = SEQ_ZERO
        for u, v in self.terms:
            c = pairing(v, x)
            if not c.is_zero():
                out = out + u.scale(c)
        return out

    def apply_transpose(self, x: RationalSequence) -> RationalSequence:
        """x composed on the left: row action, entries F^T(x)_j = sum_i x_i F_ij."""
        return self.transpose().apply(x)

    def transpose(self) -> "FiniteRankOperator":
        return FiniteRankOperator(tuple((v, u) for u, v in self.terms))

    def scale(self, c: GaussianRational) -> "FiniteRankOperator":
        if c.is_zero():
            return FR_ZERO
        return FiniteRankOperator(tuple((u.scale(c), v) for u, v in self.terms))

    def __add__(self, other: "FiniteRankOperator") -> "FiniteRankOperator":
        return make_finite_rank(self.terms + other.terms)

    def __sub__(self, other: "FiniteRankOperator") -> "FiniteRankOperator":
        return self + other.scale(gr(-1))

    def __neg__(self) -> "FiniteRankOperator":
        return self.scale(gr(-1))

    def compose(self, other: "FiniteRankOperator") -> "FiniteRankOperator":
        """F o (u' (x) v') = F(u') (x) v': one term per term of other."""
        return make_finite_rank([(self.apply(u), v) for u, v in other.terms])


def make_finite_rank(terms) -> FiniteRankOperator:
    clean = tuple((u, v) for u, v in terms if not (u.is_zero() or v.is_zero()))
    return FiniteRankOperator(clean)


FR_ZERO = make_finite_rank([])


def outer(u: RationalSequence, v: RationalSequence) -> FiniteRankOperator:
    return make_finite_rank([(u, v)])


def trace(F: FiniteRankOperator) -> GaussianRational:
    """tau(F) = sum_k pairing(v_k, u_k), exact."""
    total = ZERO
    for u, v in F.terms:
        total = total + pairing(v, u)
    return total


def fr_entry(F: FiniteRankOperator, i: int, j: int) -> GaussianRational:
    """F_ij = sum_k u_k(i) v_k(j) for i, j >= 0."""
    if i < 0 or j < 0:
        raise IndexOutOfRange(f"({i},{j}) has a negative index")
    return _entry_sum(F, i, j, {}, {})


def _entry_sum(F: FiniteRankOperator, i: int, j: int, rows: dict, cols: dict,
               base: GaussianRational = ZERO) -> GaussianRational:
    """base + F_ij for i, j >= 0, keeping the values it reads: rows[i][k] =
    u_k(i), cols[j][k] = v_k(j).

    v_k(j) is read only where u_k(i) != 0; cols[j][k] is None until then.
    The nonzero products are summed by one ``_dot``, reduced once; with
    none, base is returned as it is.
    """
    row = rows.get(i)
    if row is None:
        row = rows[i] = [u.value(i) for u, _ in F.terms]
    col = cols.get(j)
    if col is None:
        col = cols[j] = [None] * len(row)
    pairs = []
    for k, a in enumerate(row):
        if a.is_zero():
            continue
        b = col[k]
        if b is None:
            b = col[k] = F.terms[k][1].value(j)
        if not b.is_zero():
            pairs.append((a, b))
    return _dot(pairs, base) if pairs else base


def _coords(x: RationalSequence) -> dict:
    """Coordinates of x over the independent atom basis.

    Atoms: ('h', i) for head entries and ('t', ratio, power) for tail
    monomial coefficients.  The canonical representation is unique and the
    atoms are linearly independent as sequences, so a sum of outer
    products vanishes iff its atom-coordinate matrix vanishes.
    """
    out = {}
    for i, h in enumerate(x.head):
        if not h.is_zero():
            out[("h", i)] = h
    for r, p in x.tails:
        for k, c in enumerate(p.coeffs):
            if not c.is_zero():
                out[("t", r, k)] = c
    return out


def fr_is_zero(F: FiniteRankOperator) -> bool:
    """True iff F is the zero operator, decided exactly."""
    matrix: dict = {}
    for u, v in F.terms:
        cu = _coords(u)
        cv = _coords(v)
        for ai, a in cu.items():
            for bj, b in cv.items():
                key = (ai, bj)
                matrix[key] = matrix.get(key, ZERO) + a * b
    return all(c.is_zero() for c in matrix.values())


def fr_equal(F: FiniteRankOperator, G: FiniteRankOperator) -> bool:
    return fr_is_zero(F - G)
