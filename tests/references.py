"""Reference formulas for exact entry reads, kept only for the tests.

Each one is the plain textbook form of a library routine, with no
shortcut: Horner's rule started from zero, a sequence value as the head
entry plus every tail added to zero, the pairing with its own tail loop,
and a finite-rank entry as the full sum of products.  The library's
evaluation skips arithmetic that cannot change the result; the
differential tests check that it still agrees with these.
"""

from __future__ import annotations

import random
from fractions import Fraction

from bfredholm.finiterank import FiniteRankOperator, make_finite_rank
from bfredholm.poly import Polynomial
from bfredholm.scalars import ZERO, GaussianRational, gr
from bfredholm.sequences import RationalSequence, make_sequence, power_series_sum


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


def _scalar(rng: random.Random, zero_share: float = 0.0) -> GaussianRational:
    if rng.random() < zero_share:
        return ZERO
    return gr(Fraction(rng.randint(-4, 4), rng.randint(1, 5)), Fraction(rng.randint(-4, 4), rng.randint(1, 5)))


def random_ratio(rng: random.Random) -> GaussianRational:
    """A nonzero complex ratio strictly inside the unit disk."""
    while True:
        r = gr(Fraction(rng.randint(-3, 3), rng.randint(4, 7)), Fraction(rng.randint(-3, 3), rng.randint(4, 7)))
        if not r.is_zero():
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
