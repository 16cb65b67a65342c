"""Split symbols kept factored, against references built the eager way.

``from_roots`` multiplies out roots over the Gaussian integers, a split
symbol builds num and den from its roots on first read, a difference of
split symbols is decided on their roots, and ``expand_rational`` writes
simple-pole tails directly.  Each is checked against the plain form kept
in ``references``: one linear factor at a time, num and den built up
front, the difference taken on polynomials, and every tail through the
binomial polynomials.
"""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from references import (
    eager_reference,
    expand_rational_reference,
    from_roots_reference,
    random_poly,
    random_ratio,
)

from bfredholm.poly import P_ZERO, Polynomial, from_roots, poly
from bfredholm.scalars import ONE, ZERO, GaussianRational, gr
from bfredholm.symbols import (
    ZERO_SYMBOL,
    expand_rational,
    laurent_expansion,
    make_factored,
    sym_arith,
)

SEEDS = range(40)


def _scalar(rng: random.Random, den: int = 6) -> GaussianRational:
    return gr(Fraction(rng.randint(-5, 5), rng.randint(1, den)), Fraction(rng.randint(-5, 5), rng.randint(1, den)))


def _roots(rng: random.Random, count: int):
    """Roots with multiplicities 1 to 3 and denominators up to 6; zero, a
    repeated entry and a root listed twice all occur."""
    roots = []
    for _ in range(count):
        r = rng.choice([ZERO, _scalar(rng), _scalar(rng), random_ratio(rng)])
        roots.append((r, rng.randint(1, 3)))
    if roots and rng.random() < 0.3:
        roots.append(rng.choice(roots))
    return roots


def _off_circle(rng: random.Random):
    r = random_ratio(rng)
    return r if rng.random() < 0.5 else r.inv()


# ---------------------------------------------------------------------------
# from_roots
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_from_roots_matches_the_factor_loop(seed):
    rng = random.Random(seed)
    for _ in range(25):
        scale = _scalar(rng, rng.choice([1, 6, 12]))
        roots = _roots(rng, rng.randint(0, 4))
        assert from_roots(scale, roots) == from_roots_reference(scale, roots), (scale, roots)


def test_from_roots_edge_cases():
    half = gr(Fraction(1, 2))
    assert from_roots(ZERO, [(half, 2)]) == P_ZERO
    assert from_roots(gr(3), []) == poly([3])
    assert from_roots(ONE, [(ZERO, 3)]) == poly([0, 0, 0, 1])
    # (z - 1/2)^2 (z - i/3) = z^3 - (1 + i/3) z^2 + (1/4 + i/3) z - i/12
    got = from_roots(ONE, [(half, 2), (gr(0, Fraction(1, 3)), 1)])
    assert got == poly([gr(0, Fraction(-1, 12)), gr(Fraction(1, 4), Fraction(1, 3)), gr(-1, Fraction(-1, 3)), 1])


# ---------------------------------------------------------------------------
# expand_rational
# ---------------------------------------------------------------------------


def _poles(rng: random.Random, kind: str):
    if kind == "simple":
        ms = [1] * rng.randint(1, 3)
    elif kind == "repeated":
        ms = [rng.randint(2, 3) for _ in range(rng.randint(1, 2))]
    else:
        ms = [1, rng.randint(2, 3)] + [rng.randint(1, 2) for _ in range(rng.randint(0, 1))]
    poles = []
    while len(poles) < len(ms):
        p = _off_circle(rng)
        if p not in [q for q, _ in poles]:
            poles.append((p, ms[len(poles)]))
    return poles


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ["simple", "repeated", "mixed"])
def test_expand_rational_matches_partial_fractions(seed, kind):
    rng = random.Random(seed)
    for _ in range(4):
        poles = _poles(rng, kind)
        total = sum(m for _, m in poles)
        # proper and improper numerators, and a zero one now and then
        num = random_poly(rng, rng.choice([0, total - 1, total, total + 2]))
        if rng.random() < 0.1:
            num = P_ZERO
        shift = rng.randint(-3, 3)
        got = expand_rational(num, poles, shift)
        want = expand_rational_reference(num, poles, shift)
        assert got == want, (num, poles, shift)


def test_simple_pole_tails_written_directly():
    # 1/(z - 2) = -sum 2^(-1-n) z^n;  1/(z - 1/2) = sum (1/2)^u z^(-1-u)
    out = expand_rational(poly([1]), [(gr(2), 1)], 0)
    assert [out.value(n) for n in range(3)] == [gr(Fraction(-1, 2)), gr(Fraction(-1, 4)), gr(Fraction(-1, 8))]
    assert out.value(-1) == ZERO
    inside = expand_rational(poly([3]), [(gr(Fraction(1, 2)), 1)], 0)
    assert [inside.value(-1 - u) for u in range(3)] == [gr(3), gr(Fraction(3, 2)), gr(Fraction(3, 4))]
    assert inside.value(0) == ZERO


# ---------------------------------------------------------------------------
# Lazy num and den, and differences decided on roots
# ---------------------------------------------------------------------------


def _factored_args(rng: random.Random):
    zeros = [(rng.choice([ZERO, _off_circle(rng)]), rng.randint(1, 2)) for _ in range(rng.randint(0, 3))]
    poles = [(rng.choice([ZERO, _off_circle(rng)]), rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
    if zeros and rng.random() < 0.3:
        poles.append(zeros[0])  # a common root, cancelled
    return _scalar(rng), rng.randint(-2, 2), zeros, poles


@pytest.mark.parametrize("seed", SEEDS)
def test_lazy_symbol_reads_like_an_eager_one(seed):
    rng = random.Random(seed)
    for _ in range(10):
        args = _factored_args(rng)
        eager = eager_reference(make_factored(*args))
        assert make_factored(*args).num == eager.num
        assert make_factored(*args).den == eager.den
        assert str(make_factored(*args)) == str(eager)
        assert make_factored(*args) == eager
        assert hash(make_factored(*args)) == hash(eager)
        assert eager == make_factored(*args)
        assert laurent_expansion(make_factored(*args)) == laurent_expansion(eager)


def _same_function(rng: random.Random, scale, shift, zeros, poles):
    """Another factored form of the same function: roots reordered and split
    into pieces, a root added to both sides, or a zero at 0 moved to the shift."""
    zeros, poles = list(zeros), list(poles)
    rng.shuffle(zeros)
    if zeros and zeros[0][1] == 2:
        r, _ = zeros.pop(0)
        zeros += [(r, 1), (r, 1)]
    if rng.random() < 0.5:
        extra = _off_circle(rng)
        zeros.append((extra, 1))
        poles.append((extra, 1))
    if rng.random() < 0.5:
        zeros.append((ZERO, 1))
        shift -= 1
    return scale, shift, zeros, poles


def _near_miss(rng: random.Random, scale, shift, zeros, poles):
    """A different function that agrees with the first in all but one respect."""
    zeros, poles = list(zeros), list(poles)
    change = rng.choice(["lead", "shift", "multiplicity", "zero", "pole"])
    if change == "lead":
        scale = scale + ONE
    elif change == "shift":
        shift += 1
    elif change == "multiplicity" and zeros:
        r, m = zeros[0]
        zeros[0] = (r, m + 1)
    elif change == "zero" or not poles:
        zeros.append((_off_circle(rng), 1))
    else:
        r, m = poles[0]
        poles[0] = (r, m + 1)
    return scale, shift, zeros, poles


@pytest.mark.parametrize("seed", SEEDS)
def test_split_difference_is_zero_exactly_when_the_polynomial_one_is(seed):
    rng = random.Random(seed)
    for _ in range(10):
        args = _factored_args(rng)
        other = rng.choice([_same_function, _near_miss])(rng, *args)
        f, g = make_factored(*args), make_factored(*other)
        on_roots = sym_arith(f, g, "sub")
        on_polys = sym_arith(eager_reference(f, split=False), eager_reference(g, split=False), "sub")
        assert on_roots.is_zero() == on_polys.is_zero()
        assert on_roots == on_polys


def test_split_difference_near_misses():
    half, third = gr(Fraction(1, 2)), gr(Fraction(1, 3))
    f = make_factored(ONE, 0, [(half, 2)], [(gr(3), 1)])
    assert sym_arith(f, make_factored(ONE, 0, [(half, 1), (half, 1)], [(gr(3), 1)]), "sub") is ZERO_SYMBOL
    for g in (
        make_factored(ONE, 0, [(half, 1)], [(gr(3), 1)]),  # a multiplicity
        make_factored(ONE, 0, [(third, 2)], [(gr(3), 1)]),  # a zero, same lead
        make_factored(ONE, 0, [(half, 2)], [(gr(2), 1)]),  # a pole, same lead
        make_factored(ONE, 1, [(half, 2)], [(gr(3), 1)]),  # the shift
        make_factored(gr(2), 0, [(half, 2)], [(gr(3), 1)]),  # the lead
    ):
        assert not sym_arith(f, g, "sub").is_zero()


# ---------------------------------------------------------------------------
# Polynomial invariants
# ---------------------------------------------------------------------------


def test_polynomial_trims_to_canonical_form():
    a, b = gr(1, 2), gr(Fraction(1, 3))
    assert Polynomial((a, b, ZERO, ZERO)).coeffs == (a, b)
    assert Polynomial((ZERO, ZERO)).coeffs == ()
    assert Polynomial((ZERO, a)).coeffs == (ZERO, a)
    assert Polynomial(()).degree == -1


def test_polynomial_equality_and_hash_follow_the_coefficients():
    a, b = gr(1, 2), gr(Fraction(1, 3))
    p, q = Polynomial((a, b)), Polynomial((a, b, ZERO))
    assert p == q and hash(p) == hash(q)
    assert len({p, q, Polynomial((a, b))}) == 1
    assert p != Polynomial((b, a))
    assert p != (a, b)


def test_polynomial_copy_and_pickle_round_trip():
    p = poly([gr(1, -1), 0, gr(Fraction(2, 7))])
    for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert type(q) is Polynomial and q == p and q.coeffs == p.coeffs


def test_polynomial_is_immutable():
    p = poly([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = (ONE,)
    with pytest.raises(AttributeError):
        del p.coeffs
    with pytest.raises(AttributeError):
        p.other = 1
    assert p.coeffs == (ONE, gr(2))
