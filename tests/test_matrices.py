import random
from fractions import Fraction

import pytest

from bfredholm.matrices import (
    charpoly,
    drazin,
    drazin_index,
    identity,
    jordan_nilpotent,
    matrix,
    rank,
    spectral_trace_check,
    zeros,
)
from bfredholm.scalars import gr

from references import drazin_reference, inverse, is_nilpotent


def _rand_matrix(rng, n):
    return matrix(
        [
            [
                gr(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                   Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
                for _ in range(n)
            ]
            for _ in range(n)
        ]
    )


def _rand_invertible(rng, n):
    while True:
        A = _rand_matrix(rng, n)
        if rank(A) == n:
            return A


def test_basic_algebra():
    A = matrix([[1, 2], [3, 4]])
    B = matrix([[0, 1], [1, 0]])
    assert (A * B).at(0, 0) == gr(2)
    assert (A + B - B) == A
    assert A.transpose().at(0, 1) == gr(3)
    assert A.trace() == gr(5)
    assert zeros(2, 2).is_zero()


def test_inverse_and_rank():
    rng = random.Random(5)
    for n in (1, 2, 3, 4):
        A = _rand_invertible(rng, n)
        assert inverse(A) * A == identity(n)
        assert A * inverse(A) == identity(n)
    S = matrix([[1, 2], [2, 4]])
    assert rank(S) == 1


def test_jordan_and_nilpotency():
    N = jordan_nilpotent(3)
    assert is_nilpotent(N) == 3
    assert N.power(3).is_zero() and not N.power(2).is_zero()
    assert is_nilpotent(identity(2)) is None
    assert is_nilpotent(zeros(2, 2)) == 1


def _block_diag(A, B):
    n, m = A.rows, B.rows
    out = [[gr(0)] * (n + m) for _ in range(n + m)]
    for i in range(n):
        for j in range(n):
            out[i][j] = A.at(i, j)
    for i in range(m):
        for j in range(m):
            out[n + i][n + j] = B.at(i, j)
    return matrix(out)


@pytest.mark.parametrize("seed", range(12))
def test_drazin_identities(seed):
    rng = random.Random(seed)
    inv_size = rng.randint(1, 3)
    nil_size = rng.randint(1, 3)
    core = _block_diag(_rand_invertible(rng, inv_size), jordan_nilpotent(nil_size))
    n = inv_size + nil_size
    P = _rand_invertible(rng, n)
    A = P * core * inverse(P)
    AD, k = drazin(A)
    assert k == nil_size
    assert A * AD == AD * A
    assert AD * A * AD == AD
    assert A.power(k + 1) * AD == A.power(k)


def _conjugated(rng, A):
    P = _rand_invertible(rng, A.rows)
    return P * A * inverse(P)


def _drazin_cases(seed):
    """Invertible, conjugated Jordan, mixed, zero, identity and 0x0 matrices."""
    rng = random.Random(seed)
    cases = [zeros(0, 0), zeros(1, 1), zeros(3, 3), identity(1), identity(3)]
    for n in (1, 2, 3, 4):
        cases.append(_rand_invertible(rng, n))
        cases.append(_conjugated(rng, jordan_nilpotent(n)))
    for inv_size, nil_size in ((1, 1), (1, 2), (2, 2), (3, 1)):
        cases.append(_conjugated(rng, _block_diag(_rand_invertible(rng, inv_size), jordan_nilpotent(nil_size))))
    cases.append(_conjugated(rng, _block_diag(jordan_nilpotent(2), jordan_nilpotent(1))))
    return cases


@pytest.mark.parametrize("seed", range(8))
def test_drazin_matches_the_fitting_reference(seed):
    for A in _drazin_cases(seed):
        assert drazin(A) == drazin_reference(A)


@pytest.mark.parametrize("seed", range(8))
def test_drazin_index_is_the_index_of_drazin(seed):
    for A in _drazin_cases(seed):
        assert drazin_index(A) == drazin(A)[1]


def test_drazin_invertible_matrix():
    A = matrix([[2, 1], [1, 1]])
    AD, k = drazin(A)
    assert k == 0
    assert AD == inverse(A)


def test_charpoly_and_spectral_trace():
    A = matrix([[2, 1], [0, 3]])
    p = charpoly(A)
    # z^2 - 5z + 6
    assert [str(p.coeff(i)) for i in range(3)] == ["6", "-5", "1"]
    rng = random.Random(2)
    for n in (2, 3, 4):
        assert spectral_trace_check(_rand_matrix(rng, n))
