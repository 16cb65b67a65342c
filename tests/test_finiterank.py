from fractions import Fraction

import random

from bfredholm import finiterank
from bfredholm.finiterank import (
    fr_entry,
    fr_equal,
    fr_is_zero,
    make_finite_rank,
    outer,
    trace,
)
from bfredholm.scalars import gr
from bfredholm.sequences import SEQ_ZERO, RationalSequence, pairing, seq_basis, seq_finite, seq_geo
from references import compose_reference, fr_entry_reference, random_finite_rank, random_sequence


def _rand_seq(rng):
    if rng.random() < 0.5:
        return seq_finite(
            [gr(Fraction(rng.randint(-3, 3), rng.randint(1, 3))) for _ in range(rng.randint(1, 4))]
        )
    return seq_geo(gr(Fraction(rng.choice([-1, 1]), rng.randint(2, 4))), rng.randint(0, 1))


def _rand_fr(rng, terms=2):
    return make_finite_rank(
        [(_rand_seq(rng), _rand_seq(rng)) for _ in range(rng.randint(1, terms))]
    )


def test_outer_action():
    u = seq_finite([1, 2])
    v = seq_geo(gr(Fraction(1, 2)))
    F = outer(u, v)
    x = seq_finite([1, 1, 1])
    # (u (x) v) x = <v, x> u
    assert F.apply(x) == u.scale(pairing(v, x))
    assert F.apply_transpose(x) == v.scale(pairing(u, x))


def test_trace_of_outer_is_pairing():
    u = seq_geo(gr(Fraction(-1, 3)), 1)
    v = seq_finite([2, gr(0, 1), -1])
    assert trace(outer(u, v)) == pairing(v, u)


def test_trace_linear_and_cyclic():
    rng = random.Random(11)
    for _ in range(25):
        F = _rand_fr(rng)
        G = _rand_fr(rng)
        c = gr(Fraction(rng.randint(-2, 2), rng.randint(1, 3)), 1)
        assert trace(F + G) == trace(F) + trace(G)
        assert trace(F.scale(c)) == c * trace(F)
        assert trace(F.compose(G)) == trace(G.compose(F))


def test_compose_matches_defining_action():
    rng = random.Random(3)
    for _ in range(10):
        F = _rand_fr(rng)
        G = _rand_fr(rng)
        H = F.compose(G)
        for i in range(5):
            for j in range(5):
                want = pairing(seq_basis(i), F.apply(G.apply(seq_basis(j))))
                assert fr_entry(H, i, j) == want, (i, j)


def test_entry_and_transpose():
    F = outer(seq_finite([0, 1]), seq_finite([3, 0, -2]))
    assert fr_entry(F, 1, 0) == gr(3)
    assert fr_entry(F, 1, 2) == gr(-2)
    assert fr_entry(F, 0, 0).is_zero()
    T = F.transpose()
    for i in range(4):
        for j in range(4):
            assert fr_entry(T, i, j) == fr_entry(F, j, i)


def test_zero_and_equal():
    u = seq_finite([1, -1])
    F = outer(u, u)
    assert not fr_is_zero(F)
    assert fr_is_zero(F - F)
    assert fr_equal(F + F, F.scale(gr(2)))
    # cancelling representations: u(x)u + (-u)(x)u == 0
    G = make_finite_rank([(u, u), (u.scale(gr(-1)), u)])
    assert fr_is_zero(G)


def test_fr_entry_matches_reference():
    rng = random.Random(41)
    for _ in range(25):
        F = random_finite_rank(rng)
        for i in range(41):
            for j in (0, i, 40 - i, rng.randint(0, 40)):
                assert fr_entry(F, i, j) == fr_entry_reference(F, i, j), (i, j)


def _zero_pattern_operator():
    # u(i) or v(j) is zero on purpose at most small indices
    rng = random.Random(42)
    terms = [
        (seq_finite([0, 1, 0, 2]), seq_finite([3, 0, gr(0, 1)])),
        (seq_finite([5, 0, 0, 1]), random_sequence(rng)),
        (seq_basis(2), seq_geo(gr(Fraction(1, 2), Fraction(1, 3)))),
        (seq_geo(gr(Fraction(-1, 3))), seq_finite([0, 0, 7])),
    ]
    return make_finite_rank(terms)


def test_fr_entry_reads_v_only_where_u_is_nonzero(monkeypatch):
    F = _zero_pattern_operator()
    reads = []
    value = RationalSequence.value

    def recording_value(self, n):
        reads.append((id(self), n))
        return value(self, n)

    monkeypatch.setattr(RationalSequence, "value", recording_value)
    for i in range(6):
        for j in range(5):
            reads.clear()
            got = fr_entry(F, i, j)
            assert got == fr_entry_reference(F, i, j)
            for u, v in F.terms:
                assert ((id(v), j) in reads) == (not value(u, i).is_zero()), (i, j)


def test_fr_entry_multiplies_only_nonzero_pairs(monkeypatch):
    # the entry sum hands one pair to the dot product per nonzero u_k(i) v_k(j)
    F = make_finite_rank([
        (seq_finite([0, 1, 0, 2]), seq_finite([3, 0, gr(0, 1)])),
        (seq_finite([5, 0, 0, 1]), seq_finite([0, 0, 4])),
    ])
    handed = []
    dot = finiterank._dot

    def recording_dot(pairs, total):
        handed.extend(pairs)
        return dot(pairs, total)

    monkeypatch.setattr(finiterank, "_dot", recording_dot)
    for i in range(5):
        for j in range(4):
            handed.clear()
            assert fr_entry(F, i, j) == fr_entry_reference(F, i, j)
            pairs = [(u.value(i), v.value(j)) for u, v in F.terms]
            assert handed == [(a, b) for a, b in pairs if not a.is_zero() and not b.is_zero()], (i, j)


def test_compose_matches_the_double_loop():
    rng = random.Random(43)
    for _ in range(30):
        F = random_finite_rank(rng, rng.randint(0, 3))
        G = random_finite_rank(rng, rng.randint(0, 3))
        H = F.compose(G)
        assert len(H.terms) <= len(G.terms)
        assert fr_equal(H, compose_reference(F, G))


def test_apply_transpose_is_the_transposed_action():
    rng = random.Random(44)
    for _ in range(20):
        F = random_finite_rank(rng, rng.randint(0, 3))
        x = random_sequence(rng)
        want = SEQ_ZERO
        for u, v in F.terms:
            want = want + v.scale(pairing(u, x))
        assert F.apply_transpose(x) == want
