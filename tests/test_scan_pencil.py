"""punctured_scan against the operator-building reference, field for field.

The library settles a Toeplitz block's samples by one disk test (|f| > R on
the circle, R the largest radius) or else classifies every sample
a - lambda*e from one root location of the pencil
z^max(s,0)*num - lambda*z^max(-s,0)*den; the reference builds a - lambda*e
with scalar_shift and classifies it like the base operator.  The inputs
reach every term of the pencil's winding: negative shifts, poles inside
the disk, zeros of f - lambda at z = 0 and on the circle, and constant
symbols equal to a sample (a zero symbol); and the disk test's
boundaries: |f| = R at z = 1 and away from it, |f| < R everywhere, and a
test that fails on one block and holds on another.
"""

import random
from fractions import Fraction

import pytest
from references import punctured_scan_reference, random_poly, random_symbol

from bfredholm.dsl import evaluate, parse
from bfredholm.engine import SCAN_DIRECTIONS, _class_and_index, nonstability_demo, punctured_scan
from bfredholm.operators import scalar_shift, toeplitz_operator
from bfredholm.poly import poly
from bfredholm.rootloc import exceeds_on_circle, has_zero_on_circle
from bfredholm.scalars import gr
from bfredholm.suites import _random_split_symbol, bfredholm_cases, corpus
from bfredholm.symbols import make_symbol

CLI_RADII = [Fraction(1, 8), Fraction(1, 16), Fraction(1, 32)]
# wide radii move lambda across the image of the circle, so the rows change
# class and index within one scan
WIDE_RADII = [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(5, 2)]
GRID = [d * gr(r) for r in CLI_RADII for d in SCAN_DIRECTIONS]


def _same_as_reference(a, radii=CLI_RADII, directions=8):
    rep = punctured_scan(a, radii, directions)
    ref = punctured_scan_reference(a, radii, directions)
    assert (rep.base_classification, rep.base_index) == (ref.base_classification, ref.base_index)
    assert rep.rows == ref.rows
    assert rep.stable_radius == ref.stable_radius
    return rep


def _in_class(f) -> bool:
    return _class_and_index(toeplitz_operator(f))[0] != "NotInClass"


def _den_off_circle(rng, degree):
    while True:
        q = random_poly(rng, degree)
        if not q.is_constant() and not has_zero_on_circle(q):
            return q


def _planted(rng, lam, root):
    """f = (lam*q + (z - root)*r)/q, so f - lam vanishes at root and f is in class."""
    while True:
        q = _den_off_circle(rng, rng.randint(1, 3))
        f = make_symbol(q.scale(lam) + poly([-root, 1]) * random_poly(rng, rng.randint(0, 3)), q)
        if _in_class(f):
            return f


@pytest.mark.parametrize("seed", range(12))
def test_seeded_symbols(seed):
    rng = random.Random(seed)
    for _ in range(6):
        f = random_symbol(rng)  # shifts of both signs, poles inside and outside
        if not _in_class(f):
            continue
        a = toeplitz_operator(f)
        _same_as_reference(a)
        _same_as_reference(a, WIDE_RADII)
        # the same symbol without its split, and with a negative shift
        g = make_symbol(f.num, f.den, f.shift - 2)
        _same_as_reference(toeplitz_operator(g), WIDE_RADII, 5)


@pytest.mark.parametrize("seed", range(6))
def test_dense_rational_symbols(seed):
    rng = random.Random(100 + seed)
    p = random_poly(rng, rng.randint(3, 6))
    q = _den_off_circle(rng, rng.randint(3, 6))
    f = make_symbol(p, q, rng.randint(-2, 2))
    if _in_class(f):
        _same_as_reference(toeplitz_operator(f), WIDE_RADII)
        _same_as_reference(toeplitz_operator(f))


@pytest.mark.parametrize("seed", range(8))
def test_planted_circle_hits(seed):
    # f - lam has a zero at a unit point of the scan's own directions
    rng = random.Random(200 + seed)
    lam = rng.choice(GRID)
    f = _planted(rng, lam, rng.choice(SCAN_DIRECTIONS))
    rep = _same_as_reference(toeplitz_operator(f))
    assert [r.classification for r in rep.rows if r.lam == lam] == ["NotInClass"]


@pytest.mark.parametrize("seed", range(8))
def test_planted_zeros_at_the_origin(seed):
    # f(0) = lam: the pencil at lam vanishes at z = 0, which counts inside
    rng = random.Random(300 + seed)
    lam = rng.choice(GRID)
    f = _planted(rng, lam, gr(0))
    _same_as_reference(toeplitz_operator(f))
    _same_as_reference(toeplitz_operator(f), WIDE_RADII)


@pytest.mark.parametrize("text", [
    "T(1/8)",
    "T(0)",
    "T(0) + FR{geo(1/2) | fin[1,2,3]}",
    "M[[1]]",
    "T(z) (++) T(1/8) (++) M[[0,1],[0,0]]",
    "T(z - 1/2) (++) M[[1,2],[3,4]] (++) T((z-1/2)^2/(z-3))",
    "T(1/z^2 + 1/5) (++) T(0) (++) M[[2]]",
    "(T((z-1/2)/(z-3)) + FR{geo(1/2) | fin[1,2,3]}) * (T((z-2)/(z-1/3)) + FR{geo(1/3) | geo(-1/4)})",
])
def test_dsl_operators(text):
    a = evaluate(parse(text))
    _same_as_reference(a)
    _same_as_reference(a, WIDE_RADII)


def test_constant_symbol_hit_is_a_zero_symbol_row():
    rep = _same_as_reference(evaluate(parse("T(1/8)")))
    hit = [(r.classification, r.index) for r in rep.rows if r.lam == gr(Fraction(1, 8))]
    assert hit == [("BFredholm", 0)]
    assert rep.stable_radius == Fraction(1, 16)


def _disk_tests(a):
    """The disk test of each Toeplitz symbol of a at the largest CLI radius."""
    return [exceeds_on_circle(f.num, f.den, max(CLI_RADII) ** 2) for f in a.symbols().values()]


def _rows(rep, lam):
    return [(r.classification, r.index) for r in rep.rows if r.lam == lam]


def test_disk_test_boundary_at_one():
    # |f| = 1/8 at z = 1 only: the sign test at z = 1 fails, and f - 1/8 = z - 1
    a = evaluate(parse("T(z - 7/8)"))
    assert _disk_tests(a) == [False]
    rep = _same_as_reference(a)
    assert _rows(rep, gr(Fraction(1, 8))) == [("NotInClass", None)]
    assert rep.stable_radius == Fraction(1, 16)


def test_disk_test_boundary_away_from_one():
    # |f(1)| = 15/8 passes the sign test, but |f(-1)| = 1/8: only the
    # circle-zero test fails, and f + 1/8 vanishes at z = -1
    a = evaluate(parse("T(z + 7/8)"))
    assert _disk_tests(a) == [False]
    rep = _same_as_reference(a)
    assert _rows(rep, gr(Fraction(-1, 8))) == [("NotInClass", None)]
    assert rep.stable_radius == Fraction(1, 16)


def test_disk_test_below_every_radius():
    # 1/64 <= |f| <= 3/64 < 1/8 on the whole circle: P(1) < 0 and P has no
    # circle zero, so only the sign test refuses it
    a = evaluate(parse("T(1/32*z - 1/64)"))
    assert _disk_tests(a) == [False]
    rep = _same_as_reference(a)
    assert [r.classification for r in rep.rows].count("InvertibleModJ") == 21
    assert rep.base_index == -1 and rep.stable_radius is None


def test_disk_test_fails_on_one_block_and_holds_on_the_other():
    a = evaluate(parse("T(z - 7/8) (++) T(z - 1/2)"))
    assert _disk_tests(a) == [False, True]
    rep = _same_as_reference(a)
    assert _rows(rep, gr(Fraction(1, 8))) == [("NotInClass", None)]
    assert {r.index for r in rep.rows if r.classification != "NotInClass"} == {-2}
    assert rep.stable_radius == Fraction(1, 16)


def test_punctured_corpus():
    for _, a in corpus(7) + bfredholm_cases():
        _same_as_reference(a)
        _same_as_reference(a, WIDE_RADII, 4)


def test_windingoracle_corpus():
    rng = random.Random(7 + 4)
    for _ in range(25):
        a = toeplitz_operator(_random_split_symbol(rng))
        _same_as_reference(a)
        _same_as_reference(a, WIDE_RADII, 4)


def test_nonstability_demo_rows():
    base = toeplitz_operator(make_symbol(poly([-1, 1]), poly([1])))
    for row in nonstability_demo():
        assert (row["classification"], row["index"]) == _class_and_index(scalar_shift(base, row["lambda"]))
