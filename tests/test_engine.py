import random
import sys
from fractions import Fraction

import pytest

from astgen import random_ast
from bfredholm import cli, engine, matrices
from bfredholm.dsl import evaluate, parse
from bfredholm.engine import (
    _commutator_index,
    _perturb_witness,
    FREDHOLM_CLASSES,
    SCAN_DIRECTIONS,
    analyze,
    classify,
    drazin_witness,
    index_trace,
    index_winding,
    nonstability_demo,
    punctured_scan,
    verify_fedosov,
    verify_ideal_perturbation,
    verify_log_law,
    verify_power_law,
    verify_well_defined,
)
from bfredholm.errors import (
    BadScanGrid,
    ExactError,
    IndexOutOfRange,
    MissingSplit,
    NonIntegerTrace,
    NotBezout,
    NotBFredholm,
    NotCommuting,
    OracleMismatch,
)
from bfredholm.matrices import jordan_nilpotent, matrix
from bfredholm.numeric import winding_oracle
from bfredholm.operators import (
    BlockOperator,
    MatrixBlock,
    ToeplitzBlock,
    direct_sum,
    embed_finite_rank,
    identity_like,
    matrix_operator,
    op_arith,
    op_power,
    op_scale,
    random_ideal_element,
    scalar_shift,
    toeplitz_operator,
)
from bfredholm.poly import poly
from bfredholm.scalars import gr
from bfredholm.symbols import (
    ZERO_SYMBOL,
    invert_symbol,
    make_factored,
    make_symbol,
    sym_arith,
)

HALF = gr(Fraction(1, 2))
Z = make_symbol(poly([0, 1]), poly([1]))
F1 = make_factored(gr(1), 0, [(HALF, 1)], [])                      # z - 1/2
RATIO = make_factored(gr(1), 0, [(HALF, 2)], [(gr(3), 1)])         # (z-1/2)^2/(z-3)

TZ = toeplitz_operator(Z)
J3 = matrix_operator(jordan_nilpotent(3))


def test_classify():
    assert classify(TZ) == "Fredholm"
    assert classify(toeplitz_operator(make_factored(gr(1), 0, [(gr(3), 1)], []))) == "InvertibleModJ"
    assert classify(toeplitz_operator(make_symbol(poly([-1, 1]), poly([1])))) == "NotInClass"
    zero = toeplitz_operator(make_symbol(poly([]), poly([1])))
    assert classify(direct_sum(zero, J3)) == "BFredholm"
    assert classify(J3) == "BFredholm"


def test_analyze_shift():
    rep = analyze(TZ)
    assert rep.classification == "Fredholm"
    assert rep.index_trace == rep.index_winding == -1
    assert rep.defects_in_ideal


def test_analyze_ratio_with_jordan_block():
    a = direct_sum(toeplitz_operator(RATIO), J3)
    rep = analyze(a)
    assert rep.classification == "Fredholm"
    assert rep.index_trace == rep.index_winding == -2
    assert rep.quotient_index == 3


def test_analyze_not_in_class():
    rep = analyze(toeplitz_operator(make_symbol(poly([-1, 1]), poly([1]))))
    assert rep.classification == "NotInClass"
    assert rep.index_trace is None and rep.index_winding is None


def test_the_witness_of_a_matrix_block_is_zero_with_its_drazin_index():
    a = direct_sum(toeplitz_operator(F1), J3)
    w = drazin_witness(a)
    assert w.defects_in_ideal()
    assert w.inverse.blocks[1].m.is_zero()
    assert index_trace(a, w) == index_winding(a) == -1
    assert w.quotient_index == 3


def test_analyze_reads_only_the_drazin_index_of_a_matrix_block(monkeypatch):
    a = evaluate(parse("T(z - 1/2) (++) M[[0,1,2],[0,0,3],[0,0,0]] (++) M[[2,1],[0,0]]"))
    want = analyze(a)
    # analyze must not form a Drazin inverse: unbind drazin wherever a module holds it
    holders = [m for name, m in sys.modules.items()
               if name.split(".")[0] == "bfredholm" and getattr(m, "drazin", None) is matrices.drazin]
    for mod in holders:
        monkeypatch.setattr(mod, "drazin", None)
    assert analyze(a) == want
    assert (want.index_trace, want.quotient_index) == (-1, 3)


def test_nilpotent_beside_product_is_certified_in_the_quotient():
    # d3 = a^(p+1) a0 - a^p with p = 3 used to power the whole product
    f = "T((z - 2) * (z - 1/2) / ((z - 1/3) * (z - 3)))"
    a = evaluate(parse(f"{f} * {f} (++) M[[0,1,0],[0,0,1],[0,0,0]]"))
    rep = analyze(a)
    assert rep.index_trace == rep.index_winding == 0
    assert rep.quotient_index == 3
    w = drazin_witness(a)
    # one symbol per Toeplitz block; the matrix block lies in J and has none
    assert [len(d) for d in w.defects] == [1, 1, 1]
    assert all(f.is_zero() for d in w.defects for f in d)


def test_trace_route_note_names_the_symbol():
    a = evaluate(parse("T(z^3 - 1/3*z + 1/5) (++) T(z)"))
    rep = analyze(a)
    assert rep.index_trace is None and rep.index_winding == -4
    assert rep.pathway_notes[-1].startswith("trace route unavailable: ")
    assert f"symbol {a.blocks[0].symbol} has no CircleSplit" in rep.pathway_notes[-1]


def test_index_trace_takes_the_commutator_with_the_given_operator():
    w = drazin_witness(TZ)
    assert index_trace(TZ, w) == -1
    # tau([2 T(z), T(1/z)]) = -2: the commutator is built from a, not from w
    assert index_trace(op_scale(TZ, gr(2)), w) == -2


_INNER = [gr(Fraction(1, 2)), gr(Fraction(-1, 3)), gr(0, Fraction(1, 2)), gr(Fraction(1, 3), Fraction(1, 3))]
_OUTER = [gr(2), gr(-3), gr(0, 2), gr(Fraction(3, 2), Fraction(-3, 2))]
_MATRICES = [
    jordan_nilpotent(2),
    jordan_nilpotent(3),
    matrix([[2, 1], [0, 3]]),                  # invertible
    matrix([[2, 0, 0], [0, 0, 1], [0, 0, 0]]),  # invertible (+) nilpotent
]


def _random_operator(seed: int, rng: random.Random) -> BlockOperator:
    """T(f) + FR, then a zero-symbol block on odd seeds, then a matrix block."""
    f = make_factored(
        gr(rng.randint(1, 3)), rng.randint(-1, 1),
        [(rng.choice(_INNER + _OUTER), 1)], [(rng.choice(_INNER + _OUTER), 1)],
    )
    blocks = [ToeplitzBlock(f, random_ideal_element(rng))]
    if seed % 2:
        blocks.append(ToeplitzBlock(ZERO_SYMBOL, random_ideal_element(rng)))
    blocks.append(MatrixBlock(_MATRICES[seed // 2 % len(_MATRICES)]))
    return BlockOperator(tuple(blocks))


@pytest.mark.parametrize("seed", range(8))
def test_quotient_defects_match_full_operator_reference(seed):
    rng = random.Random(seed)
    a = _random_operator(seed, rng)
    perturbed = op_arith(a, embed_finite_rank(a, random_ideal_element(rng), 0), "add")
    w = drazin_witness(a)
    a0, p = w.inverse, w.quotient_index
    # a matrix block lies in J, so its witness is 0
    assert all(x.m.is_zero() for x in a0.blocks if isinstance(x, MatrixBlock))
    d1 = op_arith(op_arith(a, a0, "mul"), op_arith(a0, a, "mul"), "sub")
    d2 = op_arith(op_arith(op_arith(a0, a, "mul"), a0, "mul"), a0, "sub")
    d3 = op_arith(op_arith(op_power(a, p + 1), a0, "mul"), op_power(a, p), "sub")
    for full, quotient in zip((d1, d2, d3), w.defects, strict=True):
        toeplitz = [x.symbol for x in full.blocks if isinstance(x, ToeplitzBlock)]
        assert len(toeplitz) == len(quotient)
        assert all(x == y for x, y in zip(toeplitz, quotient))
    assert w.defects_in_ideal()
    assert index_trace(a, w) == index_winding(a)
    # a witness of a is one of a + j too; its commutator is recomputed
    assert index_trace(perturbed, w) == index_winding(perturbed) == index_winding(a)


@pytest.mark.parametrize(
    "f, idx",
    [(Z, -1), (invert_symbol(Z), 1), (F1, -1), (RATIO, -2)],
    ids=["z", "1/z", "z-1/2", "ratio"],
)
def test_fedosov_both_routes(f, idx):
    rep = verify_fedosov(toeplitz_operator(f))
    assert rep.index_trace == rep.index_winding == idx


def test_well_defined_under_perturbations():
    a = direct_sum(toeplitz_operator(RATIO), J3)
    r = verify_well_defined(a, trials=5, rng_seed=1)
    assert r["index"] == -2
    assert r["values"] == [-2] * 5


def test_punctured_scan_radii():
    assert len(SCAN_DIRECTIONS) == 8
    assert all(d.abs2() == 1 for d in SCAN_DIRECTIONS)
    radii = [Fraction(1, 8), Fraction(1, 16)]
    rep = punctured_scan(toeplitz_operator(F1), radii)
    assert rep.base_index == -1
    assert rep.stable_radius == Fraction(1, 8)
    assert all(r.classification in FREDHOLM_CLASSES for r in rep.rows)


def test_punctured_scan_boundary_coincidence():
    # the essential spectrum of T((z-1/2)^2/(z-3)) passes through -1/8
    # exactly (the symbol takes that value at z=1), so the scan stabilizes
    # only at 1/16
    a = toeplitz_operator(RATIO)
    shifted = scalar_shift(a, gr(Fraction(-1, 8)))
    assert classify(shifted) == "NotInClass"
    rep = punctured_scan(a, [Fraction(1, 8), Fraction(1, 16)])
    assert rep.stable_radius == Fraction(1, 16)


def test_punctured_scan_rejects_not_in_class():
    with pytest.raises(NotBFredholm):
        punctured_scan(
            toeplitz_operator(make_symbol(poly([-1, 1]), poly([1]))),
            [Fraction(1, 8)],
        )


@pytest.mark.parametrize("radii, directions", [
    ([Fraction(1, 8), Fraction(0)], 8),
    ([Fraction(-1, 8)], 8),
    ([Fraction(1, 8)], 0),
    ([Fraction(1, 8)], -3),
    ([Fraction(1, 8)], len(SCAN_DIRECTIONS) + 1),
])
def test_punctured_scan_rejects_bad_grid(radii, directions):
    with pytest.raises(BadScanGrid):
        punctured_scan(toeplitz_operator(F1), radii, directions)


def test_log_law():
    e = identity_like(TZ)
    a2 = toeplitz_operator(F1)
    # Bezout: 2*z - 2*(z - 1/2) = 1
    r = verify_log_law(TZ, a2, op_scale(e, gr(2)), op_scale(e, gr(-2)))
    assert (r["i_a1"], r["i_a2"], r["i_product"]) == (-1, -1, -2)
    assert "trace route" in r["routes"]


def test_log_law_rejections():
    e = identity_like(TZ)
    a2 = toeplitz_operator(F1)
    with pytest.raises(NotBezout):
        verify_log_law(TZ, a2, op_scale(e, gr(-2)), op_scale(e, gr(2)))
    # T(z) and T(1/z) do not commute
    with pytest.raises(NotCommuting):
        verify_log_law(TZ, toeplitz_operator(invert_symbol(Z)), e, e)


def test_ideal_perturbation():
    import random

    a = direct_sum(toeplitz_operator(RATIO), J3)
    rng = random.Random(4)
    for _ in range(3):
        r = verify_ideal_perturbation(a, random_ideal_element(rng))
        assert r["index"] == -2


@pytest.mark.parametrize("p", [2, 3])
def test_power_law(p):
    r = verify_power_law(toeplitz_operator(RATIO), p)
    assert r["index"] == -2 and r["index_power"] == -2 * p


def test_nonstability_demo():
    rows = nonstability_demo()
    assert rows[0]["classification"] == "NotInClass"
    others = rows[1:]
    assert all(r["classification"] in FREDHOLM_CLASSES for r in others)
    # the index genuinely depends on the direction of the shift
    assert {r["index"] for r in others} == {0, -1}


@pytest.mark.parametrize(
    "f",
    [Z, invert_symbol(Z), F1, RATIO, sym_arith(RATIO, invert_symbol(Z), "mul")],
    ids=["z", "1/z", "z-1/2", "ratio", "ratio/z"],
)
def test_numeric_winding_oracle(f):
    from bfredholm.symbols import winding_number

    assert winding_oracle(f) == winding_number(f)


@pytest.mark.parametrize("route", [index_winding, drazin_witness, index_trace, verify_fedosov])
def test_index_routes_reject_not_in_class(route):
    with pytest.raises(NotBFredholm):
        route(toeplitz_operator(make_symbol(poly([-1, 1]), poly([1]))))


# The verifiers on symbols without a split, and outside the class.  These
# pin the skip of the trace route, the MissingSplit they pass on and the
# NotBFredholm they raise.

SPLIT_FREE = "T(z^2 - 3)"
NO_INVERSE = "symbol (-3 + z^2) has no CircleSplit; its inverse is unavailable"


def _op(text):
    return evaluate(parse(text))


def test_log_law_on_a_split_free_symbol_keeps_the_winding_route():
    tz = _op("T(z)")
    e = identity_like(tz)
    # (1/3) z * z - (1/3) (z^2 - 3) = 1
    r = verify_log_law(tz, _op(SPLIT_FREE), op_scale(tz, gr(Fraction(1, 3))), op_scale(e, gr(Fraction(-1, 3))))
    assert (r["i_a1"], r["i_a2"], r["i_product"]) == (-1, 0, -1)
    assert r["routes"] == ["winding route"]


def test_ideal_perturbation_on_a_split_free_symbol_keeps_the_winding_route():
    r = verify_ideal_perturbation(_op(SPLIT_FREE), random_ideal_element(random.Random(5)))
    assert r == {"index": 0, "classification": "InvertibleModJ", "routes": ["winding route"]}


@pytest.mark.parametrize("block", [-1, 2])
def test_ideal_perturbation_outside_the_sum_raises(block):
    a = _op("T(z) (++) T(z-1/2)")
    with pytest.raises(IndexOutOfRange, match=f"^block {block} of 2$"):
        verify_ideal_perturbation(a, random_ideal_element(random.Random(5)), block)


@pytest.mark.parametrize("verify", [verify_fedosov, lambda a: verify_power_law(a, 2)], ids=["fedosov", "powerlaw"])
def test_both_route_verifiers_pass_on_missing_split(verify):
    with pytest.raises(MissingSplit) as info:
        verify(_op(SPLIT_FREE))
    assert str(info.value) == NO_INVERSE


def test_verifiers_reject_not_in_class():
    a, e = _op("T(z - 1)"), identity_like(_op("T(z)"))
    with pytest.raises(NotBFredholm):
        verify_log_law(a, _op("T(z - 2)"), e, op_scale(e, gr(-1)))
    with pytest.raises(NotBFredholm):
        verify_ideal_perturbation(a, random_ideal_element(random.Random(5)))
    with pytest.raises(NotBFredholm):
        verify_power_law(a, 2)


# The trace route sums both Widom pairings of each Toeplitz block; the full
# commutator _commutator_index is the reference it must equal.


def _both_route_draws(count: int) -> list[BlockOperator]:
    """The first ``count`` draws of astgen seed 5 that get both index routes."""
    rng, draws = random.Random(5), []
    while len(draws) < count:
        try:
            a = evaluate(random_ast(rng))
        except ExactError:
            continue
        if analyze(a).index_trace is not None:
            draws.append(a)
    return draws


def test_index_trace_is_the_trace_of_the_full_commutator():
    rng = random.Random(30)
    for a in _both_route_draws(150):
        w = drazin_witness(a)
        assert index_trace(a, w) == _commutator_index(a, w.inverse) == index_winding(a)
        # a0 + j, and two a0 that are not witnesses: the formula holds for
        # any a0 of a's signature
        for a0 in (_perturb_witness(w.inverse, rng), op_scale(w.inverse, gr(3))):
            assert index_trace(a, engine.DrazinWitness(a0, w.quotient_index, w.defects)) == _commutator_index(a, a0)
        scaled = op_scale(a, gr(-2))
        assert index_trace(scaled, w) == _commutator_index(scaled, w.inverse) == -2 * index_winding(a)


def test_a_wrong_pairing_is_an_oracle_mismatch(monkeypatch):
    right = engine.widom_pairings
    monkeypatch.setattr(engine, "widom_pairings", lambda f, g: tuple(-w for w in right(f, g)))
    with pytest.raises(OracleMismatch, match="index_trace=1 disagrees with index_winding=-1"):
        analyze(TZ)


def _half_on_call(monkeypatch, n: int) -> list:
    """Adds 1/2 to the n-th pairing value the engine reads, in the order
    W(f, g), W(g, f) per block; returns the values read."""
    right, values = engine.widom_pairings, []

    def forced(f, g):
        wgf, wfg = right(f, g)
        for w in (wfg, wgf):
            values.append(w + (gr(Fraction(1, 2)) if len(values) == n - 1 else gr(0)))
        return values[-1], values[-2]

    monkeypatch.setattr(engine, "widom_pairings", forced)
    return values


NON_INTEGER = "T(z) (++) M[[0,1],[0,0]] (++) T((z-1/2)/(z-3))"


def test_a_non_integer_pairing_names_its_block(monkeypatch):
    # values read: W(f, g) and W(g, f) of block 0, then of block 2
    values = _half_on_call(monkeypatch, 3)
    with pytest.raises(NonIntegerTrace) as info:
        analyze(_op(NON_INTEGER))
    wfg, wgf = values[2], values[3]
    assert str(info.value) == (
        f"tau([a, a0]) = {gr(-1) + wgf - wfg} is not an integer; block 2: W(g, f) = {wgf}, W(f, g) = {wfg}"
    )


def test_a_non_integer_pairing_exits_3(monkeypatch, capsys):
    _half_on_call(monkeypatch, 1)
    assert cli.main(["analyze", NON_INTEGER]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal consistency failure: tau([a, a0]) = ")
    assert "block 0: W(g, f) = 0, W(f, g) = 3/2" in err
