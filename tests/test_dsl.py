import hashlib
import random
from fractions import Fraction

import pytest

from astgen import random_ast
from bfredholm.dsl import (
    MAX_DEPTH,
    MAX_HEIGHT,
    BasisSeq,
    FinSeq,
    FRAtom,
    GeoSeq,
    IdentityAtom,
    OpBin,
    OpNeg,
    SBin,
    SConst,
    SNeg,
    SVar,
    TAtom,
    _eval_sym,
    evaluate,
    parse,
    parse_scalar,
    pretty,
)
from bfredholm.errors import ParseError, SignatureMismatch
from bfredholm.poly import poly
from bfredholm.scalars import gr
from bfredholm.symbols import make_symbol


GOOD = [
    "T(z)",
    "T(z^2) (++) M[[0,1,0],[0,0,1],[0,0,0]]",
    "T((z - 1/2)^2 / (z - 3))",
    "T(z^-1)",
    "2 * T(z) - T(z - 1/2) * T(z)",
    "FR{fin[1, 1/2] | e0; geo(1/2; 1) | fin[0, 1]}",
    "(1/2+1/2i) * T(z) + I",
    "-T(z) * (T(z) + I)",
    "T(3i * z - 1/2)",
    "T((z^2)^2)",
    "T(-z^3 + 1/4)",
    "FR{geo(-1/4+1/3i) | e2}",
]


@pytest.mark.parametrize("text", GOOD)
def test_round_trip_fixed(text):
    ast = parse(text)
    assert parse(pretty(ast)) == ast
    evaluate(ast)


@pytest.mark.parametrize("seed", range(60))
def test_round_trip_random(seed):
    ast = random_ast(random.Random(seed))
    assert parse(pretty(ast)) == ast


@pytest.mark.parametrize(
    "text, printed",
    [
        ("T(4 + 1*z)", "T((4) + (1) * z)"),
        ("T(2*z + 3 + 4*z)", "T((2) * z + (3) + (4) * z)"),
        ("T(z - 1 - 2*z)", "T(z - (1) - (2) * z)"),
        # a real part followed by an imaginary one is still one literal
        ("(1/2+1/2i) * T(z)", "(1/2+1/2i) * T(z)"),
        ("T(z - 1/2+1/3i)", "T(z - (1/2+1/3i))"),
        ("FR{geo(-1/4+1/3i) | e0}", "FR{geo(-1/4+1/3i) | e0}"),
        ("T(3 + 2/3i*z)", "T((3+2/3i) * z)"),
    ],
)
def test_two_real_parts_are_a_sum(text, printed):
    assert pretty(parse(text)) == printed


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse("T(z")
    assert (e.value.line, e.value.col) == (1, 4)
    with pytest.raises(ParseError) as e:
        parse("T(z)\n+ Q")
    assert e.value.line == 2


# one input per place in dsl.py that raises ParseError, with its message
# and position
PARSE_ERRORS = [
    ("T(z) @ T(z)", "unexpected character '@' at 1:6"),
    ("T(z^\u00b2)", "unexpected character '\u00b2' at 1:5"),
    ("T(z^\u0663)", "unexpected character '\u0663' at 1:5"),
    ("T(\u00e9)", "unexpected character '\u00e9' at 1:3"),
    ("T(z", "expected ')', found 'end of input' at 1:4"),
    ("T(z - 3/0)", "zero denominator in scalar at 1:7"),
    ("FR{geo(1/2; -1) | e0}", "geo degree must be >= 0 at 1:4"),
    ("FR{geo(1/2+i) | e0}", "geo ratio 1/2+i is not inside the unit circle at 1:4"),
    ("T(z) T(z)", "unexpected trailing input 'T' at 1:6"),
    ("(" * (MAX_DEPTH + 1) + "T(z)" + ")" * (MAX_DEPTH + 1),
     f"expression nested more than {MAX_DEPTH} levels deep at 1:{MAX_DEPTH + 1}"),
    ("T(" + " + ".join(["z"] * MAX_HEIGHT) + ")",
     f"expression tree more than {MAX_HEIGHT} levels high at 1:1"),
    ("FR{fin[1, z] | e0}", "expected a number at 1:11"),
    ("T(z^z)", "expected an integer at 1:5"),
    ("FR{e0 | e}", "expected a basis index after 'e' at 1:10"),
    ("T(z * )", "expected 'z', a scalar, or '(' in symbol expression at 1:7"),
    ("FR{e0 | T}", "expected a sequence ('fin', 'geo', or 'e') at 1:9"),
    ("T(z)\n  + Q", "expected an operator atom (T, I, FR, or M) at 2:5"),
    ("M[[1, 2], [3]]", "ragged matrix literal at 1:15"),
    ("T(z)\n(++) M[[1, 2],\n  [3]]", "ragged matrix literal at 3:7"),
    ("M[[1, 2]]", "matrix blocks must be square at 1:10"),
]


@pytest.mark.parametrize("text, message", PARSE_ERRORS, ids=[m for _, m in PARSE_ERRORS])
def test_parse_error_message(text, message):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert str(e.value) == message


@pytest.mark.parametrize(
    "text, message",
    [("5/0", "zero denominator in scalar at 1:1"),
     ("+3", "expected a number at 1:1"),
     ("1 2", "unexpected trailing input '2' at 1:3"),
     ("1/2i-", "unexpected trailing input '-' at 1:5")],
)
def test_parse_scalar_rejects(text, message):
    with pytest.raises(ParseError) as e:
        parse_scalar(text)
    assert str(e.value) == message


@pytest.mark.parametrize("text, value", [("0i-i", gr(0, -1)), ("-1/2-1/2i", gr(Fraction(-1, 2), Fraction(-1, 2)))])
def test_parse_scalar_is_the_dsl_literal(text, value):
    assert parse_scalar(text) == value
    assert parse(f"FR{{fin[{text}] | e0}}") == FRAtom(((FinSeq((value,)), BasisSeq(0)),))


@pytest.mark.parametrize(
    "bad",
    ["", "T()", "T(z) ++ T(z)", "M[[1,2],[3]]", "M[[1,2]]", "FR{e0}", "geo(1/2)",
     "T(z) *", "FR{geo(2) | e0}", "T(z) extra",
     pytest.param("(" * 3000 + "T(z)" + ")" * 3000, id="nested-3000"),
     pytest.param("T(" + "(" * 3000 + "z" + ")" * 3000 + ")", id="nested-symbol-3000"),
     pytest.param("-" * 3000 + "T(z)", id="signs-3000")],
)
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse(bad)


def test_height_bound():
    # T(z + ... + z) with n terms is n + 1 levels high: T, n - 1 operators, z
    terms = ["z"] * (MAX_HEIGHT - 1)
    ast = parse("T(" + " + ".join(terms) + ")")
    assert parse(pretty(ast)) == ast
    with pytest.raises(ParseError):
        parse("T(" + " + ".join(terms + ["z"]) + ")")


def test_signature_mismatch():
    with pytest.raises(SignatureMismatch):
        parse("T(z) + M[[1]]")
    with pytest.raises(SignatureMismatch):
        parse("M[[1,0],[0,1]] * M[[1]]")


def test_signature_mismatch_direct_sum_arith():
    with pytest.raises(SignatureMismatch):
        parse("T(z) (++) M[[1]] + T(z)")


@pytest.mark.parametrize("op", ["+", "-", "*"])
def test_evaluate_raises_on_a_hand_built_mismatch(op):
    # parse checks signatures and evaluate does not walk the tree again, so
    # a mismatched node built by hand is caught where its operands meet
    with pytest.raises(SignatureMismatch):
        evaluate(OpBin(op, parse("T(z)"), parse("M[[1]]")))
    with pytest.raises(SignatureMismatch):
        evaluate(OpNeg(OpBin(op, parse("T(z) (++) M[[1]]"), parse("T(z - 1/2)"))))


def test_evaluation_shapes():
    op = evaluate(parse("T(z^2) (++) M[[0,1],[0,0]]"))
    assert op.signature() == ("T", ("M", 2))
    op = evaluate(parse("FR{e0 | e0}"))
    assert op.blocks[0].symbol.is_zero()


def test_identity_times_anything_is_identity_action():
    from bfredholm.operators import op_equal

    a = evaluate(parse("T(z - 1/2) * I"))
    b = evaluate(parse("T(z - 1/2)"))
    assert op_equal(a, b)


def test_nodes_are_equal_only_to_nodes_of_their_own_type():
    z = SVar()
    assert SNeg(z) != TAtom(z) and TAtom(z) != SNeg(z)
    assert OpNeg(TAtom(z)) != SNeg(TAtom(z))
    assert SNeg(z) != (z,) and (z,) != SNeg(z)
    assert SBin("-", z, SConst(gr(2))) != ("-", z, SConst(gr(2)))
    assert GeoSeq(gr(Fraction(1, 2))) == GeoSeq(gr(Fraction(1, 2)), 0)
    assert GeoSeq(gr(Fraction(1, 2))) != GeoSeq(gr(Fraction(1, 2)), 1)
    assert SVar() == SVar() and IdentityAtom() == IdentityAtom() and SVar() != IdentityAtom()


@pytest.mark.parametrize("seed", range(20))
def test_equal_nodes_have_equal_hashes(seed):
    ast = random_ast(random.Random(seed))
    again = parse(pretty(ast))
    assert again == ast and again is not ast
    assert hash(again) == hash(ast)
    assert len({ast, again}) == 1


def test_nodes_are_immutable():
    node = SBin("+", SVar(), SConst(gr(1)))
    with pytest.raises(AttributeError):
        node.op = "-"
    with pytest.raises(AttributeError):
        del node.left
    with pytest.raises(AttributeError):
        node.height = 2
    seq = FinSeq((gr(1),))
    with pytest.raises(AttributeError):
        seq.values = ()
    assert node == SBin("+", SVar(), SConst(gr(1)))


def _gaussian_constants():
    """Seeded Gaussian rationals, points of the unit circle, and 0."""
    rng = random.Random(34)
    cs = [gr(Fraction(rng.randint(-9, 9), rng.randint(1, 6)), Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if k % 3 else 0)
          for k in range(60)]
    return cs + [gr(1), gr(-1), gr(0, 1), gr(0, -1), gr(Fraction(3, 5), Fraction(-4, 5)),
                 gr(Fraction(-5, 13), Fraction(12, 13)), gr(0)]


@pytest.mark.parametrize("op", ["+", "-"])
def test_linear_factors_match_the_expanded_polynomial(op):
    for c in _gaussian_constants():
        got = _eval_sym(SBin(op, SVar(), SConst(c)))
        want = make_symbol(poly([c if op == "+" else -c, 1]), poly([1]))
        assert (got.num, got.den, got.shift, got.lead) == (want.num, want.den, want.shift, want.lead), c
        assert got.split == want.split, c
    # z itself
    z = _eval_sym(SVar())
    want = make_symbol(poly([0, 1]), poly([1]))
    assert (z.num, z.den, z.shift, z.lead, z.split) == (want.num, want.den, want.shift, want.lead, want.split)


def test_a_linear_factor_on_the_circle_has_no_split():
    f = _eval_sym(SBin("-", SVar(), SConst(gr(0, 1))))
    assert f.split is None and str(f) == "(-i + z)"


# the spellings perfbench writes, and other small forms of the grammar
SPELLINGS = [
    "T(z - (-2))", "T(z^1)", "T((2) * z)", "T(z^-1)", "T(z - 0)", "T(z + 1/3)",
    "T((2) * z^1 * (z - (-2)) / ((z - (1/3i))))",
    "T(z^-1 * (z - (3/2)) / ((z - (-1/2-1/4i))))",
    "T((-3/2) * z^1 * (z - (-1/2)) / ((z - (-1/3))))",
    "(T(z - (1/2)) + FR{geo(1/2) | e1}) * T((3) * (z - (-2)) / ((z - (1/2))))",
    "T(z - (1/2)) + FR{fin[2/3, -1] | fin[-1, 1]; geo(1/4i) | geo(-1/4)}",
    "T(z) (++) M[[1, -4, 1], [2, -2, 2], [1, 2, 1]]",
    "(1/2+1/2i) * T(z - (1/2+1/3i))", "T(3 + 2/3i*z)", "T(z - 1/2+1/3i)",
    "FR{geo(-1/4+1/3i; 2) | fin[1, -2/9i]}", "M[[1/2-1/3i, 0], [-i, 2]]",
]
_SPELLING_CHARS = "0123456789zTIFRMfingeo+-*/^()[]{},;| i\n"


def _parsed(text: str) -> str:
    """pretty(parse(text)), or the error it raises with its message."""
    try:
        return pretty(parse(text))
    except Exception as e:  # noqa: BLE001 - the error type is part of the pinned value
        return f"{type(e).__name__}: {e}"


def _spelling_corpus() -> list[str]:
    """SPELLINGS and 600 seeded one-character mutants of them."""
    rng = random.Random(34)
    out = list(SPELLINGS)
    for _ in range(600):
        s = rng.choice(SPELLINGS)
        i = rng.randrange(len(s))
        edit = rng.choice(("insert", "delete", "replace"))
        if edit == "delete":
            out.append(s[:i] + s[i + 1:])
        else:
            out.append(s[:i] + rng.choice(_SPELLING_CHARS) + s[i + (edit == "replace"):])
    return out


# taken from the parser before its front end was rewritten
PINNED_SPELLINGS = {
    'T(z - (-2))': 'T(z - (-2))',
    'T(z^1)': 'T(z^1)',
    'T((2) * z)': 'T((2) * z)',
    'T(z^-1)': 'T(z^-1)',
    'T(z - 0)': 'T(z - (0))',
    'T(z + 1/3)': 'T(z + (1/3))',
    'T((2) * z^1 * (z - (-2)) / ((z - (1/3i))))': 'T((2) * z^1 * (z - (-2)) / (z - (1/3i)))',
    'T(z^-1 * (z - (3/2)) / ((z - (-1/2-1/4i))))': 'T(z^-1 * (z - (3/2)) / (z - (-1/2-1/4i)))',
    'T((-3/2) * z^1 * (z - (-1/2)) / ((z - (-1/3))))': 'T((-3/2) * z^1 * (z - (-1/2)) / (z - (-1/3)))',
    '(T(z - (1/2)) + FR{geo(1/2) | e1}) * T((3) * (z - (-2)) / ((z - (1/2))))': '(T(z - (1/2)) + FR{geo(1/2) | e1}) * T((3) * (z - (-2)) / (z - (1/2)))',
    'T(z - (1/2)) + FR{fin[2/3, -1] | fin[-1, 1]; geo(1/4i) | geo(-1/4)}': 'T(z - (1/2)) + FR{fin[2/3, -1] | fin[-1, 1]; geo(1/4i) | geo(-1/4)}',
    'T(z) (++) M[[1, -4, 1], [2, -2, 2], [1, 2, 1]]': 'T(z) (++) M[[1, -4, 1], [2, -2, 2], [1, 2, 1]]',
    '(1/2+1/2i) * T(z - (1/2+1/3i))': '(1/2+1/2i) * T(z - (1/2+1/3i))',
    'T(3 + 2/3i*z)': 'T((3+2/3i) * z)',
    'T(z - 1/2+1/3i)': 'T(z - (1/2+1/3i))',
    'FR{geo(-1/4+1/3i; 2) | fin[1, -2/9i]}': 'FR{geo(-1/4+1/3i; 2) | fin[1, -2/9i]}',
    'M[[1/2-1/3i, 0], [-i, 2]]': 'M[[1/2-1/3i, 0], [-i, 2]]',
}


@pytest.mark.parametrize("text", SPELLINGS)
def test_spellings_parse_as_before(text):
    assert _parsed(text) == PINNED_SPELLINGS[text]


def test_spelling_mutants_parse_as_before():
    # SHA-256 of one "text -> pretty(parse(text)) or error" line per input
    rows = "".join(f"{t!r} -> {_parsed(t)}\n" for t in _spelling_corpus())
    assert hashlib.sha256(rows.encode()).hexdigest() == "6c9dc5b43e442383ac712149f0aeb11cd4ccebc65c032131b96641fea4507520"
