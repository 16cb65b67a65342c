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
    evaluate,
    parse,
    parse_scalar,
    pretty,
)
from bfredholm.errors import ParseError, SignatureMismatch
from bfredholm.scalars import gr


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
