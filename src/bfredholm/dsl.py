"""Operator-expression DSL: parser, pretty-printer, evaluator.

Grammar (EBNF):

    program := expr ('(++)' expr)*
    expr    := term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := atom | scalar '*' factor | '-' factor | '(' expr ')'
    atom    := 'T' '(' symexpr ')' | 'I'
             | 'FR' '{' pair (';' pair)* '}' | 'M' matrixlit
    pair    := seq '|' seq
    seq     := 'fin' '[' scalar (',' scalar)* ']'
             | 'geo' '(' scalar (';' int)? ')' | 'e' int
    symexpr := sterm (('+'|'-') sterm)* ; sterm := sfactor (('*'|'/') sfactor)*
    sfactor := satom ('^' signed-int)? | '-' sfactor
    satom   := 'z' | scalar | '(' symexpr ')'

The text is ASCII; any other character outside whitespace is a parse
error.  Scalars are exact Gaussian rationals like 2, -1/4, 3i, 1/2+1/2i
(parenthesized when used as a leading coefficient), and parse_scalar
reads one such literal.  Constant symbol subexpressions are folded
during parsing, so pretty-printing and re-parsing reproduce the AST
exactly.  geo(r; d) denotes the sequence n^d * r^n.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import BudgetExceeded, ParseError, SignatureMismatch
from .finiterank import make_finite_rank
from .matrices import matrix as make_matrix
from .operators import (
    BlockOperator,
    MatrixBlock,
    ToeplitzBlock,
    direct_sum,
    op_arith,
    op_scale,
    toeplitz_operator,
)
from .scalars import GaussianRational, ONE, format_scalar, gr
from .sequences import RationalSequence, seq_basis, seq_finite, seq_geo
from .symbols import (
    RationalSymbol,
    ZERO_SYMBOL,
    make_factored,
    make_symbol,
    sym_arith,
    sym_div,
    sym_pow,
    sym_scale,
)
from .poly import poly


# ---------------------------------------------------------------------------
# Tokens.
# ---------------------------------------------------------------------------


class Token(NamedTuple):
    kind: str  # 'int', 'id', 'punct', 'dsum', 'eof'
    text: str
    pos: int  # offset in the text


# The grammar is ASCII.  finditer skips whitespace, and any other
# character is a 'bad' token, which tokenize rejects.
_TOKEN = re.compile(
    r"(?P<dsum>\(\+\+\))|(?P<int>[0-9]+)|(?P<id>[A-Za-z]+)"
    r"|(?P<punct>[-+*/^()\[\]{},;|])|(?P<bad>\S)"
)


def _line_col(text: str, pos: int) -> tuple[int, int]:
    """1-based line and column of offset pos in text."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def tokenize(text: str) -> list[Token]:
    out = []
    for m in _TOKEN.finditer(text):
        kind, tok = m.lastgroup, m.group()
        if kind == "bad":
            raise ParseError(f"unexpected character {tok!r}", *_line_col(text, m.start()))
        if kind == "int" and len(tok) > MAX_LITERAL_DIGITS:
            raise BudgetExceeded(
                "integer literal of length", len(tok), "MAX_LITERAL_DIGITS", MAX_LITERAL_DIGITS
            )
        out.append(Token(kind, tok, m.start()))
    out.append(Token("eof", "", len(text)))
    return out


# ---------------------------------------------------------------------------
# AST node types (all frozen; structural equality is the round-trip test).
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SVar:
    pass


@dataclass(frozen=True, slots=True)
class SConst:
    value: GaussianRational


@dataclass(frozen=True, slots=True)
class SBin:
    op: str  # '+', '-', '*', '/'
    left: "SymNode"
    right: "SymNode"


@dataclass(frozen=True, slots=True)
class SPow:
    base: "SymNode"
    exp: int


@dataclass(frozen=True, slots=True)
class SNeg:
    arg: "SymNode"


SymNode = SVar | SConst | SBin | SPow | SNeg


@dataclass(frozen=True, slots=True)
class FinSeq:
    values: tuple[GaussianRational, ...]


@dataclass(frozen=True, slots=True)
class GeoSeq:
    ratio: GaussianRational
    degree: int = 0


@dataclass(frozen=True, slots=True)
class BasisSeq:
    index: int


SeqNode = FinSeq | GeoSeq | BasisSeq


@dataclass(frozen=True, slots=True)
class TAtom:
    sym: SymNode


@dataclass(frozen=True, slots=True)
class IdentityAtom:
    pass


@dataclass(frozen=True, slots=True)
class FRAtom:
    pairs: tuple[tuple[SeqNode, SeqNode], ...]


@dataclass(frozen=True, slots=True)
class MatrixAtom:
    rows: tuple[tuple[GaussianRational, ...], ...]


@dataclass(frozen=True, slots=True)
class OpBin:
    op: str  # '+', '-', '*'
    left: "OpNode"
    right: "OpNode"


@dataclass(frozen=True, slots=True)
class OpNeg:
    arg: "OpNode"


@dataclass(frozen=True, slots=True)
class OpScalarMul:
    scalar: GaussianRational
    arg: "OpNode"


@dataclass(frozen=True, slots=True)
class DirectSum:
    parts: tuple["OpNode", ...]


OpNode = TAtom | IdentityAtom | FRAtom | MatrixAtom | OpBin | OpNeg | OpScalarMul | DirectSum


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


# Deepest nesting of parentheses, signs and scalar prefixes that parse
# accepts; the recursive descent stays far inside Python's recursion limit.
MAX_DEPTH = 100
# Highest AST that parse accepts.  A chain such as ``a + b + c`` nests to
# the left, one level per operator, without deepening the descent.  The
# evaluators and the pretty-printer recurse one frame per level, and the
# generated ``==`` of the frozen nodes three.
MAX_HEIGHT = 200

# Input budgets.  Each bounds a size that the cost of evaluating or
# analyzing an input grows with faster than linearly, and is set so that
# an input at the bound finishes in a few seconds; an input past one
# raises BudgetExceeded, which names it.
MAX_LITERAL_DIGITS = 1000  # digits of one integer literal
MAX_EXPONENT = 400  # |k| in a symbol power f^k
MAX_SYMBOL_DEGREE = 400  # deg num + deg den + |shift| of every symbol formed
# deg num + deg den of a symbol with a circle split: its Laurent
# expansions, and so the trace route, grow fastest with it.
MAX_SPLIT_DEGREE = 32
MAX_SEQ_INDEX = 500  # N in e<N>, and the last index of a fin[...] list
MAX_GEO_DEGREE = 64  # d in geo(r; d)


def _nested(step):
    """Count one nesting level around a recursive parse step."""

    def counted(self):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.fail(f"expression nested more than {MAX_DEPTH} levels deep")
        node = step(self)
        self.depth -= 1
        return node

    return counted


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text:
            self.fail(f"expected {text!r}, found {t.text or 'end of input'!r}")
        return self.next()

    def fail(self, msg: str, at: Token | None = None):
        """Raise ParseError at token at, by default the next one."""
        raise ParseError(msg, *_line_col(self.text, (at or self.peek()).pos))

    def items(self, item, sep: str) -> list:
        """item (sep item)*"""
        out = [item()]
        while self.peek().text == sep:
            self.next()
            out.append(item())
        return out

    def end(self) -> None:
        t = self.peek()
        if t.kind != "eof":
            self.fail(f"unexpected trailing input {t.text!r}")

    # -- scalars ----------------------------------------------------------

    def at_scalar(self, ahead: int = 0) -> bool:
        t = self.peek(ahead)
        return t.kind == "int" or t.text == "i"

    def parse_scalar(self) -> GaussianRational:
        """Full scalar literal: [-] part [('+'|'-') imag], part = a[/b][i] | i,
        imag = a[/b]i | i.  Only a real first part takes an imaginary second
        one, as format_scalar writes it; a + b with a real b is a sum."""
        first = self._scalar_part(allow_sign=True)
        t = self.peek()
        if first.im == 0 and t.text in ("+", "-") and self._imaginary_ahead():
            self.next()
            second = self._scalar_part(allow_sign=False)
            if t.text == "-":
                second = -second
            return first + second
        return first

    def _imaginary_ahead(self) -> bool:
        """A part a[/b]i or i follows the sign at peek()."""
        k = 1
        if self.peek(k).kind == "int":
            k += 3 if self.peek(k + 1).text == "/" and self.peek(k + 2).kind == "int" else 1
        return self.peek(k).text == "i"

    def _scalar_part(self, allow_sign: bool) -> GaussianRational:
        sign = 1
        if allow_sign and self.peek().text == "-":
            self.next()
            sign = -1
        t = self.peek()
        if t.text == "i":
            self.next()
            return gr(0, sign)
        if t.kind != "int":
            self.fail("expected a number")
        self.next()
        numer = int(t.text)
        denom = 1
        if self.peek().text == "/" and self.peek(1).kind == "int":
            self.next()
            denom = int(self.next().text)
            if denom == 0:
                self.fail("zero denominator in scalar", t)
        q = Fraction(sign * numer, denom)
        if self.peek().text == "i":
            self.next()
            return gr(0, q)
        return gr(q)

    def parse_int(self) -> int:
        sign = 1
        if self.peek().text == "-":
            self.next()
            sign = -1
        t = self.peek()
        if t.kind != "int":
            self.fail("expected an integer")
        self.next()
        return sign * int(t.text)

    # -- symbol expressions ----------------------------------------------

    def parse_symexpr(self) -> SymNode:
        node = self.parse_sterm()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            right = self.parse_sterm()
            node = _fold(SBin(op, node, right))
        return node

    def parse_sterm(self) -> SymNode:
        node = self.parse_sfactor()
        while self.peek().text in ("*", "/"):
            op = self.next().text
            right = self.parse_sfactor()
            node = _fold(SBin(op, node, right))
        return node

    @_nested
    def parse_sfactor(self) -> SymNode:
        t = self.peek()
        if t.text == "-":
            if self.at_scalar(1):
                # Signed scalar literal, e.g. "-3/4-1/2i"; let parse_scalar
                # apply the sign to the first part only.
                node = SConst(self.parse_scalar())
            else:
                self.next()
                return _fold(SNeg(self.parse_sfactor()))
        else:
            node = self.parse_satom()
        if self.peek().text == "^":
            self.next()
            exp = self.parse_int()
            if abs(exp) > MAX_EXPONENT:
                raise BudgetExceeded("exponent", exp, "MAX_EXPONENT", MAX_EXPONENT)
            node = _fold(SPow(node, exp))
        return node

    def parse_satom(self) -> SymNode:
        t = self.peek()
        if t.text == "z":
            self.next()
            return SVar()
        if self.at_scalar():
            return SConst(self.parse_scalar())
        if t.text == "(":
            self.next()
            node = self.parse_symexpr()
            self.expect(")")
            return node
        self.fail("expected 'z', a scalar, or '(' in symbol expression")

    # -- sequences and atoms ----------------------------------------------

    def parse_seq(self) -> SeqNode:
        t = self.peek()
        if t.text == "fin":
            self.next()
            self.expect("[")
            values = self.items(self.parse_scalar, ",")
            self.expect("]")
            if len(values) - 1 > MAX_SEQ_INDEX:
                raise BudgetExceeded(
                    "last index of a fin list", len(values) - 1, "MAX_SEQ_INDEX", MAX_SEQ_INDEX
                )
            return FinSeq(tuple(values))
        if t.text == "geo":
            self.next()
            self.expect("(")
            ratio = self.parse_scalar()
            degree = 0
            if self.peek().text == ";":
                self.next()
                degree = self.parse_int()
                if degree < 0:
                    self.fail("geo degree must be >= 0", t)
                if degree > MAX_GEO_DEGREE:
                    raise BudgetExceeded("geo degree", degree, "MAX_GEO_DEGREE", MAX_GEO_DEGREE)
            self.expect(")")
            if ratio.abs2() >= 1:
                self.fail(f"geo ratio {format_scalar(ratio)} is not inside the unit circle", t)
            return GeoSeq(ratio, degree)
        if t.text == "e":
            self.next()
            idx = self.peek()
            if idx.kind != "int":
                self.fail("expected a basis index after 'e'")
            self.next()
            index = int(idx.text)
            if index > MAX_SEQ_INDEX:
                raise BudgetExceeded("basis index", index, "MAX_SEQ_INDEX", MAX_SEQ_INDEX)
            return BasisSeq(index)
        self.fail("expected a sequence ('fin', 'geo', or 'e')")

    def parse_matrix(self) -> MatrixAtom:
        self.expect("[")
        rows = self.items(self._parse_matrix_row, ",")
        self.expect("]")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            self.fail("ragged matrix literal")
        if len(rows) != width:
            self.fail("matrix blocks must be square")
        return MatrixAtom(tuple(rows))

    def _parse_matrix_row(self) -> tuple[GaussianRational, ...]:
        self.expect("[")
        row = self.items(self.parse_scalar, ",")
        self.expect("]")
        return tuple(row)

    def parse_atom(self) -> OpNode:
        t = self.peek()
        if t.text == "T":
            self.next()
            self.expect("(")
            sym = self.parse_symexpr()
            self.expect(")")
            return TAtom(sym)
        if t.text == "I":
            self.next()
            return IdentityAtom()
        if t.text == "FR":
            self.next()
            self.expect("{")
            pairs = self.items(self._parse_pair, ";")
            self.expect("}")
            return FRAtom(tuple(pairs))
        if t.text == "M":
            self.next()
            return self.parse_matrix()
        self.fail("expected an operator atom (T, I, FR, or M)")

    def _parse_pair(self) -> tuple[SeqNode, SeqNode]:
        u = self.parse_seq()
        self.expect("|")
        v = self.parse_seq()
        return (u, v)

    # -- operator expressions ----------------------------------------------

    @_nested
    def parse_factor(self) -> OpNode:
        t = self.peek()
        if t.text == "-":
            self.next()
            return OpNeg(self.parse_factor())
        if self.at_scalar():
            c = self.parse_scalar()
            self.expect("*")
            return OpScalarMul(c, self.parse_factor())
        if t.text == "(":
            # a parenthesized scalar coefficient or a grouped expression
            save = self.pos
            self.next()
            if self.at_scalar() or self.peek().text == "-":
                try:
                    c = self.parse_scalar()
                    if self.peek().text == ")" and self.peek(1).text == "*":
                        self.next()
                        self.next()
                        return OpScalarMul(c, self.parse_factor())
                except ParseError:
                    pass
            self.pos = save
            self.next()
            node = self.parse_expr()
            self.expect(")")
            return node
        return self.parse_atom()

    def parse_term(self) -> OpNode:
        node = self.parse_factor()
        while self.peek().text == "*":
            self.next()
            node = OpBin("*", node, self.parse_factor())
        return node

    def parse_expr(self) -> OpNode:
        node = self.parse_term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            node = OpBin(op, node, self.parse_term())
        return node

    def parse_program(self) -> OpNode:
        parts = self.items(self.parse_expr, "(++)")
        self.end()
        return DirectSum(tuple(parts)) if len(parts) > 1 else parts[0]


def _fold(node: SymNode) -> SymNode:
    """Constant-fold symbol subexpressions so the AST is canonical."""
    if isinstance(node, SNeg) and isinstance(node.arg, SConst):
        return SConst(-node.arg.value)
    if isinstance(node, SBin) and isinstance(node.left, SConst) and isinstance(node.right, SConst):
        a, b = node.left.value, node.right.value
        if node.op == "+":
            return SConst(a + b)
        if node.op == "-":
            return SConst(a - b)
        if node.op == "*":
            return SConst(a * b)
        if node.op == "/" and not b.is_zero():
            return SConst(a / b)
    if isinstance(node, SPow) and isinstance(node.base, SConst):
        c = node.base.value
        if node.exp >= 0 or not c.is_zero():
            return SConst(c**node.exp)
    return node


def _children(node) -> tuple:
    if isinstance(node, (SBin, OpBin)):
        return (node.left, node.right)
    if isinstance(node, (SNeg, OpNeg, OpScalarMul)):
        return (node.arg,)
    if isinstance(node, SPow):
        return (node.base,)
    if isinstance(node, TAtom):
        return (node.sym,)
    if isinstance(node, DirectSum):
        return node.parts
    return ()


def _height(node) -> int:
    """Levels of the AST below and including node, counted without recursion."""
    height, stack = 0, [(node, 1)]
    while stack:
        node, h = stack.pop()
        height = max(height, h)
        stack.extend((child, h + 1) for child in _children(node))
    return height


def parse(text: str) -> OpNode:
    ast = _Parser(text).parse_program()
    if _height(ast) > MAX_HEIGHT:
        raise ParseError(f"expression tree more than {MAX_HEIGHT} levels high", 1, 1)
    check_signature(ast)
    return ast


def parse_scalar(text: str) -> GaussianRational:
    """The scalar literal that format_scalar writes, e.g. ``3``, ``-1/2``,
    ``i``, ``2i`` or ``1/2-1/2i``, read by the DSL's own scalar rule."""
    p = _Parser(text)
    c = p.parse_scalar()
    p.end()
    return c


# ---------------------------------------------------------------------------
# Pretty printer (parse(pretty(ast)) == ast).
# ---------------------------------------------------------------------------


def _pp_scalar(c: GaussianRational, delimited: bool) -> str:
    s = format_scalar(c)
    if delimited:
        return s
    if s.startswith("-") or "+" in s or "-" in s[1:]:
        return f"({s})"
    return s


def _pp_sym(node: SymNode, prec: int = 0) -> str:
    if isinstance(node, SVar):
        return "z"
    if isinstance(node, SConst):
        return _pp_scalar(node.value, delimited=False)
    if isinstance(node, SNeg):
        s = "-" + _pp_sym(node.arg, 3)
        return f"({s})" if prec > 2 else s
    if isinstance(node, SPow):
        base = _pp_sym(node.base, 4)
        if isinstance(node.base, SPow):
            base = f"({base})"
        return f"{base}^{node.exp}"
    lv = 1 if node.op in "+-" else 2
    ls = _pp_sym(node.left, lv)
    rs = _pp_sym(node.right, lv + 1)
    # parenthesize bare scalars so they cannot lex together with an
    # adjacent +/- term as one complex literal
    if isinstance(node.left, SConst):
        ls = f"({format_scalar(node.left.value)})"
    if isinstance(node.right, SConst):
        rs = f"({format_scalar(node.right.value)})"
    s = f"{ls} {node.op} {rs}"
    return f"({s})" if prec > lv else s


def _pp_seq(node: SeqNode) -> str:
    if isinstance(node, FinSeq):
        return "fin[" + ", ".join(format_scalar(v) for v in node.values) + "]"
    if isinstance(node, GeoSeq):
        if node.degree:
            return f"geo({format_scalar(node.ratio)}; {node.degree})"
        return f"geo({format_scalar(node.ratio)})"
    return f"e{node.index}"


def pretty(node: OpNode, prec: int = 0) -> str:
    if isinstance(node, DirectSum):
        s = " (++) ".join(pretty(p, 1) for p in node.parts)
        return f"({s})" if prec > 0 else s
    if isinstance(node, TAtom):
        return f"T({_pp_sym(node.sym)})"
    if isinstance(node, IdentityAtom):
        return "I"
    if isinstance(node, FRAtom):
        body = "; ".join(f"{_pp_seq(u)} | {_pp_seq(v)}" for u, v in node.pairs)
        return "FR{" + body + "}"
    if isinstance(node, MatrixAtom):
        rows = ", ".join(
            "[" + ", ".join(format_scalar(v) for v in row) + "]"
            for row in node.rows
        )
        return f"M[{rows}]"
    if isinstance(node, OpNeg):
        s = "-" + pretty(node.arg, 4)
        return f"({s})" if prec > 3 else s
    if isinstance(node, OpScalarMul):
        s = f"{_pp_scalar(node.scalar, delimited=False)} * {pretty(node.arg, 4)}"
        return f"({s})" if prec > 2 else s
    if isinstance(node, OpBin):
        lv = 1 if node.op in "+-" else 2
        s = f"{pretty(node.left, lv)} {node.op} {pretty(node.right, lv + 1)}"
        return f"({s})" if prec > lv else s
    raise TypeError(f"unknown node {node!r}")


# ---------------------------------------------------------------------------
# Signature check and evaluation.
# ---------------------------------------------------------------------------


def check_signature(node: OpNode) -> tuple:
    if isinstance(node, DirectSum):
        out: tuple = ()
        for p in node.parts:
            out = out + check_signature(p)
        return out
    if isinstance(node, (TAtom, IdentityAtom, FRAtom)):
        return ("T",)
    if isinstance(node, MatrixAtom):
        return (("M", len(node.rows)),)
    if isinstance(node, (OpNeg, OpScalarMul)):
        return check_signature(node.arg)
    if isinstance(node, OpBin):
        left = check_signature(node.left)
        right = check_signature(node.right)
        if left != right:
            raise SignatureMismatch(
                f"operands of {node.op!r} have signatures {left} and {right}"
            )
        return left
    raise TypeError(f"unknown node {node!r}")


def _check_symbol(f: RationalSymbol, times: int = 1) -> None:
    """Raise BudgetExceeded if f**times would be over a symbol budget."""
    if f.split is None:
        degree = (f.num.degree + f.den.degree) * times
    else:
        degree = sum(m for _, m in f.split.zeros + f.split.poles) * times
    size = degree + abs(f.shift) * times
    if size > MAX_SYMBOL_DEGREE:
        raise BudgetExceeded("symbol degree", size, "MAX_SYMBOL_DEGREE", MAX_SYMBOL_DEGREE)
    if f.split is not None and degree > MAX_SPLIT_DEGREE:
        raise BudgetExceeded(
            "degree of a split symbol", degree, "MAX_SPLIT_DEGREE", MAX_SPLIT_DEGREE
        )


def eval_sym(node: SymNode) -> RationalSymbol:
    """The symbol of node; every symbol formed on the way is within budget."""
    f = _eval_sym(node)
    _check_symbol(f)
    return f


def _eval_sym(node: SymNode) -> RationalSymbol:
    if isinstance(node, SVar):
        return make_symbol(poly([0, 1]), poly([1]))
    if isinstance(node, SConst):
        if node.value.is_zero():
            return ZERO_SYMBOL
        return make_factored(node.value, 0, [], [])
    if isinstance(node, SNeg):
        return sym_scale(eval_sym(node.arg), gr(-1))
    if isinstance(node, SPow):
        base = eval_sym(node.base)
        _check_symbol(base, abs(node.exp))
        return sym_pow(base, node.exp)
    left = eval_sym(node.left)
    right = eval_sym(node.right)
    if node.op == "+":
        return sym_arith(left, right, "add")
    if node.op == "-":
        return sym_arith(left, right, "sub")
    if node.op == "*":
        return sym_arith(left, right, "mul")
    return sym_div(left, right)


def eval_seq(node: SeqNode) -> RationalSequence:
    if isinstance(node, FinSeq):
        return seq_finite(node.values)
    if isinstance(node, GeoSeq):
        return seq_geo(node.ratio, node.degree)
    return seq_basis(node.index)


def evaluate(node: OpNode) -> BlockOperator:
    check_signature(node)
    return _eval(node)


def _eval(node: OpNode) -> BlockOperator:
    if isinstance(node, DirectSum):
        out = _eval(node.parts[0])
        for p in node.parts[1:]:
            out = direct_sum(out, _eval(p))
        return out
    if isinstance(node, TAtom):
        return toeplitz_operator(eval_sym(node.sym))
    if isinstance(node, IdentityAtom):
        return toeplitz_operator(make_factored(ONE, 0, [], []))
    if isinstance(node, FRAtom):
        terms = [(eval_seq(u), eval_seq(v)) for u, v in node.pairs]
        return BlockOperator((ToeplitzBlock(ZERO_SYMBOL, make_finite_rank(terms)),))
    if isinstance(node, MatrixAtom):
        return BlockOperator((MatrixBlock(make_matrix([list(r) for r in node.rows])),))
    if isinstance(node, OpNeg):
        return op_scale(_eval(node.arg), gr(-1))
    if isinstance(node, OpScalarMul):
        return op_scale(_eval(node.arg), node.scalar)
    if isinstance(node, OpBin):
        left = _eval(node.left)
        right = _eval(node.right)
        op = {"+": "add", "-": "sub", "*": "mul"}[node.op]
        out = op_arith(left, right, op)
        for b in out.blocks:
            if isinstance(b, ToeplitzBlock):
                _check_symbol(b.symbol)
        return out
    raise TypeError(f"unknown node {node!r}")
