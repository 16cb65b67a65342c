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

The lexer is one findall of one pattern, after one search for a
rejected character; its tokens are a list of strings, padded with empty
end-of-input tokens so that the parser's lookahead is one list index.
AST nodes are records (bfredholm.record).  The evaluator builds z and
each linear factor z + c or z - c as a factored symbol, so products and
quotients of them stay factored.
"""

from __future__ import annotations

import re

from .errors import BudgetExceeded, FactorOnCircle, ParseError, SignatureMismatch
from .finiterank import make_finite_rank
from .matrices import matrix as make_matrix
from .operators import (
    BlockOperator,
    direct_sum,
    matrix_operator,
    op_arith,
    op_scale,
    toeplitz_operator,
)
from .record import Record, _set
from .scalars import GaussianRational, ONE, _reduced, format_scalar, gr
from .sequences import RationalSequence, seq_basis, seq_finite, seq_geo
from .symbols import (
    RationalSymbol,
    ZERO_SYMBOL,
    make_factored,
    sym_arith,
    sym_div,
    sym_pow,
    sym_scale,
)


# Input budgets.  Each bounds a size that the cost of evaluating or
# analyzing an input grows with faster than linearly, and is set so that
# an input at the bound finishes in a few seconds; an input past one
# raises BudgetExceeded, which names it.
MAX_LITERAL_DIGITS = 1000  # digits of one integer literal
MAX_EXPONENT = 400  # |k| in a symbol power f^k
MAX_SYMBOL_DEGREE = 400  # deg num + deg den + |shift| of every symbol formed
# deg num + deg den of a symbol with a circle split.  The Hankel defect of
# a product (hankel_defect) and the winding route's Schur-Cohn run on the
# multiplied-out num and den grow fastest with it.
MAX_SPLIT_DEGREE = 32
MAX_SEQ_INDEX = 500  # N in e<N>, and the last index of a fin[...] list
MAX_GEO_DEGREE = 64  # d in geo(r; d)


# ---------------------------------------------------------------------------
# Tokens.
# ---------------------------------------------------------------------------


# The grammar is ASCII: a token is '(++)', an integer literal, a word or
# one punctuation character.  Any other character outside whitespace, and
# an integer literal longer than MAX_LITERAL_DIGITS, is rejected.
_TOKEN = re.compile(r"\(\+\+\)|[0-9]+|[A-Za-z]+|\S")
_REJECTED = re.compile(r"[^\s0-9A-Za-z\-+*/^()\[\]{},;|]|[0-9]{%d,}" % (MAX_LITERAL_DIGITS + 1))
# Empty end-of-input tokens after the last token: the farthest lookahead,
# from a sign over 'a', '/', 'b' to 'i', reads four tokens past the sign.
_PAD = 4


def _line_col(text: str, pos: int) -> tuple[int, int]:
    """1-based line and column of offset pos in text."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def tokenize(text: str) -> list[str]:
    """The tokens of text, then _PAD empty end-of-input tokens.

    The first rejected token raises ParseError or BudgetExceeded.
    """
    bad = _REJECTED.search(text)
    if bad is not None:
        tok = bad.group()
        if tok[0] in "0123456789":
            raise BudgetExceeded(
                "integer literal of length", len(tok), "MAX_LITERAL_DIGITS", MAX_LITERAL_DIGITS
            )
        raise ParseError(f"unexpected character {tok!r}", *_line_col(text, bad.start()))
    return _TOKEN.findall(text) + [""] * _PAD


# ---------------------------------------------------------------------------
# AST node types (immutable; structural equality is the round-trip test).
# ---------------------------------------------------------------------------


class SVar(Record):
    __slots__ = ()


class SConst(Record):
    __slots__ = ("value",)

    def __init__(self, value: GaussianRational):
        _set(self, "value", value)


class SBin(Record):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: SymNode, right: SymNode):  # op: '+', '-', '*', '/'
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)


class SPow(Record):
    __slots__ = ("base", "exp")

    def __init__(self, base: SymNode, exp: int):
        _set(self, "base", base)
        _set(self, "exp", exp)


class SNeg(Record):
    __slots__ = ("arg",)

    def __init__(self, arg: SymNode):
        _set(self, "arg", arg)


SymNode = SVar | SConst | SBin | SPow | SNeg


class FinSeq(Record):
    __slots__ = ("values",)

    def __init__(self, values: tuple[GaussianRational, ...]):
        _set(self, "values", values)


class GeoSeq(Record):
    __slots__ = ("ratio", "degree")

    def __init__(self, ratio: GaussianRational, degree: int = 0):
        _set(self, "ratio", ratio)
        _set(self, "degree", degree)


class BasisSeq(Record):
    __slots__ = ("index",)

    def __init__(self, index: int):
        _set(self, "index", index)


SeqNode = FinSeq | GeoSeq | BasisSeq


class TAtom(Record):
    __slots__ = ("sym",)

    def __init__(self, sym: SymNode):
        _set(self, "sym", sym)


class IdentityAtom(Record):
    __slots__ = ()


class FRAtom(Record):
    __slots__ = ("pairs",)

    def __init__(self, pairs: tuple[tuple[SeqNode, SeqNode], ...]):
        _set(self, "pairs", pairs)


class MatrixAtom(Record):
    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[GaussianRational, ...], ...]):
        _set(self, "rows", rows)


class OpBin(Record):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: OpNode, right: OpNode):  # op: '+', '-', '*'
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)


class OpNeg(Record):
    __slots__ = ("arg",)

    def __init__(self, arg: OpNode):
        _set(self, "arg", arg)


class OpScalarMul(Record):
    __slots__ = ("scalar", "arg")

    def __init__(self, scalar: GaussianRational, arg: OpNode):
        _set(self, "scalar", scalar)
        _set(self, "arg", arg)


class DirectSum(Record):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[OpNode, ...]):
        _set(self, "parts", parts)


OpNode = TAtom | IdentityAtom | FRAtom | MatrixAtom | OpBin | OpNeg | OpScalarMul | DirectSum


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


# Deepest nesting of parentheses, signs and scalar prefixes that parse
# accepts; the recursive descent stays far inside Python's recursion limit.
MAX_DEPTH = 100
# Highest AST that parse accepts.  A chain such as ``a + b + c`` nests to
# the left, one level per operator, without deepening the descent.  The
# evaluators, the pretty-printer and ``==`` of the nodes recurse one frame
# per level.
MAX_HEIGHT = 200


class _Parser:
    """Recursive descent over the token list; pos indexes the next token.

    parse_sfactor and parse_factor each count one nesting level in depth
    while they run.
    """

    def __init__(self, text: str):
        self.text = text
        self.texts = tokenize(text)
        self.pos = 0
        self.depth = 0

    def expect(self, text: str) -> None:
        t = self.texts[self.pos]
        if t != text:
            self.fail(f"expected {text!r}, found {t or 'end of input'!r}")
        self.pos += 1

    def fail(self, msg: str, at: int | None = None):
        """Raise ParseError at token index at, by default the next token."""
        offsets = [m.start() for m in _TOKEN.finditer(self.text)] + [len(self.text)] * _PAD
        raise ParseError(msg, *_line_col(self.text, offsets[self.pos if at is None else at]))

    def items(self, item, sep: str) -> list:
        """item (sep item)*"""
        out = [item()]
        while self.texts[self.pos] == sep:
            self.pos += 1
            out.append(item())
        return out

    def end(self) -> None:
        if self.texts[self.pos]:
            self.fail(f"unexpected trailing input {self.texts[self.pos]!r}")

    def enter(self) -> None:
        """Count one nesting level."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.fail(f"expression nested more than {MAX_DEPTH} levels deep")

    # -- scalars ----------------------------------------------------------

    def at_scalar(self, p: int) -> bool:
        t = self.texts[p]
        return t == "i" or t.isdigit()

    def parse_scalar(self) -> GaussianRational:
        """Full scalar literal: [-] part [('+'|'-') imag], part = a[/b][i] | i,
        imag = a[/b]i | i.  Only a real first part takes an imaginary second
        one, as format_scalar writes it; a + b with a real b is a sum."""
        first = self._scalar_part(True)
        p = self.pos
        t = self.texts[p]
        if (t == "+" or t == "-") and not first[1]:
            # an imaginary part a[/b]i or i follows the sign
            texts = self.texts
            k = p + 1
            if texts[k].isdigit():
                k += 3 if texts[k + 1] == "/" and texts[k + 2].isdigit() else 1
            if texts[k] == "i":
                self.pos = p + 1
                second = self._scalar_part(False)
                return first + second if t == "+" else first - second
        return first

    def _scalar_part(self, allow_sign: bool) -> GaussianRational:
        texts = self.texts
        p = self.pos
        sign = 1
        if allow_sign and texts[p] == "-":
            p += 1
            sign = -1
        t = texts[p]
        if t == "i":
            self.pos = p + 1
            return gr(0, sign)
        if not t.isdigit():
            self.fail("expected a number", p)
        numer = sign * int(t)
        if texts[p + 1] == "/" and texts[p + 2].isdigit():
            denom = int(texts[p + 2])
            if denom == 0:
                self.fail("zero denominator in scalar", p)
            p += 3
        else:
            denom = 1
            p += 1
        if texts[p] == "i":
            self.pos = p + 1
            return _reduced(0, numer, denom)
        self.pos = p
        return _reduced(numer, 0, denom)

    def parse_int(self) -> int:
        p = self.pos
        sign = 1
        if self.texts[p] == "-":
            p += 1
            sign = -1
        if not self.texts[p].isdigit():
            self.fail("expected an integer", p)
        self.pos = p + 1
        return sign * int(self.texts[p])

    # -- symbol expressions ----------------------------------------------

    def parse_symexpr(self) -> SymNode:
        node = self.parse_sterm()
        texts = self.texts
        while (op := texts[self.pos]) == "+" or op == "-":
            self.pos += 1
            node = _fold_bin(op, node, self.parse_sterm())
        return node

    def parse_sterm(self) -> SymNode:
        node = self.parse_sfactor()
        texts = self.texts
        while (op := texts[self.pos]) == "*" or op == "/":
            self.pos += 1
            node = _fold_bin(op, node, self.parse_sfactor())
        return node

    def parse_sfactor(self) -> SymNode:
        self.enter()
        texts = self.texts
        p = self.pos
        t = texts[p]
        if t == "z":
            self.pos = p + 1
            node = SVar()
        elif t == "-":
            if not self.at_scalar(p + 1):
                self.pos = p + 1
                node = _fold(SNeg(self.parse_sfactor()))
                self.depth -= 1
                return node
            # Signed scalar literal, e.g. "-3/4-1/2i"; let parse_scalar
            # apply the sign to the first part only.
            node = SConst(self.parse_scalar())
        else:
            node = self.parse_satom()
        if texts[self.pos] == "^":
            self.pos += 1
            exp = self.parse_int()
            if abs(exp) > MAX_EXPONENT:
                raise BudgetExceeded("exponent", exp, "MAX_EXPONENT", MAX_EXPONENT)
            node = _fold(SPow(node, exp))
        self.depth -= 1
        return node

    def parse_satom(self) -> SymNode:
        p = self.pos
        if self.at_scalar(p):
            return SConst(self.parse_scalar())
        if self.texts[p] == "(":
            self.pos = p + 1
            node = self.parse_symexpr()
            self.expect(")")
            return node
        self.fail("expected 'z', a scalar, or '(' in symbol expression")

    # -- sequences and atoms ----------------------------------------------

    def parse_seq(self) -> SeqNode:
        at = self.pos
        t = self.texts[at]
        if t == "fin":
            self.pos += 1
            self.expect("[")
            values = self.items(self.parse_scalar, ",")
            self.expect("]")
            if len(values) - 1 > MAX_SEQ_INDEX:
                raise BudgetExceeded(
                    "last index of a fin list", len(values) - 1, "MAX_SEQ_INDEX", MAX_SEQ_INDEX
                )
            return FinSeq(tuple(values))
        if t == "geo":
            self.pos += 1
            self.expect("(")
            ratio = self.parse_scalar()
            degree = 0
            if self.texts[self.pos] == ";":
                self.pos += 1
                degree = self.parse_int()
                if degree < 0:
                    self.fail("geo degree must be >= 0", at)
                if degree > MAX_GEO_DEGREE:
                    raise BudgetExceeded("geo degree", degree, "MAX_GEO_DEGREE", MAX_GEO_DEGREE)
            self.expect(")")
            if ratio.abs2() >= 1:
                self.fail(f"geo ratio {format_scalar(ratio)} is not inside the unit circle", at)
            return GeoSeq(ratio, degree)
        if t == "e":
            p = self.pos = at + 1
            if not self.texts[p].isdigit():
                self.fail("expected a basis index after 'e'")
            self.pos = p + 1
            index = int(self.texts[p])
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
        t = self.texts[self.pos]
        if t == "T":
            self.pos += 1
            self.expect("(")
            sym = self.parse_symexpr()
            self.expect(")")
            return TAtom(sym)
        if t == "I":
            self.pos += 1
            return IdentityAtom()
        if t == "FR":
            self.pos += 1
            self.expect("{")
            pairs = self.items(self._parse_pair, ";")
            self.expect("}")
            return FRAtom(tuple(pairs))
        if t == "M":
            self.pos += 1
            return self.parse_matrix()
        self.fail("expected an operator atom (T, I, FR, or M)")

    def _parse_pair(self) -> tuple[SeqNode, SeqNode]:
        u = self.parse_seq()
        self.expect("|")
        v = self.parse_seq()
        return (u, v)

    # -- operator expressions ----------------------------------------------

    def parse_factor(self) -> OpNode:
        self.enter()
        p = self.pos
        t = self.texts[p]
        if t == "-":
            self.pos = p + 1
            node = OpNeg(self.parse_factor())
        elif self.at_scalar(p):
            c = self.parse_scalar()
            self.expect("*")
            node = OpScalarMul(c, self.parse_factor())
        elif t == "(":
            node = self._parenthesized(p)
        else:
            node = self.parse_atom()
        self.depth -= 1
        return node

    def _parenthesized(self, p: int) -> OpNode:
        """A parenthesized scalar coefficient or a grouped expression at p."""
        self.pos = p + 1
        if self.at_scalar(p + 1) or self.texts[p + 1] == "-":
            try:
                c = self.parse_scalar()
                q = self.pos
                if self.texts[q] == ")" and self.texts[q + 1] == "*":
                    self.pos = q + 2
                    return OpScalarMul(c, self.parse_factor())
            except ParseError:
                pass
        self.pos = p + 1
        node = self.parse_expr()
        self.expect(")")
        return node

    def parse_term(self) -> OpNode:
        node = self.parse_factor()
        while self.texts[self.pos] == "*":
            self.pos += 1
            node = OpBin("*", node, self.parse_factor())
        return node

    def parse_expr(self) -> OpNode:
        node = self.parse_term()
        texts = self.texts
        while (op := texts[self.pos]) == "+" or op == "-":
            self.pos += 1
            node = OpBin(op, node, self.parse_term())
        return node

    def parse_program(self) -> OpNode:
        parts = self.items(self.parse_expr, "(++)")
        self.end()
        return DirectSum(tuple(parts)) if len(parts) > 1 else parts[0]


def _fold_bin(op: str, left: SymNode, right: SymNode) -> SymNode:
    """_fold(SBin(op, left, right)), which only two constants change."""
    node = SBin(op, left, right)
    if left.__class__ is SConst and right.__class__ is SConst:
        return _fold(node)
    return node


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
    p = _Parser(text)
    ast = p.parse_program()
    # Each node of the tree takes a token of its own (its operator, sign,
    # keyword or first literal token), so a text of at most MAX_HEIGHT
    # tokens cannot make a tree that high.
    if len(p.texts) - _PAD > MAX_HEIGHT and _height(ast) > MAX_HEIGHT:
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
        return make_factored(ONE, 1, [], [])
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
    op, left, right = node.op, node.left, node.right
    if (op == "-" or op == "+") and left.__class__ is SVar and right.__class__ is SConst:
        c = right.value
        if not c.is_zero():
            # z - c or z + c: one linear factor, split unless c is on the circle
            try:
                return make_factored(ONE, 0, [(c if op == "-" else -c, 1)], [])
            except FactorOnCircle:
                pass
    left = eval_sym(left)
    right = eval_sym(right)
    if op == "+":
        return sym_arith(left, right, "add")
    if op == "-":
        return sym_arith(left, right, "sub")
    if op == "*":
        return sym_arith(left, right, "mul")
    return sym_div(left, right)


def eval_seq(node: SeqNode) -> RationalSequence:
    if isinstance(node, FinSeq):
        return seq_finite(node.values)
    if isinstance(node, GeoSeq):
        return seq_geo(node.ratio, node.degree)
    return seq_basis(node.index)


_OP_NAMES = {"+": "add", "-": "sub", "*": "mul"}


def evaluate(node: OpNode) -> BlockOperator:
    """The operator of node.  parse has checked its signatures; on a tree
    built by hand, op_arith raises SignatureMismatch at a mismatched node."""
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
        return toeplitz_operator(ZERO_SYMBOL, make_finite_rank(terms))
    if isinstance(node, MatrixAtom):
        return matrix_operator(make_matrix([list(r) for r in node.rows]))
    if isinstance(node, OpNeg):
        return op_scale(_eval(node.arg), gr(-1))
    if isinstance(node, OpScalarMul):
        return op_scale(_eval(node.arg), node.scalar)
    if isinstance(node, OpBin):
        left = _eval(node.left)
        right = _eval(node.right)
        out = op_arith(left, right, _OP_NAMES[node.op])
        for f in out.symbols().values():
            _check_symbol(f)
        return out
    raise TypeError(f"unknown node {node!r}")
