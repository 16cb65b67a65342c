"""The concrete operator algebra: Toeplitz-with-finite-rank blocks on
l2(N) direct-summed with finite matrix blocks.

Products of Toeplitz blocks stay in class because the defect
T(fg) - T(f)T(g) = H(f) H(g~), with g~(z) = g(1/z), is a product of two
Hankel operators of finite rank for rational symbols (Boettcher and
Silbermann, Prop. 2.14), built as exact outer products from the symbols'
Laurent expansions, so traces downstream remain exact.
"""

from __future__ import annotations

from .errors import IndexOutOfRange, SignatureMismatch
from .finiterank import FR_ZERO, FiniteRankOperator, _entry_sum, fr_is_zero, make_finite_rank
from .matrices import ExactMatrix, identity as mat_identity
from .poly import Polynomial, from_roots
from .record import Record, _set
from .scalars import GaussianRational, ONE, ZERO, gr
from .sequences import RationalSequence, SEQ_ZERO, make_sequence
from .symbols import (
    RationalSymbol,
    ZERO_SYMBOL,
    expand_rational,
    fourier_coeff,
    laurent_expansion,
    make_factored,
    sym_arith,
    sym_scale,
    symbol_poles,
)


# ---------------------------------------------------------------------------
# Applying a Toeplitz operator to an exact sequence.
# ---------------------------------------------------------------------------


def toeplitz_apply(f: RationalSymbol, x: RationalSequence) -> RationalSequence:
    """T(f)x = P+(f X), the nonnegative part of f times x's generating function."""
    if f.is_zero() or x.is_zero():
        return SEQ_ZERO
    return _apply_rational(f.num, symbol_poles(f), f.shift, x)


def toeplitz_apply_transpose(f: RationalSymbol, x: RationalSequence) -> RationalSequence:
    """T(f)^T x = T(f(1/z)) x.

    f(1/z) = z^(deg den - deg num - shift) rev(num) / rev(den), and
    rev(den) = prod (1 - p z)^m = den(0) prod (z - 1/p)^m.
    """
    if f.is_zero() or x.is_zero():
        return SEQ_ZERO
    poles = [(p.inv(), m) for p, m in symbol_poles(f)]
    num = Polynomial(f.num.coeffs[::-1]).scale(f.den.coeffs[0].inv())
    return _apply_rational(num, poles, f.den.degree - f.num.degree - f.shift, x)


def _apply_rational(num: Polynomial, poles, shift: int, x: RationalSequence) -> RationalSequence:
    """P+ of z^shift num / prod (z-p)^m times X = N / D, X = sum_n x(n) z^n.

    A tail q(n) r^n of x is a pole of X at 1/r of order deg q + 1, so
    D = prod (z - 1/r)^(deg q + 1) and N = D X is a polynomial of degree
    below deg D + len(head): the start of D times x's first values.
    """
    x_poles = [(r.inv(), q.degree + 1) for r, q in x.tails]
    D = from_roots(ONE, x_poles)
    n = D.degree + len(x.head)
    N = Polynomial((D * Polynomial(tuple(x.value(k) for k in range(n)))).coeffs[:n])
    return expand_rational(num * N, list(poles) + x_poles, shift).pos


# ---------------------------------------------------------------------------
# Hankel operators and the Hankel-product defect.
# ---------------------------------------------------------------------------


def _hankel(a: RationalSequence) -> FiniteRankOperator:
    """The Hankel operator with entries a(i + j): one term e_i (x) a.head[i:]
    per head entry, and per tail p(n) r^n one term (p^(e)/e!)(i) r^i (x) i^e r^i
    for e = 0..deg p, as p(i + j) = sum_e p^(e)(i)/e! j^e.  Head slices and
    tail derivatives are canonical, so no factor goes through make_sequence."""
    terms = [
        (RationalSequence((ZERO,) * i + (ONE,), ()), RationalSequence(a.head[i:], ()))
        for i in range(len(a.head))
    ]
    for r, p in a.tails:
        for e in range(p.degree + 1):
            geo = RationalSequence((), ((r, Polynomial((ZERO,) * e + (ONE,))),))
            terms.append((RationalSequence((), ((r, p),)), geo))
            p = p.derivative().scale(gr(e + 1).inv())
    return FiniteRankOperator(tuple(terms))


def _hankel_product(a: RationalSequence, A: FiniteRankOperator, B: FiniteRankOperator, heads: int):
    """A o B for A = _hankel(a): one term A u (x) v per term u (x) v of B.  The
    first ``heads`` terms have u = e_j, and A e_j = a.drop(j).  Otherwise A u
    is the action of A's tail terms plus H(h) u for a's head h of length L,
    whose entry i is entry L - 1 - i of T(h reversed) u: one expansion, where
    A's head terms would pair u with all L slices of h."""
    A_tails, L, h = FiniteRankOperator(A.terms[len(a.head):]), len(a.head), Polynomial(a.head[::-1])

    def act(u: RationalSequence) -> RationalSequence:
        y = _apply_rational(h, [], 0, u) if L else SEQ_ZERO
        return A_tails.apply(u) + make_sequence([y.value(L - 1 - i) for i in range(L)], [])

    return make_finite_rank(
        [(a.drop(j), v) for j, (_, v) in enumerate(B.terms[:heads])]
        + [(act(u), v) for u, v in B.terms[heads:]]
    )


def hankel_defect(f: RationalSymbol, g: RationalSymbol) -> FiniteRankOperator:
    """H = H(f) H(g~) with T(f) T(g) = T(f g) - H, entries sum_k a(i+k) b(k+j)
    for a(m) = fhat(m + 1) and b(m) = ghat(-1 - m).  Hankel matrices are
    symmetric, so (B A)^T = A B: the shorter factor goes on the right, and
    H has at most min(|A|, |B|) terms."""
    if f.is_zero() or g.is_zero():
        return FR_ZERO
    a = laurent_expansion(f).pos.drop(1)
    b = laurent_expansion(g).neg
    if a.is_zero() or b.is_zero():
        return FR_ZERO
    A, B = _hankel(a), _hankel(b)
    if len(B.terms) <= len(A.terms):
        return _hankel_product(a, A, B, len(b.head))
    return _hankel_product(b, B, A, len(a.head)).transpose()


# ---------------------------------------------------------------------------
# Blocks and block operators.
# ---------------------------------------------------------------------------


class ToeplitzBlock(Record):
    """T(symbol) + correction on l2(N)."""

    __slots__ = ("symbol", "correction")

    def __init__(self, symbol: RationalSymbol, correction: FiniteRankOperator = FR_ZERO):
        _set(self, "symbol", symbol)
        _set(self, "correction", correction)


class MatrixBlock(Record):
    __slots__ = ("m",)

    def __init__(self, m: ExactMatrix):
        m._square()
        _set(self, "m", m)


Block = ToeplitzBlock | MatrixBlock


class BlockOperator(Record):
    __slots__ = ("blocks",)

    def __init__(self, blocks: tuple[Block, ...]):
        _set(self, "blocks", blocks)

    def signature(self) -> tuple:
        out = []
        for b in self.blocks:
            out.append("T" if isinstance(b, ToeplitzBlock) else ("M", b.m.rows))
        return tuple(out)


def toeplitz_operator(symbol: RationalSymbol, correction: FiniteRankOperator = FR_ZERO) -> BlockOperator:
    return BlockOperator((ToeplitzBlock(symbol, correction),))


def matrix_operator(m: ExactMatrix) -> BlockOperator:
    return BlockOperator((MatrixBlock(m),))


def direct_sum(a: BlockOperator, b: BlockOperator) -> BlockOperator:
    return BlockOperator(a.blocks + b.blocks)


def identity_like(a: BlockOperator) -> BlockOperator:
    blocks: list[Block] = []
    for b in a.blocks:
        if isinstance(b, ToeplitzBlock):
            blocks.append(ToeplitzBlock(make_factored(ONE, 0, [], []), FR_ZERO))
        else:
            blocks.append(MatrixBlock(mat_identity(b.m.rows)))
    return BlockOperator(tuple(blocks))


def _check_signature(a: BlockOperator, b: BlockOperator):
    if a.signature() != b.signature():
        raise SignatureMismatch(
            f"block signatures differ: {a.signature()} vs {b.signature()}"
        )


def _toeplitz_mul(x: ToeplitzBlock, y: ToeplitzBlock) -> ToeplitzBlock:
    f, F = x.symbol, x.correction
    g, G = y.symbol, y.correction
    symbol = sym_arith(f, g, "mul")
    # (T(f) + F)(T(g) + G) = T(fg) - H(f, g) + T(f) G + F (T(g) + G),
    # with F (T(g) + G) = sum u_k (x) (T(g)^T v_k + G^T v_k)
    corr = -hankel_defect(f, g) + make_finite_rank(
        [(toeplitz_apply(f, u), v) for u, v in G.terms]
        + [(u, toeplitz_apply_transpose(g, v) + G.apply_transpose(v)) for u, v in F.terms]
    )
    return ToeplitzBlock(symbol, corr)


def op_arith(a: BlockOperator, b: BlockOperator, op: str) -> BlockOperator:
    _check_signature(a, b)
    if op not in ("add", "sub", "mul"):
        raise ValueError(f"unknown op {op!r}")
    blocks: list[Block] = []
    for x, y in zip(a.blocks, b.blocks):
        if isinstance(x, MatrixBlock):
            m = x.m + y.m if op == "add" else x.m - y.m if op == "sub" else x.m * y.m
            blocks.append(MatrixBlock(m))
        elif op == "mul":
            blocks.append(_toeplitz_mul(x, y))
        else:
            corr = x.correction + y.correction if op == "add" else x.correction - y.correction
            blocks.append(ToeplitzBlock(sym_arith(x.symbol, y.symbol, op), corr))
    return BlockOperator(tuple(blocks))


def op_scale(a: BlockOperator, c: GaussianRational) -> BlockOperator:
    blocks: list[Block] = []
    for b in a.blocks:
        if isinstance(b, ToeplitzBlock):
            blocks.append(ToeplitzBlock(sym_scale(b.symbol, c), b.correction.scale(c)))
        else:
            blocks.append(MatrixBlock(b.m.scale(c)))
    return BlockOperator(tuple(blocks))


def scalar_shift(a: BlockOperator, lam: GaussianRational) -> BlockOperator:
    """A - lambda * identity, blockwise."""
    const = make_factored(lam, 0, [], [])
    blocks: list[Block] = []
    for b in a.blocks:
        if isinstance(b, ToeplitzBlock):
            blocks.append(
                ToeplitzBlock(sym_arith(b.symbol, const, "sub"), b.correction)
            )
        else:
            blocks.append(MatrixBlock(b.m - mat_identity(b.m.rows).scale(lam)))
    return BlockOperator(tuple(blocks))


def op_power(a: BlockOperator, p: int) -> BlockOperator:
    out = identity_like(a)
    for _ in range(p):
        out = op_arith(out, a, "mul")
    return out


class _BlockReads:
    """What op_entry read from one Toeplitz block: u_k(i) per row i,
    v_k(j) per column j and fhat(d) per diagonal d = i - j."""

    __slots__ = ("block", "rows", "cols", "diagonals")

    def __init__(self, block: ToeplitzBlock | None):
        self.block = block
        self.rows: dict[int, list] = {}
        self.cols: dict[int, list] = {}
        self.diagonals: dict[int, GaussianRational] = {}


_last_reads = _BlockReads(None)


def op_entry(a: BlockOperator, block_index: int, i: int, j: int) -> GaussianRational:
    """Entry (i, j) of block ``block_index`` of a, exact.

    Valid indices are 0 <= block_index < len(a.blocks) and i, j >= 0, and
    on a matrix block also i < rows and j < cols; any other index raises
    IndexOutOfRange.  A Toeplitz entry is fhat(i - j) + sum_k u_k(i) v_k(j),
    summed as one dot product that starts at fhat(i - j) and is reduced
    once; reading fhat raises MissingSplit when the symbol needs a split it
    lacks.

    Between calls, op_entry keeps the values it read from the last Toeplitz
    block it was called on (by identity): u_k(i) per row i, v_k(j) per column
    j and fhat(d) per diagonal d, so an n x n window reads each of them once.
    A call on another block replaces them, so memory stays at one block's
    reads.  Calls from several threads stay correct; a thread that races a
    switch to another block at worst computes a value again.
    """
    global _last_reads
    if not 0 <= block_index < len(a.blocks):
        raise IndexOutOfRange(f"block {block_index} of {len(a.blocks)}")
    block = a.blocks[block_index]
    if isinstance(block, ToeplitzBlock):
        if i < 0 or j < 0:
            raise IndexOutOfRange(f"({i},{j}) has a negative index")
        reads = _last_reads
        if reads.block is not block:
            reads = _last_reads = _BlockReads(block)
        base = reads.diagonals.get(i - j)
        if base is None:
            base = reads.diagonals[i - j] = fourier_coeff(block.symbol, i - j)
        return _entry_sum(block.correction, i, j, reads.rows, reads.cols, base)
    if not (0 <= i < block.m.rows and 0 <= j < block.m.cols):
        raise IndexOutOfRange(f"({i},{j}) outside {block.m.rows}x{block.m.cols} block")
    return block.m.at(i, j)


def op_equal(a: BlockOperator, b: BlockOperator) -> bool:
    _check_signature(a, b)
    for x, y in zip(a.blocks, b.blocks):
        if isinstance(x, ToeplitzBlock):
            if x.symbol != y.symbol:
                return False
            if not fr_is_zero(x.correction - y.correction):
                return False
        else:
            if x.m != y.m:
                return False
    return True


def embed_finite_rank(a: BlockOperator, F: FiniteRankOperator, block_index: int = 0) -> BlockOperator:
    """A zero operator of a's signature carrying F on one Toeplitz block."""
    blocks: list[Block] = []
    for idx, b in enumerate(a.blocks):
        if isinstance(b, ToeplitzBlock):
            blocks.append(
                ToeplitzBlock(ZERO_SYMBOL, F if idx == block_index else FR_ZERO)
            )
        else:
            blocks.append(MatrixBlock(b.m.scale(ZERO)))
    if not isinstance(a.blocks[block_index], ToeplitzBlock):
        raise SignatureMismatch("finite-rank placement must target a Toeplitz block")
    return BlockOperator(tuple(blocks))
