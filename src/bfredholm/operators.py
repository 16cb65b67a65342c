"""The concrete operator algebra: Toeplitz-with-finite-rank blocks on
l2(N) direct-summed with finite matrix blocks.

Products of Toeplitz blocks stay in class because the defect
T(fg) - T(f)T(g) = H(f) H(g~), with g~(z) = g(1/z), is a product of two
Hankel operators of finite rank for rational symbols (Boettcher and
Silbermann, Prop. 2.14), built as exact outer products from the symbols'
Laurent expansions, so traces downstream remain exact.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import IndexOutOfRange, OracleMismatch, SignatureMismatch
from .finiterank import FR_ZERO, FiniteRankOperator, _entry_sum, fr_is_zero, make_finite_rank, trace as fr_trace
from .matrices import ExactMatrix, drazin_index, identity as mat_identity, matrix, zeros as mat_zeros
from .poly import Polynomial, from_roots
from .record import Record, _set
from .scalars import GaussianRational, ONE, ZERO, gr
from .sequences import RationalSequence, SEQ_ZERO, make_sequence, seq_finite
from .symbols import (
    RationalSymbol,
    ZERO_SYMBOL,
    expand_rational,
    fourier_coeff,
    invert_symbol,
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


def random_ideal_element(rng, rank: int = 2, support: int = 4) -> FiniteRankOperator:
    """Seeded small finite-rank operator with finite-support factors, drawn from rng."""

    def small() -> GaussianRational:
        return gr(
            Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
            Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
        )

    terms = []
    for _ in range(rng.randint(1, rank)):
        u = seq_finite([small() for _ in range(rng.randint(1, support))])
        v = seq_finite([small() for _ in range(rng.randint(1, support))])
        terms.append((u, v))
    return make_finite_rank(terms)


class ToeplitzBlock(Record):
    """T(symbol) + correction on l2(N); its class in A/J is its symbol.
    Each block kind answers for itself every operation the package reads
    of a block, so no caller tests which kind it holds."""

    __slots__ = ("symbol", "correction")

    def __init__(self, symbol: RationalSymbol, correction: FiniteRankOperator = FR_ZERO):
        _set(self, "symbol", symbol)
        _set(self, "correction", correction)

    def signature(self):
        return "T"

    def symbols(self) -> tuple[RationalSymbol, ...]:
        return (self.symbol,)

    def unit(self) -> ToeplitzBlock:
        return ToeplitzBlock(make_factored(ONE, 0, [], []), FR_ZERO)

    def zero(self) -> ToeplitzBlock:
        return ToeplitzBlock(ZERO_SYMBOL, FR_ZERO)

    def carrying(self, F: FiniteRankOperator) -> ToeplitzBlock:
        """The zero block with F as its correction."""
        return ToeplitzBlock(ZERO_SYMBOL, F)

    def arith(self, other: ToeplitzBlock, op: str) -> ToeplitzBlock:
        if op == "mul":
            return _toeplitz_mul(self, other)
        corr = self.correction + other.correction if op == "add" else self.correction - other.correction
        return ToeplitzBlock(sym_arith(self.symbol, other.symbol, op), corr)

    def scale(self, c: GaussianRational) -> ToeplitzBlock:
        return ToeplitzBlock(sym_scale(self.symbol, c), self.correction.scale(c))

    def shift(self, lam: GaussianRational) -> ToeplitzBlock:
        return ToeplitzBlock(sym_arith(self.symbol, make_factored(lam, 0, [], []), "sub"), self.correction)

    def entry(self, i: int, j: int) -> GaussianRational:
        global _last_reads
        if i < 0 or j < 0:
            raise IndexOutOfRange(f"({i},{j}) has a negative index")
        reads = _last_reads
        if reads.block is not self:
            reads = _last_reads = _BlockReads(self)
        base = reads.diagonals.get(i - j)
        if base is None:
            base = reads.diagonals[i - j] = fourier_coeff(self.symbol, i - j)
        return _entry_sum(self.correction, i, j, reads.rows, reads.cols, base)

    def equals(self, other: ToeplitzBlock) -> bool:
        return self.symbol == other.symbol and fr_is_zero(self.correction - other.correction)

    def witness(self) -> tuple[ToeplitzBlock, int]:
        """T(1/f) with Drazin index 0, or 0 with index 1 for a zero symbol f."""
        if self.symbol.is_zero():
            return self.zero(), 1
        return ToeplitzBlock(invert_symbol(self.symbol), FR_ZERO), 0

    def commutator_trace(self) -> GaussianRational:
        """tau of this block of a commutator, whose symbol must cancel."""
        if not self.symbol.is_zero():
            raise OracleMismatch(f"commutator symbol {self.symbol} is not zero; internal error")
        return fr_trace(self.correction)

    def perturbed(self, rng) -> ToeplitzBlock:
        """self + j for a random ideal element j, drawn from rng."""
        return ToeplitzBlock(self.symbol, self.correction + random_ideal_element(rng))


class MatrixBlock(Record):
    """A square matrix.  It lies in J whole, so it has no symbol in A/J,
    and its witness is 0 with the matrix's own Drazin index."""

    __slots__ = ("m",)

    def __init__(self, m: ExactMatrix):
        m._square()
        _set(self, "m", m)

    def signature(self):
        return ("M", self.m.rows)

    def symbols(self) -> tuple[RationalSymbol, ...]:
        return ()

    def unit(self) -> MatrixBlock:
        return MatrixBlock(mat_identity(self.m.rows))

    def zero(self) -> MatrixBlock:
        return MatrixBlock(mat_zeros(self.m.rows, self.m.cols))

    def carrying(self, F: FiniteRankOperator) -> MatrixBlock:
        raise SignatureMismatch("finite-rank placement must target a Toeplitz block")

    def arith(self, other: MatrixBlock, op: str) -> MatrixBlock:
        x, y = self.m, other.m
        return MatrixBlock(x + y if op == "add" else x - y if op == "sub" else x * y)

    def scale(self, c: GaussianRational) -> MatrixBlock:
        return MatrixBlock(self.m.scale(c))

    def shift(self, lam: GaussianRational) -> MatrixBlock:
        return MatrixBlock(self.m - mat_identity(self.m.rows).scale(lam))

    def entry(self, i: int, j: int) -> GaussianRational:
        if not (0 <= i < self.m.rows and 0 <= j < self.m.cols):
            raise IndexOutOfRange(f"({i},{j}) outside {self.m.rows}x{self.m.cols} block")
        return self.m.at(i, j)

    def equals(self, other: MatrixBlock) -> bool:
        return self.m == other.m

    def witness(self) -> tuple[MatrixBlock, int]:
        return self.zero(), drazin_index(self.m)

    def commutator_trace(self) -> GaussianRational:
        return self.m.trace()

    def perturbed(self, rng) -> MatrixBlock:
        n = self.m.rows
        delta = [[gr(Fraction(rng.randint(-2, 2), rng.randint(1, 3))) for _ in range(n)] for _ in range(n)]
        return MatrixBlock(self.m + matrix(delta))


Block = ToeplitzBlock | MatrixBlock


class BlockOperator(Record):
    __slots__ = ("blocks",)

    def __init__(self, blocks: tuple[Block, ...]):
        _set(self, "blocks", blocks)

    def signature(self) -> tuple:
        return tuple([b.signature() for b in self.blocks])

    def symbols(self) -> dict[int, RationalSymbol]:
        """The class of self in A/J: the symbol of each Toeplitz block, by
        block index in block order.  A matrix block lies in J and has none."""
        return {k: f for k, b in enumerate(self.blocks) for f in b.symbols()}


def toeplitz_operator(symbol: RationalSymbol, correction: FiniteRankOperator = FR_ZERO) -> BlockOperator:
    return BlockOperator((ToeplitzBlock(symbol, correction),))


def matrix_operator(m: ExactMatrix) -> BlockOperator:
    return BlockOperator((MatrixBlock(m),))


def direct_sum(a: BlockOperator, b: BlockOperator) -> BlockOperator:
    return BlockOperator(a.blocks + b.blocks)


def identity_like(a: BlockOperator) -> BlockOperator:
    return BlockOperator(tuple([b.unit() for b in a.blocks]))


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
    return BlockOperator(tuple([x.arith(y, op) for x, y in zip(a.blocks, b.blocks)]))


def op_scale(a: BlockOperator, c: GaussianRational) -> BlockOperator:
    return BlockOperator(tuple([b.scale(c) for b in a.blocks]))


def scalar_shift(a: BlockOperator, lam: GaussianRational) -> BlockOperator:
    """A - lambda * identity, blockwise."""
    return BlockOperator(tuple([b.shift(lam) for b in a.blocks]))


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
    if not 0 <= block_index < len(a.blocks):
        raise IndexOutOfRange(f"block {block_index} of {len(a.blocks)}")
    return a.blocks[block_index].entry(i, j)


def op_equal(a: BlockOperator, b: BlockOperator) -> bool:
    _check_signature(a, b)
    return all(x.equals(y) for x, y in zip(a.blocks, b.blocks))


def embed_finite_rank(a: BlockOperator, F: FiniteRankOperator, block_index: int = 0) -> BlockOperator:
    """A zero operator of a's signature carrying F on one Toeplitz block."""
    if not 0 <= block_index < len(a.blocks):
        raise IndexOutOfRange(f"block {block_index} of {len(a.blocks)}")
    carrier = a.blocks[block_index].carrying(F)
    return BlockOperator(tuple([carrier if k == block_index else b.zero() for k, b in enumerate(a.blocks)]))
