"""Exact dense matrices over Q(i): rank, Drazin inverse, spectral trace.

Desk-scale (n <= 12) linear algebra with plain fraction arithmetic;
entries are canonical, so equality is structural.  Rank and Drazin
inverse each come from one row reduction (_rref); the Drazin inverse is
the closed form A^k X A^k, with no change of basis.  The Drazin index
alone needs only the ranks of the powers of A.
"""

from __future__ import annotations

from .errors import ExactError, NotSquare
from .poly import Polynomial
from .record import Record, _set
from .scalars import GaussianRational, ONE, ZERO, gr


class ExactMatrix(Record):
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[GaussianRational, ...]):  # row-major
        if len(entries) != rows * cols:
            raise ExactError("entry count does not match the shape")
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "entries", entries)

    def at(self, i: int, j: int) -> GaussianRational:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list[GaussianRational]:
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._same_shape(other)
        return ExactMatrix(
            self.rows, self.cols,
            tuple(a + b for a, b in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._same_shape(other)
        return ExactMatrix(
            self.rows, self.cols,
            tuple(a - b for a, b in zip(self.entries, other.entries)),
        )

    def __neg__(self) -> "ExactMatrix":
        return self.scale(gr(-1))

    def scale(self, c: GaussianRational) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols, tuple(a * c for a in self.entries))

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ExactError("inner dimensions do not match")
        columns = [other.entries[j :: other.cols] for j in range(other.cols)]
        out = []
        for i in range(self.rows):
            row = self.entries[i * self.cols : (i + 1) * self.cols]
            for col in columns:
                acc = ZERO
                for a, b in zip(row, col):
                    if not (a.is_zero() or b.is_zero()):
                        acc = acc + a * b
                out.append(acc)
        return ExactMatrix(self.rows, other.cols, tuple(out))

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.cols, self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def trace(self) -> GaussianRational:
        self._square()
        acc = ZERO
        for i in range(self.rows):
            acc = acc + self.at(i, i)
        return acc

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.entries)

    def _same_shape(self, other: "ExactMatrix"):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ExactError("shape mismatch")

    def _square(self):
        if self.rows != self.cols:
            raise NotSquare(f"{self.rows}x{self.cols} matrix is not square")

    def power(self, k: int) -> "ExactMatrix":
        self._square()
        out = identity(self.rows)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __str__(self) -> str:
        rows = []
        for i in range(self.rows):
            rows.append("[" + ", ".join(str(x) for x in self.row(i)) + "]")
        return "[" + ", ".join(rows) + "]"


def matrix(rows) -> ExactMatrix:
    """Build from a list of row lists of ints/Fractions/GaussianRationals."""
    r = len(rows)
    c = len(rows[0]) if r else 0
    flat = []
    for row in rows:
        if len(row) != c:
            raise ExactError("ragged matrix literal")
        for v in row:
            flat.append(v if isinstance(v, GaussianRational) else gr(v))
    return ExactMatrix(r, c, tuple(flat))


def identity(n: int) -> ExactMatrix:
    return ExactMatrix(
        n, n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n))
    )


def zeros(r: int, c: int) -> ExactMatrix:
    return ExactMatrix(r, c, (ZERO,) * (r * c))


def jordan_nilpotent(n: int) -> ExactMatrix:
    """J_n(0): ones on the superdiagonal."""
    return ExactMatrix(
        n, n,
        tuple(ONE if j == i + 1 else ZERO for i in range(n) for j in range(n)),
    )


def _rref(rows: list[list[GaussianRational]]) -> tuple[list[list[GaussianRational]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if not rows[i][c].is_zero()), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(A: ExactMatrix) -> int:
    if A.rows == 0 or A.cols == 0:
        return 0
    _, pivots = _rref([A.row(i) for i in range(A.rows)])
    return len(pivots)


def _index_powers(A: ExactMatrix) -> tuple[int, ExactMatrix, ExactMatrix, int]:
    """(k, A^k, A^(k+1), rank A^k) for the Drazin index k of A: the
    smallest k >= 0 with rank(A^k) = rank(A^(k+1))."""
    A._square()
    # power = A^k and nxt = A^(k+1); k grows until their ranks agree
    k, power, nxt, r = 0, identity(A.rows), A, A.rows
    while (r_next := rank(nxt)) != r:
        k, power, nxt, r = k + 1, nxt, nxt * A, r_next
    return k, power, nxt, r


def drazin_index(A: ExactMatrix) -> int:
    """The Drazin index of A, by the rank loop of drazin alone."""
    return _index_powers(A)[0]


def drazin(A: ExactMatrix) -> tuple[ExactMatrix, int]:
    """Drazin inverse by the closed form A^D = A^k X A^k.

    Returns (D, k) where k is the smallest integer >= 0 with
    rank(A^k) = rank(A^(k+1)), and X is any {1}-inverse of A^(2k+1)
    (Campbell & Meyer, Generalized Inverses of Linear Transformations,
    ch. 7), read off one row reduction of [A^(2k+1) | I].  D satisfies
    AD = DA, DAD = D and A^(k+1) D = A^k exactly.
    """
    k, power, nxt, r = _index_powers(A)
    n = A.rows
    if r == 0:  # A^k = 0
        return zeros(n, n), k
    # row c of X is the right half of the pivot row of column c < n
    M = nxt * power
    rows, pivots = _rref([M.row(i) + [ONE if j == i else ZERO for j in range(n)] for i in range(n)])
    x = [ZERO] * (n * n)
    for i, c in enumerate(pivots):
        if c < n:
            x[c * n : (c + 1) * n] = rows[i][n:]
    X = ExactMatrix(n, n, tuple(x))
    return (power * X * power if k else X), k


def charpoly(A: ExactMatrix) -> Polynomial:
    """Characteristic polynomial det(zI - A) by Faddeev-LeVerrier."""
    A._square()
    n = A.rows
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    M = identity(n)
    c = ONE
    for k in range(1, n + 1):
        M = A * M
        c = -(M.trace()) / gr(k)
        coeffs[n - k] = c
        for i in range(n):
            idx = i * n + i
            M = ExactMatrix(
                n, n,
                tuple(e + c if t == idx else e for t, e in enumerate(M.entries)),
            )
    return Polynomial(tuple(coeffs))


def spectral_trace_check(A: ExactMatrix) -> bool:
    """Diagonal trace equals the eigenvalue sum with algebraic multiplicity.

    The eigenvalue sum is read off the characteristic polynomial as minus
    the degree-(n-1) coefficient; no eigenvalues are computed.
    """
    A._square()
    if A.rows == 0:
        return True
    p = charpoly(A)
    return A.trace() == -p.coeff(A.rows - 1)
