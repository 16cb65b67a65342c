"""The three workloads: seeded inputs, the timed operation, and its check.

A workload is a list of shapes.  One round draws one fresh case of every
shape, so every run holds the same mix whatever its seed or length.
Inputs are DSL text built from roots and coefficients the generator
chose, which is what the checks in ``oracles`` compare against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from oracles import GQ, Seq, Sym, fmt, min_modulus_on_circle, root_moduli, same, winding, window_of_product

FREDHOLM_CLASSES = ("InvertibleModJ", "Fredholm")


@dataclass
class Case:
    shape: str
    text: str
    meta: Any
    op: Any = None  # operator built before timing, where the workload needs one


@dataclass(frozen=True)
class Workload:
    name: str
    shapes: tuple[str, ...]
    rounds_per_second: float  # sizes a run from --seconds; calibrated at the reference commit
    generate: Callable[[random.Random, str], tuple[str, Any]]
    prepare: Callable[[Any, Case], Any] | None
    operate: Callable[[Any, Case], Any]
    check: Callable[[Case, Any], list[str]]


def make_cases(w: Workload, rng: random.Random, rounds: int, seen: set[str]) -> list[Case]:
    """``rounds`` rounds of distinct cases; ``seen`` keeps texts unique across calls."""
    cases = []
    for _ in range(rounds):
        for shape in w.shapes:
            while True:
                text, meta = w.generate(rng, shape)
                if text not in seen:
                    break
            seen.add(text)
            cases.append(Case(shape, text, meta))
    return cases


# ---------------------------------------------------------------------------
# Random pieces.
# ---------------------------------------------------------------------------


def _q(rng: random.Random, num: int, den: int) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _root(rng: random.Random, inside: bool) -> GQ:
    """A Gaussian rational with modulus <= 3/4 (inside) or in [4/3, 3] (outside)."""
    while True:
        d = rng.randint(2, 4)
        r = GQ(Fraction(rng.randint(-3 * d, 3 * d), d), Fraction(rng.choice((0, 0, rng.randint(-2 * d, 2 * d))), d))
        a2 = r.abs2()
        if (0 < a2 <= Fraction(9, 16)) if inside else (Fraction(16, 9) <= a2 <= 9):
            return r


def _sym(rng: random.Random, zeros: int, poles: int, pole_side: str | None = None) -> Sym:
    """Symbol with the given numbers of distinct simple zeros and poles."""
    while True:
        zs = [_root(rng, rng.random() < 0.5) for _ in range(zeros)]
        ps = [_root(rng, rng.random() < 0.5 if pole_side is None else pole_side == "inside")
              for _ in range(poles)]
        if len(set(zs + ps)) == zeros + poles:
            break
    scale = GQ(1) if rng.random() < 0.5 else GQ(_q(rng, 3, 2) or 1)
    return Sym(scale, rng.choice((-1, 0, 1)), tuple((z, 1) for z in zs), tuple((p, 1) for p in ps))


def _seq(rng: random.Random, kinds: str, degrees=(0, 0, 1)) -> Seq:
    kind = rng.choice(kinds.split(","))
    if kind == "fin":
        vals = [GQ(_q(rng, 3, 3)) for _ in range(rng.randint(2, 3))]
        vals[-1] = vals[-1] if not vals[-1].is_zero() else GQ(1)
        return Seq("fin", tuple(vals))
    if kind == "e":
        return Seq("e", degree=rng.randint(0, 3))
    while True:
        r = GQ(_q(rng, 2, 4), _q(rng, 1, 4) if rng.random() < 0.3 else 0)
        if 0 < r.abs2() <= Fraction(1, 4):
            return Seq("geo", ratio=r, degree=rng.choice(degrees))


def _fr(pairs: list[tuple[Seq, Seq]]) -> str:
    return "FR{" + "; ".join(f"{u.dsl()} | {v.dsl()}" for u, v in pairs) + "}"


# ---------------------------------------------------------------------------
# index-mix: parse -> evaluate -> analyze, both index routes.
# ---------------------------------------------------------------------------


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _conjugate(rng: random.Random, m):
    """P m P^-1 with P unit lower triangular, so the Drazin index is kept."""
    n = len(m)
    p = [[Fraction(int(i == j)) if i <= j else Fraction(rng.randint(-1, 1)) for j in range(n)] for i in range(n)]
    pinv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):  # forward substitution: P is unit lower triangular
        for j in range(i):
            c = p[i][j]
            if c:
                pinv[i] = [x - c * y for x, y in zip(pinv[i], pinv[j])]
    return _matmul(_matmul(p, m), pinv)


def _matrix(rng: random.Random, kind: str) -> tuple[list[list[Fraction]], int]:
    """A matrix block and its Drazin index, known from how it is built."""
    nz = lambda: _q(rng, 3, 2) or Fraction(1)  # noqa: E731
    if kind == "nilpotent3":  # strictly upper triangular, full superdiagonal
        m = [[Fraction(0)] * 3 for _ in range(3)]
        m[0][1], m[1][2], m[0][2] = nz(), nz(), _q(rng, 3, 2)
        return _conjugate(rng, m), 3
    if kind == "nilpotent2":
        return _conjugate(rng, [[Fraction(0), nz()], [Fraction(0), Fraction(0)]]), 2
    if kind == "invertible3":
        m = [[nz() if i == j else (_q(rng, 3, 2) if j > i else Fraction(0)) for j in range(3)] for i in range(3)]
        return _conjugate(rng, m), 0
    # mixed: an invertible 1x1 part coupled to a 2x2 nilpotent Jordan block
    zero = Fraction(0)
    m = [[nz(), _q(rng, 3, 2), _q(rng, 3, 2)], [zero, zero, nz()], [zero, zero, zero]]
    return _conjugate(rng, m), 2


def _mat_dsl(m) -> str:
    return "M[" + ", ".join("[" + ", ".join(fmt(GQ(x)) for x in row) + "]" for row in m) + "]"


def _gen_index(rng: random.Random, shape: str) -> tuple[str, Any]:
    """Blocks are ("T", [symbol factors]), ("Z",) for a zero symbol, ("M", index)."""
    f, g = _sym(rng, 1, 1), _sym(rng, 2, 1)
    pair = lambda: (_seq(rng, "fin,e,geo"), _seq(rng, "fin,e,geo"))  # noqa: E731
    if shape == "product":
        return f"T({f.dsl()}) * T({g.dsl()})", [("T", [f, g])]
    if shape == "product-fr":
        return f"(T({f.dsl()}) + {_fr([pair()])}) * T({g.dsl()})", [("T", [f, g])]
    if shape == "fr":
        h = _sym(rng, 2, 1)
        return f"T({h.dsl()}) + {_fr([pair(), pair()])}", [("T", [h])]
    if shape == "zero-symbol":
        zero = _fr([pair()]) if rng.random() < 0.5 else "T(0)"
        return f"T({f.dsl()}) * T({g.dsl()}) (++) {zero}", [("T", [f, g]), ("Z",)]
    kind, left, factors = {
        "nilpotent": ("nilpotent3", f"T({g.dsl()})", [g]),
        "nilpotent2": ("nilpotent2", f"T({f.dsl()}) + {_fr([pair()])}", [f]),
        "invertible": ("invertible3", f"T({f.dsl()}) * T({g.dsl()})", [f, g]),
        "mixed-matrix": ("mixed3", f"T({g.dsl()}) + {_fr([pair()])}", [g]),
    }[shape]
    m, k = _matrix(rng, kind)
    return f"{left} (++) {_mat_dsl(m)}", [("T", factors), ("M", k)]


def _expect_index(blocks) -> tuple[str, int, int]:
    windings = [sum(winding(s) for s in b[1]) for b in blocks if b[0] == "T"]
    has_zero = any(b[0] == "Z" for b in blocks)
    if has_zero or not windings:
        cls = "BFredholm"
    else:
        cls = "InvertibleModJ" if all(w == 0 for w in windings) else "Fredholm"
    p = max([1 if has_zero else 0] + [b[1] for b in blocks if b[0] == "M"])
    return cls, -sum(windings), p


def _check_index(case: Case, rep) -> list[str]:
    cls, index, p = _expect_index(case.meta)
    got = (rep.classification, rep.index_trace, rep.index_winding, rep.quotient_index, rep.defects_in_ideal)
    want = (cls, index, index, p, True)
    return [] if got == want else [f"{case.text}: got {got}, expected {want}"]


def _analyze(bf, case: Case):
    return bf.analyze(bf.evaluate(bf.parse(case.text)))


INDEX_MIX = Workload(
    name="index-mix",
    # Nilpotent blocks sit beside single symbols only: beside a product they
    # hit the Drazin-witness power blow-up (CHANGES.md) and swamp the tail.
    shapes=("product", "product-fr", "fr", "zero-symbol", "nilpotent", "nilpotent2",
            "invertible", "mixed-matrix"),
    rounds_per_second=2.3,
    generate=_gen_index,
    prepare=None,
    operate=_analyze,
    check=_check_index,
)


# ---------------------------------------------------------------------------
# punctured-scan: punctured_scan with the CLI defaults on split-free symbols.
# ---------------------------------------------------------------------------

RADII = (Fraction(1, 8), Fraction(1, 16), Fraction(1, 32))
DIRECTIONS = (GQ(1), GQ(-1), GQ(0, 1), GQ(0, -1), GQ(Fraction(3, 5), Fraction(4, 5)),
              GQ(Fraction(3, 5), Fraction(-4, 5)), GQ(Fraction(-3, 5), Fraction(4, 5)),
              GQ(Fraction(-3, 5), Fraction(-4, 5)))
GRID = tuple(d * GQ(r) for r in sorted(RADII) for d in DIRECTIONS)  # the scan's sample order
MARGIN = 1e-3  # inputs keep every root this far from the circle, planted zeros aside


@dataclass(frozen=True)
class ScanInput:
    coeffs: tuple[GQ, ...]  # p, lowest degree first; the symbol is z^shift * p(z)
    shift: int
    planted: GQ | None  # grid point lambda0 with p(zeta) - lambda0 zeta^-shift = 0, |zeta| = 1

    def shifted(self, lam: GQ) -> list[GQ]:
        """Coefficients of z^-shift * (symbol - lam), a polynomial."""
        c = list(self.coeffs)
        c[-self.shift] = c[-self.shift] - lam
        return c


def _float_roots(c: list[complex]) -> list[complex] | None:
    """Durand-Kerner in plain floats; None if it does not settle."""
    while c and c[-1] == 0:
        c = c[:-1]
    n = len(c) - 1
    lead = c[-1]
    mon = [x / lead for x in c]
    z = [(0.4 + 0.9j) ** k for k in range(n)]
    for _ in range(500):
        new = []
        for i, zi in enumerate(z):
            val = 0j
            for x in reversed(mon):
                val = val * zi + x
            den = 1 + 0j
            for j, zj in enumerate(z):
                if j != i:
                    den *= zi - zj
            if den == 0:
                return None
            new.append(zi - val / den)
        if max(abs(a - b) for a, b in zip(new, z)) < 1e-13:
            return new
        z = new
    return None


def _clear_of_circle(coeffs: list[GQ]) -> bool:
    roots = _float_roots([x.to_complex() for x in coeffs])
    return roots is not None and all(abs(abs(r) - 1) >= MARGIN for r in roots)


SCAN_SHAPES = {  # degree of p, shift, planted circle zero; one degree, so the costs
    # form one dense cluster and the median and tail do not fall between two
    "deg3": (3, 0, False), "deg3-shift": (3, -1, False), "deg3-hit": (3, 0, True),
    "deg3-shift-hit": (3, -1, True),
}
DENOMINATORS = (2, 3, 1)  # per coefficient position, so sizes match across seeds


def _coeffs(rng: random.Random, n: int) -> list[GQ]:
    return [GQ(Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), d)) for d in DENOMINATORS[:n]]


def _gen_scan(rng: random.Random, shape: str) -> tuple[str, Any]:
    degree, shift, planted = SCAN_SHAPES[shape]
    while True:
        if planted:
            # p(z) = (z - zeta) q(z) + lambda0 * z^-shift, so p - lambda0 has the circle zero zeta
            zeta, lam0 = rng.choice(DIRECTIONS), rng.choice(GRID)
            q = _coeffs(rng, degree - 1) + [GQ(1)]
            coeffs = [GQ(0)] * (degree + 1)
            for k, c in enumerate(q):
                coeffs[k + 1] = coeffs[k + 1] + c
                coeffs[k] = coeffs[k] - zeta * c
            coeffs[-shift] = coeffs[-shift] + lam0
            inp = ScanInput(tuple(coeffs), shift, lam0)
            others = [q]
        else:
            coeffs = _coeffs(rng, degree) + [GQ(rng.choice((1, -1, 2)))]
            inp = ScanInput(tuple(coeffs), shift, None)
            others = []
        if coeffs[0].is_zero():
            continue
        samples = [GQ(0)] + [lam for lam in GRID if lam != inp.planted]
        if all(_clear_of_circle(c) for c in others + [inp.shifted(lam) for lam in samples]):
            break
    poly = " + ".join(
        f"({fmt(c)})" if k == 0 else f"({fmt(c)}) * z" + (f"^{k}" if k > 1 else "")
        for k, c in enumerate(coeffs) if not c.is_zero()
    )
    return (f"T(z^{shift} * ({poly}))" if shift else f"T({poly})"), inp


def _float_class(inp: ScanInput, lam: GQ) -> tuple[str, int | None] | None:
    """Classification and index from numpy root moduli; None inside the margin."""
    moduli = root_moduli(inp.shifted(lam))
    if any(abs(m - 1) < 1e-6 for m in moduli):
        return None
    w = inp.shift + sum(1 for m in moduli if m < 1)
    return ("InvertibleModJ" if w == 0 else "Fredholm"), -w


def _check_scan(case: Case, rep) -> list[str]:
    inp: ScanInput = case.meta
    errors = []
    base = _float_class(inp, GQ(0))
    if base is None or (rep.base_classification, rep.base_index) != base:
        errors.append(f"{case.text}: base {(rep.base_classification, rep.base_index)} vs oracle {base}")
        return errors
    if len(rep.rows) != len(GRID):
        return errors + [f"{case.text}: {len(rep.rows)} samples, expected {len(GRID)}"]
    rouche = min_modulus_on_circle(list(inp.coeffs))
    expected = []
    for row, lam in zip(rep.rows, GRID):
        if not same(row.lam, lam):
            errors.append(f"{case.text}: sample {row.lam} where {fmt(lam)} was expected")
            continue
        want = ("NotInClass", None) if lam == inp.planted else _float_class(inp, lam)
        if want is None:
            errors.append(f"{case.text}: oracle undecided at {fmt(lam)}")
            continue
        expected.append((lam, want))
        if (row.classification, row.index) != want:
            errors.append(f"{case.text}: at {fmt(lam)} got {(row.classification, row.index)}, oracle {want}")
        if abs(lam.to_complex()) < rouche and (row.classification not in FREDHOLM_CLASSES or row.index != base[1]):
            errors.append(f"{case.text}: |{fmt(lam)}| < {rouche:.4f} but the sample left the base index")
    stable = None
    for r in sorted(RADII):
        group = [w for lam, w in expected if lam.abs2() <= r * r]
        if all(c in FREDHOLM_CLASSES and i == base[1] for c, i in group):
            stable = r
        else:
            break
    if not errors and rep.stable_radius != stable:
        errors.append(f"{case.text}: stable radius {rep.stable_radius}, oracle {stable}")
    return errors


PUNCTURED_SCAN = Workload(
    name="punctured-scan",
    shapes=tuple(SCAN_SHAPES),
    rounds_per_second=0.75,
    generate=_gen_scan,
    prepare=lambda bf, case: bf.evaluate(bf.parse(case.text)),
    operate=lambda bf, case: bf.punctured_scan(case.op, list(RADII), len(DIRECTIONS)),
    check=_check_scan,
)


# ---------------------------------------------------------------------------
# entry-windows: exact n x n windows read entry by entry with op_entry.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WindowInput:
    f: Sym  # poles outside the disk only
    g: Sym  # poles inside the disk only
    left: tuple[Seq, Seq] | None  # u1 (x) v1 added to T(f); v1 finitely supported
    right: tuple[Seq, Seq] | None  # u2 (x) v2 added to T(g)
    n: int


WINDOW_SHAPES = {  # n, u1 (x) v1 on T(f), u2 (x) v2 on T(g); sized to similar costs
    "w14": (14, True, True), "w16-left": (16, True, False), "w16-right": (16, False, True),
    "w18": (18, False, False),
}


def _gen_window(rng: random.Random, shape: str) -> tuple[str, Any]:
    n, with_left, with_right = WINDOW_SHAPES[shape]
    # one structure per shape, so costs within a shape stay close
    f = _sym(rng, 2, 1, pole_side="outside")
    g = _sym(rng, 1, 1, pole_side="inside")
    left = (_seq(rng, "geo", degrees=(0,)), _seq(rng, "fin")) if with_left else None
    right = (_seq(rng, "geo", degrees=(0,)), _seq(rng, "geo", degrees=(0,))) if with_right else None
    tf = f"(T({f.dsl()}) + {_fr([left])})" if left else f"T({f.dsl()})"
    tg = f"(T({g.dsl()}) + {_fr([right])})" if right else f"T({g.dsl()})"
    return f"{tf} * {tg}", WindowInput(f, g, left, right, n)


def _read_window(bf, case: Case):
    n = case.meta.n
    return [[bf.op_entry(case.op, 0, i, j) for j in range(n)] for i in range(n)]


def _check_window(case: Case, window) -> list[str]:
    m: WindowInput = case.meta
    want = window_of_product(m.f, m.left, m.g, m.right, m.n)
    bad = [(i, j) for i in range(m.n) for j in range(m.n) if not same(window[i][j], want[i][j])]
    return [f"{case.text}: {len(bad)} entries differ, first at {bad[0]}"] if bad else []


ENTRY_WINDOWS = Workload(
    name="entry-windows",
    shapes=tuple(WINDOW_SHAPES),
    rounds_per_second=1.05,
    generate=_gen_window,
    prepare=lambda bf, case: bf.evaluate(bf.parse(case.text)),
    operate=_read_window,
    check=_check_window,
)


WORKLOADS = {w.name: w for w in (INDEX_MIX, PUNCTURED_SCAN, ENTRY_WINDOWS)}
