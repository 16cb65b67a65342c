"""Curated verification suites.

The corpus and the checks are part of the package's contract: every
suite takes (seed, trials), returns (name, passed, detail) triples and is
deterministic for a fixed seed; suites that perturb nothing ignore trials.  The window suite cross-checks the closed-form operator
representation against brute-force truncated matrix arithmetic; the
truncation is padded past the expression's total bandwidth so the
compared window is exact, not approximate.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .dsl import (
    FinSeq,
    FRAtom,
    IdentityAtom,
    OpBin,
    OpNeg,
    OpNode,
    OpScalarMul,
    SBin,
    SConst,
    SPow,
    SVar,
    TAtom,
    eval_sym,
    evaluate,
)
from .engine import (
    B_FREDHOLM,
    FREDHOLM_CLASSES,
    _commutator_trace,
    classify,
    index_trace,
    index_winding,
    punctured_scan,
    verify_fedosov,
    verify_ideal_perturbation,
    verify_log_law,
    verify_power_law,
    verify_well_defined,
)
from .errors import ExactError, NotBezout
from .finiterank import fr_equal, outer, trace as fr_trace
from .matrices import jordan_nilpotent
from .numeric import winding_oracle
from .operators import (
    BlockOperator,
    MatrixBlock,
    ToeplitzBlock,
    direct_sum,
    embed_finite_rank,
    identity_like,
    matrix_operator,
    op_arith,
    op_entry,
    op_scale,
    random_ideal_element,
    scalar_shift,
    toeplitz_operator,
)
from .poly import poly
from .scalars import GaussianRational, ONE, ZERO, gr
from .sequences import seq_basis, seq_finite, seq_geo
from .symbols import (
    RationalSymbol,
    ZERO_SYMBOL,
    fourier_coeff,
    make_factored,
    make_symbol,
    sym_pow,
    winding_number,
)

Case = tuple[str, bool, str]


def _half() -> GaussianRational:
    return gr(Fraction(1, 2))


def corpus_symbols() -> list[tuple[str, RationalSymbol]]:
    z = make_symbol(poly([0, 1]), poly([1]))
    out = []
    for k in range(1, 6):
        out.append((f"T(z^{k})", sym_pow(z, k)))
    for k in range(1, 4):
        out.append((f"T(z^-{k})", sym_pow(z, -k)))
    lin = make_factored(ONE, 0, [(_half(), 1)], [])
    out.append(("T(z-1/2)", lin))
    quad = make_factored(ONE, 0, [(_half(), 1), (gr(3), 1)], [])
    out.append(("T((z-1/2)(z-3))", quad))
    ratio = make_factored(ONE, 0, [(_half(), 2)], [(gr(3), 1)])
    out.append(("T((z-1/2)^2/(z-3))", ratio))
    return out


def corpus(seed: int = 7) -> list[tuple[str, BlockOperator]]:
    """Named operators: the symbol corpus with rotating matrix-block and
    ideal-element decorations."""
    rng = random.Random(seed)
    out = []
    for idx, (name, f) in enumerate(corpus_symbols()):
        a = toeplitz_operator(f)
        variant = idx % 4
        if variant == 1:
            a = direct_sum(a, matrix_operator(jordan_nilpotent(2)))
            name += " (++) J2"
        elif variant == 2:
            a = direct_sum(a, matrix_operator(jordan_nilpotent(3)))
            name += " (++) J3"
        elif variant == 3:
            j = random_ideal_element(rng)
            a = op_arith(a, embed_finite_rank(a, j), "add")
            name += " + j"
        out.append((name, a))
    return out


def bfredholm_cases() -> list[tuple[str, BlockOperator]]:
    """Zero-symbol blocks: B-Fredholm but not Fredholm."""
    zero_block = ToeplitzBlock(ZERO_SYMBOL, outer(seq_basis(0), seq_basis(0)))
    return [
        (
            "(0 + e0(x)e0) (++) J2",
            BlockOperator((zero_block, MatrixBlock(jordan_nilpotent(2)))),
        ),
        (
            "(0 + e0(x)e0) (++) J3",
            BlockOperator((zero_block, MatrixBlock(jordan_nilpotent(3)))),
        ),
    ]


# ---------------------------------------------------------------------------
# Suites.
# ---------------------------------------------------------------------------


def _case(name: str, check, *args) -> Case:
    """(name, ok, detail) from check(*args), or a failed case naming the
    ExactError that check raised."""
    try:
        ok, detail = check(*args)
    except ExactError as e:
        return name, False, str(e)
    return name, ok, detail


def suite_fedosov(seed: int = 7, trials: int = 20) -> list[Case]:
    def check(name, a):
        rep = verify_fedosov(a)
        ok = rep.index_trace == rep.index_winding
        detail = f"index {rep.index_trace} by both routes"
        if name.startswith("T(z^") and "-" not in name.split(")")[0]:
            k = int(name[4])
            ok = ok and rep.index_trace == -k
            detail += f"; expected -{k}"
        return ok, detail

    return [_case(f"fedosov: {name}", check, name, a) for name, a in corpus(seed)]


def suite_welldefined(seed: int = 7, trials: int = 20) -> list[Case]:
    def check(a):
        r = verify_well_defined(a, trials=trials, rng_seed=seed + 1)
        return True, f"index {r['index']} stable over {trials} perturbations"

    return [_case(f"welldefined: {name}", check, a) for name, a in corpus(seed) + bfredholm_cases()]


_SCAN_RADII = [Fraction(1, 8), Fraction(1, 16), Fraction(1, 32)]


def suite_punctured(seed: int = 7, trials: int = 20) -> list[Case]:
    def check(name, a):
        rep = punctured_scan(a, _SCAN_RADII, directions=8)
        # (z-1/2)^2/(z-3) maps z=1 to exactly -1/8, so the radius-1/8
        # circle touches its essential spectrum; the theorem radius
        # for that symbol is genuinely below 1/8
        expected = Fraction(1, 16) if "(z-1/2)^2/(z-3)" in name else Fraction(1, 8)
        return rep.stable_radius == expected, f"index {rep.base_index} constant up to radius {rep.stable_radius}"

    def check_bfredholm(a):
        rep = punctured_scan(a, _SCAN_RADII, directions=8)
        ok = (
            rep.base_classification == B_FREDHOLM
            and rep.base_index == 0
            and rep.stable_radius == Fraction(1, 8)
            and all(r.classification in FREDHOLM_CLASSES for r in rep.rows)
        )
        return ok, "BFredholm at 0, Fredholm of index 0 on the punctured grid"

    out = [_case(f"punctured: {name}", check, name, a) for name, a in corpus(seed)]
    # document the boundary coincidence explicitly
    ratio = toeplitz_operator(
        make_factored(ONE, 0, [(_half(), 2)], [(gr(3), 1)])
    )
    touched = scalar_shift(ratio, gr(Fraction(-1, 8)))
    out.append(
        (
            "punctured: (z-1/2)^2/(z-3) essential spectrum touches -1/8",
            classify(touched) == "NotInClass",
            "f(1) = -1/8 exactly, so lambda = -1/8 gives a circle zero",
        )
    )
    out += [_case(f"punctured: {name}", check_bfredholm, a) for name, a in bfredholm_cases()]
    return out


def suite_loglaw(seed: int = 7, trials: int = 20) -> list[Case]:
    z = make_symbol(poly([0, 1]), poly([1]))
    Tz = toeplitz_operator(z)
    e = identity_like(Tz)
    # c*z - c*(z - 1/c) = 1 for a2 = T(z - 1/2), c = 2 and a3 = T(z - 2), c = 1/2
    a2 = toeplitz_operator(make_factored(ONE, 0, [(_half(), 1)], []))
    a3 = toeplitz_operator(make_factored(ONE, 0, [(gr(2), 1)], []))

    def law(a, c, want):
        r = verify_log_law(Tz, a, op_scale(e, c), op_scale(e, -c))
        got = (r["i_a1"], r["i_a2"], r["i_product"])
        return got == want, f"{r['i_product']} = {r['i_a1']} + {r['i_a2']}"

    def rejected():
        try:
            verify_log_law(Tz, a3, op_scale(e, -_half()), op_scale(e, _half()))
        except NotBezout:
            return True, "NotBezout raised"
        return False, "accepted a non-identity"

    def scaled():
        s = op_scale(Tz, gr(3))
        ok = index_winding(s) == index_winding(Tz) == -1
        return ok and index_trace(s) == -1, "both -1"

    return [
        _case("loglaw: T(z), T(z-1/2)", law, a2, gr(2), (-1, -1, -2)),
        _case("loglaw: T(z), T(z-2)", law, a3, _half(), (-1, 0, -1)),
        # an invalid Bezout pair must be rejected
        _case("loglaw: invalid Bezout pair rejected", rejected),
        # scalar multiples: i(3 a) = i(a)
        _case("loglaw: i(3*T(z)) = i(T(z))", scaled),
    ]


def suite_ideal(seed: int = 7, trials: int = 20) -> list[Case]:
    rng = random.Random(seed + 2)

    def check(a):
        base = index_winding(a)
        ok = all(verify_ideal_perturbation(a, random_ideal_element(rng))["index"] == base for _ in range(trials))
        return ok, f"index {base} under {trials} perturbations"

    return [_case(f"ideal: {name}", check, a) for name, a in corpus(seed) + bfredholm_cases()]


def suite_powerlaw(seed: int = 7, trials: int = 20) -> list[Case]:
    def check(a, p):
        r = verify_power_law(a, p)
        return True, f"{r['index_power']} = {p} * {r['index']}"

    # powers of decorated high-degree symbols get expensive; the law is
    # already exercised across the full symbol range below
    return [
        _case(f"powerlaw: {name} ^ {p}", check, a, p)
        for name, a in corpus(seed) if classify(a) in FREDHOLM_CLASSES
        for p in (2, 3, 4)
    ]


def suite_traceaxioms(seed: int = 7, trials: int = 20) -> list[Case]:
    rng = random.Random(seed + 3)

    def idempotents():  # axiom 1: rank-one idempotents have trace 1
        ok = True
        for t in range(10):
            head = [gr(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(t % 3 + 1)]
            if all(h.is_zero() for h in head):
                head[0] = gr(1)
            u = seq_finite(head)
            if t % 2:
                u = u + seq_geo(gr(Fraction(1, 2 + t % 3)))
            # normalize v against u so that pairing(v, u) = 1
            k = 0
            while u.value(k).is_zero():
                k += 1
            v = seq_basis(k).scale(u.value(k).inv())
            p = outer(u, v)
            ok = fr_trace(p) == ONE and fr_equal(p.compose(p), p) and ok
        return ok, "10 constructed idempotents"

    def linearity():  # axioms 2 and 3
        ok = True
        for _ in range(50):
            F = random_ideal_element(rng)
            G = random_ideal_element(rng)
            alpha = gr(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
            ok = fr_trace(F + G) == fr_trace(F) + fr_trace(G) and ok
            ok = fr_trace(F.scale(alpha)) == alpha * fr_trace(F) and ok
        return ok, "50 random pairs"

    def cyclicity():  # axiom 4: tau(F B) = tau(B F) against full block operators
        ok = True
        syms = [f for _, f in corpus_symbols()]
        for _ in range(25):
            F = random_ideal_element(rng)
            g = syms[rng.randrange(len(syms))]
            G = random_ideal_element(rng)
            b = BlockOperator((ToeplitzBlock(g, G),))
            if rng.random() < 0.4:
                b = direct_sum(b, matrix_operator(jordan_nilpotent(2)))
            opf = embed_finite_rank(b, F)
            fb, bf = op_arith(opf, b, "mul"), op_arith(b, opf, "mul")
            ok = _commutator_trace(fb) == _commutator_trace(bf) and ok
        return ok, "25 random pairs"

    return [
        _case("trace axiom 1: rank-one idempotents", idempotents),
        _case("trace axioms 2-3: linearity", linearity),
        _case("trace axiom 4: tau(FB) = tau(BF)", cyclicity),
    ]


def suite_windingoracle(seed: int = 7, trials: int = 20) -> list[Case]:
    rng = random.Random(seed + 4)
    out = []
    ok = True
    detail = []
    for n in range(25):
        f = _random_split_symbol(rng)
        exact = winding_number(f)
        numeric = winding_oracle(f)
        if exact != numeric:
            ok = False
            detail.append(f"{f}: exact {exact} vs contour {numeric}")
    out.append(("winding oracle: 25 seeded split symbols", ok, "; ".join(detail) or "contour integral agrees"))
    return out


def _random_split_symbol(rng: random.Random) -> RationalSymbol:
    def inner_point():
        return gr(Fraction(rng.randint(-2, 2), 5), Fraction(rng.randint(-2, 2), 5))

    def outer_point():
        return gr(rng.randint(2, 4), rng.randint(-2, 2))

    zeros = []
    poles = []
    for _ in range(rng.randint(0, 2)):
        zeros.append((inner_point(), rng.randint(1, 2)))
    for _ in range(rng.randint(0, 2)):
        zeros.append((outer_point(), 1))
    for _ in range(rng.randint(0, 1)):
        poles.append((outer_point(), rng.randint(1, 2)))
    scale = gr(rng.randint(1, 3), rng.randint(0, 2))
    shift = rng.randint(-2, 2)
    return make_factored(scale, shift, zeros, poles)


# ---------------------------------------------------------------------------
# Window oracle: closed forms vs brute-force truncated matrices.
# ---------------------------------------------------------------------------

WINDOW = 32


def random_window_expr(rng: random.Random, depth: int = 4) -> OpNode:
    """Random banded expression: Laurent-polynomial symbols, finite
    finite-rank factors, depth-limited operator arithmetic."""
    if depth == 0 or rng.random() < 0.35:
        kind = rng.random()
        if kind < 0.55:
            return TAtom(_random_laurent_sym(rng))
        if kind < 0.8:
            pairs = tuple(
                (_random_fin_seq(rng), _random_fin_seq(rng))
                for _ in range(rng.randint(1, 2))
            )
            return FRAtom(pairs)
        return IdentityAtom()
    roll = rng.random()
    if roll < 0.3:
        return OpBin("+", random_window_expr(rng, depth - 1), random_window_expr(rng, depth - 1))
    if roll < 0.5:
        return OpBin("-", random_window_expr(rng, depth - 1), random_window_expr(rng, depth - 1))
    if roll < 0.8:
        return OpBin("*", random_window_expr(rng, depth - 1), random_window_expr(rng, depth - 1))
    if roll < 0.9:
        return OpNeg(random_window_expr(rng, depth - 1))
    c = gr(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-2, 2), 2))
    if c.is_zero():
        c = gr(2)
    return OpScalarMul(c, random_window_expr(rng, depth - 1))


def _random_laurent_sym(rng: random.Random) -> SBin | SPow | SVar | SConst:
    # z^shift * (c0 + c1 z + c2 z^2) as a DSL symbol AST
    shift = rng.randint(-2, 1)
    coeffs = [gr(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(rng.randint(1, 3))]
    if all(c.is_zero() for c in coeffs):
        coeffs[0] = gr(1)
    node = None
    for k, c in enumerate(coeffs):
        if c.is_zero():
            continue
        term = SConst(c) if k == 0 else (
            SPow(SVar(), k) if c == ONE else SBin("*", SConst(c), SPow(SVar(), k))
        )
        node = term if node is None else SBin("+", node, term)
    if shift:
        node = SBin("*", SPow(SVar(), shift), node)
    return node


def _random_fin_seq(rng: random.Random) -> FinSeq:
    vals = [gr(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(rng.randint(1, 4))]
    if all(v.is_zero() for v in vals):
        vals[0] = gr(1)
    return FinSeq(tuple(vals))


def _bandwidth(node: OpNode) -> int:
    """Upper bound on how far entries of the expression reach off the
    window during truncated evaluation."""
    if isinstance(node, TAtom):
        f = eval_sym(node.sym)
        lo = f.shift
        hi = f.shift + f.num.degree
        return max(abs(lo), abs(hi))
    if isinstance(node, (IdentityAtom, FRAtom)):
        return 0
    if isinstance(node, OpNeg) or isinstance(node, OpScalarMul):
        return _bandwidth(node.arg)
    if isinstance(node, OpBin):
        left = _bandwidth(node.left)
        right = _bandwidth(node.right)
        return left + right if node.op == "*" else max(left, right)
    raise ExactError(f"not a window expression: {node!r}")


def _sp_truncate(node: OpNode, size: int) -> dict:
    """Evaluate the expression on exact size x size matrices stored as
    sparse {(i, j): scalar} dicts."""
    if isinstance(node, TAtom):
        f = eval_sym(node.sym)
        out = {}
        for d in range(f.shift, f.shift + f.num.degree + 1):
            c = fourier_coeff(f, d)
            if c.is_zero():
                continue
            for i in range(size):
                j = i - d
                if 0 <= j < size:
                    out[(i, j)] = c
        return out
    if isinstance(node, IdentityAtom):
        return {(i, i): ONE for i in range(size)}
    if isinstance(node, FRAtom):
        out = {}
        for u, v in node.pairs:
            for i, a in enumerate(u.values):
                if a.is_zero():
                    continue
                for j, b in enumerate(v.values):
                    if b.is_zero():
                        continue
                    key = (i, j)
                    out[key] = out.get(key, ZERO) + a * b
        return {k: val for k, val in out.items() if not val.is_zero()}
    if isinstance(node, OpNeg):
        return {k: -v for k, v in _sp_truncate(node.arg, size).items()}
    if isinstance(node, OpScalarMul):
        return {k: node.scalar * v for k, v in _sp_truncate(node.arg, size).items()}
    if isinstance(node, OpBin):
        left = _sp_truncate(node.left, size)
        right = _sp_truncate(node.right, size)
        if node.op in ("+", "-"):
            out = dict(left)
            sign = ONE if node.op == "+" else gr(-1)
            for k, v in right.items():
                out[k] = out.get(k, ZERO) + sign * v
            return {k: v for k, v in out.items() if not v.is_zero()}
        by_row: dict[int, list] = {}
        for (i, k), v in left.items():
            by_row.setdefault(i, []).append((k, v))
        by_k: dict[int, list] = {}
        for (k, j), v in right.items():
            by_k.setdefault(k, []).append((j, v))
        out = {}
        for i, row in by_row.items():
            for k, a in row:
                cols = by_k.get(k)
                if not cols:
                    continue
                for j, b in cols:
                    key = (i, j)
                    out[key] = out.get(key, ZERO) + a * b
        return {k: v for k, v in out.items() if not v.is_zero()}
    raise ExactError(f"not a window expression: {node!r}")


def suite_windows(seed: int = 7, trials: int = 20, count: int = 100) -> list[Case]:
    rng = random.Random(seed + 5)
    failures = []
    for n in range(count):
        expr = random_window_expr(rng)
        op = evaluate(expr)
        pad = _bandwidth(expr)
        sparse = _sp_truncate(expr, WINDOW + pad)
        mismatch = None
        for i in range(WINDOW):
            for j in range(WINDOW):
                want = sparse.get((i, j), ZERO)
                got = op_entry(op, 0, i, j)
                if got != want:
                    mismatch = (i, j, str(got), str(want))
                    break
            if mismatch:
                break
        if mismatch:
            failures.append(f"expr {n}: entry {mismatch}")
    ok = not failures
    return [(
        f"windows: {count} random expressions vs truncated matrices",
        ok,
        "; ".join(failures[:3]) or f"all {count} expressions agree on a {WINDOW}x{WINDOW} window",
    )]


SUITES = {
    "fedosov": suite_fedosov,
    "welldefined": suite_welldefined,
    "punctured": suite_punctured,
    "loglaw": suite_loglaw,
    "ideal": suite_ideal,
    "powerlaw": suite_powerlaw,
    "traceaxioms": suite_traceaxioms,
    "windingoracle": suite_windingoracle,
    "windows": suite_windows,
}


def run_suite(name: str, seed: int = 7, trials: int = 20) -> list[Case]:
    if name == "all":
        out = []
        for key in SUITES:
            out.extend(SUITES[key](seed=seed, trials=trials))
        return out
    if name not in SUITES:
        raise ExactError(
            f"unknown suite {name!r}; choose from {', '.join(list(SUITES) + ['all'])}"
        )
    return SUITES[name](seed=seed, trials=trials)
