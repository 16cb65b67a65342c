"""Index analysis on the block-operator algebra.

Classification mirrors invertibility of the quotient class: an operator
is Fredholm when every l2 block has a nonzero symbol with no zeros on
the unit circle, and B-Fredholm when zero symbols (whose quotient class
is Drazin invertible with inverse 0) are also allowed.  The index is
computed two independent ways — the trace of the commutator against a
Drazin witness, and minus the sum of symbol winding numbers — and the
two must agree.  analyze is the one runner of the two routes; the
theorem verifiers read its reports.

The trace route forms no operator product: index_trace takes both
Widom pairings of each Toeplitz block as residue sums at the split's
roots (symbols.widom_pairings; Helton and Howe 1973).  A perturbation
a0 + j changes only what the pairings leave out, so verify_well_defined
and the trace-axiom suite still form full products (_commutator_index,
_commutator_trace) as the product layer's cross-check.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    BadScanGrid,
    MissingSplit,
    NonIntegerTrace,
    NotBezout,
    NotBFredholm,
    NotCommuting,
    OracleMismatch,
    ZeroOnCircle,
)
from .finiterank import FiniteRankOperator
from .operators import (
    BlockOperator,
    _check_signature,
    embed_finite_rank,
    identity_like,
    op_arith,
    op_equal,
    op_power,
    toeplitz_operator,
)
from .poly import poly
from .record import Record, _set
from .rootloc import count_zeros_in_disk, exceeds_on_circle, pencil_disk_counts
from .scalars import GaussianRational, ZERO, gr
from .symbols import (
    RationalSymbol,
    make_symbol,
    sym_arith,
    sym_pow,
    widom_pairings,
    winding_number,
)

INVERTIBLE_MOD_J = "InvertibleModJ"
FREDHOLM = "Fredholm"
B_FREDHOLM = "BFredholm"
NOT_IN_CLASS = "NotInClass"

FREDHOLM_CLASSES = (INVERTIBLE_MOD_J, FREDHOLM)


def classify(a: BlockOperator) -> str:
    """Total classification of the quotient class pi(a)."""
    return _class_and_index(a)[0]


def _class_and_index(a: BlockOperator) -> tuple[str, int | None]:
    """classify(a) and, when a is in class, index_winding(a)."""
    return _class_of(_windings(a))


def _windings(a: BlockOperator) -> list[int | None] | None:
    """The winding of each symbol of a, None for a zero symbol, from one
    root location per symbol num/den (no CircleSplit is read); None when
    a symbol vanishes on the circle."""
    try:
        return [None if f.is_zero() else winding_number(f) for f in a.symbols().values()]
    except ZeroOnCircle:
        return None


def _class_of(windings: list[int | None] | None) -> tuple[str, int | None]:
    """Class and index from the windings of the symbols, None for a zero
    symbol; not in class when windings is None."""
    if windings is None:
        return NOT_IN_CLASS, None
    index = -sum(w for w in windings if w is not None)
    if None in windings or not windings:
        return B_FREDHOLM, index
    return (FREDHOLM if any(windings) else INVERTIBLE_MOD_J), index


class DrazinWitness(Record):
    """Candidate Drazin inverse a0 of pi(a), with the certifying defects
    a*a0 - a0*a, a0*a*a0 - a0, a^(p+1)*a0 - a^p.

    quotient_index holds the witness exponent p, the largest block Drazin
    index: 1 for a zero symbol, a matrix block's own index.  It is not the
    Drazin index of pi(a): T(z) (++) M[[0,1],[0,0]] has p = 2, yet its
    matrix block lies in J and pi(a) is invertible.

    The defects are taken in the quotient, where the certificate is
    decided: each is a tuple of symbol differences, one per Toeplitz block
    in block order.  A matrix block lies in the ideal whole, so its
    witness is 0 and it has no defect.  The certificate is that every
    symbol difference is the zero symbol.  index_trace reads only the
    symbols of a and of the witness: both Widom pairings of each Toeplitz
    block, with no commutator formed.
    """

    __slots__ = ("inverse", "quotient_index", "defects")

    def __init__(self, inverse: BlockOperator, quotient_index: int,
                 defects: tuple[tuple[RationalSymbol, ...], ...]):
        _set(self, "inverse", inverse)
        _set(self, "quotient_index", quotient_index)
        _set(self, "defects", defects)

    def defects_in_ideal(self) -> bool:
        return all(f.is_zero() for d in self.defects for f in d)


def drazin_witness(a: BlockOperator) -> DrazinWitness:
    """Blockwise witness: T(f) -> T(1/f), zero symbol -> 0, matrix block
    -> 0, as it lies in the ideal; p is the largest block Drazin index."""
    if classify(a) == NOT_IN_CLASS:
        raise NotBFredholm("a symbol vanishes on the unit circle")
    return _drazin_witness(a)


def _drazin_witness(a: BlockOperator) -> DrazinWitness:
    """drazin_witness for an a already known to be in class."""
    witnesses = [b.witness() for b in a.blocks]
    a0 = BlockOperator(tuple([w for w, _ in witnesses]))
    p = max((k for _, k in witnesses), default=0)
    d1, d2, d3 = [], [], []
    for f, g in zip(a.symbols().values(), a0.symbols().values()):  # symbols commute: f^(p+1) g = f^p (g f)
        fg, gf, fp = sym_arith(f, g, "mul"), sym_arith(g, f, "mul"), sym_pow(f, p)
        d1.append(sym_arith(fg, gf, "sub"))
        d2.append(sym_arith(sym_arith(gf, g, "mul"), g, "sub"))
        d3.append(sym_arith(sym_arith(fp, gf, "mul"), fp, "sub"))
    w = DrazinWitness(a0, p, (tuple(d1), tuple(d2), tuple(d3)))
    if not w.defects_in_ideal():
        raise OracleMismatch("a Drazin defect left the ideal; internal error")
    return w


def _commutator_trace(comm: BlockOperator) -> GaussianRational:
    """tau of a commutator, summed blockwise; symbols must cancel."""
    return sum((b.commutator_trace() for b in comm.blocks), ZERO)


def _commutator_index(a: BlockOperator, a0: BlockOperator) -> int:
    """tau(a a0 - a0 a), which must be an exact integer."""
    comm = op_arith(op_arith(a, a0, "mul"), op_arith(a0, a, "mul"), "sub")
    t = _commutator_trace(comm)
    if not t.is_rational_integer():
        raise NonIntegerTrace(
            f"tau([a, a0]) = {t} is not an integer; commutator dump: "
            + "; ".join(str(b) for b in comm.blocks)
        )
    return int(t.re)


def index_trace(a: BlockOperator, witness: DrazinWitness | None = None) -> int:
    """i(a) = tau(a a0 - a0 a) for a Drazin witness a0; exact integer.

    Summed block by block as W(g, f) - W(f, g), f the symbol of a, g that
    of a0 and W the Widom pairing, as T(f)T(g) = T(fg) - H(f)H(g~).  A
    finite-rank F has tau([F, X]) = 0, so corrections and matrix blocks add
    nothing, and scalar symbols commute, so the formula holds for any a0 of
    a's signature.  No product is formed.
    """
    if witness is None:
        witness = drazin_witness(a)
    _check_signature(a, witness.inverse)
    # (block, W(g, f), W(f, g)); f's split is checked before g's, so a
    # MissingSplit names the symbol that the product a a0 would
    pairs = [(k, *widom_pairings(f, g))
             for (k, f), g in zip(a.symbols().items(), witness.inverse.symbols().values())]
    t = sum((wgf - wfg for _, wgf, wfg in pairs), ZERO)
    if not t.is_rational_integer():
        k, wgf, wfg = next(p for p in pairs if not (p[1] - p[2]).is_rational_integer())
        raise NonIntegerTrace(
            f"tau([a, a0]) = {t} is not an integer; block {k}: W(g, f) = {wgf}, W(f, g) = {wfg}"
        )
    return int(t.re)


def index_winding(a: BlockOperator) -> int:
    """Independent oracle: minus the sum of symbol winding numbers."""
    c, index = _class_and_index(a)
    if c == NOT_IN_CLASS:
        raise NotBFredholm("a symbol vanishes on the unit circle")
    return index


class IndexReport(Record):
    """classify(a), the index by each route that ran, and in
    quotient_index the witness exponent p (see DrazinWitness)."""

    __slots__ = ("classification", "index_trace", "index_winding", "quotient_index",
                 "pathway_notes", "defects_in_ideal")

    def __init__(self, classification: str, index_trace: int | None, index_winding: int | None,
                 quotient_index: int | None, pathway_notes: tuple[str, ...], defects_in_ideal: bool | None = None):
        _set(self, "classification", classification)
        _set(self, "index_trace", index_trace)
        _set(self, "index_winding", index_winding)
        _set(self, "quotient_index", quotient_index)
        _set(self, "pathway_notes", pathway_notes)
        _set(self, "defects_in_ideal", defects_in_ideal)


def _run_routes(a: BlockOperator) -> tuple[IndexReport, MissingSplit | None]:
    """analyze(a), and the MissingSplit that stopped its trace route.

    The only code that runs the trace route, skips it on MissingSplit and
    compares it with the winding route.
    """
    c, iw = _class_and_index(a)
    if c == NOT_IN_CLASS:
        return IndexReport(c, None, None, None, ("no index: not in class",)), None
    notes = ("winding route: -sum of symbol windings",)
    try:
        w = _drazin_witness(a)
        it = index_trace(a, w)
    except MissingSplit as e:
        return IndexReport(c, None, iw, None, notes + (f"trace route unavailable: {e}",)), e
    if it != iw:
        raise OracleMismatch(f"index_trace={it} disagrees with index_winding={iw}")
    notes += ("trace route: tau([a, a0]) against the Drazin witness",)
    return IndexReport(c, it, iw, w.quotient_index, notes, w.defects_in_ideal()), None


def analyze(a: BlockOperator) -> IndexReport:
    """Classification plus both index routes where available."""
    return _run_routes(a)[0]


def _in_class(rep: IndexReport, message: str = "a symbol vanishes on the unit circle") -> IndexReport:
    """rep, or NotBFredholm(message) when its operator is not in class."""
    if rep.classification == NOT_IN_CLASS:
        raise NotBFredholm(message)
    return rep


def _both_routes(a: BlockOperator) -> IndexReport:
    """analyze(a) of an a in class whose trace route ran."""
    rep, missing = _run_routes(a)
    if missing is not None:
        raise missing
    return _in_class(rep)


def _routes(*reps: IndexReport) -> list[str]:
    """The routes that ran on every report."""
    both = all(r.index_trace is not None for r in reps)
    return ["winding route", "trace route"] if both else ["winding route"]


# ---------------------------------------------------------------------------
# Theorem verifiers.
# ---------------------------------------------------------------------------


def verify_fedosov(a: BlockOperator) -> IndexReport:
    """Both routes must agree exactly (trace-formula identity)."""
    r = _both_routes(a)
    return IndexReport(r.classification, r.index_trace, r.index_winding, r.quotient_index,
                       ("both routes computed and equal",), r.defects_in_ideal)


def _perturb_witness(a0: BlockOperator, rng) -> BlockOperator:
    """a0 + j for a random ideal element j, drawn from rng, spread over all blocks."""
    return BlockOperator(tuple([b.perturbed(rng) for b in a0.blocks]))


def verify_well_defined(
    a: BlockOperator, trials: int = 20, rng_seed: int = 0
) -> dict:
    """tau([a, a0 + j]) is independent of the ideal perturbation j."""
    import random  # only this verifier draws perturbations
    w = drazin_witness(a)
    base = index_trace(a, w)
    rng = random.Random(rng_seed)
    values = [_commutator_index(a, _perturb_witness(w.inverse, rng)) for _ in range(trials)]
    if any(v != base for v in values):
        raise OracleMismatch(
            f"perturbed traces {values} differ from the base index {base}"
        )
    return {"index": base, "trials": trials, "values": values}


SCAN_DIRECTIONS: tuple[GaussianRational, ...] = (
    gr(1),
    gr(-1),
    gr(0, 1),
    gr(0, -1),
    gr(Fraction(3, 5), Fraction(4, 5)),
    gr(Fraction(3, 5), Fraction(-4, 5)),
    gr(Fraction(-3, 5), Fraction(4, 5)),
    gr(Fraction(-3, 5), Fraction(-4, 5)),
)


class ScanRow(Record):
    __slots__ = ("lam", "radius", "classification", "index")

    def __init__(self, lam: GaussianRational, radius: Fraction, classification: str, index: int | None):
        _set(self, "lam", lam)
        _set(self, "radius", radius)
        _set(self, "classification", classification)
        _set(self, "index", index)


class ScanReport(Record):
    # stable_radius: the largest radius with all smaller samples Fredholm at the base index
    __slots__ = ("base_classification", "base_index", "rows", "stable_radius")

    def __init__(self, base_classification: str, base_index: int | None, rows: tuple[ScanRow, ...],
                 stable_radius: Fraction | None):
        _set(self, "base_classification", base_classification)
        _set(self, "base_index", base_index)
        _set(self, "rows", rows)
        _set(self, "stable_radius", stable_radius)


def _shifted_classes(
    a: BlockOperator, lams: list[GaussianRational], windings: list[int | None] | None = None, radius=0
) -> list[tuple[str, int | None]]:
    """_class_and_index(scalar_shift(a, lam)) for each lam, building nothing.

    windings, if given, are a's (_windings), and radius >= every |lam|.  A
    symbol that passes the disk test, |f| > radius on the whole circle,
    keeps its winding at every lam by Rouche.  Any other f = z^s*num/den
    gives f - lam = z^min(s,0)*P/den with the pencil
    P = z^max(s,0)*num - lam*z^max(-s,0)*den, and gcd(P, den) = 1, so
    wind(f - lam) = min(s,0) + Z(P) - Z(den), Z counting the zeros in the
    disk, at 0 too.  P = 0 only where f is the constant lam: a zero symbol.
    """
    symbols = list(a.symbols().values())
    columns, missed = [], set()  # missed: samples where some f - lam vanishes on the circle
    for f, w in zip(symbols, windings or [None] * len(symbols)):
        s = f.shift
        if s == 0 and f.num.is_constant() and f.den.is_constant():
            columns.append([None if lam == f.num.coeff(0) else 0 for lam in lams])
        elif w is not None and exceeds_on_circle(f.num, f.den, radius * radius):
            columns.append([w] * len(lams))
        else:
            offset = min(s, 0) - (0 if f.den.is_constant() else count_zeros_in_disk(f.den))
            counts = pencil_disk_counts(f.num.shift_degree(max(s, 0)), f.den.shift_degree(max(-s, 0)), lams)
            missed.update(j for j, k in enumerate(counts) if k is None)
            columns.append([None if k is None else offset + k for k in counts])
    return [_class_of(None if j in missed else [col[j] for col in columns]) for j in range(len(lams))]


def punctured_scan(
    a: BlockOperator, radii: list[Fraction], directions: int = 8
) -> ScanReport:
    """Classify a - lambda*e on a punctured grid around 0 (Thm 3.1 shape).

    Each Toeplitz block takes the disk test at the largest radius: if it
    holds, every sample keeps the block's base winding; if not, a sample
    costs one Schur-Cohn run for the block (_shifted_classes).  Matrix
    blocks and corrections do not enter the class or the index: a square
    matrix has index 0, and a finite-rank correction moves no index.
    """
    radii = sorted(set(Fraction(x) for x in radii))
    if radii and radii[0] <= 0:
        raise BadScanGrid(f"scan radius {radii[0]} is not > 0")
    if not 1 <= directions <= len(SCAN_DIRECTIONS):
        raise BadScanGrid(f"scan directions {directions} is outside 1..{len(SCAN_DIRECTIONS)}")
    windings = _windings(a)
    base_c, base = _class_of(windings)
    if base_c == NOT_IN_CLASS:
        raise NotBFredholm("base operator is not in class")
    grid = [(r, d * g) for r, g in zip(radii, map(gr, radii)) for d in SCAN_DIRECTIONS[:directions]]
    # every direction has modulus 1, so the largest radius bounds every |lambda|
    classes = _shifted_classes(a, [lam for _, lam in grid], windings, max(radii, default=0))
    rows = tuple(ScanRow(lam, r, c, idx) for (r, lam), (c, idx) in zip(grid, classes))
    bad = [row.radius for row in rows if row.classification not in FREDHOLM_CLASSES or row.index != base]
    stable = max((r for r in radii if not bad or r < bad[0]), default=None)  # rows ascend in radius
    return ScanReport(base_c, base, rows, stable)


def verify_log_law(
    a1: BlockOperator,
    a2: BlockOperator,
    u1: BlockOperator,
    u2: BlockOperator,
) -> dict:
    """Bezout log law: commuting a1, a2 with u1 a1 + u2 a2 = e gives
    i(a1 a2) = i(a1) + i(a2)."""
    ops = [a1, a2, u1, u2]
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            left = op_arith(ops[i], ops[j], "mul")
            right = op_arith(ops[j], ops[i], "mul")
            if not op_equal(left, right):
                raise NotCommuting(f"operands {i} and {j} do not commute")
    bezout = op_arith(
        op_arith(u1, a1, "mul"), op_arith(u2, a2, "mul"), "add"
    )
    if not op_equal(bezout, identity_like(a1)):
        raise NotBezout("u1 a1 + u2 a2 is not the identity")
    reps = [_in_class(analyze(x)) for x in (a1, a2, op_arith(a1, a2, "mul"))]
    i1, i2, ip = (r.index_winding for r in reps)
    if ip != i1 + i2:
        raise OracleMismatch(f"i(a1 a2)={ip} but i(a1)+i(a2)={i1 + i2}")
    return {"i_a1": i1, "i_a2": i2, "i_product": ip, "routes": _routes(*reps)}


def verify_ideal_perturbation(
    a: BlockOperator, j: FiniteRankOperator, block_index: int = 0
) -> dict:
    """i(a + j) = i(a) for ideal j (Proposition ii shape)."""
    base = _in_class(analyze(a), "base operator is not in class")
    after = analyze(op_arith(a, embed_finite_rank(a, j, block_index), "add"))
    if after.classification == NOT_IN_CLASS:
        raise OracleMismatch("ideal perturbation left the class")
    if base.index_winding != after.index_winding:
        raise OracleMismatch(
            f"index moved under ideal perturbation: {base.index_winding} -> {after.index_winding}"
        )
    return {"index": base.index_winding, "classification": after.classification, "routes": _routes(base, after)}


def verify_power_law(a: BlockOperator, p: int) -> dict:
    """i(a^p) = p * i(a), both routes."""
    if p < 1:
        raise ValueError("power must be >= 1")
    ap = op_power(a, p)
    iw, iwp = _both_routes(a).index_winding, _both_routes(ap).index_winding
    if iwp != p * iw:
        raise OracleMismatch(f"winding: i(a^{p})={iwp} != {p}*{iw}")
    return {"index": iw, "power": p, "index_power": iwp}


def nonstability_demo() -> list[dict]:
    """T(z-1) is not in class, yet arbitrarily small scalar shifts are
    Fredholm: the class of B-Fredholm operators is not open."""
    base = toeplitz_operator(make_symbol(poly([-1, 1]), poly([1])))
    lams = [
        gr(0),
        gr(Fraction(1, 8)),
        gr(Fraction(-1, 8)),
        gr(0, Fraction(1, 8)),
        gr(Fraction(1, 16)),
        gr(Fraction(-1, 16)),
        gr(0, Fraction(-1, 16)),
        gr(Fraction(3, 40), Fraction(1, 10)),
    ]
    classes = _shifted_classes(base, lams)
    return [{"lambda": lam, "classification": c, "index": idx} for lam, (c, idx) in zip(lams, classes)]
