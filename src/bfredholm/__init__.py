"""Exact-arithmetic workbench for B-Fredholm index theory.

Block operators (Toeplitz with rational Q(i) symbols plus finite-rank
corrections on l2(N), direct-summed with finite matrix blocks) with the
index computed two independent ways: the trace of the commutator
against a Drazin witness, and minus the sum of symbol winding numbers.
"""

from .scalars import GaussianRational, gr, format_scalar
from .poly import Polynomial, poly
from .rootloc import count_zeros_in_disk, has_zero_on_circle
from .sequences import (
    RationalSequence,
    make_sequence,
    pairing,
    seq_basis,
    seq_finite,
    seq_geo,
)
from .finiterank import (
    FiniteRankOperator,
    fr_entry,
    fr_equal,
    fr_is_zero,
    make_finite_rank,
    outer,
    trace,
)
from .matrices import ExactMatrix, drazin, matrix, rank, spectral_trace_check
from .symbols import (
    CircleSplit,
    RationalSymbol,
    fourier_coeff,
    invert_symbol,
    make_factored,
    make_symbol,
    sym_arith,
    winding_number,
)
from .operators import (
    BlockOperator,
    MatrixBlock,
    ToeplitzBlock,
    direct_sum,
    hankel_defect,
    matrix_operator,
    op_arith,
    op_entry,
    op_equal,
    scalar_shift,
    toeplitz_operator,
)
from .engine import (
    DrazinWitness,
    IndexReport,
    analyze,
    classify,
    drazin_witness,
    index_trace,
    index_winding,
    punctured_scan,
    verify_fedosov,
    verify_ideal_perturbation,
    verify_log_law,
    verify_power_law,
    verify_well_defined,
)
from .dsl import evaluate, parse, parse_scalar, pretty

__version__ = "0.1.0"

__all__ = [
    "GaussianRational", "gr", "format_scalar", "parse_scalar",
    "Polynomial", "poly",
    "count_zeros_in_disk", "has_zero_on_circle",
    "RationalSequence", "make_sequence", "pairing", "seq_basis", "seq_finite", "seq_geo",
    "FiniteRankOperator", "fr_entry", "fr_equal", "fr_is_zero",
    "make_finite_rank", "outer", "trace",
    "ExactMatrix", "drazin", "matrix", "rank", "spectral_trace_check",
    "CircleSplit", "RationalSymbol", "fourier_coeff", "invert_symbol",
    "make_factored", "make_symbol", "sym_arith", "winding_number",
    "BlockOperator", "MatrixBlock", "ToeplitzBlock", "direct_sum",
    "hankel_defect", "matrix_operator", "op_arith", "op_entry", "op_equal",
    "scalar_shift", "toeplitz_operator",
    "DrazinWitness", "IndexReport", "analyze", "classify", "drazin_witness",
    "index_trace", "index_winding", "punctured_scan", "verify_fedosov",
    "verify_ideal_perturbation", "verify_log_law", "verify_power_law",
    "verify_well_defined",
    "evaluate", "parse", "pretty",
    "__version__",
]
