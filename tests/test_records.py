"""The library's immutable records: repr, typed equality and hash,
immutability, pickling and copying, construction, defaults and checks.

The reprs are pinned strings in the ``Name(field=value, ...)`` form.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from bfredholm.engine import DrazinWitness, IndexReport, ScanReport, ScanRow
from bfredholm.errors import ExactError, NotSquare
from bfredholm.finiterank import FR_ZERO, FiniteRankOperator
from bfredholm.matrices import ExactMatrix
from bfredholm.operators import BlockOperator, MatrixBlock, ToeplitzBlock
from bfredholm.poly import poly
from bfredholm.scalars import gr
from bfredholm.sequences import SEQ_ZERO, RationalSequence, seq_basis, seq_geo
from bfredholm.symbols import ZERO_SYMBOL, CircleSplit, LaurentExpansion, make_symbol

HALF, THIRD, EIGHTH = Fraction(1, 2), Fraction(1, 3), Fraction(1, 8)
SEQ = RationalSequence((gr(1),), ((gr(THIRD), poly([gr(-1), gr(2)])),))
FR = FiniteRankOperator(((seq_basis(1), seq_geo(gr(HALF))),))
SYM = make_symbol(poly([gr(-HALF), gr(1)]), poly([gr(1)]))
MAT = ExactMatrix(2, 2, (gr(0), gr(1), gr(0), gr(0)))
TB = ToeplitzBlock(SYM, FR)
MB = MatrixBlock(MAT)
OP = BlockOperator((TB, MB))
ROW = ScanRow(gr(EIGHTH), EIGHTH, "Fredholm", -1)

_SYM = (
    "RationalSymbol(num=Polynomial(coeffs=(GR(-1/2), GR(1))), den=Polynomial(coeffs=(GR(1),)), shift=0, "
    "split=CircleSplit(zeros=((GR(1/2), 1),), poles=()))"
)
_SEQ = "RationalSequence(head=(GR(1),), tails=((GR(1/3), Polynomial(coeffs=(GR(-1), GR(2)))),))"
_FR = (
    "FiniteRankOperator(terms=((RationalSequence(head=(GR(0), GR(1)), tails=()), "
    "RationalSequence(head=(), tails=((GR(1/2), Polynomial(coeffs=(GR(1),))),))),))"
)
_MAT = "ExactMatrix(rows=2, cols=2, entries=(GR(0), GR(1), GR(0), GR(0)))"
_TB = f"ToeplitzBlock(symbol={_SYM}, correction={_FR})"
_MB = f"MatrixBlock(m={_MAT})"
_OP = f"BlockOperator(blocks=({_TB}, {_MB}))"
_ROW = "ScanRow(lam=GR(1/8), radius=Fraction(1, 8), classification='Fredholm', index=-1)"

# (class, field values in order, pinned repr)
CASES = [
    (CircleSplit, (((gr(HALF), 1),), ((gr(3), 2),)),
     "CircleSplit(zeros=((GR(1/2), 1),), poles=((GR(3), 2),))"),
    (LaurentExpansion, (SEQ, SEQ_ZERO),
     f"LaurentExpansion(pos={_SEQ}, neg=RationalSequence(head=(), tails=()))"),
    (RationalSequence, (SEQ.head, SEQ.tails), _SEQ),
    (FiniteRankOperator, (FR.terms,), _FR),
    (ExactMatrix, (2, 2, MAT.entries), _MAT),
    (ToeplitzBlock, (SYM, FR), _TB),
    (MatrixBlock, (MAT,), _MB),
    (BlockOperator, ((TB, MB),), _OP),
    (DrazinWitness, (OP, 2, ((ZERO_SYMBOL,),)),
     f"DrazinWitness(inverse={_OP}, quotient_index=2, defects=((RationalSymbol(num=Polynomial(coeffs=()), "
     "den=Polynomial(coeffs=(GR(1),)), shift=0, split=None),),))"),
    (IndexReport, ("Fredholm", -1, -1, 2, ("a note",), True),
     "IndexReport(classification='Fredholm', index_trace=-1, index_winding=-1, quotient_index=2, "
     "pathway_notes=('a note',), defects_in_ideal=True)"),
    (ScanRow, (gr(EIGHTH), EIGHTH, "Fredholm", -1), _ROW),
    (ScanReport, ("Fredholm", -1, (ROW,), EIGHTH),
     f"ScanReport(base_classification='Fredholm', base_index=-1, rows=({_ROW},), stable_radius=Fraction(1, 8))"),
]
IDS = [c[0].__name__ for c in CASES]


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_repr_is_pinned(cls, values, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, values, text):
    names = cls.__slots__
    assert len(names) == len(values)
    by_keyword = cls(**dict(zip(names, values)))
    assert by_keyword == cls(*values)
    assert tuple(getattr(by_keyword, n) for n in names) == values


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_equality_is_typed_and_equal_records_hash_alike(cls, values, text):
    x, y = cls(*values), cls(*values)
    assert x == y and not x != y
    assert hash(x) == hash(y)
    assert x != values
    other_cls, other_values, _ = CASES[(IDS.index(cls.__name__) + 1) % len(CASES)]
    assert x != other_cls(*other_values)


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_assignment_and_deletion_raise(cls, values, text):
    x = cls(*values)
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert repr(x) == text


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_pickle_and_copy_round_trip(cls, values, text):
    x = cls(*values)
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(y) is cls
        assert y == x
        assert repr(y) == text


def test_defaults():
    assert ToeplitzBlock(SYM).correction == FR_ZERO
    assert ToeplitzBlock(SYM) == ToeplitzBlock(symbol=SYM, correction=FR_ZERO)
    report = IndexReport("NotInClass", None, None, None, ("no index: not in class",))
    assert report.defects_in_ideal is None


def test_exact_matrix_checks_its_entry_count():
    with pytest.raises(ExactError, match="entry count does not match the shape"):
        ExactMatrix(2, 2, (gr(1),))
    with pytest.raises(ExactError):
        ExactMatrix(rows=1, cols=2, entries=())


def test_matrix_block_checks_that_its_matrix_is_square():
    with pytest.raises(NotSquare):
        MatrixBlock(ExactMatrix(1, 2, (gr(1), gr(2))))
    with pytest.raises(NotSquare):
        MatrixBlock(m=ExactMatrix(2, 1, (gr(1), gr(2))))


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_a_name_that_is_not_a_field_cannot_be_set(cls, values, text):
    x = cls(*values)
    with pytest.raises(AttributeError):
        x.extra = 1
    with pytest.raises(AttributeError):
        del x.extra
