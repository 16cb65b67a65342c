"""Exception types shared across the package."""


class ExactError(Exception):
    """Base class for every error raised by this library."""


class DivisionByZero(ExactError):
    pass


class ZeroPolynomial(ExactError):
    pass


class ZeroOnCircle(ExactError):
    pass


class PoleOnCircle(ExactError):
    pass


class FactorOnCircle(ExactError):
    pass


class ZeroDenominator(ExactError):
    pass


class ZeroSymbol(ExactError):
    pass


class MissingSplit(ExactError):
    pass


class NotSquare(ExactError):
    pass


class SignatureMismatch(ExactError):
    pass


class IndexOutOfRange(ExactError):
    pass


class NotBFredholm(ExactError):
    pass


class BadScanGrid(ExactError):
    """A punctured scan needs radii > 0 and 1 <= directions <= len(SCAN_DIRECTIONS)."""


class BudgetExceeded(ExactError):
    """An input is over one of the input budgets, named in the message."""

    def __init__(self, what: str, value: int, budget: str, bound: int):
        super().__init__(f"{what} {value} is over the input budget {budget} = {bound}")


class NonIntegerTrace(ExactError):
    """Internal consistency failure: the commutator trace must be an integer."""


class NotCommuting(ExactError):
    pass


class NotBezout(ExactError):
    pass


class OracleMismatch(ExactError):
    """Two independent computation routes disagreed."""


class ParseError(ExactError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at {line}:{col}")
        self.message = message
        self.line = line
        self.col = col
