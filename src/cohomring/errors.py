"""Exception hierarchy.

Everything raised on bad mathematical input derives from AlgebraError, so the
command line can map "domain problem" to one exit code and keep genuine bugs
(plain Python exceptions) loud.
"""


class AlgebraError(Exception):
    """Base for all domain errors raised by this package."""


class InvalidModulusError(AlgebraError):
    """Modulus smaller than 2."""


class IndexMismatchError(AlgebraError):
    """Operands indexed by different monoids or with different coefficients."""


class NotNatIndexedError(AlgebraError):
    """Dense conversion asked for on a sum not indexed by the naturals."""


class ArityMismatchError(AlgebraError):
    """Exponent vectors of different lengths."""


class ZeroInputError(AlgebraError):
    """An operand that must be nonzero was zero."""


class ZeroPolynomialError(AlgebraError):
    """Degree or leading coefficient requested for the zero polynomial."""


class NonInvertibleLeadError(AlgebraError):
    """Leading coefficient is not a unit, so division cannot proceed."""


class ModeMismatchError(AlgebraError):
    """Operation not defined for this rewrite-basis mode."""


class DegreeBoundExceededError(AlgebraError):
    """Completion produced a generator past the configured degree bound."""


class BasisMismatchError(AlgebraError):
    """Quotient elements over different rewrite bases."""


class NotConfluentError(AlgebraError):
    """Rewrite basis does not define unique normal forms."""


class UnsupportedPairError(AlgebraError):
    """No catalog entry for this space/coefficient combination."""


class SearchSpaceTooLargeError(AlgebraError):
    """Isomorphism search would exceed the configured candidate bound."""


class NotFiniteError(AlgebraError):
    """Isomorphism search needs finite prime-field coefficients."""


class UnknownVariableError(AlgebraError):
    """Expression uses a variable that was not declared."""


class NumberTooLargeError(AlgebraError):
    """An integer with more decimal digits than the interpreter converts to or from text."""


class ConfigError(AlgebraError):
    """Command configuration is unusable."""


class ParseError(AlgebraError):
    """Syntax error in a polynomial expression, with its position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
