"""Exception types shared across the package."""


class M3DecompError(Exception):
    """Base class for all package errors."""


class DomainMismatch(M3DecompError):
    """Polynomials from different rings meet, or a value is no exact scalar."""


class MissingVariable(M3DecompError):
    """An evaluation point does not cover every variable of a polynomial."""


class ParseError(M3DecompError):
    """Polynomial text does not conform to the grammar."""

    def __init__(self, message, line=1, column=0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


class SchemaError(M3DecompError):
    """A catalog record is missing or misuses a field."""

    def __init__(self, field, message=""):
        super().__init__(f"field {field!r}: {message}" if message else f"field {field!r}")
        self.field = field


class UndecidedPivot(M3DecompError):
    """Exact elimination hit a pivot candidate whose nonvanishing is not
    implied by the active constraint set.  The caller must split cases or
    supply more constraints."""

    def __init__(self, candidates):
        self.candidates = tuple(candidates)
        super().__init__(
            "no certified pivot among nonzero entries: "
            + ", ".join(str(c) for c in self.candidates[:4])
        )


class SingularMatrix(M3DecompError):
    """A matrix required to be invertible is singular (or not certifiably
    invertible under the active constraints)."""


class NotDirectSum(M3DecompError):
    """The two subspaces do not span the matrix space directly."""


class ConstraintViolated(M3DecompError):
    """A parameter assignment violates a declared side condition."""

    def __init__(self, polynomial):
        self.polynomial = polynomial
        super().__init__(f"constraint violated: {polynomial} must not vanish")


class DimensionMismatch(M3DecompError):
    """Operand has the wrong dimension for this operation."""


class NotSupported(M3DecompError):
    """Input is outside the supported range of an exact algorithm."""


class PatternMismatch(M3DecompError):
    """A generator pattern is malformed: its pivot parts do not complete the
    complement to a basis of the full matrix space."""


class BudgetExceeded(M3DecompError):
    """A finite-field search exceeded its configured size budget."""


class GroupMismatch(M3DecompError):
    """A group generator fails to preserve the fixed complement."""


class SoundnessError(M3DecompError):
    """An exact computation produced a result that fails its own check (an
    idempotent that does not square to itself, a product outside the span),
    which for a subalgebra cannot happen: the input span is not closed."""
