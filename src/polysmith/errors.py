"""Exception types shared across the package."""


class PolysmithError(Exception):
    """Base class for all library errors."""


class PadTooSmall(PolysmithError):
    """A requested padding degree is below the actual degree."""


class DimensionMismatch(PolysmithError):
    """Operands or parameter vectors have incompatible shapes."""


class DegreeBoundViolation(PolysmithError):
    """A declared degree bound is below the actual degree of a polynomial."""


class RankDeficientInput(PolysmithError):
    """An operation requiring full rank received a rank-deficient input."""


class DegreeTooLarge(PolysmithError):
    """A requested common-divisor degree exceeds what the inputs allow."""


class LinearSolveFailure(PolysmithError):
    """A regularized normal-equations solve failed."""


class UnattainableProblem(PolysmithError):
    """The requested minimum is an infimum at infinity; solve reversed_problem(problem)."""


class ParseError(PolysmithError):
    """An input document could not be parsed."""


class ValidationError(PolysmithError):
    """An input document parsed but violates a structural requirement."""
