"""Exception types shared across the package."""


class NodalStabError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(NodalStabError):
    """Input data violates a documented contract."""


class ParseError(InvalidInput):
    """A JSON document failed to parse or validate.

    Carries optional ``field`` (dotted path into the document) and
    ``line`` (source line for syntax errors) diagnostics.
    """

    def __init__(self, message, field=None, line=None):
        self.field = field
        self.line = line
        parts = [message]
        if field is not None:
            parts.append(f"field={field}")
        if line is not None:
            parts.append(f"line={line}")
        super().__init__("; ".join(parts))


class DocumentMismatch(InvalidInput):
    """Two documents that must refer to the same curve do not."""


# curve validation codes, also raised when an operation needs a valid curve
class CycleDetected(InvalidInput):
    """The dual graph contains a loop or cycle."""


class Disconnected(InvalidInput):
    """The dual graph is not connected."""


class MultiEdge(InvalidInput):
    """Two components meet in more than one node."""


class IndexOutOfRange(InvalidInput):
    """A component id or order index does not exist."""


class EmptySubcurve(InvalidInput):
    """A subcurve argument must contain at least one component."""


class WrongArity(InvalidInput):
    """Operation only defined for irreducible curves (N = 1)."""


class OrderingMismatch(InvalidInput):
    """An Ordering does not belong to the given curve."""


class ZeroMultirank(InvalidInput):
    """A subobject multirank must be nonzero somewhere."""


class PreconditionViolated(NodalStabError):
    """A balancing step was invoked out of order."""


class InvariantViolated(NodalStabError):
    """An internal consistency check failed: a defect, not bad input."""


class DimensionBound(InvalidInput):
    """A flag dimension exceeds the subbundle rank."""


class DegreeBound(InvalidInput):
    """The splitting-degree bound r*a <= d fails."""


class SingularProjection(NodalStabError):
    """The node projection of the standard gluing flag is singular over
    the chosen field (happens exactly when char k divides r - 1)."""


class NoRoot(NodalStabError):
    """The field contains no r-th root of the given scalar."""


class NotUnit(InvalidInput):
    """A truncated scalar with zero constant term is not a unit."""
