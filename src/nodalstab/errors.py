"""Exception types, the value-record base and the document type checks the package shares."""

# a record's constructor sets its fields with this, past its refusing __setattr__
_set = object.__setattr__


class Record:
    """Base of the package's value records: immutable, equal by value.

    A subclass names its fields in ``_fields``; ``==``, ``hash``, ``repr``
    and pickling read those fields and nothing else, so attributes a
    constructor derives stay out of them.  Records of different classes
    are never equal, and assigning or deleting any attribute raises
    AttributeError.  This base constructor builds every record that only
    stores its fields, taken by position or keyword; only a record that
    checks its input, or ``Window``, built on the hot path, defines its own.
    """

    __slots__ = ()
    _fields = ()

    def __init__(self, *args, **kwargs):
        names = self._fields
        values = dict(zip(names, args), **kwargs) if args else kwargs   # keywords as given
        if len(args) + len(kwargs) == len(names):
            try:
                for name in names:
                    _set(self, name, values[name])
                return
            except KeyError:   # a repeated or unknown field leaves a field missing
                pass
        raise TypeError(f"{type(self).__qualname__} takes "
                        + (f"the fields {', '.join(names)}" if names else "no fields"))

    def _key(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._key()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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


def _name(field, key):
    """The field of a refused item: the template ``field`` filled in with its key.
    The checks call it only as they raise, so no accepted item's name is built."""
    return field if field is None else field.format(key)


def _require(cond, message, field=None, key=None):
    if not cond:
        raise ParseError(message, field=_name(field, key))


def _int(value, field, key=None):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"expected an integer, got {value!r}", field=_name(field, key))
    return value


def _int_arg(value, name, least=None):
    """A library argument, once it is an int (a bool counts): 2.5 is refused, never truncated.
    A count passes ``least``, 0 or 1, and is refused below it."""
    if not isinstance(value, int):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise InvalidInput(f"{name} must be {'positive' if least else 'nonnegative'}")
    return value


# Every number a report or an error message prints is a sum or product of
# ranks, degrees, genus data, truncation orders and the weights' common
# denominator.  With each of those under 1000 digits, no printed integer
# comes near the interpreter's 4300-digit limit on int-to-string
# conversion, so no document can crash the output.
_MAX_DIGITS = 1000
_DIGIT_BOUND = 10 ** _MAX_DIGITS


def _small_int(value, field, key=None):
    if not -_DIGIT_BOUND < _int(value, field, key) < _DIGIT_BOUND:
        raise ParseError(f"integer has more than {_MAX_DIGITS} digits", field=_name(field, key))
    return value


def _id_map(obj, field):
    _require(isinstance(obj, dict), "expected an object keyed by component id", field)
    out = {}
    for k, v in obj.items():
        if not (isinstance(k, str) and k.isascii() and k.isdigit() and k[0] != "0"):
            raise ParseError(f"bad component id key {k!r}", field=field)
        try:
            out[int(k)] = v
        except ValueError:   # over the interpreter's digit limit, as for a JSON integer
            raise ParseError(f"a component id key has {len(k)} digits, too many for an integer",
                             field=field) from None
    return out


def _rational_text(value) -> str:
    """``str(value)``, or ValueError on exponent notation, which ``Fraction`` expands in full."""
    s = str(value)
    if "e" in s or "E" in s:
        raise ValueError(f"exponent notation is not accepted: {s!r}")
    return s


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
