"""JSON plumbing that every subcommand shares: reading a document, writing
a report, and the type checks the document parsers are built from.

Each document's parser and encoder lives with the model it builds:
``curve``, ``twist``, ``stability``, ``gpb`` and ``truncated``.  So this
module imports nothing from the package but ``errors``, and a subcommand
compiles only its own half's codecs.  Component-keyed maps use string
keys.  Reports are emitted with sorted keys and a fixed layout so
identical inputs give byte-identical output.
"""

import json
from itertools import islice

from .errors import ParseError


def _unique_keys(pairs) -> dict:
    obj = {}
    for k, v in pairs:
        _require(k not in obj, f"duplicate key {k!r}")
        obj[k] = v
    return obj


def read_json(path: str):
    """Parse a JSON file; a key repeated within one object, or nesting
    deeper than the interpreter's recursion limit, is a ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not UTF-8 text: bad byte at offset {e.start}") from None
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON in {path}: {e.msg}", line=e.lineno) from None
    except ValueError:   # an integer literal over the interpreter's digit limit
        raise ParseError(f"invalid JSON in {path}: a number has too many digits") from None
    except RecursionError:   # arrays or objects nested past the interpreter's limit
        raise ParseError(f"invalid JSON in {path}: JSON nesting is too deep") from None


def dumps_report(obj, fh) -> None:
    """Write ``json.dumps(obj, sort_keys=True, indent=2)`` and a newline to fh.

    The encoder's chunks are joined and written 2^16 at a time (a write per
    chunk is slower), so a report of any size never exists as one string.
    """
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(obj)
    while block := list(islice(chunks, 1 << 16)):
        fh.write("".join(block))
    fh.write("\n")


def _require(cond, message, field=None):
    if not cond:
        raise ParseError(message, field=field)


def _int(value, field):
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"expected an integer, got {value!r}", field)
    return value


# Every number a report or an error message prints is a sum or product of
# ranks, degrees, genus data, truncation orders and the weights' common
# denominator.  With each of those under 1000 digits, no printed integer
# comes near the interpreter's 4300-digit limit on int-to-string
# conversion, so no document can crash the output.
_MAX_DIGITS = 1000
_DIGIT_BOUND = 10 ** _MAX_DIGITS


def _small_int(value, field):
    _require(-_DIGIT_BOUND < _int(value, field) < _DIGIT_BOUND,
             f"integer has more than {_MAX_DIGITS} digits", field)
    return value


def _id_map(obj, field):
    _require(isinstance(obj, dict), "expected an object keyed by component id", field)
    out = {}
    for k, v in obj.items():
        _require(isinstance(k, str) and k.isascii() and k.isdigit() and k[0] != "0",
                 f"bad component id key {k!r}", field)
        try:
            out[int(k)] = v
        except ValueError:   # over the interpreter's digit limit, as for a JSON integer
            raise ParseError(f"a component id key has {len(k)} digits, too many for an integer",
                             field=field) from None
    return out
