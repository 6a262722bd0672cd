"""The command line's JSON I/O: reading a document and writing a report.

Only ``cli`` imports this module, so no model loads ``json``; each
document's parser lives with its model, on the type checks in ``errors``.
Reports have sorted keys and a fixed layout, so identical inputs give
byte-identical output.
"""

import json
from itertools import islice

from .errors import ParseError, _require


def _unique_keys(pairs) -> dict:
    """The object of a list of key-value pairs; only when a key repeats are
    the keys walked again, to name the first one that does."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for k, _ in pairs:
            _require(k not in seen, f"duplicate key {k!r}")
            seen.add(k)
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
