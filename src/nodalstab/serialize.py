"""JSON document handling for every wire format the CLI speaks.

Rationals travel as lowest-terms strings ("3/2", or "3" when integral);
component-keyed maps use string keys.  Reports are emitted with sorted
keys and a fixed layout so identical inputs give byte-identical output.
"""

import json
from fractions import Fraction

from .curve import Component, Ordering, TreeLikeCurve
from .errors import InvalidInput, ParseError
from .fields import parse_field
from .gpb import GluingFlag
from .stability import Polarization
from .truncated import TruncatedMatrix, TruncatedScalar
from .twist import BundleClass, TwistDivisor


def frac_to_str(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def frac_from_str(s) -> Fraction:
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"not a rational number: {s!r}") from None


def _unique_keys(pairs) -> dict:
    obj = {}
    for k, v in pairs:
        _require(k not in obj, f"duplicate key {k!r}")
        obj[k] = v
    return obj


def read_json(path: str):
    """Parse a JSON file; a key repeated within one object is a ParseError."""
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


def dumps_report(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _require(cond, message, field=None):
    if not cond:
        raise ParseError(message, field=field)


def _int(value, field):
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"expected an integer, got {value!r}", field)
    return value


def _id_map(obj, field):
    _require(isinstance(obj, dict), "expected an object keyed by component id", field)
    out = {}
    for k, v in obj.items():
        _require(isinstance(k, str) and k.isascii() and k.isdigit() and k[0] != "0",
                 f"bad component id key {k!r}", field)
        out[int(k)] = v
    return out


def parse_curve(obj) -> TreeLikeCurve:
    _require(isinstance(obj, dict), "curve document must be an object")
    _require(isinstance(obj.get("components"), list), "missing components list", "components")
    comps = []
    for k, c in enumerate(obj["components"]):
        where = f"components[{k}]"
        _require(isinstance(c, dict), "component must be an object", where)
        comps.append(Component(
            id=_int(c.get("id"), where + ".id"),
            geometric_genus=_int(c.get("geometric_genus", 0), where + ".geometric_genus"),
            internal_nodes=_int(c.get("internal_nodes", 0), where + ".internal_nodes"),
        ))
    edges_obj = obj.get("edges", [])
    _require(isinstance(edges_obj, list), "edges must be a list", "edges")
    edges = []
    for k, e in enumerate(edges_obj):
        where = f"edges[{k}]"
        _require(isinstance(e, list) and len(e) == 2, "edge must be a pair", where)
        edges.append((_int(e[0], where), _int(e[1], where)))
    return TreeLikeCurve(components=tuple(comps), edges=tuple(edges))


def curve_to_obj(c: TreeLikeCurve) -> dict:
    return {
        "components": [{"id": comp.id,
                        "geometric_genus": comp.geometric_genus,
                        "internal_nodes": comp.internal_nodes}
                       for comp in c.components],
        "edges": [list(e) for e in c.edges],
    }


def parse_bundle(obj) -> BundleClass:
    _require(isinstance(obj, dict), "bundle document must be an object")
    rank = _int(obj.get("rank"), "rank")
    md = _id_map(obj.get("multidegree"), "multidegree")
    return BundleClass(rank=rank,
                       multidegree={i: _int(v, f"multidegree.{i}") for i, v in md.items()})


def bundle_to_obj(bc: BundleClass) -> dict:
    return {"rank": bc.rank,
            "multidegree": {str(i): d for i, d in sorted(bc.multidegree.items())}}


def parse_polarization(obj) -> Polarization:
    _require(isinstance(obj, dict), "polarization document must be an object")
    w = _id_map(obj.get("weights"), "weights")
    return Polarization(weights={i: frac_from_str(v) for i, v in w.items()})


def polarization_to_obj(pol: Polarization) -> dict:
    return {"weights": {str(i): frac_to_str(v) for i, v in sorted(pol.weights.items())}}


def parse_twist(obj) -> TwistDivisor:
    _require(isinstance(obj, dict), "twist document must be an object")
    coeffs = _id_map(obj.get("coeffs"), "coeffs")
    return TwistDivisor(coeffs={i: _int(v, f"coeffs.{i}") for i, v in coeffs.items()})


def twist_to_obj(t: TwistDivisor) -> dict:
    return {"coeffs": {str(i): a for i, a in sorted(t.coeffs.items())}}


def ordering_to_obj(o: Ordering) -> dict:
    return {
        "perm": list(o.perm),
        "nu": {str(i + 1): o.nu[i] for i in range(len(o.nu))},
        "G": {str(i + 1): sorted(o.g_sets[i]) for i in range(o.n)},
        "B": {str(i + 1): sorted(o.b_sets[i]) for i in range(o.n)},
        "boundary_nodes": {str(i): list(o.boundary_edge(i)) for i in range(1, o.n)},
    }


def parse_flag(obj) -> GluingFlag:
    _require(isinstance(obj, dict), "flag document must be an object")
    _require(isinstance(obj.get("field"), str), "missing field descriptor", "field")
    field = parse_field(obj["field"])
    rows = obj.get("basis_matrix")
    _require(isinstance(rows, list) and rows, "missing basis_matrix", "basis_matrix")
    for row in rows:
        _require(isinstance(row, list), "basis_matrix rows must be arrays", "basis_matrix")
        for x in row:
            _require(isinstance(x, (str, int)) and not isinstance(x, bool),
                     f"flag entries must be strings or integers, got {x!r}", "basis_matrix")
    try:
        parsed = [[field.parse(x) for x in row] for row in rows]
    except ValueError:
        raise ParseError("flag entries must be field-element strings",
                         field="basis_matrix") from None
    except ZeroDivisionError:
        raise ParseError("flag entries must not have a zero denominator",
                         field="basis_matrix") from None
    return GluingFlag(field=field, rank=len(parsed), basis_matrix=parsed)


def flag_to_obj(flag: GluingFlag) -> dict:
    return {"field": flag.field.name,
            "basis_matrix": [[flag.field.format(x) for x in row]
                             for row in flag.basis_matrix]}


def parse_int_matrix(obj, field="matrix") -> list:
    _require(isinstance(obj, list) and obj, "matrix must be a nonempty array", field)
    rows = []
    for k, row in enumerate(obj):
        _require(isinstance(row, list) and len(row) == len(obj),
                 "matrix must be square", f"{field}[{k}]")
        rows.append([_int(x, f"{field}[{k}]") for x in row])
    return rows


def parse_truncated_matrix(obj) -> TruncatedMatrix:
    """Matrix document: {"field": "F5", "n": 1, "entries": [[[c0, c1], ...], ...]}."""
    _require(isinstance(obj, dict), "truncated matrix document must be an object")
    _require(isinstance(obj.get("field"), str), "missing field descriptor", "field")
    field = parse_field(obj["field"])
    _require(hasattr(field, "p"), "truncated rings need a prime field", "field")
    p = field.p
    n = _int(obj.get("n"), "n")
    entries = obj.get("entries")
    _require(isinstance(entries, list) and entries, "missing entries array", "entries")
    rows = []
    for i, row in enumerate(entries):
        _require(isinstance(row, list) and len(row) == len(entries),
                 "entries must form a square matrix", f"entries[{i}]")
        cells = []
        for j, coeffs in enumerate(row):
            _require(isinstance(coeffs, list),
                     "each entry is a coefficient vector", f"entries[{i}][{j}]")
            cells.append(TruncatedScalar(p, n, [
                _int(x, f"entries[{i}][{j}]") for x in coeffs]))
        rows.append(tuple(cells))
    return TruncatedMatrix(p=p, n=n, entries=tuple(rows))


def _parse_torsor(obj):
    """Torsor document: {"cocycle": [truncated matrix, ...], "gammas": [[c0, ..., cn], ...]}.

    Returns (cocycle, gammas); each gamma is a coefficient vector in the
    ring of the first cocycle matrix.
    """
    if not isinstance(obj, dict) or "cocycle" not in obj or "gammas" not in obj:
        raise InvalidInput("torsor document needs cocycle and gammas")
    _require(isinstance(obj["cocycle"], list), "cocycle must be an array", "cocycle")
    cocycle = [parse_truncated_matrix(m) for m in obj["cocycle"]]
    if not cocycle:
        raise InvalidInput("torsor document needs a nonempty cocycle")
    _require(isinstance(obj["gammas"], list), "gammas must be an array", "gammas")
    p, n = cocycle[0].p, cocycle[0].n
    gammas = []
    for k, g in enumerate(obj["gammas"]):
        _require(isinstance(g, list), "each gamma is a coefficient vector", f"gammas[{k}]")
        gammas.append(TruncatedScalar(p, n, [_int(x, f"gammas[{k}]") for x in g]))
    return cocycle, gammas


def truncated_scalar_to_obj(x: TruncatedScalar) -> list:
    return list(x.coeffs)


def truncated_matrix_to_obj(m: TruncatedMatrix) -> dict:
    return {"field": f"F{m.p}", "n": m.n,
            "entries": [[list(x.coeffs) for x in row] for row in m.entries]}
