"""Multidegree arithmetic: Euler characteristics, intersection numbers,
and the twist action of fibral divisors on bundle classes.

All components carry the same rank r.  The Euler characteristic of a
class on one component is d_i + r(1 - rho_a); the total over the curve
corrects by r for each of the N - 1 connecting nodes.  Twisting by an
integer combination of components moves degree through the intersection
matrix of the dual tree and never changes the total.
"""

from .curve import TreeLikeCurve
from .errors import (DocumentMismatch, EmptySubcurve, IndexOutOfRange, InvalidInput, Record,
                     _id_map, _int_arg, _require, _set, _small_int)


def _id_values(mapping, owner: str, what: str, kinds=int) -> dict:
    """The mapping, once it is a dict whose values are all ``kinds``: ints,
    or ints and Fractions (2.5 is refused, never truncated)."""
    if not isinstance(mapping, dict):
        raise InvalidInput(
            f"{owner} needs a dict keyed by component id, got {type(mapping).__name__}")
    for k, v in mapping.items():
        if not isinstance(v, kinds):
            raise InvalidInput(f"{what} of component {k!r} must be "
                               f"{'an integer' if kinds is int else 'an int or a Fraction'}, "
                               f"got {v!r}")
    return mapping


class BundleClass(Record):
    """Numerical class of a locally free sheaf: rank plus per-component degrees."""

    __slots__ = _fields = ("rank", "multidegree")

    def __init__(self, rank: int, multidegree: dict):
        _set(self, "rank", _int_arg(rank, "rank", 1))
        _set(self, "multidegree", _id_values(multidegree, "BundleClass", "the degree"))

    @property
    def total_degree(self) -> int:
        return sum(self.multidegree.values())


def parse_bundle(obj) -> BundleClass:
    """Bundle document: {"rank": 2, "multidegree": {"1": 5, ...}}."""
    _require(isinstance(obj, dict), "bundle document must be an object")
    rank = _small_int(obj.get("rank"), "rank")
    md = _id_map(obj.get("multidegree"), "multidegree")
    for i, d in md.items():
        _small_int(d, "multidegree.{}", i)
    return BundleClass(rank=rank, multidegree=md)


def bundle_to_obj(bc: BundleClass) -> dict:
    return {"rank": bc.rank,
            "multidegree": {str(i): d for i, d in sorted(bc.multidegree.items())}}


class TwistDivisor(Record):
    """Integer coefficients of a fibral divisor, keyed by component id."""

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: dict):
        _set(self, "coeffs", _id_values(coeffs, "TwistDivisor", "the twist coefficient"))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs.values())


def require_match(c: TreeLikeCurve, mapping: dict, what: str) -> None:
    if mapping.keys() != c._index.keys():
        raise DocumentMismatch(f"{what} keys do not match the curve's component ids")


def intersection(c: TreeLikeCurve, i: int, j: int) -> int:
    """Intersection number of components i and j on the ambient surface.

    Distinct components meet with multiplicity 1 exactly when they share
    a node; the self-intersection is minus the vertex degree, so every
    row of the matrix sums to zero.
    """
    c.require_valid()
    c.component(i)
    c.component(j)
    if i == j:
        return -c.degree(i)
    return 1 if (i, j) in c.simple_edges or (j, i) in c.simple_edges else 0


def intersection_matrix(c: TreeLikeCurve) -> dict:
    """Full intersection matrix as a nested dict keyed by component ids."""
    c.require_valid()
    ids, edges = c.ids, c.simple_edges
    return {i: {j: -c.degree(i) if i == j else 1 if (i, j) in edges or (j, i) in edges else 0
                for j in ids}
            for i in ids}


def _chi(degrees, rank: int, genera) -> list:
    """Riemann-Roch on each component: d_i + r(1 - p_a(i)), for paired
    degrees and arithmetic genera; the caller checks."""
    return [d + rank * (1 - g) for d, g in zip(degrees, genera)]


def euler_char_component(c: TreeLikeCurve, bc: BundleClass, i: int) -> int:
    """chi of the class restricted to component i (Riemann-Roch)."""
    c.require_valid()
    require_match(c, bc.multidegree, "multidegree")
    genus = c.component(i).arithmetic_genus   # an unknown id raises before the degree is read
    return _chi((bc.multidegree[i],), bc.rank, (genus,))[0]


def euler_char_total(c: TreeLikeCurve, bc: BundleClass) -> int:
    """chi on the whole curve: component sum minus r per connecting node."""
    c.require_valid()
    require_match(c, bc.multidegree, "multidegree")
    total = sum(_chi(map(bc.multidegree.__getitem__, c.ids), bc.rank, c._genus))
    return total - bc.rank * (len(c.ids) - 1)


def twist(c: TreeLikeCurve, bc: BundleClass, t: TwistDivisor) -> BundleClass:
    """Twist the class by the fibral divisor with the given coefficients.

    Each degree moves by r times the pairing of the divisor with that
    component, the sum of a_j - a_i over its neighbors j: across each node
    {i, j}, r(a_j - a_i) moves from component j to component i.  Rank,
    total degree, and total chi are all preserved.
    """
    c.require_valid()
    require_match(c, bc.multidegree, "multidegree")
    require_match(c, t.coeffs, "twist coefficients")
    return _twist(c, bc, t)


def _twist(c: TreeLikeCurve, bc: BundleClass, t: TwistDivisor) -> BundleClass:
    """``twist`` on a valid curve whose ids key both maps; the caller checks."""
    ids, r = c.ids, bc.rank
    new = list(map(bc.multidegree.__getitem__, ids))
    a = list(map(t.coeffs.__getitem__, ids))
    for x, y in c._edges:
        moved = r * (a[y] - a[x])
        new[x] += moved
        new[y] -= moved
    return BundleClass(rank=r, multidegree=dict(zip(ids, new)))


def chi_subcurve_sum(c: TreeLikeCurve, bc: BundleClass, subcurve) -> int:
    """Sum of the componentwise chi over a set of components.

    No node correction is applied: this is the quantity the
    semistability windows bound, not chi of the subcurve.
    """
    ids = set()
    for i in subcurve:
        if not isinstance(i, int):   # 1.0 would find id 1
            raise IndexOutOfRange(f"subcurve ids must be integers, got {i!r}")
        ids.add(i)
    if not ids:
        raise EmptySubcurve("subcurve must contain at least one component")
    unknown = ids - c._index.keys()
    if unknown:
        raise IndexOutOfRange(f"unknown component ids in subcurve: {sorted(unknown)}")
    c.require_valid()
    require_match(c, bc.multidegree, "multidegree")
    genus, index = c._genus, c._index
    return sum(_chi([bc.multidegree[i] for i in ids], bc.rank, [genus[index[i]] for i in ids]))
