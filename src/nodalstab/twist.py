"""Multidegree arithmetic: Euler characteristics, intersection numbers,
and the twist action of fibral divisors on bundle classes.

All components carry the same rank r.  The Euler characteristic of a
class on one component is d_i + r(1 - rho_a); the total over the curve
corrects by r for each of the N - 1 connecting nodes.  Twisting by an
integer combination of components moves degree through the intersection
matrix of the dual tree and never changes the total.
"""

from dataclasses import dataclass

from .curve import TreeLikeCurve
from .errors import DocumentMismatch, EmptySubcurve, IndexOutOfRange, InvalidInput


@dataclass(frozen=True)
class BundleClass:
    """Numerical class of a locally free sheaf: rank plus per-component degrees."""

    rank: int
    multidegree: dict

    def __post_init__(self):
        if self.rank < 1:
            raise InvalidInput("rank must be a positive integer")

    @property
    def total_degree(self) -> int:
        return sum(self.multidegree.values())


@dataclass(frozen=True)
class TwistDivisor:
    """Integer coefficients of a fibral divisor, keyed by component id."""

    coeffs: dict

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs.values())


def require_match(c: TreeLikeCurve, mapping: dict, what: str) -> None:
    if set(mapping) != set(c.ids):
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
    return 1 if j in c.neighbors[i] else 0


def intersection_matrix(c: TreeLikeCurve) -> dict:
    """Full intersection matrix as a nested dict keyed by component ids."""
    c.require_valid()
    return {i: {j: (-c.degree(i) if i == j else (1 if j in c.neighbors[i] else 0))
                for j in c.ids}
            for i in c.ids}


def _chi(comp, bc: BundleClass) -> int:
    """Riemann-Roch on one component: d_i + r(1 - p_a); the caller checks."""
    return bc.multidegree[comp.id] + bc.rank * (1 - comp.arithmetic_genus)


def euler_char_component(c: TreeLikeCurve, bc: BundleClass, i: int) -> int:
    """chi of the class restricted to component i (Riemann-Roch)."""
    c.require_valid()
    require_match(c, bc.multidegree, "multidegree")
    return _chi(c.component(i), bc)


def euler_char_total(c: TreeLikeCurve, bc: BundleClass) -> int:
    """chi on the whole curve: component sum minus r per connecting node."""
    c.require_valid()
    require_match(c, bc.multidegree, "multidegree")
    total = sum(_chi(comp, bc) for comp in c.components)
    return total - bc.rank * (len(c.components) - 1)


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
    r, a = bc.rank, t.coeffs
    new = {i: bc.multidegree[i] for i in c.ids}
    for i, j in c.simple_edges:
        moved = r * (a[j] - a[i])
        new[i] += moved
        new[j] -= moved
    return BundleClass(rank=r, multidegree=new)


def chi_subcurve_sum(c: TreeLikeCurve, bc: BundleClass, subcurve) -> int:
    """Sum of the componentwise chi over a set of components.

    No node correction is applied: this is the quantity the
    semistability windows bound, not chi of the subcurve.
    """
    ids = set(subcurve)
    if not ids:
        raise EmptySubcurve("subcurve must contain at least one component")
    unknown = ids - set(c.ids)
    if unknown:
        raise IndexOutOfRange(f"unknown component ids in subcurve: {sorted(unknown)}")
    c.require_valid()
    require_match(c, bc.multidegree, "multidegree")
    return sum(_chi(c.component(i), bc) for i in ids)
