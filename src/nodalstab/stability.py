"""Slope, Seshadri, Gieseker, and window semistability checks.

All comparisons are exact rational arithmetic; the per-index windows
have width exactly the rank, so endpoint ties are meaningful and no
floating point is allowed anywhere.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .curve import Ordering, TreeLikeCurve, verify_ordering
from .errors import (
    DocumentMismatch,
    InvalidInput,
    WrongArity,
    ZeroMultirank,
)
from .twist import BundleClass, _chi, euler_char_total, require_match


@dataclass(frozen=True)
class Polarization:
    """Positive rational weights on the components, summing to exactly 1."""

    weights: dict

    def __post_init__(self):
        w = {i: Fraction(v) for i, v in self.weights.items()}
        if any(v <= 0 for v in w.values()):
            raise InvalidInput("polarization weights must be strictly positive")
        if sum(w.values()) != 1:
            raise InvalidInput("polarization weights must sum to exactly 1")
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class AmpleDegrees:
    """Positive integer degrees of a fixed ample class on each component."""

    degrees: dict

    def __post_init__(self):
        if any(int(v) < 1 for v in self.degrees.values()):
            raise InvalidInput("ample degrees must be positive integers")


@dataclass(frozen=True)
class IndexVerdict:
    """One window inequality: lower <= value <= upper (upper = lower + rank)."""

    i: int
    component: int
    g_components: tuple
    lower: Fraction
    upper: Fraction
    value: int
    passes: bool


@dataclass(frozen=True)
class DetVerdict:
    passes: bool
    mismatched: tuple      # ids where det degree differs from the bundle degree
    indivisible: tuple     # rational ids where rank does not divide the degree


@dataclass(frozen=True)
class SlopeComparison:
    sub_slope: Fraction
    total_slope: Fraction
    relation: str          # "<", "=", or ">"

    @property
    def le(self) -> bool:
        return self.relation != ">"


def slope(c: TreeLikeCurve, bc: BundleClass) -> Fraction:
    """d/r on an irreducible curve."""
    c.require_valid()
    if len(c.ids) != 1:
        raise WrongArity("slope is only defined for irreducible curves")
    require_match(c, bc.multidegree, "multidegree")
    return Fraction(bc.total_degree, bc.rank)


def seshadri_slope(c: TreeLikeCurve, bc: BundleClass, pol: Polarization) -> Fraction:
    """chi divided by the weighted rank sum."""
    c.require_valid()
    require_match(c, bc.multidegree, "multidegree")
    require_match(c, pol.weights, "polarization weights")
    denom = sum((pol.weights[i] * bc.rank for i in c.ids), Fraction(0))
    return Fraction(euler_char_total(c, bc)) / denom


def polarization_from_ample(h: AmpleDegrees) -> Polarization:
    """Weights proportional to the ample degrees (leading Hilbert coefficients)."""
    total = sum(h.degrees.values())
    return Polarization(weights={i: Fraction(v, total) for i, v in h.degrees.items()})


def _chi_sums(c: TreeLikeCurve, ordering: Ordering, bc: BundleClass) -> list:
    """Chi sum over G(i) at every order position, as subtree sums.

    G(i) is the subtree of position i in the parent array, so one
    leaves-first pass over ``perm`` adds each position's sum into its
    parent's.  The caller checks the class against the curve.
    """
    values = [_chi(c.component(cid), bc) for cid in ordering.perm]
    for k, p in enumerate(ordering.nu):
        values[p - 1] += values[k]
    return values


def _windows(c: TreeLikeCurve, ordering: Ordering, bc: BundleClass,
             pol: Polarization):
    """Chi sums and integer window bounds at every order position.

    Returns (values, lows, den): weights are scaled by den, the lcm of
    their denominators, so position i passes iff
    lows[i] <= den * values[i] <= lows[i] + den * r, all in integers.
    Weight sums and sizes of G(i) are subtree sums like the chi sums.
    The ordering must already be known to belong to the curve.
    """
    c.require_valid()
    require_match(c, bc.multidegree, "multidegree")
    require_match(c, pol.weights, "polarization weights")
    r, n = bc.rank, ordering.n
    den = math.lcm(*(w.denominator for w in pol.weights.values()))
    values = _chi_sums(c, ordering, bc)
    weights, sizes = [], [1] * n
    for cid in ordering.perm:
        w = pol.weights[cid]
        weights.append(w.numerator * (den // w.denominator))
    for k, p in enumerate(ordering.nu):
        weights[p - 1] += weights[k]
        sizes[p - 1] += sizes[k]
    chi = values[-1] - r * (n - 1)
    width = den * r
    return values, [w * chi + width * (s - 1) for w, s in zip(weights, sizes)], den


def lambda_check(c: TreeLikeCurve, ordering: Ordering, bc: BundleClass,
                 pol: Polarization) -> list:
    """Evaluate the window inequality at every order position.

    For position i the chi sum over G(i) must land in
    [w*chi + r(|G(i)| - 1), w*chi + r|G(i)|] where w is the total weight
    on G(i).  The final position compares the full componentwise sum
    with chi + r(N - 1) and always sits at the lower endpoint.
    """
    c.require_valid()
    verify_ordering(c, ordering)
    values, lows, den = _windows(c, ordering, bc, pol)
    width = den * bc.rank
    return [IndexVerdict(i=k + 1, component=cid, g_components=g,
                         lower=Fraction(lo, den), upper=Fraction(lo + width, den),
                         value=value, passes=lo <= value * den <= lo + width)
            for k, (cid, g, value, lo) in enumerate(
                zip(ordering.perm, ordering.subtrees, values, lows))]


def lambda_check_passes(c: TreeLikeCurve, ordering: Ordering, bc: BundleClass,
                        pol: Polarization) -> bool:
    return all(v.passes for v in lambda_check(c, ordering, bc, pol))


def det_compatibility(c: TreeLikeCurve, bc: BundleClass, det_multidegree: dict) -> DetVerdict:
    """Determinant constraint: det degrees match the class, and every
    rational component's degree is a multiple of the rank."""
    c.require_valid()
    require_match(c, bc.multidegree, "multidegree")
    if set(det_multidegree) != set(c.ids):
        raise DocumentMismatch("determinant multidegree keys do not match the curve")
    mismatched = tuple(i for i in sorted(c.ids)
                       if det_multidegree[i] != bc.multidegree[i])
    indivisible = tuple(i for i in sorted(c.ids)
                        if c.component(i).is_rational and det_multidegree[i] % bc.rank != 0)
    return DetVerdict(passes=not mismatched and not indivisible,
                      mismatched=mismatched, indivisible=indivisible)


def gieseker_vs_seshadri(c: TreeLikeCurve, bc: BundleClass, h: AmpleDegrees,
                         multirank: dict, chi_sub: int) -> SlopeComparison:
    """Reduced-Hilbert comparison of a subobject against the full class,
    for the polarization induced by the ample degrees.

    At curve level this is chi_sub / (sum of multirank * ample degree)
    against chi / (r * total ample degree), compared exactly.
    """
    c.require_valid()
    require_match(c, bc.multidegree, "multidegree")
    require_match(c, h.degrees, "ample degrees")
    if set(multirank) != set(c.ids):
        raise DocumentMismatch("multirank keys do not match the curve")
    for i, ri in multirank.items():
        if not 0 <= ri <= bc.rank:
            raise InvalidInput(f"multirank at component {i} must lie in [0, rank]")
    denom = sum(multirank[i] * h.degrees[i] for i in c.ids)
    if denom == 0:
        raise ZeroMultirank("subobject multirank is zero on every component")
    sub = Fraction(chi_sub, denom)
    total = Fraction(euler_char_total(c, bc), bc.rank * sum(h.degrees.values()))
    relation = "<" if sub < total else ("=" if sub == total else ">")
    return SlopeComparison(sub_slope=sub, total_slope=total, relation=relation)
