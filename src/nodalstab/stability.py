"""Slope, Seshadri, Gieseker, and window semistability checks.

All comparisons are exact rational arithmetic; the per-index windows
have width exactly the rank, so endpoint ties are meaningful and no
floating point is allowed anywhere.
"""

import math
from fractions import Fraction
from itertools import repeat

from .curve import Ordering, TreeLikeCurve, verify_ordering
from .errors import (
    _DIGIT_BOUND,
    _MAX_DIGITS,
    InvalidInput,
    ParseError,
    Record,
    WrongArity,
    ZeroMultirank,
    _id_map,
    _int_arg,
    _rational_text,
    _require,
    _set,
)
from .twist import BundleClass, _chi, _id_values, euler_char_total, require_match


class Polarization(Record):
    """Positive rational weights on the components, summing to exactly 1."""

    _fields = ("weights",)
    __slots__ = _fields + ("_scaled",)

    def __init__(self, weights: dict):
        # ints or Fractions ("1/2" and 0.5 are the parser's to read), also kept as
        # integers: each weight times den, the lcm of the denominators
        w, den = {}, 1
        for i, v in _id_values(weights, "Polarization", "the weight", (int, Fraction)).items():
            w[i] = v if isinstance(v, Fraction) else Fraction(v)
            den = math.lcm(den, v.denominator)   # so an over-long lcm stops the loop early
            if den >= _DIGIT_BOUND:
                raise ParseError(f"the weights' common denominator has more than {_MAX_DIGITS} "
                                 "digits", field="weights")
        scaled = {i: v.numerator * (den // v.denominator) for i, v in w.items()}
        if any(s <= 0 for s in scaled.values()):
            raise InvalidInput("polarization weights must be strictly positive")
        if sum(scaled.values()) != den:
            raise InvalidInput("polarization weights must sum to exactly 1")
        _set(self, "weights", w)
        _set(self, "_scaled", (den, scaled))


def parse_polarization(obj) -> Polarization:
    """Polarization document: {"weights": {"1": "1/3", ...}}."""
    _require(isinstance(obj, dict), "polarization document must be an object")
    weights = {}
    for i, v in _id_map(obj.get("weights"), "weights").items():
        try:
            weights[i] = Fraction(_rational_text(v))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"not a rational number: {v!r}") from None
    return Polarization(weights=weights)


class AmpleDegrees(Record):
    """Positive integer degrees of a fixed ample class on each component."""

    __slots__ = _fields = ("degrees",)

    def __init__(self, degrees: dict):
        _id_values(degrees, "AmpleDegrees", "the ample degree")
        if not all(v >= 1 for v in degrees.values()):
            raise InvalidInput("ample degrees must be positive integers")
        _set(self, "degrees", degrees)


def _chosen(top: int, width: int) -> int:
    """The least integer a with top - width*a <= width (width > 0)."""
    return (top - 1) // width


def _candidates(top: int, width: int) -> tuple:
    """Integers a with 0 <= top - width*a <= width, ascending (width > 0)."""
    return tuple(range(_chosen(top, width), top // width + 1))


class Window(Record):
    """The window inequality at order position i, stored as integers.

    ``value`` is the chi sum over G(i); the position passes iff
    lo <= den * value <= lo + den * rank, where den is the lcm of the
    weight denominators.  Every other attribute is derived when read:
    the bounds lower = lo/den and upper = lower + rank, the twist
    coefficients a that move value - rank*a into the window and the
    distance to the window.  G(i) is the ordering's, ``subtrees[i - 1]``.
    The one mutable record, slotted and cheap to build: windows compare
    by value and are not hashable.
    """

    __slots__ = _fields = ("i", "component", "value", "lo", "den", "rank")
    # mutable: plain attribute stores, the default pickling and no hash
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__
    __reduce__, __hash__ = object.__reduce__, None

    def __init__(self, i: int, component: int, value: int, lo: int, den: int, rank: int):
        self.i = i
        self.component = component
        self.value = value
        self.lo = lo
        self.den = den
        self.rank = rank

    @property
    def lower(self) -> Fraction:
        return Fraction(self.lo, self.den)

    @property
    def upper(self) -> Fraction:
        return Fraction(self.lo + self.den * self.rank, self.den)

    @property
    def passes(self) -> bool:
        return 0 <= self.value * self.den - self.lo <= self.den * self.rank

    @property
    def candidates(self) -> tuple:
        """Integers a with lower <= value - rank*a <= upper, ascending: one or two."""
        return _candidates(self.value * self.den - self.lo, self.den * self.rank)

    @property
    def chosen(self) -> int:
        """The smaller candidate, which parks the chi sum at the upper endpoint on a tie."""
        return _chosen(self.value * self.den - self.lo, self.den * self.rank)

    @property
    def distance(self) -> Fraction:
        """How far value lies outside [lower, upper]; 0 when it passes."""
        top, width = self.value * self.den - self.lo, self.den * self.rank
        return Fraction(0 if 0 <= top <= width else min(abs(top), abs(top - width)), self.den)


class DetVerdict(Record):
    # mismatched: ids where the det degree differs from the bundle degree;
    # indivisible: rational ids where the rank does not divide the degree
    __slots__ = _fields = ("passes", "mismatched", "indivisible")


class SlopeComparison(Record):
    __slots__ = _fields = ("sub_slope", "total_slope", "relation")   # relation: "<", "=" or ">"

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
    chi = euler_char_total(c, bc)   # checks the curve and the class
    require_match(c, pol.weights, "polarization weights")
    # the weights sum to 1, so the weighted rank sum is the rank
    return Fraction(chi, bc.rank)


def polarization_from_ample(h: AmpleDegrees) -> Polarization:
    """Weights proportional to the ample degrees (leading Hilbert coefficients)."""
    total = sum(h.degrees.values())
    return Polarization(weights={i: Fraction(v, total) for i, v in h.degrees.items()})


def _windows(c: TreeLikeCurve, ordering: Ordering, bc: BundleClass,
             pol: Polarization):
    """Chi sums and integer window bounds at every order position.

    Returns (values, lows, den): weights are scaled by den, the lcm of
    their denominators, so position i passes iff
    lows[i] <= den * values[i] <= lows[i] + den * r, all in integers.
    G(i) is the subtree of position i in the parent array, so one
    leaves-first pass over ``nu`` adds each position's chi and each
    w_j * chi into its parent's; a child also adds den * r, so that
    lows[i] = w(G(i)) * chi + den * r * (|G(i)| - 1).
    The curve must already be valid and the ordering known to belong to it.
    """
    require_match(c, bc.multidegree, "multidegree")
    require_match(c, pol.weights, "polarization weights")
    r, perm = bc.rank, ordering.perm
    den, scaled = pol._scaled
    values = _chi(map(bc.multidegree.__getitem__, perm), r,
                  map(c._genus.__getitem__, map(c._index.__getitem__, perm)))
    chi = sum(values) - r * (len(perm) - 1)
    lows = [w * chi for w in map(scaled.__getitem__, perm)]
    width = den * r
    for k, p in enumerate(ordering.nu):
        values[p - 1] += values[k]
        lows[p - 1] += lows[k] + width
    return values, lows, den


def lambda_check(c: TreeLikeCurve, ordering: Ordering, bc: BundleClass,
                 pol: Polarization) -> list:
    """Evaluate the window inequality at every order position.

    For position i the chi sum over G(i) must land in
    [w*chi + r(|G(i)| - 1), w*chi + r|G(i)|] where w is the total weight
    on G(i).  The final position compares the full componentwise sum
    with chi + r(N - 1) and always sits at the lower endpoint.  Returns
    one ``Window`` per position; G(i) is the ordering's ``subtrees[i - 1]``.
    An ordering ``prune_ordering`` built for this very curve object is
    trusted; any other is checked against the curve in O(N) first.
    """
    c.require_valid()
    if getattr(ordering, "_curve", None) is not c:
        verify_ordering(c, ordering)
    values, lows, den = _windows(c, ordering, bc, pol)
    n = ordering.n
    return list(map(Window, range(1, n + 1), ordering.perm, values, lows,
                    repeat(den, n), repeat(bc.rank, n)))


def lambda_check_passes(c: TreeLikeCurve, ordering: Ordering, bc: BundleClass,
                        pol: Polarization) -> bool:
    return all(v.passes for v in lambda_check(c, ordering, bc, pol))


def det_compatibility(c: TreeLikeCurve, bc: BundleClass, det_multidegree: dict) -> DetVerdict:
    """Determinant constraint: det degrees match the class, and every
    rational component's degree is a multiple of the rank."""
    c.require_valid()
    require_match(c, bc.multidegree, "multidegree")
    require_match(c, _id_values(det_multidegree, "det_compatibility", "the determinant degree"),
                  "determinant multidegree")
    # a curve lists its ids and components in increasing id order
    mismatched = tuple(i for i in c.ids if det_multidegree[i] != bc.multidegree[i])
    indivisible = tuple(comp.id for comp in c.components
                        if comp.is_rational and det_multidegree[comp.id] % bc.rank != 0)
    return DetVerdict(passes=not mismatched and not indivisible,
                      mismatched=mismatched, indivisible=indivisible)


def gieseker_vs_seshadri(c: TreeLikeCurve, bc: BundleClass, h: AmpleDegrees,
                         multirank: dict, chi_sub: int) -> SlopeComparison:
    """Reduced-Hilbert comparison of a subobject against the full class,
    for the polarization induced by the ample degrees.

    At curve level this is chi_sub / (sum of multirank * ample degree)
    against chi / (r * total ample degree), compared exactly.
    """
    chi = euler_char_total(c, bc)   # checks the curve and the class
    require_match(c, h.degrees, "ample degrees")
    require_match(c, _id_values(multirank, "gieseker_vs_seshadri", "the multirank"), "multirank")
    for i, ri in multirank.items():
        if not 0 <= ri <= bc.rank:
            raise InvalidInput(f"multirank at component {i} must lie in [0, rank]")
    denom = sum(multirank[i] * h.degrees[i] for i in c.ids)
    if denom == 0:
        raise ZeroMultirank("subobject multirank is zero on every component")
    sub = Fraction(_int_arg(chi_sub, "chi_sub"), denom)
    total = Fraction(chi, bc.rank * sum(h.degrees.values()))
    relation = "<" if sub < total else ("=" if sub == total else ">")
    return SlopeComparison(sub_slope=sub, total_slope=total, relation=relation)
