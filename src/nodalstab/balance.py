"""Twist balancing: integer fibral-twist coefficients that make a bundle
class pass every window inequality, found in one top-down pass.

The ordering is a parent array and G(i) is the subtree of position i.
Twisting by a*Y_i lowers the chi sum over G(i) by r*a (its one node
outside G(i) is the edge to the parent) and raises the chi sum over
G(c) by r*a for each child c of position i (the node joining G(c) to
Y_i).  Every other window keeps its chi sum, and no window bound moves.
So positions are settled from N-1 down to 1: at position i every
position above it is settled, the only settled twist that reaches G(i)
is its parent's, and the chi sum there is base_i + r*a_parent(i), while
the choice of a_i moves only lower, unsettled windows.  Each step is a
one-dimensional integer search in a rational window of width exactly 1
(width r before dividing by r).  The window therefore contains one or
two integers; ties go to the smaller coefficient, which parks the chi
sum at the upper endpoint.
"""

from dataclasses import dataclass
from fractions import Fraction

from .curve import Ordering, TreeLikeCurve, prune_ordering, verify_ordering
from .errors import IndexOutOfRange, InvariantViolated, PreconditionViolated
from .stability import Polarization, _chi_sums, _windows
from .twist import BundleClass, TwistDivisor, twist


@dataclass(frozen=True)
class BalanceStep:
    """Log entry for one step: the window seen and the coefficient chosen."""

    i: int
    component: int
    value: int               # chi sum over G(i) before this step
    lower: Fraction
    upper: Fraction
    candidates: tuple        # admissible integers, ascending
    chosen: int


@dataclass(frozen=True)
class BalanceResult:
    ordering: Ordering
    twist: TwistDivisor
    balanced: BundleClass
    steps: tuple


@dataclass(frozen=True)
class DistanceEntry:
    i: int
    component: int
    distance: Fraction       # 0 when the value lies inside the window
    value: int
    lower: Fraction
    upper: Fraction


def _candidates(top: int, width: int) -> tuple:
    """Integers a with 0 <= top - width*a <= width, ascending (width > 0)."""
    return tuple(range(-(-top // width) - 1, top // width + 1))


def window_integers(value: int, lower: Fraction, rank: int) -> tuple:
    """Integers a with lower <= value - rank*a <= lower + rank, ascending."""
    # with lower = p/q: 0 <= (q*value - p) - q*rank*a <= q*rank
    q = lower.denominator
    return _candidates(q * value - lower.numerator, q * rank)


def balance_step(c: TreeLikeCurve, ordering: Ordering, bc: BundleClass,
                 pol: Polarization, i: int):
    """Choose the twist coefficient at order position i and apply it.

    Requires every position above i to pass already; afterwards every
    position from i up passes.  Returns the coefficient and the twisted
    class.
    """
    n = ordering.n
    if not 1 <= i < n:
        raise IndexOutOfRange(f"balance steps run at positions 1..{n - 1}")
    c.require_valid()
    verify_ordering(c, ordering)
    values, lows, den = _windows(c, ordering, bc, pol)
    width = den * bc.rank
    bad = [k + 1 for k in range(i, n) if not lows[k] <= values[k] * den <= lows[k] + width]
    if bad:
        raise PreconditionViolated(
            f"positions {bad} above {i} must pass before balancing position {i}")
    a = _candidates(values[i - 1] * den - lows[i - 1], width)[0]
    y = ordering.perm[i - 1]
    step_twist = TwistDivisor(coeffs={j: (a if j == y else 0) for j in c.ids})
    return a, twist(c, bc, step_twist)


def balance(c: TreeLikeCurve, bc: BundleClass, pol: Polarization) -> BalanceResult:
    """Twist the class into one passing every window inequality.

    Runs exactly N-1 steps in decreasing position order; the last
    position needs no twist.  The accumulated twist is then replayed
    through ``twist`` and every chi sum re-evaluated (the window bounds
    depend only on total chi): the replayed class must pass every window
    and keep the total degree and chi, or InvariantViolated is raised.
    """
    ordering = prune_ordering(c)
    perm, nu, n, r = ordering.perm, ordering.nu, ordering.n, bc.rank
    values, lows, den = _windows(c, ordering, bc, pol)
    width = den * r
    a = [0] * n
    steps = []
    for k in range(n - 2, -1, -1):
        value, lo = values[k] + r * a[nu[k] - 1], lows[k]
        candidates = _candidates(value * den - lo, width)
        a[k] = candidates[0]
        steps.append(BalanceStep(i=k + 1, component=perm[k], value=value,
                                 lower=Fraction(lo, den), upper=Fraction(lo + width, den),
                                 candidates=candidates, chosen=a[k]))
    by_id = dict(zip(perm, a))
    t = TwistDivisor(coeffs={j: by_id[j] for j in c.ids})
    balanced = twist(c, bc, t)
    after = _chi_sums(c, ordering, balanced)
    # the last window's chi sum is chi + r(N - 1), so it carries total chi
    if balanced.total_degree != bc.total_degree or after[-1] != values[-1] \
            or not all(lo <= v * den <= lo + width for v, lo in zip(after, lows)):
        raise InvariantViolated("the accumulated twist does not balance the class")
    return BalanceResult(ordering=ordering, twist=t, balanced=balanced, steps=tuple(steps))


def unbalance_report(c: TreeLikeCurve, bc: BundleClass, pol: Polarization) -> list:
    """Distance of each position's chi sum to its window, for diagnostics."""
    ordering = prune_ordering(c)
    values, lows, den = _windows(c, ordering, bc, pol)
    width = den * bc.rank
    out = []
    for k, (value, lo) in enumerate(zip(values, lows)):
        scaled = value * den
        gap = 0 if lo <= scaled <= lo + width else min(abs(scaled - lo), abs(scaled - lo - width))
        out.append(DistanceEntry(i=k + 1, component=ordering.perm[k],
                                 distance=Fraction(gap, den), value=value,
                                 lower=Fraction(lo, den), upper=Fraction(lo + width, den)))
    return out
