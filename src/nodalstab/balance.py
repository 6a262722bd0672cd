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
from .stability import Polarization, _windows
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


def window_integers(value: int, lower: Fraction, rank: int) -> tuple:
    """Integers a with lower <= value - rank*a <= lower + rank, ascending."""
    # with lower = p/q: top - q*rank <= q*rank*a <= top, where top = q*value - p
    q = lower.denominator
    top = q * value - lower.numerator
    return tuple(range(-(-top // (q * rank)) - 1, top // (q * rank) + 1))


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
    values, lowers = _windows(c, ordering, bc, pol)
    r = bc.rank
    bad = [k + 1 for k in range(i, n) if not lowers[k] <= values[k] <= lowers[k] + r]
    if bad:
        raise PreconditionViolated(
            f"positions {bad} above {i} must pass before balancing position {i}")
    a = window_integers(values[i - 1], lowers[i - 1], r)[0]
    y = ordering.perm[i - 1]
    step_twist = TwistDivisor(coeffs={j: (a if j == y else 0) for j in c.ids})
    return a, twist(c, bc, step_twist)


def balance(c: TreeLikeCurve, bc: BundleClass, pol: Polarization) -> BalanceResult:
    """Twist the class into one passing every window inequality.

    Runs exactly N-1 steps in decreasing position order; the last
    position needs no twist.  The accumulated twist is then replayed
    through ``twist`` and every window re-evaluated: the replayed class
    must pass them all and keep the total degree and chi, or
    InvariantViolated is raised.
    """
    ordering = prune_ordering(c)
    perm, nu, n, r = ordering.perm, ordering.nu, ordering.n, bc.rank
    values, lowers = _windows(c, ordering, bc, pol)
    a = [0] * n
    steps = []
    for k in range(n - 2, -1, -1):
        value = values[k] + r * a[nu[k] - 1]
        candidates = window_integers(value, lowers[k], r)
        a[k] = candidates[0]
        steps.append(BalanceStep(i=k + 1, component=perm[k], value=value,
                                 lower=lowers[k], upper=lowers[k] + r,
                                 candidates=candidates, chosen=a[k]))
    by_id = dict(zip(perm, a))
    t = TwistDivisor(coeffs={j: by_id[j] for j in c.ids})
    balanced = twist(c, bc, t)
    after, _ = _windows(c, ordering, balanced, pol)
    # the last window's chi sum is chi + r(N - 1), so it carries total chi
    if balanced.total_degree != bc.total_degree or after[-1] != values[-1] \
            or not all(lo <= v <= lo + r for v, lo in zip(after, lowers)):
        raise InvariantViolated("the accumulated twist does not balance the class")
    return BalanceResult(ordering=ordering, twist=t, balanced=balanced, steps=tuple(steps))


def unbalance_report(c: TreeLikeCurve, bc: BundleClass, pol: Polarization) -> list:
    """Distance of each position's chi sum to its window, for diagnostics."""
    ordering = prune_ordering(c)
    values, lowers = _windows(c, ordering, bc, pol)
    out = []
    for k, (value, lower) in enumerate(zip(values, lowers)):
        upper = lower + bc.rank
        if lower <= value <= upper:
            dist = Fraction(0)
        else:
            dist = min(abs(value - lower), abs(value - upper))
        out.append(DistanceEntry(i=k + 1, component=ordering.perm[k], distance=dist,
                                 value=value, lower=lower, upper=upper))
    return out
