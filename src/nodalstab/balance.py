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

from itertools import repeat

from .curve import TreeLikeCurve, prune_ordering
from .errors import InvariantViolated, Record
from .stability import Polarization, Window, _chosen, _windows
from .twist import BundleClass, TwistDivisor, _twist


class BalanceResult(Record):
    # windows: the balanced class's Window at every position, as lambda_check gives them
    __slots__ = _fields = ("ordering", "twist", "balanced", "windows")

    @property
    def steps(self) -> tuple:
        """One Window per step, positions N-1 down to 1, its value read before
        the step's own twist; built from ``windows`` on each read."""
        coeffs = self.twist.coeffs
        return tuple(Window(w.i, w.component, w.value + w.rank * coeffs[w.component],
                            w.lo, w.den, w.rank) for w in reversed(self.windows[:-1]))


def balance(c: TreeLikeCurve, bc: BundleClass, pol: Polarization) -> BalanceResult:
    """Twist the class into one passing every window inequality.

    Runs exactly N-1 steps, from position N-1 down; the last needs no
    twist.  By the rule above a balanced chi sum is its sum before its
    step less r times its coefficient: one outside its window, or a moved
    total degree (which moves every bound), raises InvariantViolated.
    """
    ordering = prune_ordering(c)
    perm, nu, n, r = ordering.perm, ordering.nu, ordering.n, bc.rank
    values, lows, den = _windows(c, ordering, bc, pol)
    width, a = den * r, [0] * n
    # before its own twist the chi sum at position k + 1 is the base sum plus r
    # times the parent's coefficient (the root's is 0); values[k] becomes the sum after
    for k in range(n - 2, -1, -1):
        before = values[k] + r * a[nu[k] - 1]
        a[k] = _chosen(before * den - lows[k], width)
        values[k] = before - r * a[k]
    t = TwistDivisor(coeffs=dict(zip(perm, a)))
    balanced = _twist(c, bc, t)
    if balanced.total_degree != bc.total_degree \
            or not all(lo <= v * den <= lo + width for v, lo in zip(values, lows)):
        raise InvariantViolated("the accumulated twist does not balance the class")
    windows = map(Window, range(1, n + 1), perm, values, lows, repeat(den, n), repeat(r, n))
    return BalanceResult(ordering=ordering, twist=t, balanced=balanced, windows=tuple(windows))
