"""Metamorphic relations: the answer for a transformed input, predicted from
the answer for the original, with no oracle for either.

- Balancing forgets a twist: a class and any twist of it lie in one orbit
  of the twist action, and ``balance`` picks the same representative for
  both, so ``balance(twist(bc, T)).balanced == balance(bc).balanced``.
- Balancing forgets a twist on shaped curves too: the same relation on
  paths, stars, caterpillars and random trees of up to 500 components.
- An increasing relabelling onto far ids maps every tree report id for
  id: the pruning order reads only id order, so ``prune_ordering``,
  ``lambda_check``'s windows and ``balance``'s result follow the map and
  no verdict changes.
- The determinant is multiplicative over k[pi]/(pi^(n+1)):
  ``(A @ B).det() == A.det() * B.det()``, also on entries of any valuation.

All run derandomized and without an example database, so a run is
repeatable on any machine.
"""

import random

from hypothesis import assume, given, settings, strategies as st

import helpers
from nodalstab import (BundleClass, Polarization, TruncatedMatrix, TwistDivisor, balance,
                       lambda_check, prune_ordering, twist, validate_curve)
from nodalstab.stability import Window

SETTINGS = dict(deadline=None, derandomize=True, database=None)


@settings(max_examples=300, **SETTINGS)
@given(seed=st.integers(0, 2**32 - 1),
       t=st.lists(st.integers(-4, 4), min_size=8, max_size=8))
def test_balancing_forgets_a_twist(seed, t):
    rng = random.Random(seed)
    c = helpers.random_curve(rng)
    coeffs = dict(zip(c.ids, t))
    # a constant twist is the whole curve, which moves no degree
    assume(len(set(coeffs.values())) > 1)
    bc, pol = helpers.random_bundle(rng, c), helpers.random_polarization(rng, c)
    twisted = twist(c, bc, TwistDivisor(coeffs))
    assert twisted != bc
    assert balance(c, twisted, pol).balanced == balance(c, bc, pol).balanced


@settings(max_examples=300, **SETTINGS)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(helpers.SHAPES),
       n=st.integers(2, 500))
def test_balancing_forgets_a_twist_on_shaped_curves(seed, shape, n):
    rng = random.Random(seed)
    c = helpers.shaped_curve(rng, n, shape)
    coeffs = {i: rng.randint(-4, 4) for i in c.ids}
    assume(len(set(coeffs.values())) > 1)
    bc, pol = helpers.random_bundle(rng, c), helpers.random_polarization(rng, c)
    twisted = twist(c, bc, TwistDivisor(coeffs))
    assert twisted != bc
    assert balance(c, twisted, pol).balanced == balance(c, bc, pol).balanced


def far_window(w, new):
    return Window(w.i, new[w.component], w.value, w.lo, w.den, w.rank)


@settings(max_examples=300, **SETTINGS)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(helpers.SHAPES),
       n=st.integers(1, 500))
def test_an_increasing_relabelling_maps_every_tree_report(seed, shape, n):
    rng = random.Random(seed)
    c = helpers.shaped_curve(rng, n, shape)
    far = helpers.relabel_far(rng, c, increasing=True)
    new = dict(zip(c.ids, far.ids))
    assert min(far.ids) > 2**64 and sorted(new.values()) == list(new.values())
    bc = helpers.random_bundle(rng, c, ranks=(1, 2, 3, 4, 5))
    pol = helpers.random_polarization(rng, c)
    far_bc = BundleClass(bc.rank, {new[i]: d for i, d in bc.multidegree.items()})
    far_pol = Polarization({new[i]: w for i, w in pol.weights.items()})

    assert validate_curve(far) == validate_curve(c)
    o, far_o = prune_ordering(c), prune_ordering(far)
    assert far_o.perm == tuple(map(new.get, o.perm)) and far_o.nu == o.nu
    # equal windows hold equal verdicts: passes, candidates and distance are derived
    assert lambda_check(far, far_o, far_bc, far_pol) == [far_window(w, new)
                                                         for w in lambda_check(c, o, bc, pol)]
    result, far_result = balance(c, bc, pol), balance(far, far_bc, far_pol)
    assert far_result.ordering == far_o
    assert far_result.twist.coeffs == {new[i]: a for i, a in result.twist.coeffs.items()}
    assert far_result.balanced == BundleClass(
        bc.rank, {new[i]: d for i, d in result.balanced.multidegree.items()})
    assert far_result.steps == tuple(far_window(w, new) for w in result.steps)


@st.composite
def matrix_pairs(draw):
    """(A, B) over one k[pi]/(pi^(n+1)); Hypothesis draws zeros often, so
    pivots of positive valuation, row swaps and singular matrices all occur.
    An entry may also start with a drawn number of zeros, 0 to n + 1, so
    that rows whose elimination products all vanish occur as well."""
    p, n, r = (draw(st.sampled_from([2, 3, 5, 7, 101])), draw(st.sampled_from([0, 1, 3])),
               draw(st.integers(1, 5)))
    coeffs = st.lists(st.integers(0, p - 1), min_size=n + 1, max_size=n + 1)
    deep = st.builds(lambda low, cs: [0] * low + cs[low:], st.integers(0, n + 1), coeffs)
    entry = st.one_of(coeffs, deep)
    square = st.lists(st.lists(entry, min_size=r, max_size=r), min_size=r, max_size=r)
    return TruncatedMatrix(p, n, draw(square)), TruncatedMatrix(p, n, draw(square))


@settings(max_examples=150, **SETTINGS)
@given(pair=matrix_pairs())
def test_the_determinant_is_multiplicative(pair):
    a, b = pair
    assert (a @ b).det() == a.det() * b.det()
