"""Metamorphic relations: the answer for a transformed input, predicted from
the answer for the original, with no oracle for either.

- Balancing forgets a twist: a class and any twist of it lie in one orbit
  of the twist action, and ``balance`` picks the same representative for
  both, so ``balance(twist(bc, T)).balanced == balance(bc).balanced``.
- The determinant is multiplicative over k[pi]/(pi^(n+1)):
  ``(A @ B).det() == A.det() * B.det()``, also on entries of any valuation.

Both run derandomized and without an example database, so a run is
repeatable on any machine.
"""

import random

from hypothesis import assume, given, settings, strategies as st

import helpers
from nodalstab import TruncatedMatrix, TwistDivisor, balance, twist

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
