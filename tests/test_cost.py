"""Cost gates from counted operations.  Wall time drifts with the machine, so
each gate counts the primitive work of a command at three input sizes, fits
the growth exponent against the size, and bounds it: a quadratic regression
fails here on any machine."""

import math
import random
from fractions import Fraction
from math import gcd

import pytest

from nodalstab import Polarization, fields, truncated
from nodalstab.errors import InvalidInput, NoRoot
from nodalstab.fields import PrimeField
from nodalstab.stability import parse_polarization
from nodalstab.truncated import TruncatedMatrix, sl_kernel_check


def exponent(sizes, counts):
    """Least-squares slope of log(count) against log(size)."""
    xs, ys = [math.log(s) for s in sizes], [math.log(c) for c in counts]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def kernel_products(monkeypatch, run):
    """Coefficient products the ring kernel makes in Python while run() runs,
    plus one per packed integer multiply."""
    sparse, kronecker, count = truncated._sparse, truncated._kronecker, [0]

    def counting_sparse(p, n, nz, y, acc):
        # one product per nonzero coefficient pair that survives the truncation
        count[0] += sum(sum(1 for b in y[:n + 1 - i] if b) for i, _ in nz)
        return sparse(p, n, nz, y, acc)

    def counting_kronecker(p, n, q, ys, xs):
        count[0] += 2 * len(ys)   # h(2^b) and h(-2^b) for each entry
        return kronecker(p, n, q, ys, xs)
    monkeypatch.setattr(truncated, "_sparse", counting_sparse)
    monkeypatch.setattr(truncated, "_kronecker", counting_kronecker)
    run()
    monkeypatch.undo()
    return count[0]


def test_dvr_sl_kernel_work_grows_at_most_as_n_to_the_1_3(monkeypatch):
    # dvr --sl on a 2 x 2 matrix with dense coefficients over F7: the most ring
    # work per document byte; the quadratic product made this exponent 2
    sizes, counts = (500, 1000, 2000), []
    for n in sizes:
        rng = random.Random(n)
        M = TruncatedMatrix(7, n, [[[rng.randrange(7) for _ in range(n + 1)] for _ in range(2)]
                                   for _ in range(2)])
        counts.append(kernel_products(monkeypatch, lambda: sl_kernel_check(M)))
    assert exponent(sizes, counts) <= 1.3, counts


# The least r-th root in F_p takes about min(g, (p - 1)/g) steps, g = gcd(r, p - 1):
# a digit table and a walk over the g roots when g^2 <= p - 1, else a count up
# from 1 through about (p - 1)/g candidates.  Past 2^16 steps it is refused.
ROOTS_AT_THE_CAP = [
    (2199025761193, 65521),         # 42-bit p, prime g = r = 65521 <= 2^16
    (2173944119, 2 * 32749),        # p - 1 = 2 * 32749 * 33191: count up, 33191 steps
]
ROOTS_PAST_THE_CAP = [
    (2199024565781, 65537, 65537),                       # prime g = r = 2^16 + 1
    (4611686046344669519, 1073741789, 1073741789),       # 62-bit p, g near 2^30
    (8723367923, 2 * 65537, 66553),                      # (p - 1)/g = 66553 > 2^16
    (2305843932631630043, 2 * 1073741789, 1073742289),   # (p - 1)/g near 2^30
]


def counted_pow(monkeypatch):
    """Count the modular powers ``fields`` computes."""
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return pow(*args)
    monkeypatch.setattr(fields, "pow", counting, raising=False)
    return calls


@pytest.mark.parametrize("p, r", ROOTS_AT_THE_CAP)
def test_a_root_search_at_the_cap_is_still_answered(p, r):
    a = pow(3, r, p)   # 3 is a root, so the least root is at most 3
    b = PrimeField(p).rth_root(a, r)
    assert pow(b, r, p) == a
    assert b == min(x for x in (1, 2, 3) if pow(x, r, p) == a)


@pytest.mark.parametrize("p, r, steps", ROOTS_PAST_THE_CAP)
def test_a_root_search_past_the_cap_is_refused_before_it_starts(monkeypatch, p, r, steps):
    field, a = PrimeField(p), pow(3, r, p)
    calls = counted_pow(monkeypatch)
    with pytest.raises(InvalidInput, match=f"^{steps} steps to the least {r}-th root, "
                                           r"over the cap 2\^16$"):
        field.rth_root(a, r)
    assert calls == [1]   # the existence test a^((p - 1)/g) = 1 alone
    # an element with no root is told so, whatever the cap
    with pytest.raises(NoRoot):
        field.rth_root(next(x for x in range(2, p) if pow(x, (p - 1) // gcd(r, p - 1), p) != 1), r)


def fractions_built(monkeypatch, run):
    """The ``Fraction`` objects built through ``Fraction.__new__`` while run() runs."""
    new, count = Fraction.__new__, [0]

    def counting(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)
    monkeypatch.setattr(Fraction, "__new__", counting)
    run()
    monkeypatch.undo()
    return count[0]


@pytest.mark.parametrize("n", [10, 100, 1000])
def test_each_weight_becomes_a_fraction_once(monkeypatch, n):
    # the parser reads each weight string into one Fraction and the constructor
    # keeps a Fraction as given; the constructor's copies made 2n and n
    doc = {"weights": {str(i): f"1/{n}" for i in range(1, n + 1)}}
    assert fractions_built(monkeypatch, lambda: parse_polarization(doc)) == n
    weights = {i: Fraction(1, n) for i in range(1, n + 1)}
    assert fractions_built(monkeypatch, lambda: Polarization(weights)) == 0
