"""Cost gates from counted operations.  Wall time drifts with the machine, so
each gate counts the primitive work of a command at three input sizes, fits
the growth exponent against the size, and bounds it: a quadratic regression
fails here on any machine."""

import math
import random

from nodalstab import truncated
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

    def counting_sparse(p, n, nz, ys, xs):
        for y in ys:   # one product per nonzero coefficient pair that survives the truncation
            count[0] += sum(sum(1 for b in y[:n + 1 - i] if b) for i, _ in nz)
        return sparse(p, n, nz, ys, xs)

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
