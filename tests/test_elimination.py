"""Differential and growth tests of the elimination kernels: the pivoted
determinant over k[pi]/(pi^(n+1)) and the forward-elimination rank."""

import random
from fractions import Fraction

import pytest

import helpers
from nodalstab import truncated
from nodalstab.fields import PrimeField, RationalField, mat_rank
from nodalstab.truncated import TruncatedMatrix, det_trace_identity, one_plus_pi_n

PRIMES = (2, 3, 7, 10007)


def entry(rng, p, n, low):
    """A random coefficient vector whose valuation is at least low."""
    return [0] * min(low, n + 1) + [rng.randrange(p) for _ in range(n + 1 - low)]


def exact(rng, p, n, val):
    """A random coefficient vector of valuation exactly val (zero past n)."""
    x = entry(rng, p, n, val)
    if val <= n:
        x[val] = rng.randrange(1, p)
    return x


def family(rng, p, n, r, kind):
    """One r x r coefficient matrix of the named kind."""
    if kind == "threshold":
        # column 0 pivots at valuation v on a row whose other entries have least
        # valuation t (none nonzero when t = n + 1); every other column-0 entry has
        # valuation w with w + t, or w - v + t, one below, at or one above n, so
        # det clears some rows and leaves the others; the rest have valuations
        # 0..n + 1
        v, t, top = rng.randint(0, n), rng.randint(0, n + 1), rng.randrange(r)
        m = [[exact(rng, p, n, rng.randint(0, n + 1)) for _ in range(r)] for _ in range(r)]
        m[top] = [exact(rng, p, n, v)] + [exact(rng, p, n, rng.randint(t, n + 1))
                                          for _ in range(r - 1)]
        if t <= n and r > 1:
            m[top][rng.randrange(1, r)] = exact(rng, p, n, t)
        for i in range(r):
            if i != top:   # a row above the pivot row has the larger valuation
                w = n - t + rng.choice((-1, 0, 1)) + rng.choice((0, v))
                m[i][0] = exact(rng, p, n, min(max(w, v + (i < top)), n + 1))
        return m
    if kind == "deep":
        # L U for a unit lower triangular L and an upper triangular U, so the
        # pivots are U's diagonal: the valuations of the first k + 1 sum to n or
        # n + 1 for a random k, and each later one is 0 or, less often, 1; the
        # other entries of L and U have valuations 0..n + 1
        cuts = sorted(rng.randint(0, n) for _ in range(rng.randrange(r)))
        vals = [b - a for a, b in zip([0] + cuts, cuts)] + [n - max(cuts, default=0)
                                                            + rng.randint(0, 1)]
        vals += [int(rng.random() < 0.25) for _ in range(r - len(vals))]
        zero = [0] * (n + 1)
        low = [[[1] + zero[1:] if j == i else exact(rng, p, n, rng.randint(0, n + 1)) if j < i
                else zero for j in range(r)] for i in range(r)]
        up = [[exact(rng, p, n, vals[i]) if j == i else exact(rng, p, n, rng.randint(0, n + 1))
               if j > i else zero for j in range(r)] for i in range(r)]
        return [[helpers.dot(p, n, row, [u[j] for u in up]) for j in range(r)] for row in low]
    if kind == "dense":
        return [[entry(rng, p, n, 0) for _ in range(r)] for _ in range(r)]
    if kind == "sparse":
        return [[[rng.randrange(p) if rng.random() < 0.3 else 0 for _ in range(n + 1)]
                 for _ in range(r)] for _ in range(r)]
    if kind == "no-unit-first":
        # column 0 has no unit; its least valuation sits in a later row
        m = [[entry(rng, p, n, 0) for _ in range(r)] for _ in range(r)]
        low = rng.randrange(r)
        for i in range(r):
            m[i][0] = entry(rng, p, n, 1 if i == low else 2)
            if i == low and n >= 1:
                m[i][0][1] = rng.randrange(1, p)
        return m
    if kind == "zero-column":
        m = [[entry(rng, p, n, 0) for _ in range(r)] for _ in range(r)]
        col = rng.randrange(r)
        for row in m:
            row[col] = [0] * (n + 1)
        return m
    if kind == "nilpotent":
        # strictly upper triangular, conjugated by a permutation
        perm = list(range(r))
        rng.shuffle(perm)
        u = [[entry(rng, p, n, 0) if j > i else [0] * (n + 1) for j in range(r)]
             for i in range(r)]
        return [[u[perm[i]][perm[j]] for j in range(r)] for i in range(r)]
    # "pi-multiple": every entry a non-unit
    return [[entry(rng, p, n, 1) for _ in range(r)] for _ in range(r)]


KINDS = ("dense", "sparse", "no-unit-first", "zero-column", "nilpotent", "pi-multiple")


@pytest.mark.parametrize("p", PRIMES)
def test_det_matches_berkowitz_and_leibniz(p):
    rng = random.Random(p)
    for n in range(5):
        for r in range(1, 8):
            for kind in KINDS:
                m = family(rng, p, n, r, kind)
                got = TruncatedMatrix(p, n, m).det().coeffs
                assert got == helpers.berkowitz_det(p, n, m), (p, n, r, kind)
                if r <= 4 or (r <= 6 and n <= 1 and kind == "dense"):
                    want = helpers.truncate_mod(helpers.leibniz_det(m), p, n)
                    assert got == want, (p, n, r, kind)


@pytest.mark.parametrize("p", PRIMES + (18446744073709551557,))
def test_det_at_kronecker_orders_matches_berkowitz_and_leibniz(p):
    # past n = 12 a dense row runs the kernel's Kronecker branch; pivots of
    # positive valuation and zero columns come from the same families
    rng = random.Random(p % 1013)
    for n in (13, 17, 33):
        for r in range(1, 6):
            for kind in KINDS:
                m = family(rng, p, n, r, kind)
                got = TruncatedMatrix(p, n, m).det().coeffs
                assert got == helpers.berkowitz_det(p, n, m), (p, n, r, kind)
                if r <= 4:
                    assert got == helpers.truncate_mod(helpers.leibniz_det(m), p, n), (p, n, r)


@pytest.mark.parametrize("p", PRIMES)
def test_det_skips_only_rows_whose_products_vanish(p):
    # rows just below, at and just above w - v + t = n, with non-unit pivots,
    # pivot rows with nothing left (t = n + 1) and n = 0
    rng = random.Random(p + 28)
    for n in range(5):
        for r in range(1, 17):
            for _ in range(3 if r <= 8 else 1):
                m = family(rng, p, n, r, "threshold")
                got = TruncatedMatrix(p, n, m).det().coeffs
                assert got == helpers.berkowitz_det(p, n, m), (p, n, r)
                if r <= 5 and (r <= 4 or n <= 2):
                    assert got == helpers.truncate_mod(helpers.leibniz_det(m), p, n), (p, n, r)


@pytest.mark.parametrize("p", PRIMES)
def test_det_stops_once_the_pivots_spend_the_precision(p):
    # the pivot valuations reach n, or pass it, at a random column: past it
    # det is 0, and before it a row below is cleared only while w + t <= m
    rng = random.Random(p + 29)
    for n in range(5):
        for r in range(1, 17):
            for _ in range(3 if r <= 5 else 1):
                m = family(rng, p, n, r, "deep")
                got = TruncatedMatrix(p, n, m).det().coeffs
                assert got == helpers.berkowitz_det(p, n, m), (p, n, r)
                if r <= 5:
                    assert got == helpers.truncate_mod(helpers.leibniz_det(m), p, n), (p, n, r)


def test_det_of_a_seven_by_seven_matches_leibniz():
    rng = random.Random(77)
    for kind in ("dense", "no-unit-first"):
        m = family(rng, 3, 2, 7, kind)
        assert TruncatedMatrix(3, 2, m).det().coeffs == \
            helpers.truncate_mod(helpers.leibniz_det(m), 3, 2)


def test_det_trace_identity_up_to_rank_16():
    rng = random.Random(16)
    for p in PRIMES:
        for r in range(1, 17):
            n = rng.choice((1, 2, 5))
            A = [[rng.randrange(-p, 2 * p) for _ in range(r)] for _ in range(r)]
            verdict = det_trace_identity(p, A, n)
            assert verdict.holds, (p, r, n)


def test_is_invertible_reads_the_constant_terms():
    rng = random.Random(9)
    for p in (2, 3, 7):
        for r in range(1, 6):
            for kind in KINDS:
                m = TruncatedMatrix(p, 2, family(rng, p, 2, r, kind))
                assert m.is_invertible == m.det().is_unit


def counted_products(monkeypatch, module, pairs, run):
    """Number of coefficient-vector pairs that run() multiplies through the
    product kernels module.name, pairs[name](*args) of them in one call."""
    count = [0]
    for name, size in pairs.items():
        def counting(*args, real=getattr(module, name), size=size):
            count[0] += size(*args)
            return real(*args)
        monkeypatch.setattr(module, name, counting)
    run()
    return count[0]


# the ring kernel's entries: _axpy(p, n, q, ys, xs) multiplies q by each of the
# vectors ys, and _mul(p, n, q, y) multiplies one pair
KERNEL = {"_axpy": lambda p, n, q, ys, xs=None: len(ys), "_mul": lambda p, n, q, y: 1}


def test_det_makes_at_most_r_cubed_products(monkeypatch):
    p, n = 7, 2
    for r, dense_pairs in ((4, 36), (8, 204), (16, 1434)):
        rng = random.Random(1)
        A = [[rng.randrange(p) for _ in range(r)] for _ in range(r)]
        m = one_plus_pi_n(p, n, A)
        dense = TruncatedMatrix(p, n, family(rng, p, n, r, "dense"))
        # I + pi^2 A at n = 3, where each product is pi^4, just past the truncation
        near = TruncatedMatrix(p, 3, [[[int(i == j), 0, a, 0] for j, a in enumerate(row)]
                                      for i, row in enumerate(A)])
        # lower triangular: nothing right of a pivot, so no row gains anything
        lower = TruncatedMatrix(p, n, [[[1, 0, 0] if j == i else [a, 0, 0] if j < i else
                                        [0, 0, 0] for j, a in enumerate(row)]
                                       for i, row in enumerate(A)])
        got = [counted_products(monkeypatch, truncated, KERNEL, matrix.det)
               for matrix in (m, near, lower, dense)]
        # below a pivot 1 + pi^n a, every row update multiplies pi^n by pi^n,
        # which is 0 at this truncation, so det multiplies the r pivots and
        # nothing else (an elimination that clears every row makes 24, 138 and
        # 1,179 products here); no dense row is skipped
        assert got == [r, r, r, dense_pairs], r
        assert dense_pairs <= r ** 3
    # Berkowitz, which det used before, makes 16,608 products here, about r^4/4
    entries = [[x.coeffs for x in row] for row in m.entries]
    assert counted_products(monkeypatch, helpers, {"dot": lambda p, n, xs, ys: len(xs)},
                            lambda: helpers.berkowitz_det(p, n, entries)) == 16608


def test_det_stops_eliminating_once_its_answer_is_zero(monkeypatch):
    # every entry a non-unit, so the pivots spend the precision n = 3 within
    # four columns and det returns 0 there, clearing no more rows (eliminating
    # until a column is 0 mod pi^(n+1) makes 34, 200 and 1,434 products here);
    # the second pivot inverse runs only to the order m - s = 1 that counts
    for r, pairs in ((4, 23), (8, 107), (16, 429)):
        m = TruncatedMatrix(7, 3, family(random.Random(1), 7, 3, r, "pi-multiple"))
        assert counted_products(monkeypatch, truncated, KERNEL, m.det) == pairs, r
        assert m.det().coeffs == (0, 0, 0, 0)


def test_det_leaves_a_row_past_the_precision_left(monkeypatch):
    # after the pivot pi, the rest counts only mod pi^2, so the pi^2 below the
    # unit pivot of column 1 is left as it is: det multiplies the three pivots
    m = TruncatedMatrix(7, 2, [[[0, 1, 0], [0, 0, 0], [0, 0, 0]],
                               [[0, 0, 0], [1, 0, 0], [1, 0, 0]],
                               [[0, 0, 0], [0, 0, 1], [1, 0, 0]]])
    assert m.det().coeffs == (0, 1, 0)
    assert counted_products(monkeypatch, truncated, KERNEL, m.det) == 3


def test_det_multiplies_each_later_pivot_at_the_order_left(monkeypatch):
    # on diag(pi^k, B) the first pivot leaves det = pi^k times a unit, so every
    # later pivot product runs at order n - k (it once ran at order n, on
    # coefficients that land past pi^n); with B upper triangular the pivot
    # products are det's only _mul calls, and with B dense no call runs higher
    p, n, k, r = 7, 40, 30, 5
    rng = random.Random(11)
    zero = [0] * (n + 1)
    for kind in ("upper", "dense"):
        B = [[entry(rng, p, n, 0) if j > i or kind == "dense" else
              exact(rng, p, n, 0) if j == i else zero for j in range(r - 1)]
             for i in range(r - 1)]
        rows = [[exact(rng, p, n, k)] + [zero] * (r - 1)] + [[zero] + row for row in B]
        orders = []

        def recording(p, n, q, y, real=truncated._mul):
            orders.append(n)
            return real(p, n, q, y)
        monkeypatch.setattr(truncated, "_mul", recording)
        got = TruncatedMatrix(p, n, rows).det().coeffs
        monkeypatch.undo()
        inner = TruncatedMatrix(p, n, B).det().coeffs
        assert list(got) == helpers.dot(p, n, [rows[0][0]], [inner])
        assert orders[0] == n and max(orders[1:]) == n - k, kind
        if kind == "upper":
            assert orders == [n] + [n - k] * (r - 1)


# ------------------------------------------------------------------ mat_rank

def low_rank(rng, rows, cols, rank, value):
    """rows x cols product of a rows x rank and a rank x cols random factor."""
    left = [[value() for _ in range(rank)] for _ in range(rows)]
    right = [[value() for _ in range(cols)] for _ in range(rank)]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]


SHAPES = [(0, 0), (1, 0), (3, 0), (1, 1), (2, 5), (3, 8), (4, 12), (8, 3), (12, 4),
          (5, 5), (7, 7), (6, 9)]


def test_mat_rank_over_q_matches_gauss_jordan():
    rng = random.Random(2)
    field = RationalField()

    def value():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.8 else 0
    for rows, cols in SHAPES:
        for trial in range(20):
            if trial % 2 and rows and cols:
                m = low_rank(rng, rows, cols, rng.randint(0, min(rows, cols)), value)
            else:
                m = [[value() for _ in range(cols)] for _ in range(rows)]
            if trial % 5 == 4 and rows > 1:
                m[-1] = [2 * x - y for x, y in zip(m[0], m[1])]
            got = mat_rank(field, [[field.element(x) for x in row] for row in m])
            assert got == helpers.gauss_jordan_rank(None, m), (rows, cols, m)


@pytest.mark.parametrize("p", (2, 3, 10007))
def test_mat_rank_over_f_p_matches_gauss_jordan(p):
    rng = random.Random(p)
    field = PrimeField(p)

    def value():
        return rng.randrange(p) if rng.random() < 0.7 else 0
    for rows, cols in SHAPES:
        for trial in range(30):
            if trial % 2 and rows and cols:
                m = low_rank(rng, rows, cols, rng.randint(0, min(rows, cols)), value)
            else:
                m = [[value() for _ in range(cols)] for _ in range(rows)]
            m = [[field.element(x) for x in row] for row in m]
            assert mat_rank(field, m) == helpers.gauss_jordan_rank(p, m), (rows, cols, m)


def test_mat_rank_of_integer_rows_over_q_and_unreduced_ints_over_f_p():
    # Q rows may hold ints; F_p rows need not be reduced mod p first
    assert mat_rank(RationalField(), [[2, -4], [-1, 2]]) == 1
    assert mat_rank(RationalField(), [[2, -4], [-1, 3]]) == 2
    assert mat_rank(PrimeField(5), [[5, 10], [-5, 7]]) == 1
    assert mat_rank(PrimeField(2), [[3, 5, 7], [1, 1, -1]]) == 1
    assert mat_rank(PrimeField(2), []) == 0
    assert mat_rank(RationalField(), [[], []]) == 0
