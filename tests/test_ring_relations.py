"""Metamorphic relations of the two ring kernels: the answer for a transformed
matrix, predicted from the answer for the original, with no oracle for either.

- ``mat_rank`` does not change when a multiple of one row is added to another,
  when the columns are permuted, or when a row is scaled by a nonzero element,
  over F2, F3, F101 and Q (entries of up to 50 digits), at up to 16 x 16.
- ``det`` over k[pi]/(pi^(n+1)) is invariant under conjugation by an elementary
  matrix: ``det(E A E^-1) == det(A)`` for E = I + x e_ij with i != j, whose
  inverse is I - x e_ij.
- ``det(I + pi^n A) == 1 + pi^n tr(A)`` at r <= 16, 1 <= n <= 5 and p up to 10^6.
- ``det(diag(pi^k, B))`` is ``det(B)`` shifted by pi^k for k <= n, with the pi^k
  at any diagonal place: once that pivot is taken only n - k + 1 coefficients
  of the rest count.

All run derandomized and without an example database, so a run is
repeatable on any machine.
"""

import math
import random
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from nodalstab.fields import PrimeField, RationalField, mat_rank
from nodalstab.truncated import TruncatedMatrix, one_plus_pi_n

SETTINGS = dict(deadline=None, derandomize=True, database=None)
FIELDS = (2, 3, 101, None)   # None is Q


def element(rng, p, nonzero=False):
    """A random element of F_p, an int, or of Q, a Fraction whose numerator has
    up to 50 digits and whose denominator is at most 1000."""
    while True:
        if p:
            x = rng.randrange(p)
        else:
            digits = rng.randint(0, 50)
            x = Fraction(rng.randint(-10 ** digits, 10 ** digits), rng.randint(1, 1000))
        if x or not nonzero:
            return x


def low_rank(rng, p, rows, cols):
    """A rows x cols matrix of rank at most a drawn k: k random rows, and small
    integer combinations of them, shuffled together."""
    k, zero = rng.randint(0, min(rows, cols)), 0 if p else Fraction(0)
    m = [[element(rng, p) for _ in range(cols)] for _ in range(k)]
    for _ in range(rows - k):
        coeffs = [rng.randint(-2, 2) for _ in range(k)]
        row = [sum((c * base[j] for c, base in zip(coeffs, m[:k])), zero) for j in range(cols)]
        m.append([x % p for x in row] if p else row)
    rng.shuffle(m)
    return m


def field_of(p):
    return PrimeField(p) if p else RationalField()


shapes = dict(seed=st.integers(0, 2 ** 32 - 1), p=st.sampled_from(FIELDS),
              rows=st.integers(1, 16), cols=st.integers(1, 16))


@settings(max_examples=250, **SETTINGS)
@given(**shapes)
def test_adding_a_multiple_of_a_row_keeps_the_rank(seed, p, rows, cols):
    assume(rows > 1)
    rng = random.Random(seed)
    m = low_rank(rng, p, rows, cols)
    (i, j), c = rng.sample(range(rows), 2), element(rng, p)
    m2 = m[:i] + [[x + c * y for x, y in zip(m[i], m[j])]] + m[i + 1:]
    assert mat_rank(field_of(p), m2) == mat_rank(field_of(p), m)


@settings(max_examples=250, **SETTINGS)
@given(**shapes)
def test_permuting_the_columns_keeps_the_rank(seed, p, rows, cols):
    rng = random.Random(seed)
    m = low_rank(rng, p, rows, cols)
    perm = rng.sample(range(cols), cols)
    assert mat_rank(field_of(p), [[row[j] for j in perm] for row in m]) == \
        mat_rank(field_of(p), m)


@settings(max_examples=250, **SETTINGS)
@given(**shapes)
def test_scaling_a_row_by_a_unit_keeps_the_rank(seed, p, rows, cols):
    rng = random.Random(seed)
    m = low_rank(rng, p, rows, cols)
    i, c = rng.randrange(rows), element(rng, p, nonzero=True)
    m2 = m[:i] + [[c * x for x in m[i]]] + m[i + 1:]
    assert mat_rank(field_of(p), m2) == mat_rank(field_of(p), m)


@st.composite
def conjugations(draw):
    """(A, E, E^-1) over one k[pi]/(pi^(n+1)), E = I + x e_ij with i != j.
    An entry may start with a drawn number of zeros, 0 to n + 1, so pivots of
    positive valuation, row swaps and singular matrices all occur."""
    p, n, r = (draw(st.sampled_from([2, 3, 5, 7, 101])), draw(st.sampled_from([0, 1, 3])),
               draw(st.integers(2, 6)))
    coeffs = st.lists(st.integers(0, p - 1), min_size=n + 1, max_size=n + 1)
    entry = st.one_of(coeffs, st.builds(lambda low, cs: [0] * low + cs[low:],
                                        st.integers(0, n + 1), coeffs))
    a = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=r, max_size=r))
    i, j = draw(st.lists(st.integers(0, r - 1), min_size=2, max_size=2, unique=True))
    x = draw(entry)

    def elementary(sign):
        return TruncatedMatrix(p, n, [[[int(k == l)] + [0] * n if (k, l) != (i, j) else
                                       [sign * c % p for c in x] for l in range(r)]
                                      for k in range(r)])
    return TruncatedMatrix(p, n, a), elementary(1), elementary(-1)


@settings(max_examples=100, **SETTINGS)
@given(case=conjugations())
def test_conjugating_by_an_elementary_matrix_keeps_the_determinant(case):
    a, e, e_inv = case
    assert e @ e_inv == TruncatedMatrix.identity(a.p, a.n, a.r)
    assert (e @ a @ e_inv).det() == a.det()


def prime_at_least(x):
    """The least prime >= x, by trial division."""
    while x < 2 or any(x % d == 0 for d in range(2, math.isqrt(x) + 1)):
        x += 1
    return x


@settings(max_examples=150, **SETTINGS)
@given(seed=st.integers(0, 2 ** 32 - 1), p=st.integers(2, 10 ** 6).map(prime_at_least),
       n=st.integers(1, 5), r=st.integers(1, 16))
def test_det_of_one_plus_pi_n_a_is_one_plus_pi_n_times_the_trace(seed, p, n, r):
    rng = random.Random(seed)
    A = [[rng.randrange(-p, 2 * p) for _ in range(r)] for _ in range(r)]
    M = TruncatedMatrix(p, n, [[[int(i == j)] + [0] * (n - 1) + [a] for j, a in enumerate(row)]
                               for i, row in enumerate(A)])
    assert one_plus_pi_n(p, n, A) == M
    assert M.det().coeffs == (1,) + (0,) * (n - 1) + (sum(A[i][i] for i in range(r)) % p,)


@st.composite
def diagonal_blocks(draw):
    """(p, n, k, B, D): B an r x r matrix over k[pi]/(pi^(n+1)) whose entries
    start with a drawn number of zeros, and D = B with a row and a column
    inserted at a drawn place, holding pi^k (k <= n) on the diagonal and 0
    elsewhere; n reaches the kernel's Kronecker branch."""
    p, n, r = (draw(st.sampled_from([2, 3, 5, 7, 101])),
               draw(st.sampled_from([0, 1, 2, 3, 5, 13, 20])), draw(st.integers(1, 7)))
    k, at = draw(st.integers(0, n)), draw(st.integers(0, r))
    coeffs = st.lists(st.integers(0, p - 1), min_size=n + 1, max_size=n + 1)
    entry = st.one_of(coeffs, st.builds(lambda low, cs: [0] * low + cs[low:],
                                        st.integers(0, n + 1), coeffs))
    b = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=r, max_size=r))
    zero, pi_k = [0] * (n + 1), [int(j == k) for j in range(n + 1)]
    d = [row[:at] + [zero] + row[at:] for row in b]
    d.insert(at, [zero] * at + [pi_k] + [zero] * (r - at))
    return p, n, k, TruncatedMatrix(p, n, b), TruncatedMatrix(p, n, d)


@settings(max_examples=100, **SETTINGS)
@given(case=diagonal_blocks())
def test_det_of_a_pi_power_beside_a_block_is_the_block_det_shifted(case):
    p, n, k, b, d = case
    assert d.det().coeffs == (0,) * k + b.det().coeffs[:n + 1 - k]
