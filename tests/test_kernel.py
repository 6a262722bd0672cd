"""Differential tests of the truncated product kernel: its sparse loop and its
Kronecker substitution, each run on the same rows against the quadratic
``helpers.dot``; the choice between them; the Newton inverse against the
coefficient-wise inverse it replaced; and the operations built on them at
orders where the Kronecker branch runs."""

import random

import pytest

import helpers
from nodalstab import truncated
from nodalstab.errors import InvalidInput
from nodalstab.fields import PrimeField
from nodalstab.truncated import (
    TruncatedMatrix,
    TruncatedScalar,
    det_section,
    det_trace_identity,
    one_plus_pi_n,
    sl_lift,
    torsor_correct,
)

# 18446744073709551557 is the largest prime below 2^64, where the slot width matters most
PRIMES = (2, 3, 7, 10007, 18446744073709551557)


def vector(rng, p, length, density):
    return tuple(rng.randrange(1, p) if rng.random() < density else 0 for _ in range(length))


def reference(p, n, q, ys, xs=None):
    """x + q y for each pair, by the quadratic product the kernel replaced."""
    def pad(v):
        return tuple(v) + (0,) * (n + 1 - len(v))
    xs = xs or [(0,) * (n + 1)] * len(ys)
    return [tuple((a + b) % p for a, b in zip(x, helpers.dot(p, n, [pad(q)], [pad(y)])))
            for x, y in zip(xs, ys)]


def both_branches(p, n, q, ys, xs=None):
    """The sparse loop and Kronecker substitution, each forced on the same row."""
    nz = [(i, a) for i, a in enumerate(q[:n + 1]) if a]
    sparse = [truncated._sparse(p, n, nz, y, list(x))
              for x, y in zip(xs or [(0,) * (n + 1)] * len(ys), ys)]
    return sparse, truncated._kronecker(p, n, q, ys, xs)


@pytest.mark.parametrize("p", PRIMES)
def test_both_branches_match_the_quadratic_product(p):
    rng = random.Random(p % 1009)
    for n in (0, 1, 2, 3, 7, 11, 12, 13, 16, 33, 64):
        for density in (0.0, 0.2, 0.7, 1.0):
            for _ in range(3):
                q = vector(rng, p, rng.randint(1, n + 1), density)
                # rows of 0 to 4 entries: zero vectors, short vectors and dense ones
                ys = [vector(rng, p, rng.randint(1, n + 1), rng.choice((0.0, density, 1.0)))
                      for _ in range(rng.randint(0, 4))]
                xs = rng.choice([None, [vector(rng, p, n + 1, 0.5) for _ in ys]])
                want = reference(p, n, q, ys, xs)
                assert both_branches(p, n, q, ys, xs) == (want, want), (p, n, density)
                assert truncated._axpy(p, n, q, ys, xs) == want
                # the one-pair entry: q y, with no row around the pair
                assert [truncated._mul(p, n, q, y) for y in ys] == reference(p, n, q, ys)


@pytest.mark.parametrize("p", PRIMES)
def test_both_branches_read_no_coefficient_past_n(p):
    # q and y may be longer than n + 1, as det's rows are once its pivots leave
    # less precision than n: the product is that of their images mod pi^(n+1)
    rng = random.Random(p % 1013)
    for n in (0, 1, 3, 12, 13, 40):
        for density in (0.2, 1.0):
            q = vector(rng, p, n + 1 + rng.randint(1, 30), density)
            ys = [vector(rng, p, n + 1 + rng.randint(0, 30), 1.0) for _ in range(3)]
            want = reference(p, n, q[:n + 1], [y[:n + 1] for y in ys])
            assert both_branches(p, n, q, ys) == (want, want), (p, n, density)
            assert truncated._axpy(p, n, q, ys) == want
            assert [truncated._mul(p, n, q, y) for y in ys] == want


@pytest.mark.parametrize("p", PRIMES)
def test_the_largest_coefficients_fit_the_slots(p):
    # every coefficient p - 1: each slot of q y then holds up to (n + 1)(p - 1)^2
    for n in (0, 1, 12, 13, 63, 64, 255):
        top = (p - 1,) * (n + 1)
        want = reference(p, n, top, [top], [top])
        assert both_branches(p, n, top, [top], [top]) == (want, want), n


def recording(monkeypatch):
    calls, real = [], truncated._kronecker

    def kronecker(p, n, q, ys, xs):
        calls.append((n, q))
        return real(p, n, q, ys, xs)
    monkeypatch.setattr(truncated, "_kronecker", kronecker)
    return calls


def test_kronecker_runs_past_twelve_nonzero_coefficients_of_q(monkeypatch):
    calls = recording(monkeypatch)
    rng = random.Random(9)
    for k in (12, 13):
        for n in (12, 40):
            q = [0] * (n + 1)
            for i in rng.sample(range(n + 1), k):
                q[i] = rng.randrange(1, 7)
            ys = [vector(rng, 7, n + 1, 1.0) for _ in range(3)]
            assert truncated._axpy(7, n, tuple(q), ys) == reference(7, n, q, ys)
    assert [n for n, _ in calls] == [12, 40]   # the two rows with thirteen


def test_small_orders_and_one_plus_pi_n_stay_sparse(monkeypatch):
    # every coefficient vector has at most 4 coefficients at n <= 3, and every entry
    # of I + pi^n A keeps at most two nonzero ones through the elimination
    calls = recording(monkeypatch)
    rng = random.Random(3)
    for n in range(4):
        for r in range(1, 7):
            m = TruncatedMatrix(101, n, [[vector(rng, 101, n + 1, 1.0) for _ in range(r)]
                                         for _ in range(r)])
            m.det(), m @ m, m.scale(m.trace())
    for n in (100, 1000):
        A = [[rng.randrange(101) for _ in range(8)] for _ in range(8)]
        assert det_trace_identity(101, A, n).holds
    assert calls == []


@pytest.mark.parametrize("p", PRIMES)
def test_newton_inverse_matches_the_coefficientwise_inverse(p):
    rng = random.Random(p % 997)
    for n in list(range(12)) + [15, 16, 17, 31, 32, 33, 100, 257]:
        for density in (0.05, 0.5, 1.0):
            f = (rng.randrange(1, p),) + vector(rng, p, n, density)
            got = truncated._inverse(p, n, f)
            assert got == helpers.coefficient_inverse(p, n, f), (p, n, density)
            assert helpers.dot(p, n, [f], [got]) == [1] + [0] * n
            assert TruncatedScalar(p, n, f).inverse().coeffs == got


@pytest.mark.parametrize("p", PRIMES)
def test_det_trace_identity_at_long_orders_up_to_rank_16(p):
    rng = random.Random(p % 991)
    for r in range(1, 17):
        n = rng.choice((1, 9, 64, 1000))
        A = [[rng.randrange(-p, 2 * p) for _ in range(r)] for _ in range(r)]
        verdict = det_trace_identity(p, A, n)
        tr = sum(A[i][i] for i in range(r)) % p
        assert verdict.holds and verdict.lhs.coeffs == (1,) + (0,) * (n - 1) + (tr,), (r, n)


@pytest.mark.parametrize("p", PRIMES)
def test_torsor_correct_and_sl_lift_past_the_sparse_kernel(p):
    rng = random.Random(p % 983)
    for n in (16, 24):
        for r in (1, 2, 3):
            while True:
                M = TruncatedMatrix(p, n, [[vector(rng, p, n + 1, 0.9) for _ in range(r)]
                                           for _ in range(r)])
                if M.is_invertible:
                    break
            rows = [[x.coeffs for x in row] for row in M.entries]
            gamma = TruncatedScalar(p, n, (1,) + (0,) * (n - 1) + (rng.randrange(p),))
            [out] = torsor_correct([M], [gamma])
            assert [list(row) for row in out.rows] == helpers.ref_torsor(p, n, rows, gamma.coeffs)
            S = M @ det_section(M.det().inverse(), r)   # determinant 1
            srows = [list(row) for row in S.rows]
            assert [list(row) for row in sl_lift(S).rows] == helpers.ref_sl_lift(p, n, srows)


def test_a_det_trace_request_builds_the_field_once(monkeypatch):
    # for the entries of A only: det builds its result from coefficients
    # already reduced mod p, without a field
    real, count = PrimeField.__init__, [0]

    def counting(self, p):
        count[0] += 1
        real(self, p)
    monkeypatch.setattr(PrimeField, "__init__", counting)
    A = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
    assert det_trace_identity(101, A, 2).holds
    assert count[0] == 1


@pytest.mark.parametrize("args, message", [
    ((4, -1, [[1.5, 0]]), "4 is not prime"),
    ((5, -1, [[1.5, 0]]), "truncation order must be nonnegative"),
    ((5, 1, [[1.5, 0]]), "matrix must be square and nonempty"),
    ((5, 1, []), "matrix must be square and nonempty"),
    ((5, 1, [[1, "2"], [1.5, 0]]), "'2' is not an integer, so not an element of F5"),
])
def test_one_plus_pi_n_refuses_in_order(args, message):
    with pytest.raises(InvalidInput, match=f"^{message}$"):
        one_plus_pi_n(*args)
