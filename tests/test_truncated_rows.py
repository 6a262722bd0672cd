"""Differential tests of the row-held truncated matrices: every operation on
coefficient rows against the scalar-by-scalar reference in helpers, the two
ways of building a matrix, the refusal of non-integer coefficients, and the
number of scalars a request builds."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

import helpers
from nodalstab import truncated
from nodalstab.errors import InvalidInput
from nodalstab.truncated import (
    TruncatedMatrix,
    TruncatedScalar,
    det_section,
    det_trace_identity,
    one_plus_pi_n,
    sl_kernel_check,
    sl_lift,
    torsor_correct,
)

PRIMES = (2, 3, 7, 10007)


def coeffs(rng, p, n):
    return tuple(rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(n + 1))


def rows(rng, p, n, r):
    return [[coeffs(rng, p, n) for _ in range(r)] for _ in range(r)]


def as_rows(m):
    """A matrix's entries as a list of lists of coefficient tuples, read through
    ``entries`` so the scalars the API hands out are what is compared."""
    return [[x.coeffs for x in row] for row in m.entries]


def invertible(rng, p, n, r):
    while True:
        m = TruncatedMatrix(p, n, rows(rng, p, n, r))
        if m.is_invertible:
            return m


def cases():
    rng = random.Random(20)
    for p in PRIMES:
        for n in range(5):
            for r in range(1, 8):
                yield rng, p, n, r


@pytest.mark.parametrize("p", PRIMES)
def test_arithmetic_matches_the_scalar_reference(p):
    rng = random.Random(p)
    for n in range(5):
        for r in range(1, 8):
            a, b = rows(rng, p, n, r), rows(rng, p, n, r)
            A, B = TruncatedMatrix(p, n, a), TruncatedMatrix(p, n, b)
            s = TruncatedScalar(p, n, coeffs(rng, p, n))
            assert as_rows(A @ B) == helpers.ref_matmul(p, n, a, b)
            assert as_rows(A + B) == helpers.ref_add(p, n, a, b)
            assert as_rows(A.scale(s)) == helpers.ref_scale(p, n, s.coeffs, a)
            assert A.trace().coeffs == helpers.ref_trace(p, n, a)
            det = A.det().coeffs
            assert det == helpers.berkowitz_det(p, n, a), (p, n, r)
            if r <= 4:
                assert det == helpers.truncate_mod(helpers.leibniz_det(a), p, n)
            for m in range(n + 1):
                assert as_rows(A.reduce(m)) == helpers.ref_reduce(a, m)
                assert A.reduce(m).n == m
            for m in range(n, n + 3):
                assert as_rows(A.extend(m)) == helpers.ref_extend(a, m)


@pytest.mark.parametrize("p", PRIMES)
def test_sl_kernel_check_matches_the_reference_on_all_three_kinds(p):
    rng = random.Random(100 + p)
    for n in range(1, 5):
        for r in range(1, 8):
            B = [[rng.randrange(p) for _ in range(r)] for _ in range(r)]
            inside = [row[:] for row in B]
            inside[-1][-1] = (inside[-1][-1] - sum(B[i][i] for i in range(r))) % p
            by_trace = [row[:] for row in inside]
            by_trace[0][0] = (by_trace[0][0] + rng.randrange(1, p)) % p
            kinds = {"inside": one_plus_pi_n(p, n, inside),
                     "outside by trace": one_plus_pi_n(p, n, by_trace),
                     "outside by reduction": TruncatedMatrix(p, n, rows(rng, p, n, r))}
            for kind, M in kinds.items():
                v = sl_kernel_check(M)
                got = (v.det_is_one, v.reduces_to_identity, v.trace_residue, v.in_kernel,
                       v.trace_condition, v.biconditional_holds)
                assert got == helpers.ref_sl_kernel(p, n, as_rows(M)), (kind, p, n, r)
            assert sl_kernel_check(kinds["inside"]).in_kernel
            assert not sl_kernel_check(kinds["outside by trace"]).in_kernel


def one_coefficient_off(rng, p, n, r):
    """I + pi^n B with exactly one coefficient below order n moved off the
    identity's, on the diagonal or off it, or none moved; and where."""
    B = [[rng.randrange(p) for _ in range(r)] for _ in range(r)]
    m = [[[int(i == j)] + [0] * (n - 1) + [B[i][j]] for j in range(r)] for i in range(r)]
    where = None
    if rng.random() < 0.9:
        i = rng.randrange(r)
        where = (i, i if rng.random() < 0.5 else rng.randrange(r), rng.randrange(n))
        x = m[where[0]][where[1]]
        x[where[2]] = (x[where[2]] + rng.randrange(1, p)) % p
    return TruncatedMatrix(p, n, m), where


@pytest.mark.parametrize("p", PRIMES)
def test_sl_kernel_check_reads_every_coefficient_below_order_n(p):
    # reduces_to_identity is read off the rows: one coefficient off the identity,
    # at any entry and any order below n, must turn it false; r = 1 and n = 1
    # (reduction to order 0) included
    rng = random.Random(300 + p)
    for n in range(1, 5):
        for r in range(1, 6):
            for _ in range(6):
                M, where = one_coefficient_off(rng, p, n, r)
                v = sl_kernel_check(M)
                got = (v.det_is_one, v.reduces_to_identity, v.trace_residue, v.in_kernel,
                       v.trace_condition, v.biconditional_holds)
                assert got == helpers.ref_sl_kernel(p, n, as_rows(M)), (p, n, r, where)
                assert v.reduces_to_identity == (where is None), (p, n, r, where)


@pytest.mark.parametrize("p", PRIMES)
def test_torsor_correct_and_sl_lift_match_the_reference(p):
    rng = random.Random(200 + p)
    for n in range(5):
        for r in range(1, 8):
            if n >= 1:
                cocycle = [invertible(rng, p, n, r) for _ in range(2)]
                gammas = [TruncatedScalar(p, n, (1,) + (0,) * (n - 1) + (rng.randrange(p),))
                          for _ in cocycle]
                for F, g, out in zip(cocycle, gammas, torsor_correct(cocycle, gammas)):
                    assert as_rows(out) == helpers.ref_torsor(p, n, as_rows(F), g.coeffs)
            M = invertible(rng, p, n, r)
            M = M @ det_section(M.det().inverse(), r)   # determinant 1
            assert as_rows(sl_lift(M)) == helpers.ref_sl_lift(p, n, as_rows(M))


def test_scalar_and_coefficient_entries_build_the_same_matrix():
    for rng, p, n, r in cases():
        raw = [[[rng.randrange(-2 * p, 2 * p) for _ in range(n + 1)] for _ in range(r)]
               for _ in range(r)]
        from_lists = TruncatedMatrix(p, n, raw)
        from_scalars = TruncatedMatrix(p, n, [[TruncatedScalar(p, n, x) for x in row]
                                              for row in raw])
        mixed = TruncatedMatrix(p, n, [[TruncatedScalar(p, n, x) if (i + j) % 2 else x
                                        for j, x in enumerate(row)] for i, row in enumerate(raw)])
        for m in (from_scalars, mixed):
            assert m == from_lists and hash(m) == hash(from_lists)
            assert repr(m) == repr(from_lists)
            assert m.entries == from_lists.entries
        for m in (from_lists, pickle.loads(pickle.dumps(from_lists)), copy.copy(from_lists)):
            assert m == from_scalars and m.rows == from_scalars.rows
        assert from_lists.entries == tuple(tuple(TruncatedScalar(p, n, x) for x in row)
                                           for row in raw)


def test_rows_hold_reduced_coefficient_tuples():
    m = TruncatedMatrix(5, 1, [[[6, -1], (10, 7)], [TruncatedScalar(5, 1, (2, 3)), [0, 5]]])
    assert m.rows == (((1, 4), (0, 2)), ((2, 3), (0, 0)))
    assert repr(m).startswith("TruncatedMatrix(p=5, n=1, entries=((TruncatedScalar(p=5, n=1, "
                              "coeffs=(1, 4)), ")
    with pytest.raises(AttributeError):
        m.entries = ()


# --------------------------------------------------------- refusing bad input

NOT_F5 = "is not an integer, so not an element of F5"


@pytest.mark.parametrize("coeffs, bad", [((1.5, 2.7), r"1\.5"), (("3", True), "'3'"),
                                         ((1, None), "None"), ((2, 1.0), r"1\.0")])
def test_non_integer_coefficients_are_refused(coeffs, bad):
    with pytest.raises(InvalidInput, match=f"^{bad} {NOT_F5}$"):
        TruncatedScalar(5, 1, coeffs)
    with pytest.raises(InvalidInput, match=f"^{bad} {NOT_F5}$"):
        TruncatedMatrix(5, 1, [[coeffs]])


def test_integer_subclasses_are_integers():
    assert TruncatedScalar(5, 1, (True, 7)).coeffs == (1, 2)
    assert TruncatedMatrix(5, 0, [[(False,)]]).rows == (((0,),),)


def test_non_integer_entries_of_a_are_refused():
    with pytest.raises(InvalidInput, match=rf"^1\.5 {NOT_F5}$"):
        det_trace_identity(5, [[1.5, 0], [0, 2.9]], 1)
    with pytest.raises(InvalidInput, match=f"^'1' {NOT_F5}$"):
        one_plus_pi_n(5, 2, [[1, "1"], [0, 0]])
    assert det_trace_identity(5, [[True, 0], [0, 4]], 1).holds


@pytest.mark.parametrize("bad, shown", [(2.5, r"2\.5"), ("3", "'3'"), (None, "None"),
                                        (Fraction(3, 2), r"Fraction\(3, 2\)")])
def test_one_plus_pi_n_names_the_first_non_integer_entry_of_a_later_row(bad, shown):
    # the rows before it are all ints; so is the entry before it in its row
    A = [[1, 2, 3], [4, 5, 6], [7, bad, 2.5]]
    with pytest.raises(InvalidInput, match=f"^{shown} {NOT_F5}$"):
        one_plus_pi_n(5, 2, A)
    with pytest.raises(InvalidInput, match=f"^{shown} {NOT_F5}$"):
        det_trace_identity(5, A, 2)


def test_one_plus_pi_n_reduces_int_and_bool_entries_mod_p():
    m = one_plus_pi_n(5, 1, [[True, -1], [12, False]])
    assert m.rows == (((1, 1), (0, 4)), ((0, 2), (1, 0)))
    assert m == TruncatedMatrix(5, 1, [[[1, 1], [0, -1]], [[0, 12], [1, 0]]])


def test_the_first_bad_entry_in_document_order_is_reported():
    # entry [0][0] has the wrong length, entry [0][1] a float
    with pytest.raises(InvalidInput, match="^need 2 coefficients, got 3$"):
        TruncatedMatrix(5, 1, [[[1, 0, 0], [1.5, 0]], [[0, 0], [1, 0]]])
    with pytest.raises(InvalidInput, match=rf"^1\.5 {NOT_F5}$"):
        TruncatedMatrix(5, 1, [[[1, 0], [1.5, 0, 0]], [[0, 0], [1, 0]]])
    with pytest.raises(InvalidInput, match="^matrix entries belong to different rings$"):
        TruncatedMatrix(5, 1, [[[1, 0], TruncatedScalar(7, 1, (1, 0))], [[0], [1, 0]]])
    with pytest.raises(InvalidInput, match="^need 2 coefficients, got 1$"):
        TruncatedMatrix(5, 1, [[[1, 0], [0, 0]], [[0], TruncatedScalar(7, 1, (1, 0))]])


def test_ring_and_shape_errors_keep_their_messages():
    for args, message in [((4, 1, [[[1, 0]]]), "4 is not prime"),
                          ((5, -1, [[[1]]]), "truncation order must be nonnegative"),
                          ((5, 1, []), "matrix must be square and nonempty"),
                          ((5, 1, [[[1, 0], [0, 0]]]), "matrix must be square and nonempty"),
                          ((5, 1, [[TruncatedScalar(5, 0, (1,))]]),
                           "matrix entries belong to different rings")]:
        with pytest.raises(InvalidInput, match=f"^{message}$"):
            TruncatedMatrix(*args)
    with pytest.raises(InvalidInput, match="^4 is not prime$"):
        TruncatedMatrix.identity(4, 1, 2)
    with pytest.raises(InvalidInput, match="^matrix must be square and nonempty$"):
        one_plus_pi_n(5, 1, [[1, 2], [3]])
    m = TruncatedMatrix.identity(5, 2, 2)
    with pytest.raises(InvalidInput, match="^cannot reduce order 2 to order 3$"):
        m.reduce(3)
    with pytest.raises(InvalidInput, match="^cannot extend order 2 down to 1$"):
        m.extend(1)
    with pytest.raises(InvalidInput, match="^scalars belong to different truncated rings$"):
        m.scale(TruncatedScalar(5, 1, (1, 0)))
    with pytest.raises(InvalidInput, match="^matrix shapes or rings differ$"):
        m @ TruncatedMatrix.identity(5, 1, 2)


# ------------------------------------------------------------ scalar counts

def count_scalars(monkeypatch, run):
    """How many TruncatedScalar objects run() constructs."""
    real, count = TruncatedScalar.__init__, [0]

    def counting(self, *args, **kwargs):
        count[0] += 1
        real(self, *args, **kwargs)
    monkeypatch.setattr(TruncatedScalar, "__init__", counting)
    run()
    monkeypatch.setattr(TruncatedScalar, "__init__", real)
    return count[0]


def test_a_det_trace_request_builds_at_most_four_scalars(monkeypatch):
    rng = random.Random(6)
    A = [[rng.randrange(101) for _ in range(6)] for _ in range(6)]
    # the entry-per-scalar matrices built r^2 + 4 = 40 here; det builds its
    # result unchecked, from coefficients already reduced mod p
    assert count_scalars(monkeypatch, lambda: det_trace_identity(101, A, 2)) == 0
    M = one_plus_pi_n(101, 2, A)
    assert count_scalars(monkeypatch, lambda: sl_kernel_check(M)) == 0
    assert count_scalars(monkeypatch, lambda: M @ M + M.reduce(1).extend(2)) == 0


def count_matrices(monkeypatch, run):
    """How many matrices run() builds through ``truncated._matrix``."""
    real, count = truncated._matrix, [0]

    def counting(*args):
        count[0] += 1
        return real(*args)
    monkeypatch.setattr(truncated, "_matrix", counting)
    run()
    monkeypatch.setattr(truncated, "_matrix", real)
    return count[0]


def test_the_sl_and_det_trace_checks_build_no_matrix_they_throw_away(monkeypatch):
    # sl_kernel_check reads the identity off M's rows; det_trace_identity
    # builds I + pi^n A and nothing else
    rng = random.Random(7)
    for r in (1, 3, 6):
        A = [[rng.randrange(101) for _ in range(r)] for _ in range(r)]
        M = one_plus_pi_n(101, 2, A)
        outside = TruncatedMatrix(101, 2, rows(rng, 101, 2, r))
        assert count_matrices(monkeypatch, lambda: sl_kernel_check(M)) == 0
        assert count_matrices(monkeypatch, lambda: sl_kernel_check(outside)) == 0
        assert count_matrices(monkeypatch, lambda: det_trace_identity(101, A, 2)) == 1


def test_the_row_operations_share_the_product_kernel(monkeypatch):
    calls = []
    real = truncated._axpy

    def counting(p, n, q, ys, xs=None):
        calls.append(len(ys))
        return real(p, n, q, ys, xs)
    monkeypatch.setattr(truncated, "_axpy", counting)
    M = TruncatedMatrix.identity(7, 1, 3)
    M @ M
    assert calls == [3] * 9


def test_scalar_reduce_and_extend_build_no_checked_scalar(monkeypatch):
    # the coefficients are already checked and reduced mod p
    x = TruncatedScalar(7, 2, (3, 0, 5))
    assert count_scalars(monkeypatch, lambda: x.reduce(1).extend(4)) == 0
    assert x.reduce(1).extend(4) == TruncatedScalar(7, 4, (3, 0, 0, 0, 0))
