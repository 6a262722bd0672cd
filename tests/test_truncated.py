import operator
import random

import pytest
from hypothesis import given, strategies as st

import helpers
from nodalstab import (
    TruncatedMatrix,
    TruncatedScalar,
    det_section,
    det_trace_identity,
    sl_kernel_check,
    sl_lift,
    torsor_correct,
    trace_section,
)
from nodalstab.errors import InvalidInput, NotUnit
from nodalstab.truncated import one_plus_pi_n


def scalar(p, n, *coeffs):
    return TruncatedScalar(p, n, coeffs)


small_ring = st.tuples(st.sampled_from([2, 3, 5, 7]), st.integers(0, 3))


@given(small_ring, st.data())
def test_scalar_ring_axioms(ring, data):
    p, n = ring
    coeff = st.integers(0, p - 1)
    vec = st.tuples(*[coeff] * (n + 1))
    a = TruncatedScalar(p, n, data.draw(vec))
    b = TruncatedScalar(p, n, data.draw(vec))
    c = TruncatedScalar(p, n, data.draw(vec))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == TruncatedScalar.zero(p, n)


@given(small_ring, st.data())
def test_scalar_unit_inverse(ring, data):
    p, n = ring
    coeffs = (data.draw(st.integers(1, p - 1)),) + tuple(
        data.draw(st.integers(0, p - 1)) for _ in range(n))
    a = TruncatedScalar(p, n, coeffs)
    assert a.is_unit
    assert a * a.inverse() == TruncatedScalar.one(p, n)


def test_scalar_non_unit_has_no_inverse():
    with pytest.raises(NotUnit):
        scalar(5, 1, 0, 3).inverse()


def test_scalar_unit_and_zero_read_the_reduced_coefficients():
    rng = random.Random(151)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7, 101])
        n = rng.randint(0, 4)
        raw = [rng.choice([0, p, -p, 2 * p]) + rng.choice([0, 0, rng.randint(-3 * p, 3 * p)])
               for _ in range(n + 1)]
        x = TruncatedScalar(p, n, tuple(raw))
        assert x.is_unit == (raw[0] % p != 0)
        assert x.is_zero == all(a % p == 0 for a in raw)


def test_scalar_repr_is_the_dataclass_repr():
    assert repr(TruncatedScalar(5, 2, (1, 2, 8))) == "TruncatedScalar(p=5, n=2, coeffs=(1, 2, 3))"
    assert repr(TruncatedScalar(7, 0, (-1,))) == "TruncatedScalar(p=7, n=0, coeffs=(6,))"


def test_pi_power_truncates():
    assert TruncatedScalar.pi_power(5, 2, 3).is_zero
    pi = TruncatedScalar.pi_power(5, 2, 1)
    assert (pi * pi * pi).is_zero
    assert (pi * pi).coeffs == (0, 0, 1)


def test_det_trace_identity_worked_example():
    verdict = det_trace_identity(5, [[1, 2], [3, 4]], 1)
    assert verdict.holds
    assert verdict.lhs.coeffs == (1, 0)
    assert verdict.rhs.coeffs == (1, 0)


def test_det_trace_identity_zero_matrix():
    verdict = det_trace_identity(7, [[0, 0], [0, 0]], 2)
    assert verdict.holds
    assert verdict.lhs == TruncatedScalar.one(7, 2)


def test_det_trace_identity_needs_positive_order():
    with pytest.raises(InvalidInput):
        det_trace_identity(5, [[1]], 0)


def test_det_trace_identity_random_vs_leibniz_oracle():
    rng = random.Random(71)
    for _ in range(300):
        p = rng.choice([5, 7])
        n = rng.randint(1, 3)
        r = rng.randint(1, 4)
        A = [[rng.randrange(p) for _ in range(r)] for _ in range(r)]
        verdict = det_trace_identity(p, A, n)
        assert verdict.holds
        polys = [[[1 if i == j else 0] + [0] * (n - 1) + [A[i][j]]
                  for j in range(r)] for i in range(r)]
        oracle = helpers.truncate_mod(helpers.leibniz_det(polys), p, n)
        assert verdict.lhs.coeffs == oracle


def test_berkowitz_det_vs_leibniz_oracle():
    rng = random.Random(79)
    for p in (2, 3, 7, 10007):
        for n in range(4):
            for r in range(1, 7):
                for shape in ("random", "sparse", "nilpotent"):
                    ent = [[[rng.randrange(p) for _ in range(n + 1)] for _ in range(r)]
                           for _ in range(r)]
                    for i in range(r):
                        for j in range(r):
                            if shape == "sparse" and rng.random() < 0.6 or \
                                    shape == "nilpotent" and j <= i:
                                ent[i][j] = [0] * (n + 1)
                    got = TruncatedMatrix(p, n, tuple(tuple(tuple(c) for c in row)
                                                      for row in ent)).det()
                    assert got.coeffs == helpers.truncate_mod(helpers.leibniz_det(ent), p, n)


def test_kernel_layer_is_abelian():
    rng = random.Random(73)
    for _ in range(200):
        p = rng.choice([5, 7])
        n = rng.randint(1, 3)
        r = rng.randint(1, 3)
        A = [[rng.randrange(p) for _ in range(r)] for _ in range(r)]
        B = [[rng.randrange(p) for _ in range(r)] for _ in range(r)]
        AB = [[(A[i][j] + B[i][j]) % p for j in range(r)] for i in range(r)]
        lhs = one_plus_pi_n(p, n, A).det() * one_plus_pi_n(p, n, B).det()
        assert lhs == one_plus_pi_n(p, n, AB).det()
        assert (one_plus_pi_n(p, n, A) @ one_plus_pi_n(p, n, B)) == \
            (one_plus_pi_n(p, n, B) @ one_plus_pi_n(p, n, A))


def test_sl_kernel_check_trace_zero_element():
    m = one_plus_pi_n(5, 1, [[1, 2], [3, 4]])
    verdict = sl_kernel_check(m)
    assert verdict.det_is_one
    assert verdict.reduces_to_identity
    assert verdict.trace_residue == 0
    assert verdict.in_kernel
    assert verdict.biconditional_holds


def test_sl_kernel_check_nonzero_trace_element():
    m = one_plus_pi_n(5, 1, [[1, 0], [0, 0]])
    verdict = sl_kernel_check(m)
    assert not verdict.det_is_one
    assert verdict.reduces_to_identity
    assert verdict.trace_residue == 1
    assert not verdict.in_kernel
    assert verdict.biconditional_holds


def test_sl_kernel_check_identity():
    verdict = sl_kernel_check(TruncatedMatrix.identity(5, 2, 3))
    assert verdict.in_kernel
    assert verdict.biconditional_holds


def test_sl_kernel_check_random_biconditional():
    rng = random.Random(79)
    for _ in range(400):
        p = rng.choice([5, 7])
        n = rng.randint(1, 3)
        r = rng.randint(1, 3)
        if rng.random() < 0.6:
            A = [[rng.randrange(p) for _ in range(r)] for _ in range(r)]
            if rng.random() < 0.5:   # force trace zero: kernel element
                A[r - 1][r - 1] = (-sum(A[i][i] for i in range(r - 1))) % p
            m = one_plus_pi_n(p, n, A)
        else:
            m = TruncatedMatrix(p, n, [[
                [rng.randrange(p) for _ in range(n + 1)] for _ in range(r)]
                for _ in range(r)])
        assert sl_kernel_check(m).biconditional_holds


def test_trace_section_shape():
    one = TruncatedScalar.one(5, 1)
    zero = TruncatedScalar.zero(5, 1)
    m = trace_section(one, 3)
    assert m.entries[0][0] == one
    assert all(m.entries[i][j] == zero for i in range(3) for j in range(3)
               if (i, j) != (0, 0))


def test_trace_section_is_a_section():
    rng = random.Random(83)
    for _ in range(100):
        p = rng.choice([5, 7])
        n = rng.randint(0, 3)
        lam = TruncatedScalar(p, n, [rng.randrange(p) for _ in range(n + 1)])
        r = rng.randint(1, 4)
        assert trace_section(lam, r).trace() == lam


def test_trace_section_splits_the_unit_layer():
    """Every element of 1 + pi^n R is hit by 1 + pi^n tr via the section."""
    rng = random.Random(89)
    for _ in range(100):
        p = rng.choice([5, 7])
        n = rng.randint(1, 3)
        r = rng.randint(1, 3)
        gamma_tail = rng.randrange(p)
        gamma = TruncatedScalar(p, n, (1,) + (0,) * (n - 1) + (gamma_tail,))
        lam = TruncatedScalar.constant(p, n, gamma_tail)
        pin = TruncatedScalar.pi_power(p, n, n)
        lift = TruncatedMatrix.identity(p, n, r) + trace_section(lam, r).scale(pin)
        one = TruncatedScalar.one(p, n)
        # applying 1 + pi^n tr to I + pi^n phi(lam) recovers gamma
        assert one + pin * trace_section(lam, r).trace() == gamma
        assert lift.det() == gamma


def test_det_section_is_a_section():
    rng = random.Random(97)
    for _ in range(100):
        p = rng.choice([5, 7])
        n = rng.randint(0, 3)
        coeffs = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(n)]
        u = TruncatedScalar(p, n, coeffs)
        r = rng.randint(1, 4)
        assert det_section(u, r).det() == u
    assert det_section(TruncatedScalar.one(5, 1), 3) == TruncatedMatrix.identity(5, 1, 3)


def test_det_section_rejects_non_unit():
    with pytest.raises(NotUnit):
        det_section(scalar(5, 1, 0, 1), 2)


def _random_invertible(rng, p, n, r):
    while True:
        m = TruncatedMatrix(p, n, [[
            [rng.randrange(p) for _ in range(n + 1)] for _ in range(r)]
            for _ in range(r)])
        if m.is_invertible:
            return m


def test_torsor_correct_identity_units():
    rng = random.Random(101)
    p, n, r = 5, 2, 2
    cocycle = [_random_invertible(rng, p, n, r) for _ in range(3)]
    ones = [TruncatedScalar.one(p, n)] * 3
    assert torsor_correct(cocycle, ones) == cocycle


def test_torsor_correct_single_example():
    gamma = scalar(5, 1, 1, 1)
    out = torsor_correct([TruncatedMatrix.identity(5, 1, 2)], [gamma])
    assert out[0].det() == gamma


def test_torsor_correct_det_relation_random():
    rng = random.Random(103)
    for _ in range(150):
        p = rng.choice([5, 7])
        n = rng.randint(1, 3)
        r = rng.randint(1, 3)
        count = rng.randint(1, 4)
        cocycle = [_random_invertible(rng, p, n, r) for _ in range(count)]
        gammas = [TruncatedScalar(p, n, (1,) + (0,) * (n - 1) + (rng.randrange(p),))
                  for _ in range(count)]
        corrected = torsor_correct(cocycle, gammas)
        for lift, gamma, original in zip(corrected, gammas, cocycle):
            assert lift.det() == gamma * original.det()
            assert lift.reduce(n - 1) == original.reduce(n - 1)


def test_torsor_correct_errors():
    p, n = 5, 1
    I = TruncatedMatrix.identity(p, n, 2)
    with pytest.raises(InvalidInput):
        torsor_correct([I], [])
    with pytest.raises(InvalidInput):
        torsor_correct([I], [scalar(p, n, 2, 1)])    # not in 1 + pi^n R
    singular = TruncatedMatrix(p, n, [[[0, 0], [0, 0]], [[0, 0], [0, 0]]])
    with pytest.raises(InvalidInput):
        torsor_correct([singular], [TruncatedScalar.one(p, n)])


def test_sl_reduction_exactness_at_element_level():
    rng = random.Random(107)
    for _ in range(100):
        p = rng.choice([5, 7])
        n = rng.randint(1, 3)
        r = rng.randint(2, 3)
        # surjectivity: any det-1 matrix lifts one stage with det 1
        lower = _random_sl(rng, p, n - 1, r)
        lifted = sl_lift(lower)
        assert lifted.n == n
        assert lifted.det() == TruncatedScalar.one(p, n)
        assert lifted.reduce(n - 1) == lower
        # kernel: a lift of the identity lies in the kernel set exactly
        # when the trace condition holds
        verdict = sl_kernel_check(lifted @ _kernel_element(rng, p, n, r))
        assert verdict.biconditional_holds


def test_reduction_is_a_ring_and_group_homomorphism():
    rng = random.Random(109)
    for _ in range(100):
        p = rng.choice([5, 7])
        n = rng.randint(1, 3)
        m = rng.randint(0, n - 1)
        a = TruncatedScalar(p, n, [rng.randrange(p) for _ in range(n + 1)])
        b = TruncatedScalar(p, n, [rng.randrange(p) for _ in range(n + 1)])
        assert (a + b).reduce(m) == a.reduce(m) + b.reduce(m)
        assert (a * b).reduce(m) == a.reduce(m) * b.reduce(m)
        r = rng.randint(1, 3)
        A = _random_invertible(rng, p, n, r)
        B = _random_invertible(rng, p, n, r)
        assert (A @ B).reduce(m) == A.reduce(m) @ B.reduce(m)
        assert (A @ B).det() == A.det() * B.det()


def _random_sl(rng, p, n, r):
    """Random determinant-1 matrix: rescale a column of a random invertible."""
    m = _random_invertible(rng, p, n, r)
    u = m.det().inverse()
    return m @ det_section(u, r)


def _kernel_element(rng, p, n, r):
    A = [[rng.randrange(p) for _ in range(r)] for _ in range(r)]
    A[r - 1][r - 1] = (-sum(A[i][i] for i in range(r - 1))) % p
    return one_plus_pi_n(p, n, A)


def _random_matrix(rng, p, n, r):
    return TruncatedMatrix(p, n, [[[rng.randrange(p) for _ in range(n + 1)]
                                   for _ in range(r)] for _ in range(r)])


def test_matmul_matches_entrywise_scalar_products():
    rng = random.Random(211)
    for _ in range(200):
        p = rng.choice([2, 3, 7, 10007])
        n = rng.randint(0, 3)
        r = rng.randint(1, 5)
        A, B = _random_matrix(rng, p, n, r), _random_matrix(rng, p, n, r)
        expected = [[sum((A.entries[i][k] * B.entries[k][j] for k in range(r)),
                         TruncatedScalar.zero(p, n)) for j in range(r)] for i in range(r)]
        assert [list(row) for row in (A @ B).entries] == expected


def test_torsor_correct_matches_the_trace_section_lift_product():
    rng = random.Random(223)
    for _ in range(150):
        p = rng.choice([3, 5, 7, 101])
        n = rng.randint(1, 3)
        r = rng.randint(1, 4)
        cocycle = [_random_invertible(rng, p, n, r) for _ in range(rng.randint(1, 3))]
        gammas = [TruncatedScalar(p, n, (1,) + (0,) * (n - 1) + (rng.randrange(p),))
                  for _ in cocycle]
        pin = TruncatedScalar.pi_power(p, n, n)
        lifts = [TruncatedMatrix.identity(p, n, r)
                 + trace_section(TruncatedScalar.constant(p, n, g.coeffs[n]), r).scale(pin)
                 for g in gammas]
        expected = [lift @ F for lift, F in zip(lifts, cocycle)]
        assert torsor_correct(cocycle, gammas) == expected


def test_sl_lift_matches_the_det_section_product():
    rng = random.Random(227)
    for _ in range(150):
        p = rng.choice([3, 5, 7, 101])
        n = rng.randint(0, 3)
        r = rng.randint(1, 4)
        M = _random_sl(rng, p, n, r)
        padded = M.extend(n + 1)
        assert sl_lift(M) == padded @ det_section(padded.det().inverse(), r)


# --------------------------------------------------- guards and the rest of the API

@pytest.mark.parametrize("A", [[], [[1, 2]], [[1, 2], [3]], [[1], [2]]])
def test_det_trace_identity_needs_a_square_nonempty_matrix(A):
    with pytest.raises(InvalidInput, match="^matrix must be square and nonempty$"):
        det_trace_identity(5, A, 1)


@pytest.mark.parametrize("A", [7, [1, 2]])
def test_det_trace_identity_refuses_a_matrix_without_rows(A):
    # 7 and [1, 2] raised a bare TypeError from len()
    with pytest.raises(InvalidInput, match="^matrix must be square and nonempty$"):
        det_trace_identity(5, A, 1)


def test_det_trace_identity_checks_the_order_type_before_comparing_it():
    # "2" raised a bare TypeError from "2" < 1
    with pytest.raises(InvalidInput, match="^truncation order must be an integer, got '2'$"):
        det_trace_identity(5, [[1]], "2")
    assert det_trace_identity(5, [[1]], 2).holds


@given(small_ring, st.data())
def test_scalar_subtraction_is_coefficientwise_mod_p(ring, data):
    p, n = ring
    vec = st.tuples(*[st.integers(-2 * p, 2 * p)] * (n + 1))
    a, b = TruncatedScalar(p, n, data.draw(vec)), TruncatedScalar(p, n, data.draw(vec))
    assert (a - b).coeffs == tuple((x - y) % p for x, y in zip(a.coeffs, b.coeffs))
    assert a - b == a + (-b)
    assert a - a == TruncatedScalar.zero(p, n)


def test_scalar_subtraction_refuses_another_ring():
    with pytest.raises(InvalidInput, match="^scalars belong to different truncated rings$"):
        scalar(5, 1, 1, 2) - scalar(5, 2, 1, 2, 3)
    with pytest.raises(InvalidInput):
        scalar(5, 1, 1, 2) - scalar(7, 1, 1, 2)


def test_scalar_extend_then_reduce_is_the_identity():
    x = scalar(7, 2, 3, 0, 5)
    for m in (2, 3, 6):
        up = x.extend(m)
        assert up.n == m and up.coeffs == x.coeffs + (0,) * (m - 2)
        assert up.reduce(2) == x
    assert x.reduce(0) == scalar(7, 0, 3)
    assert x.reduce(0).extend(2) == scalar(7, 2, 3, 0, 0)


def test_scalar_reduce_and_extend_refuse_the_wrong_direction():
    x = scalar(5, 2, 1, 2, 3)
    for m in (-1, 3):
        with pytest.raises(InvalidInput, match=f"^cannot reduce order 2 to order {m}$"):
            x.reduce(m)
    with pytest.raises(InvalidInput, match="^cannot extend order 2 down to 1$"):
        x.extend(1)


def test_matrix_sum_refuses_another_ring_or_size():
    a = TruncatedMatrix.identity(5, 1, 2)
    for b in (TruncatedMatrix.identity(7, 1, 2), TruncatedMatrix.identity(5, 2, 2),
              TruncatedMatrix.identity(5, 1, 3)):
        with pytest.raises(InvalidInput, match="^matrix shapes or rings differ$"):
            a + b
    assert (a + a).rows == (((2, 0), (0, 0)), ((0, 0), (2, 0)))


@pytest.mark.parametrize("other", [5, None, scalar(5, 1, 1, 2), (((1, 0), (0, 0)),) * 2,
                                   TruncatedMatrix.identity(7, 1, 2),
                                   TruncatedMatrix.identity(5, 2, 2),
                                   TruncatedMatrix.identity(5, 1, 3)])
def test_matrix_operators_refuse_anything_but_a_matrix_of_their_ring_and_size(other):
    # @ and + once read other.p unchecked: M @ 5 and M + 5 raised AttributeError
    a = TruncatedMatrix.identity(5, 1, 2)
    for op in (operator.matmul, operator.add):
        with pytest.raises(InvalidInput, match="^matrix shapes or rings differ$"):
            op(a, other)
    # and the scalar operators refuse a matrix as before
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(InvalidInput, match="^scalars belong to different truncated rings$"):
            op(scalar(5, 1, 1, 2), a)


@pytest.mark.parametrize("section", [trace_section, det_section])
@pytest.mark.parametrize("r", [0, -1])
def test_sections_need_a_positive_size(section, r):
    with pytest.raises(InvalidInput, match="^matrix size must be positive$"):
        section(scalar(5, 1, 1, 2), r)


def test_sl_lift_needs_determinant_one():
    M = TruncatedMatrix(5, 1, [[[2, 0], [0, 0]], [[0, 0], [1, 0]]])
    assert M.det() == scalar(5, 1, 2, 0)
    with pytest.raises(InvalidInput, match="^sl_lift needs a determinant-1 matrix$"):
        sl_lift(M)


def test_a_ring_over_a_prime_that_is_not_an_int_is_refused():
    # this scalar used to hold the floats (1.0, 2.0)
    with pytest.raises(InvalidInput, match="^5.0 is not prime$"):
        TruncatedScalar(5.0, 1, (1, 2))
    with pytest.raises(InvalidInput, match="^5.0 is not prime$"):
        TruncatedMatrix(5.0, 0, [[(1,)]])


@pytest.mark.parametrize("n", [1.0, 0.5, "1", None])
def test_a_truncation_order_that_is_not_an_int_is_refused(n):
    # TruncatedScalar(5, 1.0, (1, 2)) built, and its product raised a bare TypeError
    with pytest.raises(InvalidInput, match="^truncation order must be an integer, got "):
        TruncatedScalar(5, n, (1, 2))
    with pytest.raises(InvalidInput, match="^truncation order must be an integer, got "):
        TruncatedMatrix.identity(5, n, 2)
    assert TruncatedScalar(5, True, (1, 2)) * TruncatedScalar(5, 1, (1, 2)) == scalar(5, 1, 1, 4)
