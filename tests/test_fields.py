"""Differential tests of the prime-field primitives against brute force."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest

from nodalstab import PrimeField, RationalField, build_rational_flag
from nodalstab.errors import InvalidInput, NoRoot, SingularProjection
from nodalstab.fields import _is_prime, mat_rank, parse_field


def trial_division(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


SMALL_PRIMES = [p for p in range(400) if trial_division(p)]


def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 10**5) if _is_prime(n)] == \
        [n for n in range(-3, 10**5) if trial_division(n)]


def test_is_prime_rejects_pseudoprimes():
    # Carmichael numbers, and strong pseudoprimes to every base up to 7
    # (3215031751) and up to 23 (3825123056546413051)
    for n in (561, 41041, 3215031751, 3825123056546413051):
        assert not _is_prime(n)
    for p in (2**31 - 1, 2**61 - 1, 2**64 - 59, 10**18 + 9):
        assert _is_prime(p)
    assert not _is_prime(2**64 - 1)


def test_the_primality_memo_holds_a_pass_over_hundreds_of_primes():
    # a ring-field pass asks about 220 distinct primes, each many times
    primes = [n for n in range(10**6, 10**6 + 5000) if trial_division(n)][:300]
    assert len(primes) == 300
    for p in primes:
        _is_prime(p)
    misses = _is_prime.cache_info().misses
    assert all(_is_prime(p) for p in primes)
    assert _is_prime.cache_info().misses == misses
    # still bounded: a stream of distinct p cannot grow it without limit
    assert _is_prime.cache_info().maxsize == 1024


def test_huge_prime_is_refused():
    with pytest.raises(InvalidInput, match="below 2"):
        PrimeField(2**89 - 1)
    with pytest.raises(InvalidInput, match="below 2"):
        PrimeField(2**64)
    with pytest.raises(InvalidInput, match="below 2"):
        parse_field("F" + "9" * 5000)
    with pytest.raises(InvalidInput, match="unknown field descriptor"):
        parse_field("F١١")   # Arabic-Indic digits are not a prime


@pytest.mark.parametrize("name", [" F5", "F5 ", "F05", "F0", "F", " Q ", "q", "f5", "F+5"])
def test_a_field_descriptor_is_read_exactly(name):
    # padding and leading zeros are refused, never normalised away
    with pytest.raises(InvalidInput, match="unknown field descriptor"):
        parse_field(name)
    assert parse_field("F5") == PrimeField(5) and parse_field("Q") == RationalField()


def smallest_roots(p, r):
    """{a: smallest b with b^r = a} by scanning every b in F_p^x."""
    out = {}
    for b in range(1, p):
        out.setdefault(pow(b, r, p), b)
    return out


def test_rth_root_matches_brute_force():
    for p in SMALL_PRIMES:
        field = PrimeField(p)
        for r in range(1, 14):
            want = smallest_roots(p, r)
            for a in range(1, p):
                if a in want:
                    assert field.rth_root(a, r) == want[a], (p, r, a)
                else:
                    with pytest.raises(NoRoot):
                        field.rth_root(a, r)


def test_rth_root_nonpositive_and_large_exponents():
    # F_p once took r < 1: PrimeField(7).rth_root(2, -1) returned 4, the root of 1/2
    for p in SMALL_PRIMES[:30]:
        field = PrimeField(p)
        for r in (p - 1, 2 * (p - 1), 3 * p):
            want = smallest_roots(p, r)
            for a in range(1, p):
                got = want.get(a)
                if got is None:
                    with pytest.raises(NoRoot):
                        field.rth_root(a, r)
                else:
                    assert field.rth_root(a, r) == got, (p, r, a)
        for r in (-3, -1, 0):
            for a in range(1, p):
                with pytest.raises(InvalidInput, match="^root exponent must be positive$"):
                    field.rth_root(a, r)


def test_rth_root_message_and_zero():
    with pytest.raises(NoRoot, match="^3 has no 2-th root in F7$"):
        PrimeField(7).rth_root(3, 2)
    with pytest.raises(InvalidInput):
        PrimeField(7).rth_root(0, 2)


def test_rth_root_near_1e18():
    p = 10**18 + 9                       # p - 1 is divisible by 12
    field = PrimeField(p)
    rng = random.Random(7)
    for r in (2, 3, 4, 6, 12, 5):
        x = rng.randrange(1, p)
        b = field.rth_root(pow(x, r, p), r)
        assert pow(b, r, p) == pow(x, r, p)
        assert b <= x


def test_rth_root_huge_exponent_is_fast():
    p = 10**18 + 9
    field = PrimeField(p)
    assert field.rth_root(1, p - 1) == 1
    assert field.rth_root(1, 5 * (p - 1)) == 1
    for r, a in (((p - 1) // 2, p - 1), ((p - 1) // 4, pow(3, (p - 1) // 4, p))):
        b = field.rth_root(a, r)
        assert pow(b, r, p) == a
        assert all(pow(x, r, p) != a for x in range(1, b))


def test_singular_flag_closed_form_matches_rank():
    for field in [RationalField()] + [PrimeField(p) for p in (2, 3, 5, 7)]:
        for r in range(1, 9):
            j_minus_i = [[field.zero if i == j else field.one for j in range(r)]
                         for i in range(r)]
            singular = mat_rank(field, j_minus_i) < r
            if singular:
                with pytest.raises(SingularProjection):
                    build_rational_flag(field, r, r, 1)
            else:
                assert build_rational_flag(field, r, r, 1).rank == r


@pytest.mark.parametrize("x", [Fraction(1, 2), Fraction(4, 1), 2.7, 2.0, "3", None])
def test_prime_field_element_refuses_non_integers(x):
    # a Fraction or a float used to be truncated to an int without a word
    with pytest.raises(InvalidInput, match="not an integer"):
        PrimeField(7).element(x)
    assert PrimeField(7).element(-1) == 6 and PrimeField(7).parse("10") == 3


def test_flag_and_roots_refuse_non_integer_entries_over_f_p():
    from nodalstab import GluingFlag, picard_rth_root
    with pytest.raises(InvalidInput, match="not an integer"):
        GluingFlag(field=PrimeField(7), rank=1, basis_matrix=[[Fraction(1, 2), 1]])
    with pytest.raises(InvalidInput, match="not an integer"):
        picard_rth_root(PrimeField(7), 2, [2.7])
    assert picard_rth_root(PrimeField(7), 2, [2]) == [3]


def test_rational_rth_root_of_zero_is_refused():
    with pytest.raises(InvalidInput, match="^r-th roots are only taken of nonzero scalars$"):
        RationalField().rth_root(0, 3)
    with pytest.raises(InvalidInput):
        RationalField().rth_root(Fraction(0, 5), 1)


@pytest.mark.parametrize("p", [5.0, 7.5, Fraction(5), "5", None])
def test_prime_field_refuses_a_prime_that_is_not_an_int(p):
    # PrimeField(5.0) built a field named "F5.0" whose elements were floats,
    # and PrimeField(7.5) raised a bare TypeError
    with pytest.raises(InvalidInput) as refused:
        PrimeField(p)
    assert str(refused.value) == f"{p!r} is not prime"
    assert PrimeField(5).name == "F5" and PrimeField(5).element(7) == 2


def test_a_field_cannot_change_under_its_values():
    # f.p = 7 succeeded, after which repr read PrimeField(7), name still F5,
    # and element(7) was 0: one prime named, another computed with
    for field in (PrimeField(5), RationalField()):
        for name in ("p", "name", "zero", "one"):
            with pytest.raises(AttributeError):
                setattr(field, name, 7)
    f = PrimeField(5)
    assert (f.p, f.name, f.element(7), repr(f)) == (5, "F5", 2, "PrimeField(p=5)")
    assert (f.zero, f.one) == (0, 1)
    q = RationalField()
    assert (q.name, q.zero, q.one) == ("Q", Fraction(0), Fraction(1))


def test_fields_are_equal_only_within_their_class():
    assert PrimeField(5) != RationalField() and RationalField() != PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert {PrimeField(5), PrimeField(5), RationalField(), RationalField()} == \
        {PrimeField(5), RationalField()}
    with pytest.raises(TypeError):
        RationalField(1)


@pytest.mark.parametrize("x", [0.1, 0.25, "1/3", "2", Decimal("0.5"), None, 1j])
def test_a_rational_element_is_an_int_or_a_fraction(x):
    # Fraction(0.1) stored 3602879701896397/36028797018963968, and the root of
    # 0.25 came out as 1/2
    with pytest.raises(InvalidInput, match=" is not an integer or a Fraction, so not an element "
                                           "of Q$"):
        RationalField().element(x)
    with pytest.raises(InvalidInput, match="not an element of Q$"):
        RationalField().rth_root(x, 2)


def test_rational_elements_and_roots_of_ints_and_fractions():
    q = RationalField()
    quarter = Fraction(1, 4)
    assert q.element(quarter) is quarter
    assert q.element(3) == Fraction(3) and type(q.element(3)) is Fraction
    assert q.element(True) == 1   # a bool counts as an int, as in F_p
    assert q.rth_root(quarter, 2) == Fraction(1, 2)
    assert q.rth_root(-8, 3) == -2
