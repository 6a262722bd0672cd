"""Integer arguments: a library call refuses a number that is not an int,
by name, instead of reading 1.0 as 1 or failing with a bare TypeError.
A bool counts as an int."""

import re
from fractions import Fraction

import pytest

from nodalstab import (
    AmpleDegrees,
    BundleClass,
    Component,
    GluingFlag,
    GpbClass,
    Ordering,
    Polarization,
    PrimeField,
    RationalField,
    TreeLikeCurve,
    TruncatedMatrix,
    TruncatedScalar,
    balance_step,
    build_rational_flag,
    chi_subcurve_sum,
    decompose,
    det_section,
    det_trace_identity,
    euler_char_component,
    gieseker_vs_seshadri,
    gpb_subbundle_check,
    intersection,
    lambda_check,
    phi_rank_degree,
    picard_rth_root,
    prune_ordering,
    trace_section,
    verify_ordering,
)
from nodalstab.errors import IndexOutOfRange, InvalidInput, OrderingMismatch

PATH2 = TreeLikeCurve((Component(1), Component(2)), ((1, 2),))
BC2 = BundleClass(2, {1: 3, 2: 1})
POL2 = Polarization({1: Fraction(1, 2), 2: Fraction(1, 2)})
H2 = AmpleDegrees({1: 1, 2: 1})
O2 = prune_ordering(PATH2)
LAM = TruncatedScalar(7, 1, [1, 2])
MAT = TruncatedMatrix.identity(7, 1, 2)

# (name in the message, a call taking the number, an int it takes)
CASES = [
    ("genus", lambda v: phi_rank_degree(GpbClass(2, 3, 1), v), 1),
    ("root exponent", lambda v: picard_rth_root(PrimeField(7), v, [2]), 1),
    ("root exponent", lambda v: PrimeField(7).rth_root(4, v), 1),
    ("root exponent", lambda v: RationalField().rth_root(4, v), 1),
    ("chi_sub", lambda v: gieseker_vs_seshadri(PATH2, BC2, H2, {1: 1, 2: 1}, v), 1),
    ("order index", lambda v: O2.boundary_edge(v), 1),
    ("order index", lambda v: decompose(PATH2, O2, v), 1),
    ("order index", lambda v: balance_step(PATH2, O2, BC2, POL2, v), 1),
    ("truncation order", lambda v: LAM.reduce(v), 1),
    ("truncation order", lambda v: LAM.extend(v), 1),
    ("truncation order", lambda v: MAT.reduce(v), 1),
    ("truncation order", lambda v: MAT.extend(v), 1),
    ("matrix size", lambda v: trace_section(LAM, v), 1),
    ("matrix size", lambda v: det_section(LAM, v), 1),
    ("matrix size", lambda v: TruncatedMatrix.identity(7, 1, v), 1),
    ("pi exponent", lambda v: TruncatedScalar.pi_power(7, 2, v), 1),
    ("truncation order", lambda v: det_trace_identity(5, [[1]], v), 1),
    ("rank", lambda v: build_rational_flag(PrimeField(5), v, 4, 1), 2),
    ("a", lambda v: build_rational_flag(PrimeField(5), 2, 4, v), 1),
    ("degree", lambda v: build_rational_flag(PrimeField(5), 2, v, 1), 2),
    ("rank", lambda v: GluingFlag(PrimeField(5), v, [[1, 0, 0, 1], [0, 1, 1, 0]]), 2),
]


@pytest.mark.parametrize("value", [1.0, 1.5, Fraction(1), "1", None])
@pytest.mark.parametrize("name, call, good", CASES)
def test_integer_arguments_refuse_anything_else_by_name(name, call, good, value):
    # phi_rank_degree(..., 1.5) returned degree 3.0, pi_power(7, 2, 1.0) pi and
    # build_rational_flag(F5, 2, 2, 0.5) a flag; the rest raised a bare TypeError
    message = re.escape(f"{name} must be an integer, got {value!r}")
    with pytest.raises(InvalidInput, match=f"^{message}$") as info:
        call(value)
    assert type(info.value) is InvalidInput
    call(good)
    if good == 1:
        call(True)


# (name in the message, the least value it takes, a call taking the count, a
# value it takes): each count's sign is checked by errors._int_arg, by name
COUNTS = [
    ("rank", 1, lambda v: GpbClass(v, 3, 1), 1),
    ("rank", 1, lambda v: BundleClass(v, {1: 3}), 1),
    ("node count", 0, lambda v: GpbClass(2, 3, v), 0),
    ("rank", 1, lambda v: GluingFlag(PrimeField(5), v, [[1, 1]]), 1),
    ("genus", 0, lambda v: phi_rank_degree(GpbClass(2, 3, 1), v), 0),
    ("rank", 1, lambda v: build_rational_flag(PrimeField(5), v, 4, 1), 2),
    ("root exponent", 1, lambda v: picard_rth_root(PrimeField(7), v, [2]), 1),
    ("root exponent", 1, lambda v: PrimeField(7).rth_root(4, v), 1),
    ("root exponent", 1, lambda v: RationalField().rth_root(4, v), 1),
    ("truncation order", 0, lambda v: TruncatedScalar(7, v, [1]), 0),
    ("pi exponent", 0, lambda v: TruncatedScalar.pi_power(7, 2, v), 0),
    ("matrix size", 1, lambda v: trace_section(LAM, v), 1),
    ("matrix size", 1, lambda v: det_section(LAM, v), 1),
    ("flag dimension", 0, lambda v: gpb_subbundle_check(GpbClass(3, 0, 2), 2, 0, [1, v]), 0),
]


@pytest.mark.parametrize("name, least, call, good", COUNTS)
def test_counts_refuse_a_value_below_their_least_by_name(name, least, call, good):
    message = f"{name} must be {'positive' if least else 'nonnegative'}"
    for value in range(-1, least):
        with pytest.raises(InvalidInput, match=f"^{message}$") as info:
            call(value)
        assert type(info.value) is InvalidInput
    call(good)


@pytest.mark.parametrize("bad", [2.0, Fraction(2), "2", None])
def test_component_ids_are_ints(bad):
    # c.component(2.0) returned component 2, intersection(c, 1.0, 2) returned 1
    # and chi_subcurve_sum(c, bc, [1.0]) returned 3: a float hashes like its int
    for call in (lambda: PATH2.component(bad), lambda: PATH2.degree(bad),
                 lambda: intersection(PATH2, bad, 1), lambda: intersection(PATH2, 1, bad),
                 lambda: euler_char_component(PATH2, BC2, bad)):
        with pytest.raises(IndexOutOfRange, match=re.escape(f"no component with id {bad!r}")):
            call()
    for sub in ([bad], [1, bad], iter([bad, 1])):
        with pytest.raises(IndexOutOfRange,
                           match=re.escape(f"subcurve ids must be integers, got {bad!r}")):
            chi_subcurve_sum(PATH2, BC2, sub)
    # an unknown id raised a bare KeyError, read from the class before the curve
    with pytest.raises(IndexOutOfRange, match="^no component with id 5$"):
        euler_char_component(PATH2, BC2, 5)
    assert PATH2.component(True) == Component(1) and PATH2.degree(2) == 1
    assert chi_subcurve_sum(PATH2, BC2, [True, 2]) == 5 + 3


@pytest.mark.parametrize("r", [0, -2])
def test_rational_roots_need_a_positive_exponent(r):
    # r = 0 raised ZeroDivisionError and r = -2 reported that 4 = (1/2)^-2 has no root
    with pytest.raises(InvalidInput, match="^root exponent must be positive$"):
        RationalField().rth_root(4, r)
    assert RationalField().rth_root(4, 2) == 2   # F_p takes any int r: tests/test_fields.py


@pytest.mark.parametrize("rank", [0, -1])
def test_a_gluing_flag_needs_a_positive_rank(rank):
    # GluingFlag(F5, 0, []) built, and check_projections then called both
    # empty projections isomorphisms
    with pytest.raises(InvalidInput, match="^rank must be positive$"):
        GluingFlag(PrimeField(5), rank, [])


def test_a_negative_pi_exponent_is_refused():
    # pi_power(7, 2, -1) returned zero: pi has no inverse in k[pi]/(pi^(n+1))
    with pytest.raises(InvalidInput, match="^pi exponent must be nonnegative$"):
        TruncatedScalar.pi_power(7, 2, -1)
    assert TruncatedScalar.pi_power(7, 2, 3).is_zero


@pytest.mark.parametrize("perm, nu, message", [
    ((1, 2.0), (2,), "perm entry 2.0 is not an integer"),
    ((1.0, 2), (2,), "perm entry 1.0 is not an integer"),
    ((1, None), (2,), "perm entry None is not an integer"),
    ((1, 2), (2.0,), "nu(1) = 2.0 is not an integer in 2..2"),
    ((1, 2), ("2",), "nu(1) = '2' is not an integer in 2..2")])
def test_ordering_entries_are_ints(perm, nu, message):
    # Ordering((1, 2.0), (2,)) gave a Window for component 2.0, and
    # Ordering((1, 2), (2.0,)) raised a bare TypeError indexing perm
    for check in (verify_ordering, lambda c, o: lambda_check(c, o, BC2, POL2)):
        with pytest.raises(OrderingMismatch, match=f"^{re.escape(message)}$"):
            check(PATH2, Ordering(perm, nu))
    assert lambda_check(PATH2, Ordering((1, 2), (2,)), BC2, POL2) == \
        lambda_check(PATH2, O2, BC2, POL2)
