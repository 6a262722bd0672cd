import itertools
import random
import re
import time
from fractions import Fraction
from types import MappingProxyType

import pytest

import helpers
from nodalstab import (
    AmpleDegrees,
    BundleClass,
    Component,
    Polarization,
    TreeLikeCurve,
    TwistDivisor,
    chi_subcurve_sum,
    det_compatibility,
    euler_char_total,
    gieseker_vs_seshadri,
    intersection,
    seshadri_slope,
    twist,
)
from nodalstab.errors import DocumentMismatch, EmptySubcurve, IndexOutOfRange, InvalidInput


def curve(decorations, edges):
    comps = tuple(Component(id=i, geometric_genus=g, internal_nodes=s)
                  for i, g, s in decorations)
    return TreeLikeCurve(components=comps, edges=tuple(edges))


PATH2 = curve([(1, 1, 0), (2, 1, 0)], [(1, 2)])
PATH3 = curve([(1, 0, 0), (2, 0, 0), (3, 0, 0)], [(1, 2), (2, 3)])
BC2 = BundleClass(rank=2, multidegree={1: 5, 2: -1})


def test_intersection_edges():
    assert intersection(PATH3, 1, 2) == 1
    assert intersection(PATH3, 1, 3) == 0
    assert intersection(PATH3, 2, 1) == 1


def test_intersection_self_is_minus_degree():
    assert intersection(PATH3, 2, 2) == -2
    assert intersection(PATH3, 1, 1) == -1


def test_intersection_rows_sum_to_zero():
    rng = random.Random(3)
    for _ in range(50):
        c = helpers.random_curve(rng, n_max=8)
        for i in c.ids:
            assert sum(intersection(c, i, j) for j in c.ids) == 0


def test_intersection_unknown_id():
    with pytest.raises(IndexOutOfRange):
        intersection(PATH3, 1, 9)


def _psd_rank(mat):
    """Exact rational elimination proving positive semidefiniteness.

    Successive Schur complements of a symmetric matrix: every pivot must
    be positive, and a zero pivot forces its whole row to vanish.
    """
    m = [[Fraction(x) for x in row] for row in mat]
    n = len(m)
    rank = 0
    for k in range(n):
        if m[k][k] == 0:
            assert all(x == 0 for x in m[k]), "zero pivot with nonzero row: not PSD"
            continue
        assert m[k][k] > 0, "negative pivot: not PSD"
        rank += 1
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return rank


def test_intersection_negative_semidefinite_with_ones_kernel():
    rng = random.Random(11)
    for _ in range(60):
        c = helpers.random_curve(rng, n_max=8)
        ids = sorted(c.ids)
        rows = [[intersection(c, i, j) for j in ids] for i in ids]
        for i, row in zip(ids, rows):
            assert row == [intersection(c, j, i) for j in ids]     # symmetric
            assert sum(row) == 0                     # (1,...,1) in the kernel
        neg = [[-x for x in row] for row in rows]
        assert _psd_rank(neg) == len(ids) - 1


def test_one_component_chi_examples():
    c = curve([(1, 1, 0)], [])
    assert chi_subcurve_sum(c, BundleClass(2, {1: 5}), [1]) == 5
    c = curve([(1, 2, 0)], [])
    assert chi_subcurve_sum(c, BundleClass(2, {1: 3}), [1]) == 1
    c = curve([(1, 0, 0)], [])
    assert chi_subcurve_sum(c, BundleClass(1, {1: 0}), [1]) == 1


def test_one_component_chi_uses_full_arithmetic_genus():
    c = curve([(1, 1, 1)], [])
    assert chi_subcurve_sum(c, BundleClass(2, {1: 5}), [1]) == 5 + 2 * (1 - 2)


def test_euler_char_total_two_components():
    assert chi_subcurve_sum(PATH2, BC2, [1]) == 5
    assert chi_subcurve_sum(PATH2, BC2, [2]) == -1
    assert euler_char_total(PATH2, BC2) == 2


def test_euler_char_total_single_component():
    c = curve([(1, 2, 1)], [])
    bc = BundleClass(3, {1: 4})
    assert euler_char_total(c, bc) == chi_subcurve_sum(c, bc, [1])


def test_euler_char_total_rational_star():
    star = curve([(1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0)],
                 [(4, 1), (4, 2), (4, 3)])
    assert euler_char_total(star, BundleClass(1, {i: 0 for i in star.ids})) == 1


def test_twist_example_path2():
    t = TwistDivisor(coeffs={1: 1, 2: 0})
    assert twist(PATH2, BC2, t).multidegree == {1: 3, 2: 1}


def test_twist_zero_is_identity():
    t = TwistDivisor(coeffs={1: 0, 2: 0})
    assert twist(PATH2, BC2, t) == BC2


def test_twist_conserves_degree_and_chi():
    rng = random.Random(17)
    for _ in range(300):
        c = helpers.random_curve(rng, n_max=8)
        bc = helpers.random_bundle(rng, c)
        t = TwistDivisor(coeffs={i: rng.randint(-5, 5) for i in c.ids})
        out = twist(c, bc, t)
        assert out.rank == bc.rank
        assert out.total_degree == bc.total_degree
        assert euler_char_total(c, out) == euler_char_total(c, bc)


def test_twist_is_additive_in_coefficients():
    rng = random.Random(23)
    for _ in range(100):
        c = helpers.random_curve(rng, n_max=6)
        bc = helpers.random_bundle(rng, c)
        t1 = TwistDivisor(coeffs={i: rng.randint(-3, 3) for i in c.ids})
        t2 = TwistDivisor(coeffs={i: rng.randint(-3, 3) for i in c.ids})
        both = TwistDivisor(coeffs={i: t1.coeffs[i] + t2.coeffs[i] for i in c.ids})
        assert twist(c, twist(c, bc, t1), t2) == twist(c, bc, both)


def test_chi_subcurve_sum_examples():
    assert chi_subcurve_sum(PATH2, BC2, {1, 2}) == 4
    assert chi_subcurve_sum(PATH2, BC2, {1}) == 5


def test_chi_subcurve_sum_errors():
    with pytest.raises(EmptySubcurve):
        chi_subcurve_sum(PATH2, BC2, set())
    with pytest.raises(IndexOutOfRange):
        chi_subcurve_sum(PATH2, BC2, {1, 9})


def test_chi_subcurve_unchanged_by_distant_twist():
    c = curve([(1, 1, 0), (2, 0, 0), (3, 1, 0), (4, 0, 0)],
              [(1, 2), (2, 3), (3, 4)])
    bc = BundleClass(2, {1: 3, 2: 0, 3: -2, 4: 1})
    s = {1}
    t = TwistDivisor(coeffs={1: 0, 2: 0, 3: 4, 4: 0})  # supported away from S
    assert chi_subcurve_sum(c, twist(c, bc, t), s) == chi_subcurve_sum(c, bc, s)


def test_chi_invariance_on_connected_subcurves():
    """Twists supported in the interior of a connected subcurve leave its
    componentwise chi sum alone; enumerated over all subcurves."""
    rng = random.Random(31)
    for _ in range(40):
        c = helpers.random_curve(rng, n_max=6)
        bc = helpers.random_bundle(rng, c, ranks=(1, 2, 3), d_bound=9)
        for z in helpers.connected_subcurves(c):
            boundary = {i for i in z if helpers.neighbors(c)[i] - z}
            interior = sorted(z - boundary)
            if not interior:
                continue
            pool = (itertools.product((-2, 0, 3), repeat=len(interior))
                    if len(interior) <= 3
                    else [tuple(rng.randint(-5, 5) for _ in interior) for _ in range(10)])
            base = chi_subcurve_sum(c, bc, z)
            for coeffs in pool:
                t = TwistDivisor(coeffs={i: 0 for i in c.ids} |
                                 dict(zip(interior, coeffs)))
                assert chi_subcurve_sum(c, twist(c, bc, t), z) == base


def test_one_component_chi_linear_in_degree_and_rank():
    rng = random.Random(59)
    for _ in range(100):
        genus = rng.randint(0, 3)
        c = curve([(1, genus, rng.randint(0, 2))], [])
        r = rng.randint(1, 5)
        d = rng.randint(-20, 20)
        k = rng.randint(-10, 10)
        base = chi_subcurve_sum(c, BundleClass(r, {1: d}), [1])
        assert chi_subcurve_sum(c, BundleClass(r, {1: d + k}), [1]) == base + k
        rho = c.component(1).arithmetic_genus
        assert base == d + r * (1 - rho)


def test_mismatched_documents_rejected():
    with pytest.raises(DocumentMismatch):
        euler_char_total(PATH2, BundleClass(2, {1: 5}))
    with pytest.raises(DocumentMismatch):
        twist(PATH2, BC2, TwistDivisor(coeffs={1: 1}))


def test_chi_totals_match_the_componentwise_sum():
    rng = random.Random(307)
    for _ in range(200):
        c = helpers.random_curve(rng, n_max=10)
        bc = helpers.random_bundle(rng, c)
        # Riemann-Roch on each component, d_i + r(1 - p_a(i))
        parts = {i: bc.multidegree[i] + bc.rank * (1 - c.component(i).arithmetic_genus)
                 for i in c.ids}
        assert parts == {i: chi_subcurve_sum(c, bc, [i]) for i in c.ids}
        n = len(c.ids)
        assert euler_char_total(c, bc) == sum(parts.values()) - bc.rank * (n - 1)
        sub = rng.sample(list(c.ids), rng.randint(1, n))
        assert chi_subcurve_sum(c, bc, sub) == sum(parts[i] for i in sub)


def test_chi_totals_are_linear_on_a_long_path():
    n = 20_000
    c = curve([(i, i % 3, i % 2) for i in range(1, n + 1)], [(i, i + 1) for i in range(1, n)])
    bc = BundleClass(rank=3, multidegree={i: i % 7 - 3 for i in range(1, n + 1)})
    pol = Polarization(weights={i: Fraction(1, n) for i in range(1, n + 1)})
    h = AmpleDegrees(degrees={i: 1 for i in range(1, n + 1)})
    c.require_valid()
    chi = sum(d + 3 * (1 - i % 3 - i % 2) for i, d in bc.multidegree.items())
    calls = [
        (lambda: euler_char_total(c, bc), chi - 3 * (n - 1)),
        (lambda: chi_subcurve_sum(c, bc, range(1, n + 1)), chi),
        (lambda: seshadri_slope(c, bc, pol), Fraction(chi - 3 * (n - 1), 3)),
        (lambda: gieseker_vs_seshadri(c, bc, h, {i: 1 for i in c.ids}, 0).total_slope,
         Fraction(chi - 3 * (n - 1), 3 * n)),
    ]
    for call, expected in calls:
        t0 = time.perf_counter()
        assert call() == expected
        assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("shape", helpers.SHAPES)
def test_edgewise_twist_matches_an_intersection_matrix_replay(shape):
    rng = random.Random(71)
    for _ in range(25):
        c = helpers.shaped_curve(rng, rng.randint(1, 30), shape)
        bc = helpers.random_bundle(rng, c)
        t = TwistDivisor(coeffs={i: rng.randint(-5, 5) for i in c.ids})
        m = helpers.intersection_matrix(c)
        expect = {i: bc.multidegree[i] + bc.rank * sum(m[i][j] * t.coeffs[j] for j in c.ids)
                  for i in c.ids}
        got = twist(c, bc, t)
        assert got.rank == bc.rank
        assert got.multidegree == expect
        assert list(got.multidegree) == list(c.ids)


@pytest.mark.parametrize("rank", [2.5, 2.0, "2", None])
def test_bundle_class_refuses_a_rank_that_is_not_an_int(rank):
    # BundleClass(2.5, {1: 3}) built
    message = f"rank must be an integer, got {rank!r}"
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        BundleClass(rank, {1: 3})
    assert BundleClass(True, {1: 3}).rank == 1


@pytest.mark.parametrize("value", [3.5, 3.0, "3", Fraction(3), None])
def test_bundle_and_twist_values_are_ints(value):
    # BundleClass(2, {1: 3.5}) and TwistDivisor(coeffs={1: 0.5}) built, and
    # twist then returned float degrees; det_compatibility(c, bc, {1: 3.0, 2: 4})
    # passed, a multirank of 0.5 was accepted and AmpleDegrees named no component
    tail = f" must be an integer, got {re.escape(repr(value))}$"
    with pytest.raises(InvalidInput, match="^the degree of component 2" + tail):
        BundleClass(2, {1: 3, 2: value})
    with pytest.raises(InvalidInput, match="^the twist coefficient of component 1" + tail):
        TwistDivisor(coeffs={1: value, 2: 0})
    with pytest.raises(InvalidInput, match="^the ample degree of component 2" + tail):
        AmpleDegrees({1: 1, 2: value})
    with pytest.raises(InvalidInput, match="^the determinant degree of component 2" + tail):
        det_compatibility(PATH2, BC2, {1: 5, 2: value})
    with pytest.raises(InvalidInput, match="^the multirank of component 1" + tail):
        gieseker_vs_seshadri(PATH2, BC2, AmpleDegrees({1: 1, 2: 1}), {1: value, 2: 1}, 2)
    assert det_compatibility(PATH2, BC2, {1: 5, 2: True}).mismatched == (2,)
    assert BundleClass(2, {1: True}).multidegree == {1: 1}
    assert twist(PATH2, BC2, TwistDivisor({1: 1, 2: False})).multidegree == {1: 3, 2: 1}


@pytest.mark.parametrize("container", [None, [1, 2], (3,), MappingProxyType({1: 3, 2: 1})])
def test_bundle_and_twist_values_come_in_a_dict(container):
    # BundleClass(2, None), TwistDivisor([1, 2]) and AmpleDegrees(None) raised a
    # bare AttributeError, and a read-only mapping built a record its checks
    # had not covered
    tail = f" needs a dict keyed by component id, got {type(container).__name__}$"
    with pytest.raises(InvalidInput, match="^BundleClass" + tail):
        BundleClass(2, container)
    with pytest.raises(InvalidInput, match="^TwistDivisor" + tail):
        TwistDivisor(container)
    with pytest.raises(InvalidInput, match="^AmpleDegrees" + tail):
        AmpleDegrees(container)
    with pytest.raises(InvalidInput, match="^det_compatibility" + tail):
        det_compatibility(PATH2, BC2, container)
    with pytest.raises(InvalidInput, match="^gieseker_vs_seshadri" + tail):
        gieseker_vs_seshadri(PATH2, BC2, AmpleDegrees({1: 1, 2: 1}), container, 2)
