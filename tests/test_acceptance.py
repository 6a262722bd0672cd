"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import functools
import io
import itertools
import json
import pathlib
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

import helpers
from nodalstab import (
    BundleClass,
    Component,
    GpbClass,
    PrimeField,
    RationalField,
    TreeLikeCurve,
    TwistDivisor,
    balance,
    build_rational_flag,
    check_no_kernel_section,
    check_projections,
    chi_subcurve_sum,
    cli,
    det_compatibility,
    det_trace_identity,
    euler_char_total,
    gpb_subbundle_check,
    lambda_check,
    parabolic_slope,
    phi_rank_degree,
    sl_kernel_check,
    torsor_correct,
    twist,
)
from nodalstab.errors import SingularProjection
from nodalstab.truncated import TruncatedMatrix, TruncatedScalar, one_plus_pi_n

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def criterion(number, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number:02d} {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {number:02d} {name}: PASS")
        return wrapper
    return deco


# --------------------------------------------------------------- criteria 1-3

@pytest.fixture(scope="module")
def balance_corpus():
    rng = random.Random(20260809)
    instances = []
    for _ in range(1000):
        c = helpers.random_curve(rng, n_max=8, genus_max=3)
        bc = helpers.random_bundle(rng, c, ranks=(2, 3, 4), d_bound=20)
        pol = helpers.random_polarization(rng, c)
        instances.append((c, bc, pol))
    elapsed = 0.0
    results = []
    for c, bc, pol in instances:
        t0 = time.perf_counter()
        results.append(balance(c, bc, pol))
        elapsed += time.perf_counter() - t0
    return instances, results, elapsed


@criterion(1, "balancing soundness")
def test_balancing_soundness(balance_corpus):
    instances, results, elapsed = balance_corpus
    for (c, bc, pol), result in zip(instances, results):
        assert len(result.steps) == len(c.ids) - 1
        verdicts = lambda_check(c, result.ordering, result.balanced, pol)
        assert all(v.passes for v in verdicts)
        assert result.balanced.total_degree == bc.total_degree
        assert euler_char_total(c, result.balanced) == euler_char_total(c, bc)
    assert elapsed < 5.0, f"1000 balance runs took {elapsed:.2f}s"


@criterion(2, "window-width law")
def test_window_width_law(balance_corpus):
    instances, results, _ = balance_corpus
    for (c, bc, pol), result in zip(instances, results):
        r = bc.rank
        for step in result.steps:
            assert step.upper - step.lower == r
            assert len(step.candidates) in (1, 2)
            offset = Fraction(step.value - step.lower, r)
            assert (offset.denominator == 1) == (len(step.candidates) == 2)


@criterion(3, "higher-index preservation")
def test_higher_index_preservation(balance_corpus):
    instances, results, _ = balance_corpus
    for (c, bc, pol), result in zip(instances, results):
        ordering = result.ordering
        current = bc
        for step in result.steps:
            before = lambda_check(c, ordering, current, pol)
            t = TwistDivisor(coeffs={j: (step.chosen if j == step.component else 0)
                                     for j in c.ids})
            current = twist(c, current, t)
            after = lambda_check(c, ordering, current, pol)
            for k in range(step.i, ordering.n):
                assert (after[k].value, after[k].lower, after[k].passes) == \
                    (before[k].value, before[k].lower, before[k].passes)
        assert current == result.balanced


# ----------------------------------------------------------------- criterion 4

@criterion(4, "chi invariance under interior twists")
def test_chi_invariance(balance_corpus):
    rng = random.Random(4004)
    for _ in range(20):
        c = helpers.random_curve(rng, n_max=6, genus_max=3)
        bc = helpers.random_bundle(rng, c, ranks=(1, 2, 3, 4), d_bound=9)
        chi = euler_char_total(c, bc)
        for _ in range(25):
            t = TwistDivisor(coeffs={i: rng.randint(-5, 5) for i in c.ids})
            assert euler_char_total(c, twist(c, bc, t)) == chi
        for z in helpers.connected_subcurves(c):
            boundary = {i for i in z if helpers.neighbors(c)[i] - z}
            interior = sorted(z - boundary)
            if not interior:
                continue
            base = chi_subcurve_sum(c, bc, z)
            if len(interior) <= 3:
                pool = itertools.product(range(-5, 6), repeat=len(interior))
            else:
                pool = [tuple(rng.randint(-5, 5) for _ in interior) for _ in range(40)]
            zero = {i: 0 for i in c.ids}
            for coeffs in pool:
                t = TwistDivisor(coeffs={**zero, **dict(zip(interior, coeffs))})
                assert chi_subcurve_sum(c, twist(c, bc, t), z) == base


# ----------------------------------------------------------------- criterion 5

@criterion(5, "brute-force oracle equivalence")
def test_brute_force_oracle():
    def path(n, genera):
        comps = tuple(Component(i, genera[i - 1], 0) for i in range(1, n + 1))
        return TreeLikeCurve(components=comps,
                             edges=tuple((i, i + 1) for i in range(1, n)))

    star4 = TreeLikeCurve(
        components=tuple(Component(i, g, 0) for i, g in [(1, 0), (2, 1), (3, 0), (4, 0)]),
        edges=((2, 1), (2, 3), (2, 4)))
    shapes = [path(1, [2]), path(2, [1, 0]), path(3, [1, 0, 1]),
              path(4, [1, 0, 0, 1]), star4]
    rng = random.Random(5005)
    bound = 10
    checked = 0
    for c in shapes:
        draws = 3 if len(c.ids) < 4 else 2
        for _ in range(draws):
            bc = helpers.random_bundle(rng, c, ranks=(2, 3), d_bound=6)
            pol = helpers.random_polarization(rng, c)
            result = balance(c, bc, pol)
            assert all(abs(a) <= bound for a in result.twist.coeffs.values())
            sols = helpers.brute_force_solutions(c, result.ordering, bc, pol, bound)
            assert sols, "balance succeeded but exhaustive search found nothing"
            assert result.twist.coeffs in sols
            checked += 1
    assert checked >= 12


# ----------------------------------------------------------------- criterion 6

@criterion(6, "parabolic subbundle bound")
def test_gpb_bounds():
    for r in (2, 3, 4):
        for d in range(-10, 11):
            for gamma in range(0, 4):
                g = GpbClass(rank=r, degree=d, nodes=gamma)
                total = parabolic_slope(g)
                assert total == Fraction(d + gamma * r, r)
                for r_sub in range(1, r):
                    cap = (r_sub * d) // r
                    for d_sub in range(cap - 6, cap + 1):
                        if Fraction(d_sub, r_sub) > Fraction(d, r):
                            continue
                        for flags in itertools.product(range(r_sub + 1), repeat=gamma):
                            verdict = gpb_subbundle_check(g, r_sub, d_sub, flags)
                            assert verdict.le, (r, d, gamma, r_sub, d_sub, flags)


# ----------------------------------------------------------------- criterion 7

@criterion(7, "descent bookkeeping")
def test_phi_bookkeeping():
    rng = random.Random(7007)
    for _ in range(500):
        r = rng.randint(1, 6)
        d = rng.randint(-30, 30)
        gamma = rng.randint(0, 5)
        genus = rng.randint(0, 6)
        phi = phi_rank_degree(GpbClass(rank=r, degree=d, nodes=gamma), genus)
        assert phi.rank == r
        assert phi.degree == d
    worked = phi_rank_degree(GpbClass(rank=2, degree=3, nodes=1), 2)
    assert worked.chi == -1


# ----------------------------------------------------------------- criterion 8

@criterion(8, "rational gluing flag")
def test_rational_flag():
    rationals = RationalField()
    for r in range(2, 7):
        flag = build_rational_flag(rationals, r, 2 * r, 1)
        assert check_projections(flag).locally_free
        assert check_no_kernel_section(flag).passes
        for p in (2, 3, 5, 7, 11, 13):
            if (r - 1) % p == 0:
                with pytest.raises(SingularProjection):
                    build_rational_flag(PrimeField(p), r, 2 * r, 1)
            else:
                flag = build_rational_flag(PrimeField(p), r, 2 * r, 1)
                assert check_projections(flag).locally_free
                assert check_no_kernel_section(flag).passes
    with pytest.raises(SingularProjection):
        build_rational_flag(PrimeField(2), 3, 9, 1)


# ----------------------------------------------------------------- criterion 9

@criterion(9, "truncated-ring identities")
def test_truncated_identities():
    rng = random.Random(9009)
    for _ in range(1000):
        p = rng.choice([5, 7])
        n = rng.randint(1, 3)
        r = rng.randint(1, 4)
        A = [[rng.randrange(p) for _ in range(r)] for _ in range(r)]
        verdict = det_trace_identity(p, A, n)
        assert verdict.holds
        polys = [[[1 if i == j else 0] + [0] * (n - 1) + [A[i][j]]
                  for j in range(r)] for i in range(r)]
        assert verdict.lhs.coeffs == helpers.truncate_mod(helpers.leibniz_det(polys), p, n)

    for _ in range(1000):
        p = rng.choice([5, 7])
        n = rng.randint(1, 3)
        r = rng.randint(1, 3)
        if rng.random() < 0.5:
            A = [[rng.randrange(p) for _ in range(r)] for _ in range(r)]
            if rng.random() < 0.5:
                A[r - 1][r - 1] = (-sum(A[i][i] for i in range(r - 1))) % p
            m = one_plus_pi_n(p, n, A)
        else:
            m = TruncatedMatrix(p, n, [[[rng.randrange(p) for _ in range(n + 1)]
                                        for _ in range(r)] for _ in range(r)])
        assert sl_kernel_check(m).biconditional_holds

    for _ in range(200):
        p = rng.choice([5, 7])
        n = rng.randint(1, 3)
        r = rng.randint(1, 3)
        count = rng.randint(1, 4)
        cocycle = []
        while len(cocycle) < count:
            m = TruncatedMatrix(p, n, [[[rng.randrange(p) for _ in range(n + 1)]
                                        for _ in range(r)] for _ in range(r)])
            if m.is_invertible:
                cocycle.append(m)
        gammas = [TruncatedScalar(p, n, (1,) + (0,) * (n - 1) + (rng.randrange(p),))
                  for _ in range(count)]
        for lift, gamma, original in zip(torsor_correct(cocycle, gammas), gammas, cocycle):
            assert lift.det() == gamma * original.det()


# ---------------------------------------------------------------- criterion 10

@criterion(10, "determinant constraint on rational components")
def test_det_constraint_grid():
    mixed = TreeLikeCurve(components=(Component(1, 0, 0), Component(2, 1, 0)),
                          edges=((1, 2),))
    for r in (1, 2, 3, 4):
        for d1 in range(-8, 9):
            for d2 in range(-8, 9):
                bc = BundleClass(rank=r, multidegree={1: d1, 2: d2})
                verdict = det_compatibility(mixed, bc, {1: d1, 2: d2})
                assert verdict.passes == (d1 % r == 0)
                assert verdict.mismatched == ()

    single = TreeLikeCurve(components=(Component(1, 0, 0),), edges=())
    for r in (1, 2, 3, 4):
        for d in range(-8, 9):
            bc = BundleClass(rank=r, multidegree={1: d})
            assert det_compatibility(single, bc, {1: d}).passes == (d % r == 0)


# ---------------------------------------------------------------- criterion 11

def _run_cli_bytes(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run(args)
    return code, buf.getvalue().encode("utf-8")


@criterion(11, "CLI determinism and exit codes")
def test_cli_contract():
    curve_dir = FIXTURES / "curves"
    fixtures = sorted(curve_dir.glob("*.json"))
    assert len(fixtures) >= 12
    for path in fixtures:
        invalid = path.stem.endswith("_invalid")
        code1, out1 = _run_cli_bytes(["validate", "--curve", str(path)])
        code2, out2 = _run_cli_bytes(["validate", "--curve", str(path)])
        assert out1 == out2
        assert code1 == code2 == (2 if invalid else 0)
        if invalid:
            continue
        code1, out1 = _run_cli_bytes(["order", "--curve", str(path)])
        code2, out2 = _run_cli_bytes(["order", "--curve", str(path)])
        assert out1 == out2
        assert code1 == code2 == 0
        assert json.loads(out1)

    triple = ["--curve", str(curve_dir / "path2_g11.json"),
              "--pol", str(FIXTURES / "path2_pol.json")]
    unbalanced = ["--bundle", str(FIXTURES / "path2_bundle.json")]
    balanced = ["--bundle", str(FIXTURES / "path2_bundle_balanced.json")]
    code, _ = _run_cli_bytes(["check"] + triple + unbalanced)
    assert code == 1
    code, _ = _run_cli_bytes(["check"] + triple + balanced)
    assert code == 0
    out1 = _run_cli_bytes(["balance"] + triple + unbalanced)
    out2 = _run_cli_bytes(["balance"] + triple + unbalanced)
    assert out1 == out2 and out1[0] == 0
    code, _ = _run_cli_bytes(["validate", "--curve", str(FIXTURES / "nonexistent.json")])
    assert code == 2
