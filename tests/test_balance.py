import importlib
import random
from fractions import Fraction

import pytest

import helpers
from nodalstab import (
    BundleClass,
    Component,
    Polarization,
    TreeLikeCurve,
    balance,
    balance_step,
    euler_char_total,
    lambda_check,
    lambda_check_passes,
    prune_ordering,
    unbalance_report,
    validate_curve,
)
from nodalstab.balance import window_integers
from nodalstab.errors import IndexOutOfRange, NodalStabError, PreconditionViolated


def curve(decorations, edges):
    comps = tuple(Component(id=i, geometric_genus=g, internal_nodes=s)
                  for i, g, s in decorations)
    return TreeLikeCurve(components=comps, edges=tuple(edges))


PATH2 = curve([(1, 1, 0), (2, 1, 0)], [(1, 2)])
BC2 = BundleClass(rank=2, multidegree={1: 5, 2: -1})
HALF = Polarization(weights={1: Fraction(1, 2), 2: Fraction(1, 2)})


def test_balance_step_path2():
    o = prune_ordering(PATH2)
    a, out = balance_step(PATH2, o, BC2, HALF, 1)
    assert a == 1
    assert out.multidegree == {1: 3, 2: 1}
    assert lambda_check_passes(PATH2, o, out, HALF)


def test_balance_step_window_has_two_integers_at_endpoint():
    # chi difference exactly r: window {0, 1}, tie-break picks 0
    bc = BundleClass(rank=2, multidegree={1: 2, 2: 0})
    o = prune_ordering(PATH2)
    verdicts = lambda_check(PATH2, o, bc, HALF)
    assert verdicts[0].value - verdicts[0].lower == 2
    a, out = balance_step(PATH2, o, bc, HALF, 1)
    assert a == 0
    assert out == bc


def test_balance_step_zero_chosen_when_passing():
    bc = BundleClass(rank=2, multidegree={1: 3, 2: 1})
    o = prune_ordering(PATH2)
    a, out = balance_step(PATH2, o, bc, HALF, 1)
    assert a == 0
    assert out == bc


def test_balance_step_precondition():
    c = curve([(1, 1, 0), (2, 1, 0), (3, 1, 0)], [(1, 2), (2, 3)])
    pol = Polarization(weights={i: Fraction(1, 3) for i in c.ids})
    bc = BundleClass(rank=2, multidegree={1: 0, 2: 0, 3: 9})
    o = prune_ordering(c)
    assert o.perm == (1, 3, 2)
    assert not lambda_check(c, o, bc, pol)[1].passes
    with pytest.raises(PreconditionViolated):
        balance_step(c, o, bc, pol, 1)


def test_balance_step_index_bounds():
    o = prune_ordering(PATH2)
    with pytest.raises(IndexOutOfRange):
        balance_step(PATH2, o, BC2, HALF, 2)   # position N is never stepped
    with pytest.raises(IndexOutOfRange):
        balance_step(PATH2, o, BC2, HALF, 0)


def test_balance_path2_example():
    result = balance(PATH2, BC2, HALF)
    assert result.twist.coeffs == {1: 1, 2: 0}
    assert result.balanced.multidegree == {1: 3, 2: 1}
    assert len(result.steps) == 1
    step = result.steps[0]
    assert (step.i, step.value, step.lower, step.upper) == (1, 5, 1, 3)
    assert step.candidates == (1, 2)
    assert step.chosen == 1


def test_balance_already_semistable_gives_zero_twist():
    bc = BundleClass(rank=2, multidegree={1: 3, 2: 1})
    result = balance(PATH2, bc, HALF)
    assert result.twist.is_zero()
    assert result.balanced == bc


def test_balance_terminates_in_n_minus_one_steps():
    rng = random.Random(41)
    for _ in range(150):
        c = helpers.random_curve(rng, n_max=8)
        bc = helpers.random_bundle(rng, c)
        pol = helpers.random_polarization(rng, c)
        result = balance(c, bc, pol)
        assert len(result.steps) == len(c.ids) - 1
        for step in result.steps:
            assert 1 <= len(step.candidates) <= 2
            assert step.chosen == min(step.candidates)


def test_balance_output_passes_and_conserves():
    rng = random.Random(43)
    for _ in range(300):
        c = helpers.random_curve(rng, n_max=8)
        bc = helpers.random_bundle(rng, c)
        pol = helpers.random_polarization(rng, c)
        result = balance(c, bc, pol)
        assert lambda_check_passes(c, result.ordering, result.balanced, pol)
        assert result.balanced.total_degree == bc.total_degree
        assert euler_char_total(c, result.balanced) == euler_char_total(c, bc)
        assert result.twist.coeffs[result.ordering.perm[-1]] == 0


def test_balance_agrees_with_brute_force_small():
    rng = random.Random(47)
    shapes = [
        curve([(1, 1, 0), (2, 0, 0)], [(1, 2)]),
        curve([(1, 1, 0), (2, 0, 0), (3, 1, 0)], [(1, 2), (2, 3)]),
        curve([(1, 0, 0), (2, 1, 0), (3, 0, 0)], [(2, 1), (2, 3)]),
    ]
    for c in shapes:
        for _ in range(4):
            bc = helpers.random_bundle(rng, c, ranks=(2, 3), d_bound=6)
            pol = helpers.random_polarization(rng, c)
            result = balance(c, bc, pol)
            o = result.ordering
            sols = helpers.brute_force_solutions(c, o, bc, pol, bound=8)
            assert sols, "brute force found no solution although balance did"
            assert result.twist.coeffs in sols


def test_unbalance_report_examples():
    report = unbalance_report(PATH2, BC2, HALF)
    assert [e.distance for e in report] == [2, 0]
    balanced = balance(PATH2, BC2, HALF).balanced
    assert all(e.distance == 0 for e in unbalance_report(PATH2, balanced, HALF))


def test_unbalance_report_zero_iff_passes():
    rng = random.Random(53)
    for _ in range(150):
        c = helpers.random_curve(rng, n_max=7)
        bc = helpers.random_bundle(rng, c)
        pol = helpers.random_polarization(rng, c)
        report = unbalance_report(c, bc, pol)
        all_zero = all(e.distance == 0 for e in report)
        assert all_zero == lambda_check_passes(c, prune_ordering(c), bc, pol)


def test_balance_agrees_with_brute_force_random_trees():
    rng = random.Random(59)
    for _ in range(30):
        c = helpers.shaped_curve(rng, rng.randint(2, 4), rng.choice(helpers.SHAPES))
        bc = helpers.random_bundle(rng, c, ranks=(2, 3), d_bound=6)
        pol = helpers.random_polarization(rng, c)
        result = balance(c, bc, pol)
        bound = max(2, max(abs(a) for a in result.twist.coeffs.values()))
        sols = helpers.brute_force_solutions(c, result.ordering, bc, pol, bound=bound)
        assert result.twist.coeffs in sols


@pytest.mark.parametrize("wrong", [
    lambda c, bc, t: bc,
    lambda c, bc, t: BundleClass(rank=bc.rank, multidegree={i: d + (i == 1) for i, d in
                                                            bc.multidegree.items()}),
])
def test_balance_replay_check_catches_a_wrong_twist(monkeypatch, wrong):
    monkeypatch.setattr(importlib.import_module("nodalstab.balance"), "twist", wrong)
    with pytest.raises(NodalStabError):
        balance(PATH2, BC2, HALF)


def test_window_integers_match_the_definition():
    rng = random.Random(61)
    for _ in range(600):
        lower = Fraction(rng.randint(-100, 100), rng.randint(1, 30))
        value, rank = rng.randint(-100, 100), rng.randint(1, 6)
        brute = tuple(a for a in range(-210, 211)
                      if lower <= value - rank * a <= lower + rank)
        assert window_integers(value, lower, rank) == brute


def test_balance_steps_match_window_integers_of_the_fraction_bounds():
    rng = random.Random(67)
    for _ in range(80):
        c = helpers.shaped_curve(rng, rng.randint(2, 25), rng.choice(helpers.SHAPES))
        bc = helpers.random_bundle(rng, c)
        pol = helpers.random_polarization(rng, c)
        result = balance(c, bc, pol)
        ids, den, r, rows = helpers.window_data(c, result.ordering, bc, pol)
        a = [result.twist.coeffs[i] for i in ids]
        for s in result.steps:
            base, shift, lower_scaled = rows[s.i - 1]
            assert s.lower == Fraction(lower_scaled, den)
            assert s.upper == s.lower + r
            assert s.candidates == window_integers(s.value, s.lower, r)
            assert s.chosen == s.candidates[0]
            # after the step's own twist the chi sum is the one the final twist gives
            assert s.value - r * s.chosen == base + r * sum(u * x for u, x in zip(shift, a))


def test_one_validation_per_curve(monkeypatch):
    curve_mod = importlib.import_module("nodalstab.curve")
    real, made = curve_mod.ValidationReport, []

    def counting_report(**fields):
        made.append(fields)
        return real(**fields)
    monkeypatch.setattr(curve_mod, "ValidationReport", counting_report)
    rng = random.Random(73)
    c = helpers.shaped_curve(rng, 12, "prufer")
    bc = helpers.random_bundle(rng, c)
    pol = helpers.random_polarization(rng, c)
    assert validate_curve(c).valid
    lambda_check(c, prune_ordering(c), bc, pol)
    balance(c, bc, pol)
    assert validate_curve(c) is validate_curve(c)
    assert len(made) == 1
