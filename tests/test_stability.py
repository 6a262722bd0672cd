import copy
import importlib
import pathlib
import pickle
import random
import re
from decimal import Decimal
from fractions import Fraction
from math import lcm
from types import MappingProxyType

import pytest

import helpers
from nodalstab import cli, stability
from nodalstab import (
    AmpleDegrees,
    BundleClass,
    Component,
    Ordering,
    Polarization,
    TreeLikeCurve,
    TwistDivisor,
    balance,
    det_compatibility,
    euler_char_total,
    gieseker_vs_seshadri,
    lambda_check,
    polarization_from_ample,
    prune_ordering,
    seshadri_slope,
    slope,
    twist,
)
from nodalstab.stability import Window
from nodalstab.errors import (
    DocumentMismatch,
    InvalidInput,
    MultiEdge,
    OrderingMismatch,
    ParseError,
    WrongArity,
    ZeroMultirank,
)


def curve(decorations, edges):
    comps = tuple(Component(id=i, geometric_genus=g, internal_nodes=s)
                  for i, g, s in decorations)
    return TreeLikeCurve(components=comps, edges=tuple(edges))


PATH2 = curve([(1, 1, 0), (2, 1, 0)], [(1, 2)])
BC2 = BundleClass(rank=2, multidegree={1: 5, 2: -1})
HALF = Polarization(weights={1: Fraction(1, 2), 2: Fraction(1, 2)})


def test_polarization_invariants():
    with pytest.raises(InvalidInput):
        Polarization(weights={1: Fraction(0), 2: Fraction(1)})
    with pytest.raises(InvalidInput):
        Polarization(weights={1: Fraction(-1, 2), 2: Fraction(3, 2)})
    with pytest.raises(InvalidInput):
        Polarization(weights={1: Fraction(1, 2), 2: Fraction(1, 3)})


def _outcome(build, weights):
    """What building from ``weights`` gives: its value, or (exception type, message)."""
    try:
        return build(weights)
    except Exception as e:
        return type(e), str(e)


def _built(weights):
    pol = Polarization(weights=weights)
    return pol.weights, pol._scaled


def _random_weights(rng):
    """Weights on ids 1..n with denominators up to 1000 digits: a sum of exactly
    1, or one off by 1/D or by a random amount, or with a zero or negative
    weight; given as Fractions or ints, or as the strings, floats and
    malformed strings that only the document parser reads."""
    n = rng.randint(1, 6)
    digits = rng.choice([1, 2, 3, 20, 300, 1000])
    dens = [rng.randint(1, 10 ** digits) for _ in range(n - 1)]
    w = [Fraction(rng.randint(1, d), d * n) for d in dens]
    w.append(1 - sum(w))
    den = lcm(*[v.denominator for v in w])
    k = rng.randrange(n)
    kind = rng.choice(["exact", "exact", "off", "off", "zero", "negative", "scaled"])
    if kind == "off":
        w[k] += rng.choice([-1, 1]) * Fraction(1, den)
    elif kind == "zero":
        w[k] = Fraction(0)
    elif kind == "negative":
        w[k] = -abs(w[k]) or Fraction(-1, 2)
    elif kind == "scaled":
        w = [v * rng.choice([2, Fraction(1, 2), Fraction(den + 1, den)]) for v in w]

    def written(v):
        short = v.denominator < 10**1000 and abs(v.numerator) < 10**1000
        form = rng.choice(["fraction", "int", "str", "str", "float", "bad"])
        if form == "int" and v.denominator == 1:
            return int(v)
        if form == "str" and short:
            return str(v)
        if form == "float" and v.denominator in (1, 2, 4):
            return float(v)
        if form == "bad" and rng.random() < 0.1:
            return rng.choice(["abc", "1/0", "", "1e10000000"[:rng.randint(1, 5)]])
        return v

    return {i + 1: written(v) for i, v in enumerate(w)}


def test_polarization_matches_the_fraction_rule():
    rng = random.Random(113)
    kinds = set()
    for _ in range(800):
        weights = _random_weights(rng)
        expected = _outcome(helpers.fraction_polarization, weights)
        assert _outcome(_built, weights) == expected, weights
        kinds.add(expected[0] if isinstance(expected[0], type) else "accepted")
    # a string or a float is refused before it is read, so never a ValueError;
    # a common denominator past 1000 digits is refused before positivity and the sum
    assert kinds == {"accepted", InvalidInput, ParseError}


def test_polarization_checks_the_edges_of_its_integer_rule():
    d = 10**999 + 7
    for weights, outcome in [
            ({1: 1}, ({1: 1}, (1, {1: 1}))),
            ({1: True}, ({1: 1}, (1, {1: 1}))),
            ({1: Fraction(1, 2), 2: "1/2"}, (InvalidInput, "the weight of component 2 must be "
                                                           "an int or a Fraction, got '1/2'")),
            ({1: Fraction(1, d), 2: Fraction(d - 1, d)}, (
                {1: Fraction(1, d), 2: Fraction(d - 1, d)}, (d, {1: 1, 2: d - 1}))),
            ({}, (InvalidInput, "polarization weights must sum to exactly 1")),
            ({1: Fraction(1, d), 2: Fraction(d - 2, d)},
             (InvalidInput, "polarization weights must sum to exactly 1")),
            ({1: 0, 2: 1}, (InvalidInput, "polarization weights must be strictly positive")),
            # a nonpositive weight is reported before a wrong sum
            ({1: -1, 2: 5}, (InvalidInput, "polarization weights must be strictly positive"))]:
        assert _outcome(_built, weights) == outcome
        assert _outcome(helpers.fraction_polarization, weights) == outcome


@pytest.mark.parametrize("den", [10**999, 10**1000 - 1, 10**1000, 10**5000 + 7],
                         ids=["1e999", "1e1000-1", "1e1000", "1e5000+7"])
def test_the_weights_common_denominator_has_at_most_1000_digits(den):
    # the cap of the polarization document holds in the library too:
    # Polarization({1: Fraction(1, 10**5000 + 7), ...}) built, and printing a
    # window bound then raised a bare ValueError past 4300 digits
    weights = {1: Fraction(1, den), 2: 1 - Fraction(1, den)}
    if den < 10**1000:
        pol = Polarization(weights)
        assert pol._scaled == (den, {1: 1, 2: den - 1})
        assert len(str(lambda_check(PATH2, prune_ordering(PATH2), BC2, pol)[0].lower)) > 1000
    else:
        with pytest.raises(ParseError, match="^the weights' common denominator has more than "
                                             "1000 digits; field=weights$") as info:
            Polarization(weights)
        assert info.value.field == "weights"


def test_the_denominator_cap_comes_before_positivity_and_the_sum():
    # two coprime 501-digit denominators: each weight alone is under the cap,
    # their lcm is not, and it is refused before the wrong sign and sum
    p, q = 10**500 + 1, 10**500 + 3
    for weights in ({1: Fraction(1, p), 2: Fraction(1, q)},
                    {1: Fraction(-1, p), 2: Fraction(1, q), 3: 0}):
        with pytest.raises(ParseError, match="common denominator"):
            Polarization(weights)


@pytest.mark.parametrize("bad", [0.5, "1/2", Decimal("0.5"), None, 1.0])
def test_polarization_refuses_weights_other_than_ints_and_fractions(bad):
    # each went through Fraction(v): 0.5, "1/2" and Decimal("0.5") built the
    # weight 1/2; a string is read by the document parser alone
    message = f"the weight of component 2 must be an int or a Fraction, got {bad!r}"
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        Polarization({1: Fraction(1, 2), 2: bad})
    with pytest.raises(InvalidInput, match="^the weight of component 1 "):
        Polarization({1: bad, 2: Fraction(1, 2)})


def test_slope_examples():
    one = curve([(1, 2, 0)], [])
    assert slope(one, BundleClass(2, {1: 3})) == Fraction(3, 2)
    assert slope(one, BundleClass(5, {1: 0})) == 0
    assert slope(one, BundleClass(4, {1: -4})) == -1


def test_slope_rejects_reducible():
    with pytest.raises(WrongArity):
        slope(PATH2, BC2)


def test_seshadri_slope_two_components():
    assert seshadri_slope(PATH2, BC2, HALF) == 1


def test_seshadri_slope_rational_point():
    one = curve([(1, 0, 0)], [])
    pol = Polarization(weights={1: Fraction(1)})
    assert seshadri_slope(one, BundleClass(1, {1: 0}), pol) == 1


def test_seshadri_slope_is_the_weighted_rank_sum_formula():
    rng = random.Random(127)
    for _ in range(200):
        c = helpers.random_curve(rng, n_max=8)
        if rng.random() < 0.5:
            c = helpers.relabel_far(rng, c)
        bc = helpers.random_bundle(rng, c, ranks=(1, 2, 3, 5))
        pol = helpers.random_polarization(rng, c)
        denom = sum((pol.weights[i] * bc.rank for i in c.ids), Fraction(0))
        assert seshadri_slope(c, bc, pol) == Fraction(euler_char_total(c, bc)) / denom
    with pytest.raises(DocumentMismatch):
        seshadri_slope(PATH2, BC2, Polarization(weights={1: 1}))
    with pytest.raises(DocumentMismatch):
        seshadri_slope(PATH2, BundleClass(2, {1: 5}), HALF)


def test_polarization_from_ample():
    assert polarization_from_ample(AmpleDegrees({1: 1, 2: 1})).weights == \
        {1: Fraction(1, 2), 2: Fraction(1, 2)}
    assert polarization_from_ample(AmpleDegrees({1: 2, 2: 3})).weights == \
        {1: Fraction(2, 5), 2: Fraction(3, 5)}
    rng = random.Random(2)
    for _ in range(50):
        h = AmpleDegrees({i: rng.randint(1, 30) for i in range(1, rng.randint(2, 8))})
        assert sum(polarization_from_ample(h).weights.values()) == 1


def test_lambda_check_path2_prebalance():
    verdicts = lambda_check(PATH2, prune_ordering(PATH2), BC2, HALF)
    v1 = verdicts[0]
    assert (v1.lower, v1.upper, v1.value, v1.passes) == (1, 3, 5, False)
    assert verdicts[1].passes


def test_lambda_check_path2_balanced():
    bc = BundleClass(rank=2, multidegree={1: 3, 2: 1})
    verdicts = lambda_check(PATH2, prune_ordering(PATH2), bc, HALF)
    assert (verdicts[0].lower, verdicts[0].upper, verdicts[0].value) == (1, 3, 3)
    assert all(v.passes for v in verdicts)


def test_lambda_check_single_component_always_passes():
    one = curve([(1, 3, 0)], [])
    pol = Polarization(weights={1: Fraction(1)})
    rng = random.Random(6)
    for _ in range(30):
        bc = BundleClass(rng.randint(1, 5), {1: rng.randint(-20, 20)})
        verdicts = lambda_check(one, prune_ordering(one), bc, pol)
        assert verdicts[0].passes


def test_lambda_check_window_width_is_rank():
    rng = random.Random(13)
    for _ in range(200):
        c = helpers.random_curve(rng, n_max=8)
        bc = helpers.random_bundle(rng, c)
        pol = helpers.random_polarization(rng, c)
        for v in lambda_check(c, prune_ordering(c), bc, pol):
            assert v.upper - v.lower == bc.rank


def test_lambda_check_last_position_always_passes():
    rng = random.Random(19)
    for _ in range(200):
        c = helpers.random_curve(rng, n_max=8)
        bc = helpers.random_bundle(rng, c)
        pol = helpers.random_polarization(rng, c)
        verdicts = lambda_check(c, prune_ordering(c), bc, pol)
        last = verdicts[-1]
        assert last.passes
        assert last.value == last.lower     # sits exactly at the lower endpoint


def test_lambda_check_higher_verdicts_twist_invariant():
    rng = random.Random(29)
    for _ in range(200):
        c = helpers.random_curve(rng, n_max=7)
        if len(c.ids) < 2:
            continue
        bc = helpers.random_bundle(rng, c)
        pol = helpers.random_polarization(rng, c)
        o = prune_ordering(c)
        before = lambda_check(c, o, bc, pol)
        n0 = rng.randint(1, o.n - 1)
        a = rng.randint(-6, 6)
        t = TwistDivisor(coeffs={i: (a if i == o.perm[n0 - 1] else 0) for i in c.ids})
        after = lambda_check(c, o, twist(c, bc, t), pol)
        for k in range(n0, o.n):
            assert (after[k].value, after[k].lower, after[k].passes) == \
                (before[k].value, before[k].lower, before[k].passes)


def test_lambda_check_ordering_mismatch():
    other = curve([(1, 1, 0), (2, 1, 0), (3, 0, 0)], [(1, 2), (2, 3)])
    with pytest.raises(OrderingMismatch):
        lambda_check(PATH2, prune_ordering(other), BC2, HALF)


def test_det_compatibility_rational_divisibility():
    c = curve([(1, 0, 0), (2, 1, 0)], [(1, 2)])
    bad = BundleClass(2, {1: 3, 2: 0})
    verdict = det_compatibility(c, bad, {1: 3, 2: 0})
    assert not verdict.passes
    assert verdict.indivisible == (1,)
    good = BundleClass(2, {1: 4, 2: 0})
    assert det_compatibility(c, good, {1: 4, 2: 0}).passes
    # geometric genus 0 with internal nodes is not rational
    nodal = curve([(1, 0, 1), (2, 0, 0), (3, 0, 2)], [(1, 2), (2, 3)])
    verdict = det_compatibility(nodal, BundleClass(2, {1: 1, 2: 3, 3: 5}), {1: 1, 2: 3, 3: 5})
    assert (verdict.mismatched, verdict.indivisible) == ((), (2,))


def test_det_compatibility_componentwise_mismatch():
    verdict = det_compatibility(PATH2, BundleClass(2, {1: 3, 2: 1}), {1: 3, 2: 0})
    assert not verdict.passes
    assert verdict.mismatched == (2,)


def test_det_compatibility_respects_simultaneous_twists():
    rng = random.Random(37)
    for _ in range(150):
        c = helpers.random_curve(rng, n_max=6)
        bc = helpers.random_bundle(rng, c, ranks=(2, 3, 4), d_bound=9)
        det = dict(bc.multidegree)
        if rng.random() < 0.5:
            det[rng.choice(sorted(det))] += rng.choice([-1, 1])
        t = TwistDivisor(coeffs={i: rng.randint(-4, 4) for i in c.ids})
        before = det_compatibility(c, bc, det)
        bc2 = twist(c, bc, t)
        det2 = twist(c, BundleClass(bc.rank, det), t).multidegree
        after = det_compatibility(c, bc2, det2)
        assert (before.passes, before.mismatched, before.indivisible) == \
            (after.passes, after.mismatched, after.indivisible)


def test_det_compatibility_matches_the_sorted_id_oracle_on_far_ids():
    rng = random.Random(139)
    genus_data = [(0, 0), (0, 0), (0, 1), (0, 2), (1, 0), (2, 1)]
    skipped_nodal = 0
    for shape in helpers.SHAPES:
        for n in (1, 2, 3, 6, 11):
            for _ in range(6):
                comps = tuple(Component(i, *rng.choice(genus_data)) for i in range(1, n + 1))
                edges = tuple(helpers.shaped_tree_edges(rng, n, shape))
                c = helpers.relabel_far(rng, TreeLikeCurve(components=comps, edges=edges))
                bc = helpers.random_bundle(rng, c, ranks=(2, 3, 4), d_bound=9)
                det = dict(bc.multidegree)
                if rng.random() < 0.5:
                    det[rng.choice(c.ids)] += rng.choice([-1, 1])
                v = det_compatibility(c, bc, det)
                assert (v.passes, v.mismatched, v.indivisible) == \
                    helpers.det_verdict_oracle(c, bc, det)
                # genus-0 components with internal nodes are not rational
                skipped_nodal += sum(1 for comp in c.components
                                     if comp.geometric_genus == 0 and comp.internal_nodes
                                     and det[comp.id] % bc.rank)
    assert skipped_nodal > 0


def test_gieseker_vs_seshadri_full_class_is_equal():
    h = AmpleDegrees({1: 1, 2: 1})
    full = {1: 2, 2: 2}
    chi = 2
    cmp = gieseker_vs_seshadri(PATH2, BC2, h, full, chi)
    assert cmp.relation == "="
    assert cmp.le


def test_gieseker_vs_seshadri_exceeding_sub():
    h = AmpleDegrees({1: 1, 2: 1})
    cmp = gieseker_vs_seshadri(PATH2, BC2, h, {1: 1, 2: 1}, 2)
    assert cmp.sub_slope == 1
    assert cmp.total_slope == Fraction(1, 2)
    assert cmp.relation == ">"
    assert not cmp.le


def test_gieseker_vs_seshadri_small_sub():
    h = AmpleDegrees({1: 1, 2: 1})
    cmp = gieseker_vs_seshadri(PATH2, BC2, h, {1: 1, 2: 0}, -10)
    assert cmp.relation == "<"
    assert cmp.le


def test_gieseker_vs_seshadri_errors():
    h = AmpleDegrees({1: 1, 2: 1})
    with pytest.raises(ZeroMultirank):
        gieseker_vs_seshadri(PATH2, BC2, h, {1: 0, 2: 0}, 0)
    with pytest.raises(InvalidInput):
        gieseker_vs_seshadri(PATH2, BC2, h, {1: 3, 2: 0}, 0)
    with pytest.raises(DocumentMismatch):
        gieseker_vs_seshadri(PATH2, BC2, h, {1: 1}, 0)


def test_slope_checks_validate_the_curve_and_class_once(monkeypatch):
    # both once checked the curve and the class, then called euler_char_total,
    # which checks them again
    valid, matched = [], []
    real_valid = TreeLikeCurve.require_valid

    def counting_valid(c):
        valid.append(c)
        return real_valid(c)
    monkeypatch.setattr(TreeLikeCurve, "require_valid", counting_valid)
    for module in map(importlib.import_module, ("nodalstab.stability", "nodalstab.twist")):
        def counting_match(c, mapping, what, real=module.require_match):
            matched.append(what)
            return real(c, mapping, what)
        monkeypatch.setattr(module, "require_match", counting_match)
    h = AmpleDegrees({1: 1, 2: 1})
    for call, value in ((lambda: seshadri_slope(PATH2, BC2, HALF), 1),
                        (lambda: gieseker_vs_seshadri(PATH2, BC2, h, {1: 1, 2: 1}, 2).total_slope,
                         Fraction(1, 2))):
        assert call() == value
        assert (len(valid), matched.count("multidegree")) == (1, 1)
        valid.clear()
        matched.clear()


def test_slope_checks_raise_in_their_order():
    # the curve, then the class, then what only the slope check reads
    cycle = curve([(1, 1, 0), (2, 1, 0)], [(1, 2), (2, 1)])
    h, short = AmpleDegrees({1: 1, 2: 1}), BundleClass(2, {1: 5})
    for call in (lambda c, bc, keyed: seshadri_slope(c, bc, Polarization(keyed)),
                 lambda c, bc, keyed: gieseker_vs_seshadri(c, bc, AmpleDegrees(keyed), {1: 1}, 0)):
        with pytest.raises(MultiEdge):
            call(cycle, short, {1: 1})
        with pytest.raises(DocumentMismatch, match="^multidegree keys"):
            call(PATH2, short, {1: 1})
        with pytest.raises(DocumentMismatch, match="^(polarization weights|ample degrees) keys"):
            call(PATH2, BC2, {1: 1})
    with pytest.raises(DocumentMismatch, match="^multirank keys"):
        gieseker_vs_seshadri(PATH2, BC2, h, {1: 1}, 0)


def test_ample_degrees_must_be_positive():
    with pytest.raises(InvalidInput):
        AmpleDegrees({1: 0})


def test_lambda_check_matches_hand_window_data():
    rng = random.Random(31)
    for _ in range(120):
        c = helpers.shaped_curve(rng, rng.randint(1, 30), rng.choice(helpers.SHAPES))
        bc = helpers.random_bundle(rng, c, ranks=(1, 2, 3, 5))
        pol = helpers.random_polarization(rng, c)
        o = prune_ordering(c)
        sets = helpers.window_sets(c, o)
        ids, den, r, rows = helpers.window_data(c, o, bc, pol, sets)
        verdicts, subtrees = lambda_check(c, o, bc, pol), o.subtrees
        assert len(verdicts) == len(rows)
        for k, (v, (base, _, lower_scaled)) in enumerate(zip(verdicts, rows)):
            assert (v.i, v.component, v.value) == (k + 1, o.perm[k], base)
            assert subtrees[k] == tuple(sorted(sets[k][0]))
            assert (v.lower * den, v.upper * den) == (lower_scaled, lower_scaled + den * r)
            assert v.passes == (lower_scaled <= den * base <= lower_scaled + den * r)


def _brute_candidates(value, lower, upper, r):
    """Integers a with lower <= value - r*a <= upper, by a scan of the Fractions."""
    return tuple(a for a in range((value - upper) // r - 2, (value - lower) // r + 3)
                 if lower <= value - r * a <= upper)


def _brute_distance(value, lower, upper):
    return 0 if lower <= value <= upper else min(abs(value - lower), abs(value - upper))


def test_window_records_match_a_scan_of_the_fraction_bounds():
    rng = random.Random(89)
    for _ in range(80):
        c = helpers.shaped_curve(rng, rng.randint(1, 20), rng.choice(helpers.SHAPES))
        bc = helpers.random_bundle(rng, c, ranks=(1, 2, 3, 5))
        pol = helpers.random_polarization(rng, c)
        o = prune_ordering(c)
        _, den, r, rows = helpers.window_data(c, o, bc, pol)
        windows = (lambda_check(c, o, bc, pol) + list(balance(c, bc, pol).steps)
                   + lambda_check(c, prune_ordering(c), bc, pol))
        assert len(windows) == 3 * len(rows) - 1
        for w in windows:
            lower = Fraction(rows[w.i - 1][2], den)
            upper = lower + r
            assert (w.lower, w.upper) == (lower, upper)
            assert w.passes == (lower <= w.value <= upper)
            assert w.candidates == _brute_candidates(w.value, lower, upper, r)
            assert w.distance == _brute_distance(w.value, lower, upper)
            assert w.chosen == w.candidates[0]


def counting_subtrees(monkeypatch):
    """Count the reads of ``Ordering.subtrees``, each of which builds the table."""
    real, reads = Ordering.subtrees.fget, []

    def counting(ordering):
        reads.append(ordering)
        return real(ordering)
    monkeypatch.setattr(Ordering, "subtrees", property(counting))
    return reads


def test_window_records_build_no_subtrees_until_g_is_read(monkeypatch):
    # G(i) lives on the ordering alone: windows hold no ordering, and the
    # window kernel sums over the parent array without building a subtree
    reads = counting_subtrees(monkeypatch)
    rng = random.Random(97)
    for shape in helpers.SHAPES:
        c = helpers.relabel_far(rng, helpers.shaped_curve(rng, 40, shape))
        bc = helpers.random_bundle(rng, c)
        pol = helpers.random_polarization(rng, c)
        o = prune_ordering(c)
        windows = lambda_check(c, o, bc, pol)
        result = balance(c, bc, pol)
        lambda_check(c, Ordering(o.perm, o.nu), result.balanced, pol)
        assert reads == []
        assert not hasattr(windows[0], "ordering") and not hasattr(windows[0], "g_components")
        assert o.subtrees[0] == tuple(sorted(helpers.window_sets(c, o)[0][0]))
        assert reads == [o]
        reads.clear()


@pytest.mark.parametrize("command", ["order", "check", "balance"])
def test_each_tree_report_builds_the_subtrees_once(monkeypatch, capsys, command):
    reads = counting_subtrees(monkeypatch)
    fixtures = pathlib.Path(__file__).parent / "fixtures"
    triple = ["--bundle", str(fixtures / "path2_bundle.json"),
              "--pol", str(fixtures / "path2_pol.json")]
    code = cli.run([command, "--curve", str(fixtures / "curves" / "path2_g11.json")]
                   + (triple if command != "order" else []))
    assert code in (0, 1) and capsys.readouterr().out
    assert len(reads) == 1


def test_the_window_kernel_matches_the_window_data():
    # the one leaves-first pass over nu against the definitions, position by position
    rng = random.Random(101)
    for _ in range(150):
        c = helpers.relabel_far(rng, helpers.shaped_curve(rng, rng.randint(1, 30),
                                                          rng.choice(helpers.SHAPES)))
        bc = helpers.random_bundle(rng, c, ranks=(1, 2, 3, 5))
        pol = helpers.random_polarization(rng, c)
        o = prune_ordering(c)
        _, den, _, rows = helpers.window_data(c, o, bc, pol)
        values, lows, scale = stability._windows(c, o, bc, pol)
        assert scale == den
        assert values == [base for base, _, _ in rows]
        assert lows == [lower_scaled for _, _, lower_scaled in rows]


def test_lambda_check_matches_the_window_data_with_far_ids():
    rng = random.Random(107)
    for shape in helpers.SHAPES:
        for n in (1, 2, 4, 9, 20):
            c = helpers.relabel_far(rng, helpers.shaped_curve(rng, n, shape))
            bc = helpers.random_bundle(rng, c, ranks=(1, 2, 3, 5))
            pol = helpers.random_polarization(rng, c)
            o = prune_ordering(c)
            sets = helpers.window_sets(c, o)
            _, den, r, rows = helpers.window_data(c, o, bc, pol, sets)
            windows, subtrees = lambda_check(c, o, bc, pol), o.subtrees
            assert len(windows) == len(rows)
            for k, (w, (base, _, lower_scaled)) in enumerate(zip(windows, rows)):
                assert (w.i, w.component, w.value) == (k + 1, o.perm[k], base)
                assert (w.lower * den, w.upper * den) == (lower_scaled, lower_scaled + den * r)
                assert w.passes == (lower_scaled <= den * base <= lower_scaled + den * r)
                assert subtrees[k] == tuple(sorted(sets[k][0]))


def test_window_is_a_slotted_record_equal_by_value():
    w = Window(1, 7, 3, -2, 5, 2)
    assert w == Window(i=1, component=7, value=3, lo=-2, den=5, rank=2)
    assert w != Window(1, 7, 4, -2, 5, 2)
    assert not hasattr(w, "__dict__") and Window.__slots__ == Window._fields
    with pytest.raises(TypeError):
        hash(w)


# ------------------------------------ integer inputs, and the guards on them

@pytest.mark.parametrize("degrees", [{1: 2.7, 2: 1}, {1: "3", 2: 1}, {1: Fraction(3, 2), 2: 1},
                                     {1: "x", 2: 1}, {1: Fraction(2), 2: 1}, {1: 0, 2: 1}])
def test_ample_degrees_refuse_anything_but_positive_ints(degrees):
    # 2.7 and "3" were accepted, then broke polarization_from_ample with a
    # TypeError; Fraction(3, 2) gave the weights 3/5 and 2/5; "x" a ValueError.
    # A value that is not an int is named; an int below 1 is not positive
    value = degrees[1]
    message = ("ample degrees must be positive integers" if type(value) is int
               else f"the ample degree of component 1 must be an integer, got {value!r}")
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$") as info:
        AmpleDegrees(degrees=degrees)
    assert type(info.value) is InvalidInput


def test_ample_degrees_take_ints_and_bools():
    pol = polarization_from_ample(AmpleDegrees(degrees={1: 3, 2: True}))
    assert pol.weights == {1: Fraction(3, 4), 2: Fraction(1, 4)}


def test_det_compatibility_refuses_keys_other_than_the_curves():
    for det in ({1: 5}, {1: 5, 2: -1, 3: 0}, {1: 5, 3: -1}):
        with pytest.raises(DocumentMismatch, match="^determinant multidegree keys do not match"):
            det_compatibility(PATH2, BC2, det)
    assert det_compatibility(PATH2, BC2, {1: 5, 2: -1}).mismatched == ()


@pytest.mark.parametrize("weights", [None, [Fraction(1, 2)] * 2,
                                     MappingProxyType({1: Fraction(1, 2), 2: Fraction(1, 2)})])
def test_polarization_weights_come_in_a_dict(weights):
    # Polarization(None) raised a bare AttributeError
    with pytest.raises(InvalidInput, match="^Polarization needs a dict keyed by component id, "
                                           f"got {type(weights).__name__}$"):
        Polarization(weights)


# ---------------------- an ordering is verified once: pruned for this curve

def rebuilt_orderings(o):
    """Orderings equal to o that prune_ordering did not return: rebuilt, pickled, copied."""
    return Ordering(o.perm, o.nu), pickle.loads(pickle.dumps(o)), copy.copy(o)


def counting_verify(monkeypatch):
    """Count the calls lambda_check makes to verify_ordering."""
    real, calls = stability.verify_ordering, []

    def counting(c, ordering):
        calls.append(ordering)
        return real(c, ordering)
    monkeypatch.setattr(stability, "verify_ordering", counting)
    return calls


def test_a_pruned_ordering_gives_the_windows_of_any_equal_ordering():
    rng = random.Random(337)
    for shape in helpers.SHAPES:
        for n in (1, 2, 7, 30):
            c = helpers.relabel_far(rng, helpers.shaped_curve(rng, n, shape))
            bc = helpers.random_bundle(rng, c)
            pol = helpers.random_polarization(rng, c)
            o = prune_ordering(c)
            windows = lambda_check(c, o, bc, pol)
            for other in rebuilt_orderings(o):
                assert other == o and getattr(other, "_curve", None) is None
                assert lambda_check(c, other, bc, pol) == windows


def test_lambda_check_verifies_only_an_ordering_pruned_elsewhere(monkeypatch):
    calls = counting_verify(monkeypatch)
    rng = random.Random(347)
    for shape in helpers.SHAPES:
        c = helpers.relabel_far(rng, helpers.shaped_curve(rng, 12, shape))
        bc = helpers.random_bundle(rng, c)
        pol = helpers.random_polarization(rng, c)
        o = prune_ordering(c)
        lambda_check(c, o, bc, pol)
        balance(c, bc, pol)
        assert calls == []
        for other in rebuilt_orderings(o):
            lambda_check(c, other, bc, pol)
            assert calls == [other]
            calls.clear()
        twin = TreeLikeCurve(components=c.components, edges=c.edges)
        assert twin == c and twin is not c
        lambda_check(twin, o, bc, pol)
        lambda_check(c, prune_ordering(twin), bc, pol)
        assert len(calls) == 2
        calls.clear()


def test_an_ordering_pruned_from_another_shape_is_still_refused():
    rng = random.Random(349)
    path = helpers.shaped_curve(rng, 6, "path")
    star = TreeLikeCurve(components=path.components,
                         edges=tuple((1, i) for i in range(2, 7)))
    bc = helpers.random_bundle(rng, path)
    pol = helpers.random_polarization(rng, path)
    for c, other in ((path, star), (star, path)):
        with pytest.raises(OrderingMismatch):
            lambda_check(other, prune_ordering(c), bc, pol)
    with pytest.raises(OrderingMismatch):
        lambda_check(path, prune_ordering(helpers.shaped_curve(rng, 5, "path")), bc, pol)


@pytest.mark.parametrize("command, bundle", [("check", "path2_bundle.json"),
                                             ("balance", "path2_bundle.json"),
                                             ("check", "path2_bundle_balanced.json")])
def test_the_cli_verifies_no_ordering_it_pruned(monkeypatch, capsys, command, bundle):
    calls = counting_verify(monkeypatch)
    fixtures = pathlib.Path(__file__).parent / "fixtures"
    code = cli.run([command, "--curve", str(fixtures / "curves" / "path2_g11.json"),
                    "--bundle", str(fixtures / bundle), "--pol", str(fixtures / "path2_pol.json")])
    assert code in (0, 1) and capsys.readouterr().out
    assert calls == []
