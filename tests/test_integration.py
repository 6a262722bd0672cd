"""Cross-module scenarios: alternate orderings, input-order invariance,
and the ample-degree polarization pipeline."""

import random

import helpers
from nodalstab import (
    AmpleDegrees,
    Component,
    Ordering,
    TreeLikeCurve,
    TwistDivisor,
    balance,
    balance_step,
    decompose,
    gieseker_vs_seshadri,
    euler_char_total,
    lambda_check,
    lambda_check_passes,
    polarization_from_ample,
    prune_ordering,
    twist,
    verify_ordering,
)


def ordering_from_perm(c, perm):
    """Build the ordering of any valid leaf-pruning order.

    nu(i) is the position of the unique higher-positioned neighbor of
    component i.
    """
    pos = {cid: k + 1 for k, cid in enumerate(perm)}
    nu = []
    for k in range(len(perm) - 1):
        y = perm[k]
        higher = {cid for cid in c.ids if pos[cid] > k + 1}
        anchors = helpers.neighbors(c)[y] & higher
        assert len(anchors) == 1, "perm is not a leaf-pruning order"
        nu.append(pos[next(iter(anchors))])
    return Ordering(perm=tuple(perm), nu=tuple(nu))


def random_pruning_perm(rng, c):
    """A leaf-pruning order with random (not smallest-id) leaf choices."""
    deg = {i: c.degree(i) for i in c.ids}
    alive = set(c.ids)
    perm = []
    while len(alive) > 1:
        v = rng.choice(sorted(i for i in alive if deg[i] == 1))
        w = next(u for u in helpers.neighbors(c)[v] if u in alive)
        perm.append(v)
        alive.discard(v)
        deg[w] -= 1
    perm.append(alive.pop())
    return perm


def test_alternate_valid_orderings_are_accepted():
    rng = random.Random(211)
    for _ in range(100):
        c = helpers.random_curve(rng, n_max=7)
        perm = random_pruning_perm(rng, c)
        o = ordering_from_perm(c, perm)
        verify_ordering(c, o)
        assert helpers.ordering_satisfies_one_branch(c, perm)
        for i, g_b in enumerate(helpers.report_g_b(o), 1):
            assert decompose(c, o, i)[:2] == g_b
        bc = helpers.random_bundle(rng, c)
        pol = helpers.random_polarization(rng, c)
        for v in lambda_check(c, o, bc, pol):
            assert v.upper - v.lower == bc.rank
        assert lambda_check(c, o, bc, pol)[-1].passes


def test_balancing_works_along_any_valid_ordering():
    """The step recursion succeeds whatever valid ordering it walks."""
    rng = random.Random(223)
    for _ in range(60):
        c = helpers.random_curve(rng, n_max=7)
        o = ordering_from_perm(c, random_pruning_perm(rng, c))
        bc = helpers.random_bundle(rng, c, d_bound=12)
        pol = helpers.random_polarization(rng, c)
        current = bc
        for i in range(o.n - 1, 0, -1):
            _, current = balance_step(c, o, current, pol, i)
        assert lambda_check_passes(c, o, current, pol)
        assert current.total_degree == bc.total_degree
        assert euler_char_total(c, current) == euler_char_total(c, bc)


def test_results_do_not_depend_on_edge_listing_order():
    rng = random.Random(227)
    for _ in range(60):
        c = helpers.random_curve(rng, n_max=7)
        shuffled = list(c.edges)
        rng.shuffle(shuffled)
        flipped = tuple((b, a) if rng.random() < 0.5 else (a, b) for a, b in shuffled)
        c2 = TreeLikeCurve(components=c.components, edges=flipped)
        assert prune_ordering(c2) == prune_ordering(c)
        bc = helpers.random_bundle(rng, c)
        pol = helpers.random_polarization(rng, c)
        r1, r2 = balance(c, bc, pol), balance(c2, bc, pol)
        assert r1.twist == r2.twist
        assert r1.balanced == r2.balanced


def test_hilbert_polarization_pipeline():
    """Ample degrees induce the weights; after balancing, the full class
    sits exactly on the reduced-slope diagonal for those degrees."""
    c = TreeLikeCurve(
        components=(Component(1, 1, 0), Component(2, 0, 0), Component(3, 2, 0),
                    Component(4, 0, 1), Component(5, 1, 0)),
        edges=((1, 2), (2, 3), (3, 4), (4, 5)))
    h = AmpleDegrees({1: 2, 2: 1, 3: 3, 4: 1, 5: 2})
    pol = polarization_from_ample(h)
    rng = random.Random(229)
    for _ in range(25):
        bc = helpers.random_bundle(rng, c, ranks=(2, 3), d_bound=15)
        result = balance(c, bc, pol)
        assert lambda_check_passes(c, result.ordering, result.balanced, pol)
        full = {i: bc.rank for i in c.ids}
        cmp = gieseker_vs_seshadri(c, result.balanced, h, full,
                                   euler_char_total(c, result.balanced))
        assert cmp.relation == "="


def test_balanced_class_stays_balanced_under_kernel_twist():
    """Twisting by the all-ones vector moves nothing, so verdicts persist."""
    rng = random.Random(233)
    for _ in range(40):
        c = helpers.random_curve(rng, n_max=6)
        bc = helpers.random_bundle(rng, c)
        pol = helpers.random_polarization(rng, c)
        result = balance(c, bc, pol)
        ones = TwistDivisor(coeffs={i: 3 for i in c.ids})
        assert twist(c, result.balanced, ones) == result.balanced
