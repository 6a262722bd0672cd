import itertools
import random
import re
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from nodalstab import (
    BundleClass,
    Component,
    Ordering,
    Polarization,
    TreeLikeCurve,
    balance,
    euler_char_total,
    intersection,
    lambda_check,
    prune_ordering,
    validate_curve,
    verify_ordering,
)
from nodalstab.errors import (
    CycleDetected,
    Disconnected,
    IndexOutOfRange,
    OrderingMismatch,
    ParseError,
)


def curve(decorations, edges):
    comps = tuple(Component(id=i, geometric_genus=g, internal_nodes=s)
                  for i, g, s in decorations)
    return TreeLikeCurve(components=comps, edges=tuple(edges))


PATH2 = curve([(1, 1, 0), (2, 1, 0)], [(1, 2)])
PATH3 = curve([(1, 1, 0), (2, 0, 0), (3, 1, 0)], [(1, 2), (2, 3)])
STAR4 = curve([(1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0)],
              [(4, 1), (4, 2), (4, 3)])


def test_validate_path2():
    report = validate_curve(PATH2)
    assert report.valid
    assert report.p_a == 2
    assert report.genus_at_least_two


def test_validate_triangle_is_cycle():
    c = curve([(1, 0, 0), (2, 0, 0), (3, 0, 0)], [(1, 2), (2, 3), (1, 3)])
    report = validate_curve(c)
    assert not report.valid
    assert any(code == "CycleDetected" for code, _ in report.errors)
    with pytest.raises(CycleDetected):
        c.require_valid()


def test_validate_disconnected():
    c = curve([(1, 1, 0), (2, 1, 0)], [])
    report = validate_curve(c)
    assert not report.valid
    assert any(code == "Disconnected" for code, _ in report.errors)
    with pytest.raises(Disconnected):
        c.require_valid()


def test_validate_multi_edge():
    c = curve([(1, 0, 0), (2, 0, 0)], [(1, 2), (2, 1)])
    report = validate_curve(c)
    assert not report.valid
    assert [code for code, _ in report.errors] == ["MultiEdge"]


def test_validate_self_loop_is_cycle():
    c = curve([(1, 1, 0)], [(1, 1)])
    report = validate_curve(c)
    assert not report.valid
    assert report.errors[0][0] == "CycleDetected"


def _errors_by_rescan(c):
    """The validation errors by the rule as first written: a closing edge
    is reported after a scan of every error so far finds no cycle.  The
    nodes are walked in the order the document first lists them."""
    errors, seen = [], set()
    for e in c.edges:
        if e[0] == e[1]:
            errors.append(("CycleDetected", f"edge {list(e)} joins a component to itself"))
        elif e in seen:
            errors.append(("MultiEdge", f"components {e[0]} and {e[1]} meet in more than one node"))
        seen.add(e)
    parent = {i: i for i in c.ids}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in dict.fromkeys(e for e in c.edges if e[0] != e[1]):
        ra, rb = find(a), find(b)
        if ra == rb:
            if not any(code == "CycleDetected" for code, _ in errors):
                errors.append(("CycleDetected", f"edge {[a, b]} closes a cycle"))
        else:
            parent[ra] = rb
    roots = {find(i) for i in c.ids}
    if len(roots) > 1:
        errors.append(("Disconnected", f"dual graph has {len(roots)} connected pieces"))
    return errors


def test_validate_errors_match_the_rescan_rule_on_random_multigraphs():
    rng = random.Random(83)
    for _ in range(300):
        n = rng.randint(1, 7)
        edges = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 12))]
        c = curve([(i, 0, 0) for i in range(1, n + 1)], edges)
        assert list(validate_curve(c).errors) == _errors_by_rescan(c)


def test_validate_errors_match_the_rescan_rule_with_far_ids():
    # ids above 2**64, shuffled and with gaps: the dense index must not
    # change a single error or message
    rng = random.Random(101)
    for _ in range(300):
        n = rng.randint(1, 7)
        edges = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 12))]
        c = helpers.relabel_far(rng, curve([(i, 0, 0) for i in range(1, n + 1)], edges))
        assert list(validate_curve(c).errors) == _errors_by_rescan(c)


# n components and up to 14 edges between them, self-loops and repeats allowed;
# the ids are spread out and listed shuffled, so id, index and listing differ
multigraphs = st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.permutations([7 * i + 2**65 for i in range(1, n + 1)]),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=14)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(multigraphs)
def test_the_one_edge_walk_builds_the_two_pass_report(graph):
    ids, ends = graph
    c = curve([(i, i % 3, i % 2) for i in ids], [(ids[a], ids[b]) for a, b in ends])
    assert c._validation == helpers.validation_oracle(c)


@pytest.mark.parametrize("n, edges, errors", [
    # a self-loop listed after a closing edge suppresses the closing edge
    (3, [(1, 2), (2, 3), (3, 1), (2, 2)], [("CycleDetected", "edge [2, 2] joins a component "
                                                             "to itself")]),
    # a repeated node given in both orientations
    (2, [(2, 1), (1, 2)], [("MultiEdge", "components 1 and 2 meet in more than one node")]),
    (1, [], []),
    (1, [(1, 1), (1, 1)], [("CycleDetected", "edge [1, 1] joins a component to itself")] * 2),
    # disconnected and cyclic: the closing edge, then the pieces
    (5, [(1, 2), (3, 2), (3, 1), (2, 1)], [
        ("MultiEdge", "components 1 and 2 meet in more than one node"),
        ("CycleDetected", "edge [1, 3] closes a cycle"),
        ("Disconnected", "dual graph has 3 connected pieces")]),
])
def test_the_one_edge_walk_keeps_the_order_and_suppression_of_errors(n, edges, errors):
    c = curve([(i, 1, 0) for i in range(1, n + 1)], edges)
    assert list(c._validation.errors) == errors
    assert c._validation == helpers.validation_oracle(c)
    assert c._validation.p_a == (None if errors else n)


def test_prune_matches_the_round_rule_with_far_ids():
    rng = random.Random(103)
    for shape in helpers.SHAPES:
        for n in (1, 2, 3, 5, 8, 13, 30):
            c = helpers.relabel_far(rng, helpers.shaped_curve(rng, n, shape))
            o = prune_ordering(c)
            assert (o.perm, o.nu) == helpers.round_prune_ordering(c)
            assert helpers.ordering_satisfies_one_branch(c, o.perm)
            verify_ordering(c, o)


def test_validate_is_fast_on_many_repeated_nodes():
    # the complete graph on 120 components plus 8,000 copies of one node
    n = 120
    edges = list(itertools.combinations(range(1, n + 1), 2)) + [(1, 2)] * 8000
    c = curve([(i, 0, 0) for i in range(1, n + 1)], edges)
    start = time.perf_counter()
    report = validate_curve(c)
    assert time.perf_counter() - start < 1.0    # about 4 s with a rescan per closing edge
    assert [code for code, _ in report.errors] == ["MultiEdge"] * 8000 + ["CycleDetected"]
    small = curve([(i, 0, 0) for i in range(1, 31)],
                  list(itertools.combinations(range(1, 31), 2)) + [(1, 2)] * 300)
    assert list(validate_curve(small).errors) == _errors_by_rescan(small)


def test_validate_single_component():
    c = curve([(1, 0, 0)], [])
    report = validate_curve(c)
    assert report.valid
    assert report.p_a == 0
    assert not report.genus_at_least_two


def test_bad_documents_rejected():
    with pytest.raises(ParseError):
        curve([(1, 0, 0), (1, 1, 0)], [])          # duplicate id
    with pytest.raises(ParseError):
        curve([(1, 0, 0)], [(1, 2)])               # unknown id in edge
    with pytest.raises(ParseError):
        curve([(0, 0, 0)], [])                     # nonpositive id
    with pytest.raises(ParseError):
        Component(id=1, geometric_genus=-1)


def one_minus_chi_of_trivial(c):
    """1 - chi(O) on the curve: its arithmetic genus, by Riemann-Roch."""
    return 1 - euler_char_total(c, BundleClass(rank=1, multidegree={i: 0 for i in c.ids}))


def test_arithmetic_genus_single_nodal():
    c = curve([(1, 2, 1)], [])
    assert validate_curve(c).p_a == one_minus_chi_of_trivial(c) == 3


def test_arithmetic_genus_path3_with_internal_node():
    c = curve([(1, 1, 0), (2, 0, 1), (3, 1, 0)], [(1, 2), (2, 3)])
    assert validate_curve(c).p_a == one_minus_chi_of_trivial(c) == 3


def test_arithmetic_genus_rational_star_vs_euler():
    assert validate_curve(STAR4).p_a == 0
    trivial = BundleClass(rank=1, multidegree={i: 0 for i in STAR4.ids})
    assert euler_char_total(STAR4, trivial) == 1
    assert validate_curve(STAR4).p_a == one_minus_chi_of_trivial(STAR4)


def test_prune_ordering_path3():
    o = prune_ordering(PATH3)
    assert o.perm == (1, 3, 2)
    assert o.nu == (3, 3)
    assert helpers.ordering_satisfies_one_branch(PATH3, o.perm)
    verify_ordering(PATH3, o)


def test_prune_ordering_single():
    c = curve([(1, 2, 0)], [])
    o = prune_ordering(c)
    assert o.perm == (1,)
    assert o.nu == ()
    assert o.subtrees == ((1,),)


def test_prune_ordering_star_leaves_first():
    o = prune_ordering(STAR4)
    assert o.perm == (1, 2, 3, 4)
    assert o.nu == (4, 4, 4)
    assert helpers.ordering_satisfies_one_branch(STAR4, o.perm)
    verify_ordering(STAR4, o)


def test_prune_ordering_stable():
    rng = random.Random(7)
    for _ in range(50):
        c = helpers.random_curve(rng, n_max=8)
        assert prune_ordering(c).perm == prune_ordering(c).perm


def test_prune_ordering_random_against_definition():
    rng = random.Random(42)
    for _ in range(500):
        c = helpers.random_curve(rng, n_max=8, genus_max=3)
        o = prune_ordering(c)
        assert helpers.ordering_satisfies_one_branch(c, o.perm)
        verify_ordering(c, o)
        for g, b in helpers.report_g_b(o):
            assert len(g) + len(b) == len(c.ids)


def test_genus_equals_one_minus_euler_random():
    rng = random.Random(99)
    for _ in range(500):
        c = helpers.random_curve(rng, n_max=8, genus_max=3)
        assert validate_curve(c).p_a == one_minus_chi_of_trivial(c)


def walked_split(c, o, i):
    """(G(i), B(i), boundary node) by the graph walk ``helpers.piece``: B(i) is
    what component i's parent reaches without passing through component i."""
    everything = frozenset(c.ids)
    if i == o.n:
        return everything, frozenset(), None
    y, anchor = o.perm[i - 1], o.perm[o.nu[i - 1] - 1]
    b = helpers.piece(helpers.neighbors(c), y, anchor)
    return everything - b, b, tuple(sorted((y, anchor)))


def read_split(o, i):
    """(G(i), B(i), boundary node) read off the ordering's parent array."""
    g = frozenset(o.subtrees[i - 1])
    return g, frozenset(o.perm) - g, o.boundary_edge(i)


def test_split_path3_first_position():
    o = prune_ordering(PATH3)
    assert o.subtrees[0] == (1,)
    assert o.boundary_edge(1) == (1, 2)
    assert read_split(o, 1) == walked_split(PATH3, o, 1) == ({1}, {2, 3}, (1, 2))


def test_split_last_position_is_whole_curve():
    o = prune_ordering(PATH3)
    assert o.subtrees[2] == (1, 2, 3)
    assert o.boundary_edge(3) is None
    assert read_split(o, 3) == walked_split(PATH3, o, 3) == ({1, 2, 3}, frozenset(), None)


def test_split_star_leaf():
    o = prune_ordering(STAR4)
    assert o.subtrees[0] == (1,)
    assert o.boundary_edge(1) == (1, 4)
    assert read_split(o, 1) == walked_split(STAR4, o, 1) == ({1}, {2, 3, 4}, (1, 4))


def test_split_matches_stored_sets():
    rng = random.Random(5)
    for _ in range(100):
        c = helpers.random_curve(rng, n_max=7)
        o = prune_ordering(c)
        for i, g_b in enumerate(helpers.report_g_b(o), 1):
            assert read_split(o, i)[:2] == walked_split(c, o, i)[:2] == g_b


def test_verify_ordering_rejects_swapped_positions():
    o = prune_ordering(PATH3)
    swapped = type(o)(perm=(2, 3, 1), nu=o.nu)
    with pytest.raises(OrderingMismatch):
        verify_ordering(PATH3, swapped)


def test_verify_ordering_rejects_wrong_curve():
    o = prune_ordering(PATH3)
    other = curve([(1, 0, 0), (2, 0, 0), (3, 0, 0)], [(1, 3), (3, 2)])
    with pytest.raises(OrderingMismatch):
        verify_ordering(other, o)


def test_verify_ordering_rejects_out_of_range_nu():
    with pytest.raises(OrderingMismatch):
        verify_ordering(PATH3, Ordering(perm=(1, 3, 2), nu=(3, 7)))
    with pytest.raises(OrderingMismatch):
        verify_ordering(PATH3, Ordering(perm=(1, 3, 2), nu=(3, 0)))


def test_verify_ordering_rejects_downward_nu():
    # the parent edges {2,3} and {1,2} are the curve's nodes, but nu(2)
    # points below position 2
    with pytest.raises(OrderingMismatch):
        verify_ordering(PATH3, Ordering(perm=(2, 1, 3), nu=(3, 1)))
    with pytest.raises(OrderingMismatch):
        verify_ordering(PATH3, Ordering(perm=(2, 1, 3), nu=(3, 2)))


def test_verify_ordering_rejects_parent_edge_off_the_curve():
    # nu(1) = 2 joins components 1 and 3, which share no node
    with pytest.raises(OrderingMismatch):
        verify_ordering(PATH3, Ordering(perm=(1, 3, 2), nu=(2, 3)))


def test_verify_ordering_rejects_wrong_nu_length():
    with pytest.raises(OrderingMismatch):
        verify_ordering(PATH3, Ordering(perm=(1, 3, 2), nu=(3,)))


@pytest.mark.parametrize("shape", helpers.SHAPES)
def test_prune_ordering_matches_round_based_rule(shape):
    rng = random.Random(helpers.SHAPES.index(shape))
    for n in [1, 2, 3, 4, 5, 7, 12, 31, 64, 150, 300]:
        for _ in range(3):
            c = helpers.shaped_curve(rng, n, shape)
            o = prune_ordering(c)
            assert (o.perm, o.nu) == helpers.round_prune_ordering(c)
            verify_ordering(c, o)


def test_lazy_sets_match_the_graph_walk_at_every_position():
    rng = random.Random(17)
    for _ in range(60):
        c = helpers.shaped_curve(rng, rng.randint(1, 40), rng.choice(helpers.SHAPES))
        o = prune_ordering(c)
        for i, g_b in enumerate(helpers.report_g_b(o), 1):
            g, b, node = walked_split(c, o, i)
            assert g_b == (g, b)
            assert o.subtrees[i - 1] == tuple(sorted(g))
            assert o.boundary_edge(i) == node


def test_subtrees_match_the_graph_walk_on_every_shape_with_far_ids():
    rng = random.Random(19)
    for shape in helpers.SHAPES:
        for n in (1, 2, 3, 9, 33):
            c = helpers.relabel_far(rng, helpers.shaped_curve(rng, n, shape))
            o = prune_ordering(c)
            subtrees = o.subtrees
            assert len(subtrees) == n and subtrees[-1] == tuple(sorted(c.ids))
            for i in range(1, n + 1):
                assert subtrees[i - 1] == tuple(sorted(walked_split(c, o, i)[0]))


def test_component_lookup_reads_the_dense_index_on_far_ids():
    rng = random.Random(131)
    for shape in helpers.SHAPES:
        for n in (1, 2, 5, 13):
            c = helpers.relabel_far(rng, helpers.shaped_curve(rng, n, shape))
            for comp in c.components:
                assert c.component(comp.id) is comp
                assert c.degree(comp.id) == len(helpers.neighbors(c)[comp.id])
            for missing in (min(c.ids) - 1, max(c.ids) + 1, 0, -1, 1):
                with pytest.raises(IndexOutOfRange):
                    c.component(missing)
                with pytest.raises(IndexOutOfRange):
                    c.degree(missing)
    # a curve need not be a tree to look its components up
    triangle = curve([(1, 0, 0), (2, 1, 0), (3, 0, 1)], [(1, 2), (2, 3), (1, 3)])
    assert triangle.component(3) == Component(id=3, internal_nodes=1)
    with pytest.raises(IndexOutOfRange):
        triangle.component(4)


def test_graph_reads_match_the_neighbor_oracle_with_far_ids():
    rng = random.Random(137)
    for shape in helpers.SHAPES:
        for n in (1, 2, 3, 8, 21, 60, 500):
            c = helpers.relabel_far(rng, helpers.shaped_curve(rng, n, shape))
            adj = helpers.neighbors(c)
            if n <= 60:
                for i in c.ids:
                    assert c.degree(i) == len(adj[i])
                    for j in c.ids:
                        expect = -len(adj[i]) if i == j else (1 if j in adj[i] else 0)
                        assert intersection(c, i, j) == expect
            o = prune_ordering(c)
            everything, subtrees = frozenset(c.ids), o.subtrees
            for k, y in enumerate(o.perm[:-1]):
                anchor = o.perm[o.nu[k] - 1]
                b = helpers.piece(adj, y, anchor)
                assert subtrees[k] == tuple(sorted(everything - b))
                assert o.boundary_edge(k + 1) == tuple(sorted((y, anchor)))
            assert subtrees[-1] == tuple(sorted(everything)) and o.boundary_edge(n) is None


def test_degree_matches_the_neighbor_oracle_on_multigraphs():
    # degree needs no tree: self-loops and repeated nodes count no neighbor twice
    rng = random.Random(139)
    for _ in range(60):
        n = rng.randint(1, 12)
        ids = rng.sample(range(2**64, 2**64 + 10**6), n)
        edges = [(rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, 2 * n))]
        a, b = rng.choice(ids), rng.choice(ids)
        edges += [(a, a), (a, b), (b, a)]
        rng.shuffle(edges)
        c = TreeLikeCurve(components=tuple(Component(id=i) for i in ids), edges=tuple(edges))
        adj = helpers.neighbors(c)
        assert [c.degree(i) for i in ids] == [len(adj[i]) for i in ids]


def _documents(rng):
    """(components, edges) of trees of the four shapes and of random
    multigraphs, with far ids and each edge's ends in random order."""
    shaped = [helpers.shaped_curve(rng, n, shape)
              for shape in helpers.SHAPES for n in (1, 2, 3, 8, 21)]
    for _ in range(60):
        n = rng.randint(1, 9)
        edges = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 14))]
        shaped.append(curve([(i, rng.randint(0, 2), rng.randint(0, 1))
                             for i in range(1, n + 1)], edges))
    for c in shaped:
        c = helpers.relabel_far(rng, c)
        yield list(c.components), [e[::rng.choice((1, -1))] for e in c.edges]


def _index_oracle(comps, edges):
    """(_edges, _deg) read straight off a document: the ids ranked by
    value, each node once as a rank pair in the order the document first
    lists it, and each component's count of distinct neighbors."""
    rank = {i: k for k, i in enumerate(sorted(comp.id for comp in comps))}
    nodes = []
    for a, b in edges:
        pair = tuple(sorted((rank[a], rank[b])))
        if a != b and pair not in nodes:
            nodes.append(pair)
    deg = [len(({b for a, b in edges if a == i} | {a for a, b in edges if b == i}) - {i})
           for i in sorted(rank)]
    return nodes, deg


def test_component_order_does_not_change_the_curve():
    rng = random.Random(149)
    trees = 0
    for comps, edges in _documents(rng):
        one, two = (TreeLikeCurve(components=tuple(rng.sample(comps, len(comps))),
                                  edges=tuple(edges)) for _ in range(2))
        assert one == two
        assert one.ids == two.ids == tuple(sorted(comp.id for comp in comps))
        assert validate_curve(one) == validate_curve(two)
        assert (one._edges, one._deg) == (two._edges, two._deg) == _index_oracle(comps, edges)
        if not validate_curve(one).valid:
            continue
        trees += 1
        bc = helpers.random_bundle(rng, one)
        pol = helpers.random_polarization(rng, one)
        o = prune_ordering(one)
        assert o == prune_ordering(two)
        assert lambda_check(one, o, bc, pol) == lambda_check(two, o, bc, pol)
        assert balance(one, bc, pol) == balance(two, bc, pol)
    assert trees >= 20


# ------------------------------------------------- guards on ordering input

def test_boundary_edge_refuses_an_index_out_of_range():
    o = prune_ordering(PATH3)
    for i in (0, 4, -1):
        with pytest.raises(IndexOutOfRange, match=f"^order index {i} out of range 1..3$"):
            o.boundary_edge(i)
    assert o.boundary_edge(3) is None


def test_lambda_check_refuses_an_ordering_of_another_curve():
    other = curve([(1, 1, 0), (2, 0, 0), (4, 1, 0)], [(1, 2), (2, 4)])
    bc = BundleClass(rank=1, multidegree={1: 0, 2: 0, 3: 0})
    pol = Polarization({i: Fraction(1, 3) for i in PATH3.ids})
    for read in (lambda: verify_ordering(PATH3, prune_ordering(other)),
                 lambda: lambda_check(PATH3, prune_ordering(other), bc, pol)):
        with pytest.raises(OrderingMismatch,
                           match="^perm is not a permutation of the curve's component ids$"):
            read()


def test_lambda_check_refuses_a_parent_that_is_not_a_neighbour():
    # the ids match, but position 1 (component 1) hangs off component 3
    o = Ordering(perm=(1, 3, 2), nu=(2, 3))
    bc = BundleClass(rank=1, multidegree={1: 0, 2: 0, 3: 0})
    pol = Polarization({i: Fraction(1, 3) for i in PATH3.ids})
    for read in (lambda: verify_ordering(PATH3, o), lambda: lambda_check(PATH3, o, bc, pol)):
        with pytest.raises(OrderingMismatch,
                           match="^the parent edges of the ordering are not the curve's nodes$"):
            read()


@pytest.mark.parametrize("nu, message", [
    ((0,), "nu(1) = 0 is not an integer in 2..2"),
    ((1,), "nu(1) = 1 is not an integer in 2..2"),
    ((99,), "nu(1) = 99 is not an integer in 2..2"),
    ((-5,), "nu(1) = -5 is not an integer in 2..2"),
    ((1.5,), "nu(1) = 1.5 is not an integer in 2..2"),
    ((), "nu has 0 entries, need 1"),
    (None, "nu must be a tuple or a list, got NoneType"),
    (5, "nu must be a tuple or a list, got int")])
def test_every_reader_of_the_parents_refuses_a_malformed_nu(nu, message):
    # subtrees and boundary_edge read nu unchecked: (1,) gave the subtrees
    # ((1, 1), (2,)) and the node (1, 1), (0,) read nu(1) as 2 through
    # perm[-1], (99,) raised IndexError and (1.5,) TypeError; None and 5
    # raised a bare TypeError from len()
    o = Ordering(perm=(1, 2), nu=nu)
    bc = BundleClass(rank=1, multidegree={1: 0, 2: 0})
    pol = Polarization({1: Fraction(1, 2), 2: Fraction(1, 2)})
    for read in (lambda: o.subtrees, lambda: o.boundary_edge(1), lambda: o.boundary_edge(2),
                 lambda: verify_ordering(PATH2, o), lambda: lambda_check(PATH2, o, bc, pol)):
        with pytest.raises(OrderingMismatch, match=f"^{re.escape(message)}$"):
            read()


@pytest.mark.parametrize("perm, nu, message", [
    ((1, 1), (2,), "perm is empty or repeats a component id"),
    ((1, 2.0), (2,), "perm entry 2.0 is not an integer"),
    ((), (), "perm is empty or repeats a component id"),
    (("1", 2), (2,), "perm entry '1' is not an integer"),
    (None, (), "perm must be a tuple or a list, got NoneType"),
    (5, (2,), "perm must be a tuple or a list, got int"),
    ({1, 2}, (2,), "perm must be a tuple or a list, got set")])
def test_every_reader_of_an_ordering_refuses_a_malformed_perm(perm, nu, message):
    # without a curve, perm went unchecked: (1, 1) gave the subtrees
    # ((1,), (1, 1)), (1, 2.0) the node (1, 2.0) and () "nu has 0 entries, need -1";
    # None and 5 raised a bare TypeError from len(), and a set one from perm[k]
    o = Ordering(perm=perm, nu=nu)
    bc = BundleClass(rank=1, multidegree={1: 0, 2: 0})
    pol = Polarization({1: Fraction(1, 2), 2: Fraction(1, 2)})
    for read in (lambda: o.subtrees, lambda: o.boundary_edge(1),
                 lambda: verify_ordering(PATH2, o), lambda: lambda_check(PATH2, o, bc, pol)):
        with pytest.raises(OrderingMismatch, match=f"^{re.escape(message)}$"):
            read()


@pytest.mark.parametrize("args, what", [((1.5,), "component ids"), ((2.0,), "component ids"),
                                        (("1",), "component ids"), ((1, 0.5), "genus data"),
                                        ((1, 0, 0.5), "genus data"), ((1, None), "genus data")])
def test_component_refuses_numbers_that_are_not_ints(args, what):
    # Component(1.5) and Component(1, 0.5) built
    with pytest.raises(ParseError, match=f"^{what} must be "):
        Component(*args)
    assert Component(True, False, True).arithmetic_genus == 1


@pytest.mark.parametrize("bad", [2.0, Fraction(2), Decimal(2), "2", None])
def test_curve_refuses_an_edge_endpoint_that_is_not_an_int(bad):
    # TreeLikeCurve(..., ((1, 2.0),)) built, since 2.0 finds id 2 in the index,
    # and its edges and simple_edges then held (1, 2.0)
    comps = (Component(1), Component(2), Component(3))
    for edges in (((1, 2), (2, bad)), iter(((1, 2), (2, bad)))):
        with pytest.raises(ParseError, match=re.escape(
                f"edge {[2, bad]} has an endpoint that is not an integer; field=edges")):
            TreeLikeCurve(components=comps, edges=edges)
    assert TreeLikeCurve(components=comps, edges=((1, 2), (True, 3))).edges == ((1, 2), (1, 3))
    # the edges are walked once, so a one-shot iterable builds the same curve
    c = TreeLikeCurve(components=comps, edges=iter([[1, 2], [2, 3]]))
    assert c.edges == ((1, 2), (2, 3)) and validate_curve(c).valid


@pytest.mark.parametrize("bad", [(1, 2, 3), (1,), (), 5, None])
def test_curve_refuses_an_edge_that_is_not_a_pair(bad):
    # the edge (1, 2, 3) raised a bare ValueError and the edge 5 a bare TypeError
    comps = (Component(1), Component(2), Component(3))
    with pytest.raises(ParseError, match=re.escape(
            f"edge {bad!r} is not a pair of component ids; field=edges")):
        TreeLikeCurve(components=comps, edges=((1, 2), bad))
