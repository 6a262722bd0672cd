"""Bounded-exhaustive checks, tier-1 slice: every labelled tree with N <= 5
components at ranks 2 and 3, and every 3 x 5 matrix over F2.

The checks and the enumeration are ``tests/helpers.py``'s, shared with
``tests/exhaustive.py``, which runs the larger sizes off tier-1.  Each size
also pins its counts, so an enumeration that shrinks fails here."""

import pytest

import helpers
from nodalstab import validate_curve


# N -> (trees, balance runs, brute-force runs): n^(n-2) trees (Cayley), each
# with 2^N + 3^N classes at two polarizations, the brute force at N <= 4 at one
@pytest.mark.parametrize("n, counts", [(1, (1, 10, 5)), (2, (1, 26, 13)), (3, (3, 210, 105)),
                                       (4, (16, 3104, 1552)), (5, (125, 68750, 0))])
def test_every_small_tree_passes_every_check(n, counts):
    got = helpers.check_small_trees(n, (2, 3), brute_max=4)
    assert (got["trees"], got["balance runs"], got["brute-force runs"]) == counts


def test_labelled_trees_are_every_tree_once():
    # Cayley: n^(n-2) labelled trees on n ids, each a tree and no two alike
    for n in range(1, 7):
        trees = [frozenset(map(frozenset, edges)) for edges in helpers.labelled_trees(n)]
        assert len(trees) == len(set(trees)) == (n ** (n - 2) if n >= 2 else 1)
        assert all(validate_curve(c).valid for c in helpers.small_curves(n))


def test_mat_rank_on_every_3_by_5_matrix_over_f2():
    assert helpers.check_small_matrices(2, 3, 5) == 2 ** 15
