import random
from fractions import Fraction

import pytest

import helpers
from nodalstab import (
    GluingFlag,
    GpbClass,
    PrimeField,
    RationalField,
    build_rational_flag,
    check_no_kernel_section,
    check_projections,
    gpb_subbundle_check,
    parabolic_slope,
    phi_rank_degree,
    picard_rth_root,
)
from nodalstab.errors import (
    DegreeBound,
    DimensionBound,
    InvalidInput,
    NoRoot,
    SingularProjection,
)

Q = RationalField()


def test_parabolic_slope_examples():
    assert parabolic_slope(GpbClass(rank=2, degree=4, nodes=1)) == 3
    assert parabolic_slope(GpbClass(rank=3, degree=7, nodes=0)) == Fraction(7, 3)
    assert parabolic_slope(GpbClass(rank=3, degree=4, nodes=2)) == Fraction(10, 3)


def test_parabolic_slope_shifts_by_rank_multiples():
    rng = random.Random(61)
    for _ in range(100):
        r = rng.randint(1, 6)
        d = rng.randint(-20, 20)
        gamma = rng.randint(0, 4)
        k = rng.randint(-5, 5)
        base = parabolic_slope(GpbClass(rank=r, degree=d, nodes=gamma))
        shifted = parabolic_slope(GpbClass(rank=r, degree=d + r * k, nodes=gamma))
        assert shifted - base == k


def test_gpb_class_invariants():
    g = GpbClass(rank=2, degree=4, nodes=2)
    assert g.flag_dims == ((2, 2), (2, 2))
    assert g.weight == 4
    assert g.is_canonical
    with pytest.raises(InvalidInput):
        GpbClass(rank=2, degree=0, nodes=1, flag_dims=((1, 2),))  # m1+m2 != 2r


def test_subbundle_check_bound_chain_at_equality():
    g = GpbClass(rank=2, degree=4, nodes=1)
    verdict = gpb_subbundle_check(g, 1, 2, [1])
    assert verdict.sub_slope == 3
    assert verdict.total_slope == 3
    assert verdict.le
    assert verdict.chain_mid == 3
    assert verdict.slope_condition
    assert verdict.chain_holds


def test_subbundle_check_zero_flag():
    g = GpbClass(rank=2, degree=4, nodes=1)
    verdict = gpb_subbundle_check(g, 1, 1, [0])
    assert verdict.sub_slope == 1
    assert verdict.sub_slope < verdict.chain_mid
    assert verdict.le


def test_subbundle_check_exhaustive_never_exceeds():
    for r in (2, 3, 4):
        for d in range(-6, 7):
            for gamma in (0, 1, 2):
                g = GpbClass(rank=r, degree=d, nodes=gamma)
                total = parabolic_slope(g)
                for r_sub in range(1, r):
                    d_cap = (r_sub * d) // r   # d'/r' <= d/r
                    for d_sub in range(d_cap - 4, d_cap + 1):
                        if Fraction(d_sub, r_sub) > Fraction(d, r):
                            continue
                        for flags in _flag_tuples(r_sub, gamma):
                            verdict = gpb_subbundle_check(g, r_sub, d_sub, flags)
                            assert verdict.le, (r, d, gamma, r_sub, d_sub, flags)
                            assert verdict.sub_slope <= total


def _flag_tuples(r_sub, gamma):
    if gamma == 0:
        return [()]
    out = [()]
    for _ in range(gamma):
        out = [t + (f,) for t in out for f in range(r_sub + 1)]
    return out


def test_subbundle_check_errors():
    g = GpbClass(rank=3, degree=0, nodes=1)
    with pytest.raises(DimensionBound):
        gpb_subbundle_check(g, 2, 0, [3])
    with pytest.raises(InvalidInput):
        gpb_subbundle_check(g, 3, 0, [1])
    with pytest.raises(InvalidInput):
        gpb_subbundle_check(g, 1, 0, [1, 1])


def test_phi_rank_degree_worked_example():
    phi = phi_rank_degree(GpbClass(rank=2, degree=3, nodes=1), 2)
    assert (phi.rank, phi.degree, phi.chi) == (2, 3, -1)


def test_phi_rank_degree_no_nodes():
    phi = phi_rank_degree(GpbClass(rank=2, degree=5, nodes=0), 3)
    assert (phi.rank, phi.degree) == (2, 5)
    assert phi.chi == 5 + 2 * (1 - 3)


def test_phi_rank_degree_rational_normalization():
    phi = phi_rank_degree(GpbClass(rank=2, degree=0, nodes=1), 0)
    assert (phi.rank, phi.degree, phi.chi) == (2, 0, 0)


def test_phi_rank_degree_random_degree_preserved():
    rng = random.Random(67)
    for _ in range(500):
        r = rng.randint(1, 6)
        d = rng.randint(-30, 30)
        gamma = rng.randint(0, 5)
        genus = rng.randint(0, 6)
        phi = phi_rank_degree(GpbClass(rank=r, degree=d, nodes=gamma), genus)
        assert phi.rank == r
        assert phi.degree == d
        assert phi.chi == d + r * (1 - genus) - gamma * r


def test_build_rational_flag_rows():
    flag = build_rational_flag(Q, 2, 4, 1)
    assert flag.basis_matrix == (
        (Fraction(1), Fraction(0), Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(1), Fraction(0)),
    )


def test_build_rational_flag_f5():
    flag = build_rational_flag(PrimeField(5), 2, 0, 0)
    assert flag.right_block() == [[0, 1], [1, 0]]
    assert check_projections(flag).locally_free


def test_build_rational_flag_degree_bound():
    with pytest.raises(DegreeBound):
        build_rational_flag(Q, 2, 3, 2)     # 2*2 > 3


def test_build_rational_flag_singular_when_char_divides_r_minus_1():
    with pytest.raises(SingularProjection):
        build_rational_flag(PrimeField(2), 3, 10, 1)
    with pytest.raises(SingularProjection):
        build_rational_flag(PrimeField(3), 4, 10, 0)
    with pytest.raises(SingularProjection):
        build_rational_flag(Q, 1, 5, 1)     # r - 1 = 0 in any field


def test_projections_pass_away_from_bad_characteristic():
    for r in range(2, 7):
        for p in (2, 3, 5, 7, 11):
            if (r - 1) % p == 0:
                continue
            flag = build_rational_flag(PrimeField(p), r, r * 3, 2)
            assert check_projections(flag).locally_free
            assert check_no_kernel_section(flag).passes
        flag = build_rational_flag(Q, r, r, 1)
        assert check_projections(flag).locally_free


def test_check_projections_canonical_diagonal():
    one, zero = 1, 0
    rows = [[one, zero, one, zero], [zero, one, zero, one]]
    flag = GluingFlag(field=PrimeField(5), rank=2, basis_matrix=rows)
    verdict = check_projections(flag)
    assert verdict.pr1_iso and verdict.pr2_iso and verdict.locally_free
    assert check_no_kernel_section(flag).passes


def test_check_projections_rank_deficient_side():
    rows = [[1, 0, 0, 0], [0, 1, 0, 1]]     # first row is e_1 + 0
    flag = GluingFlag(field=PrimeField(5), rank=2, basis_matrix=rows)
    verdict = check_projections(flag)
    assert verdict.pr1_iso
    assert not verdict.pr2_iso
    assert not verdict.locally_free
    kern = check_no_kernel_section(flag)
    assert kern.dim_meet_p_side == 1
    assert not kern.passes


def test_gluing_flag_requires_independent_rows():
    with pytest.raises(InvalidInput):
        GluingFlag(field=PrimeField(5), rank=2,
                   basis_matrix=[[1, 0, 1, 0], [2, 0, 2, 0]])


def test_picard_rth_root_f7_cube():
    assert picard_rth_root(PrimeField(7), 3, [6]) == [3]
    assert picard_rth_root(PrimeField(7), 3, [1]) == [1]


def test_picard_rth_root_quadratic_nonresidue():
    with pytest.raises(NoRoot):
        picard_rth_root(PrimeField(7), 2, [3])


def test_picard_rth_root_round_trips():
    for p in (5, 7, 11):
        field = PrimeField(p)
        for r in (2, 3, 4):
            for a in range(1, p):
                try:
                    (b,) = picard_rth_root(field, r, [a])
                except NoRoot:
                    assert all(pow(x, r, p) != a for x in range(1, p))
                    continue
                assert pow(b, r, p) == a


def test_picard_rth_root_rationals():
    assert picard_rth_root(Q, 3, [Fraction(8, 27)]) == [Fraction(2, 3)]
    assert picard_rth_root(Q, 3, [Fraction(-8)]) == [-2]
    assert picard_rth_root(Q, 2, [Fraction(9, 4)]) == [Fraction(3, 2)]
    with pytest.raises(NoRoot):
        picard_rth_root(Q, 2, [Fraction(2)])
    with pytest.raises(NoRoot):
        picard_rth_root(Q, 2, [Fraction(-4)])
    with pytest.raises(InvalidInput):
        picard_rth_root(Q, 2, [Fraction(0)])


def test_both_flag_checks_share_two_block_eliminations(monkeypatch):
    import nodalstab.gpb as gpb_mod

    calls = []
    real = gpb_mod.mat_rank

    def counting(field, rows):
        calls.append(rows)
        return real(field, rows)

    # the constructor eliminates each block once; a block of full rank already
    # makes the rows independent, so the full 2r-column elimination is skipped
    monkeypatch.setattr(gpb_mod, "mat_rank", counting)
    flag = build_rational_flag(PrimeField(7), 4, 9, 2)
    assert len(calls) == 2
    proj = check_projections(flag)
    kern = check_no_kernel_section(flag)
    assert len(calls) == 2
    assert proj.locally_free and kern.passes
    # both blocks singular over Q: the full-rank check runs as a third
    # elimination, and the verdicts still come from the two block ranks
    rows = [[1, 2, 0, 0], [2, 4, 1, 3]]
    calls.clear()
    flag = GluingFlag(field=Q, rank=2, basis_matrix=rows)
    assert len(calls) == 3
    kern, proj = check_no_kernel_section(flag), check_projections(flag)
    assert len(calls) == 3
    assert (proj.pr1_iso, proj.pr2_iso) == (False, False)
    assert (kern.dim_meet_p_side, kern.dim_meet_q_side) == (1, 1)


# ------------------------------------------- block ranks against Gauss-Jordan

FLAG_FIELDS = [(PrimeField(2), 2), (PrimeField(3), 3), (PrimeField(10007), 10007), (Q, None)]


def random_flag_rows(rng, r, p, shape):
    """r x 2r rows over F_p (p None: Q): random, with a deficient left or right
    block, with both blocks deficient, or with dependent rows."""
    def value():
        if rng.random() < 0.4:
            return 0
        return rng.randrange(p) if p else Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    rows = [[value() for _ in range(2 * r)] for _ in range(r)]
    half = [(0, r), (r, 2 * r)]
    sides = {"left": half[:1], "right": half[1:], "both": half}.get(shape, [])
    for lo, hi in sides:   # copy row 0's half into the last row: that block is deficient
        if r > 1:
            rows[-1][lo:hi] = rows[0][lo:hi]
    if shape == "dependent" and r > 1:
        rows[-1] = [2 * x - y for x, y in zip(rows[0], rows[1 % r])]
    return rows


@pytest.mark.parametrize("field, p", FLAG_FIELDS, ids=lambda f: getattr(f, "name", None))
def test_flag_block_ranks_match_gauss_jordan(field, p):
    rng = random.Random(p or 0)
    seen = set()
    for trial in range(400):
        r = rng.randint(1, 6)
        shape = ("random", "left", "right", "both", "dependent")[trial % 5]
        rows = random_flag_rows(rng, r, p, shape)
        full = helpers.gauss_jordan_rank(p, rows)
        left = helpers.gauss_jordan_rank(p, [row[:r] for row in rows])
        right = helpers.gauss_jordan_rank(p, [row[r:] for row in rows])
        if full < r:
            with pytest.raises(InvalidInput, match="^flag rows must be linearly independent$"):
                GluingFlag(field=field, rank=r, basis_matrix=rows)
            seen.add("dependent")
            continue
        flag = GluingFlag(field=field, rank=r, basis_matrix=rows)
        proj, kern = check_projections(flag), check_no_kernel_section(flag)
        assert (proj.pr1_iso, proj.pr2_iso) == (left == r, right == r)
        assert (kern.dim_meet_p_side, kern.dim_meet_q_side) == (r - right, r - left)
        if left < r and right < r:
            seen.add("independent, both blocks deficient")
    assert seen == {"dependent", "independent, both blocks deficient"}


def test_both_blocks_deficient_but_independent_rows():
    for field in (PrimeField(2), PrimeField(10007), Q):
        flag = GluingFlag(field=field, rank=2, basis_matrix=[[1, 0, 0, 0], [0, 0, 0, 1]])
        proj, kern = check_projections(flag), check_no_kernel_section(flag)
        assert (proj.pr1_iso, proj.pr2_iso) == (False, False)
        assert (kern.dim_meet_p_side, kern.dim_meet_q_side) == (1, 1)
        with pytest.raises(InvalidInput, match="^flag rows must be linearly independent$"):
            GluingFlag(field=field, rank=2, basis_matrix=[[1, 0, 0, 0], [3, 0, 0, 0]])


def test_flag_entries_are_refused_at_the_first_bad_one():
    with pytest.raises(InvalidInput, match=r"^1\.5 is not an integer, so not an element of F5$"):
        GluingFlag(PrimeField(5), 2, [[1, 0, 0, 1], [0, 1.5, "x", 0]])
    with pytest.raises(InvalidInput, match="^'x' is not an integer, so not an element of F5$"):
        GluingFlag(PrimeField(5), 2, [[1, 0, "x", 1], [0, 1.5, 1, 0]])
    assert GluingFlag(PrimeField(5), 1, [[True, 7]]).basis_matrix == ((1, 2),)


def test_rational_flag_entries_are_kept_as_given():
    half = Fraction(1, 2)
    flag = GluingFlag(Q, 1, [[half, 3]])
    assert flag.basis_matrix == ((half, Fraction(3)),)
    assert flag.basis_matrix[0][0] is half


# ------------------------------------ integer inputs, and the guards on them

@pytest.mark.parametrize("dims", [((2.2, 2.9),), (("2", "2"),), ((Fraction(2), 2),),
                                  ((2, 2.0),)])
def test_gpb_class_refuses_flag_dimensions_that_are_not_ints(dims):
    # 2.2 and 2.9 were truncated to (2, 2) and "2" read as 2
    with pytest.raises(InvalidInput, match="must be nonnegative integers"):
        GpbClass(2, 3, 1, flag_dims=dims)
    assert GpbClass(2, 3, 1, flag_dims=((1, 3),)).flag_dims == ((1, 3),)
    assert GpbClass(1, 0, 1, flag_dims=((True, True),)).flag_dims == ((1, 1),)


def test_gpb_class_needs_one_flag_dimension_pair_per_node():
    with pytest.raises(InvalidInput, match="^need one flag dimension pair per node$"):
        GpbClass(2, 3, 2, flag_dims=((2, 2),))
    with pytest.raises(InvalidInput, match="^need one flag dimension pair per node$"):
        GpbClass(2, 3, 0, flag_dims=((2, 2),))


@pytest.mark.parametrize("dims", [(0.9,), ("1",), (Fraction(1),), (None,)])
def test_subbundle_check_refuses_flag_dimensions_that_are_not_ints(dims):
    # 0.9 was read as the dimension 0
    with pytest.raises(InvalidInput, match="^flag dimension must be an integer, got "):
        gpb_subbundle_check(GpbClass(2, 3, 1), 1, 0, dims)
    assert gpb_subbundle_check(GpbClass(2, 3, 1), 1, 0, (True,)).sub_slope == 1


def test_subbundle_check_refuses_a_negative_flag_dimension():
    with pytest.raises(InvalidInput, match="^flag dimension must be nonnegative$"):
        gpb_subbundle_check(GpbClass(3, 0, 2), 2, 0, [1, -1])


def test_subbundle_check_refuses_flag_dimensions_that_are_no_sequence():
    # 5 raised a bare TypeError from tuple(5)
    with pytest.raises(InvalidInput, match="^need one flag dimension per node$"):
        gpb_subbundle_check(GpbClass(3, 1, 1), 1, 0, 5)
    assert gpb_subbundle_check(GpbClass(3, 1, 1), 1, 0, iter([1])).le


def test_phi_rank_degree_needs_the_canonical_flags():
    g = GpbClass(2, 3, 1, flag_dims=((1, 3),))
    assert not g.is_canonical
    with pytest.raises(InvalidInput, match="^descent bookkeeping needs the canonical"):
        phi_rank_degree(g, 1)


@pytest.mark.parametrize("r", [0, -2])
def test_picard_rth_root_needs_a_positive_exponent(r):
    with pytest.raises(InvalidInput, match="^root exponent must be positive$"):
        picard_rth_root(PrimeField(7), r, [2])


def test_picard_rth_root_refuses_scalars_that_are_no_sequence():
    # 4 raised a bare TypeError from iterating over it
    with pytest.raises(InvalidInput, match="^gluing scalars must be a sequence$"):
        picard_rth_root(PrimeField(5), 2, 4)
    assert picard_rth_root(PrimeField(5), 2, (4,)) == [2]


@pytest.mark.parametrize("args, name", [((2.5, 3, 0), "rank"), ((2, 1.5, 1), "degree"),
                                        ((2, 3, 1.5), "nodes"), ((2.5, 3, 1), "rank"),
                                        ((Fraction(2), 3, 1), "rank"), ((2, "3", 1), "degree")])
def test_gpb_class_refuses_numbers_that_are_not_ints(args, name):
    # (2.5, 3, 0) and (2, 1.5, 1) built, and parabolic_slope then raised a bare
    # TypeError; (2.5, 3, 1) was refused with the flag-dimension message
    with pytest.raises(InvalidInput,
                       match=f"^{name.replace('nodes', 'node count')} must be an integer, got "):
        GpbClass(*args)
    assert GpbClass(True, False, True).flag_dims == ((1, 1),)


@pytest.mark.parametrize("dims", [((2, 2, 0),), (5,), ((2,),), (None,), 5])
def test_gpb_class_refuses_flag_dimensions_that_are_not_pairs(dims):
    # these ended in a bare ValueError or TypeError from unpacking
    with pytest.raises(InvalidInput, match=r"^flag dimensions must be \(m1, m2\) pairs$"):
        GpbClass(2, 3, 1, flag_dims=dims)
    assert GpbClass(2, 3, 1, flag_dims=[[1, 3]]).flag_dims == ((1, 3),)


@pytest.mark.parametrize("sub_rank, sub_degree", [(1.5, 0), (1, 0.5), (Fraction(1), 0),
                                                  (1, "0"), (None, 0), (3, 0.5), (0, "0")])
def test_subbundle_check_refuses_a_rank_or_degree_that_is_not_an_int(sub_rank, sub_degree):
    # 1.5 and 0.5 ended in a bare TypeError from Fraction; both types are
    # checked before the rank's range, so (3, 0.5) names the degree
    with pytest.raises(InvalidInput, match="^subbundle {} must be an integer, got ".format(
            "degree" if isinstance(sub_rank, int) else "rank")):
        gpb_subbundle_check(GpbClass(3, 3, 1), sub_rank, sub_degree, (1,))
    assert gpb_subbundle_check(GpbClass(3, 3, 1), True, False, (1,)).sub_slope == 1


def test_a_gluing_flag_is_a_hashable_value():
    # hash(flag) raised "unhashable type: 'PrimeField'"
    flag = build_rational_flag(PrimeField(5), 2, 3, 1)
    assert hash(flag) == hash(build_rational_flag(PrimeField(5), 2, 3, 1))
    seen = {flag: "F5", GluingFlag(Q, 1, [[1, Fraction(1, 3)]]): "Q"}
    assert seen[build_rational_flag(PrimeField(5), 2, 3, 1)] == "F5"
    assert seen[GluingFlag(Q, 1, [[1, Fraction(2, 6)]])] == "Q"
    assert GluingFlag(PrimeField(5), 1, [[1, 2]]) not in seen


def test_rational_flags_and_roots_refuse_floats_and_strings():
    with pytest.raises(InvalidInput, match=r"^0\.1 is not an integer or a Fraction"):
        GluingFlag(RationalField(), 1, [[0.1, "1/3"]])
    with pytest.raises(InvalidInput, match="^'1/3' is not an integer or a Fraction"):
        GluingFlag(RationalField(), 1, [[1, "1/3"]])
    with pytest.raises(InvalidInput, match=r"^0\.25 is not an integer or a Fraction"):
        picard_rth_root(RationalField(), 2, [0.25])
    assert picard_rth_root(RationalField(), 2, [Fraction(1, 4), 9]) == [Fraction(1, 2), 3]
