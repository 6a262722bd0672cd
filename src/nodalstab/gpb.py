"""Generalized parabolic bundle numerics and explicit gluing linear algebra.

A class lives on the normalization of an irreducible nodal curve: rank,
degree, and one two-point node divisor per node.  The canonical
structure puts the diagonal r-dimensional flag inside the 2r-dimensional
node fiber with weights (0, 1), so each node contributes its flag
dimension to the parabolic weight.  Gluing flags are stored as explicit
row-span matrices over an exact field, and descent to the nodal curve is
tested by rank computations on the two node projections.
"""

from fractions import Fraction

from .errors import (
    DegreeBound,
    DimensionBound,
    InvalidInput,
    ParseError,
    Record,
    SingularProjection,
    _int_arg,
    _require,
    _set,
)
from .fields import mat_rank, parse_field


class GpbClass(Record):
    """Numerical data of a generalized parabolic bundle with weights (0, 1)."""

    __slots__ = _fields = ("rank", "degree", "nodes", "flag_dims")

    def __init__(self, rank: int, degree: int, nodes: int, flag_dims: tuple = None):
        # flag_dims: per node (m1, m2); defaults to the canonical (r, r)
        _int_arg(rank, "rank", 1)
        _int_arg(degree, "degree")
        _int_arg(nodes, "node count", 0)
        if flag_dims is None:
            dims = tuple((rank, rank) for _ in range(nodes))
        else:
            try:
                dims = tuple((m1, m2) for m1, m2 in flag_dims)
            except (TypeError, ValueError):   # an entry that is not a pair
                raise InvalidInput("flag dimensions must be (m1, m2) pairs") from None
        if len(dims) != nodes:
            raise InvalidInput("need one flag dimension pair per node")
        for m1, m2 in dims:   # ints only: 2.9 or "2" is refused, never truncated
            if not all(isinstance(m, int) and m >= 0 for m in (m1, m2)) or m1 + m2 != 2 * rank:
                raise InvalidInput("flag dimensions at a node must be nonnegative integers "
                                   "with m1 + m2 = 2r")
        for name, value in zip(self._fields, (rank, degree, nodes, dims)):
            _set(self, name, value)

    @property
    def is_canonical(self) -> bool:
        return all(m2 == self.rank for _, m2 in self.flag_dims)

    @property
    def weight(self) -> int:
        # weights (0, 1): each node contributes m2 * 1
        return sum(m2 for _, m2 in self.flag_dims)

    @property
    def parabolic_degree(self) -> int:
        return self.degree + self.weight


class SubbundleVerdict(Record):
    # chain_mid: (d' + gamma * r') / r'; slope_condition: d'/r' <= d/r
    __slots__ = _fields = ("sub_slope", "total_slope", "le", "chain_mid", "slope_condition",
                           "chain_holds")


class PhiNumbers(Record):
    __slots__ = _fields = ("rank", "degree", "chi")


class GluingFlag(Record):
    """Row span of the flag inside E(p) + E(q), in the fixed bases."""

    _fields = ("field", "rank", "basis_matrix")
    __slots__ = _fields + ("_block_ranks",)

    def __init__(self, field, rank: int, basis_matrix: tuple):
        # basis_matrix: r rows of length 2r, entries in the field
        _int_arg(rank, "rank", 1)
        rows = tuple(tuple(map(field.element, row)) for row in basis_matrix)
        if len(rows) != rank or any(len(row) != 2 * rank for row in rows):
            raise InvalidInput("flag matrix must be rank x 2*rank")
        for name, value in zip(self._fields, (field, rank, rows)):
            _set(self, name, value)
        # the ranks of the p-side and q-side blocks, each eliminated once, answer
        # both node checks; a block of rank r already makes the rows independent
        blocks = (mat_rank(field, self.left_block()), mat_rank(field, self.right_block()))
        if rank not in blocks and mat_rank(field, rows) != rank:
            raise InvalidInput("flag rows must be linearly independent")
        _set(self, "_block_ranks", blocks)

    def left_block(self):
        return [list(row[:self.rank]) for row in self.basis_matrix]

    def right_block(self):
        return [list(row[self.rank:]) for row in self.basis_matrix]


def parse_flag(obj) -> GluingFlag:
    """Flag document: {"field": "F5", "basis_matrix": [["1", "0", "0", "1"], ...]},
    each entry a field-element string or an integer."""
    _require(isinstance(obj, dict), "flag document must be an object")
    _require(isinstance(obj.get("field"), str), "missing field descriptor", "field")
    field = parse_field(obj["field"])
    rows = obj.get("basis_matrix")
    _require(isinstance(rows, list) and rows, "missing basis_matrix", "basis_matrix")
    for row in rows:
        _require(isinstance(row, list), "basis_matrix rows must be arrays", "basis_matrix")
        for x in row:
            if not isinstance(x, (str, int)) or isinstance(x, bool):
                raise ParseError(f"flag entries must be strings or integers, got {x!r}",
                                 field="basis_matrix")
    try:
        parsed = [[field.parse(x) for x in row] for row in rows]
    except ValueError:
        raise ParseError("flag entries must be field-element strings",
                         field="basis_matrix") from None
    except ZeroDivisionError:
        raise ParseError("flag entries must not have a zero denominator",
                         field="basis_matrix") from None
    return GluingFlag(field=field, rank=len(parsed), basis_matrix=parsed)


def flag_to_obj(flag: GluingFlag) -> dict:
    return {"field": flag.field.name,
            "basis_matrix": [[flag.field.format(x) for x in row]
                             for row in flag.basis_matrix]}


class ProjectionVerdict(Record):
    __slots__ = _fields = ("pr1_iso", "pr2_iso")

    @property
    def locally_free(self) -> bool:
        return self.pr1_iso and self.pr2_iso


class KernelSectionVerdict(Record):
    __slots__ = _fields = ("dim_meet_p_side", "dim_meet_q_side")

    @property
    def passes(self) -> bool:
        return self.dim_meet_p_side == 0 and self.dim_meet_q_side == 0


def parabolic_slope(g: GpbClass) -> Fraction:
    """(degree + weight) / rank, exactly."""
    return Fraction(g.parabolic_degree, g.rank)


def gpb_subbundle_check(g: GpbClass, sub_rank: int, sub_degree: int,
                        sub_flag_dims) -> SubbundleVerdict:
    """Compare a subbundle's parabolic slope with the full class.

    The subbundle is given numerically: rank, degree, and the dimension
    of its intersection with the flag at each node (each at most the
    subbundle rank, which is what caps its parabolic weight).  This is the
    semistability of the parabolic bundle on the normalization of an
    irreducible component with self-nodes, which descends to the nodal one.
    """
    _int_arg(sub_rank, "subbundle rank")
    _int_arg(sub_degree, "subbundle degree")
    if not 1 <= sub_rank < g.rank:
        raise InvalidInput("subbundle rank must satisfy 1 <= r' < r")
    try:
        dims = tuple(sub_flag_dims)
    except TypeError:   # 5 is no list of dimensions
        raise InvalidInput("need one flag dimension per node") from None
    if len(dims) != g.nodes:
        raise InvalidInput("need one flag dimension per node")
    for k, f in enumerate(dims):
        if _int_arg(f, "flag dimension", 0) > sub_rank:
            raise DimensionBound(
                f"flag dimension {f} at node {k + 1} exceeds the subbundle rank {sub_rank}")
    sub = Fraction(sub_degree + sum(dims), sub_rank)
    total = parabolic_slope(g)
    mid = Fraction(sub_degree + g.nodes * sub_rank, sub_rank)
    slope_condition = Fraction(sub_degree, sub_rank) <= Fraction(g.degree, g.rank)
    chain_holds = sub <= mid and (not slope_condition or mid <= total)
    return SubbundleVerdict(sub_slope=sub, total_slope=total, le=sub <= total,
                            chain_mid=mid, slope_condition=slope_condition,
                            chain_holds=chain_holds)


def phi_rank_degree(g: GpbClass, genus_normalization: int) -> PhiNumbers:
    """Rank, degree, and chi of the descended sheaf on the nodal curve.

    On the normalization the class has chi = d + r(1 - g); descending
    drops r per node, and the nodal curve's genus gains the node count,
    so the degree comes back out equal to d.
    """
    _int_arg(genus_normalization, "genus", 0)
    if not g.is_canonical:
        raise InvalidInput("descent bookkeeping needs the canonical diagonal flags")
    r, d, gamma = g.rank, g.degree, g.nodes
    chi_upstairs = d + r * (1 - genus_normalization)
    chi = chi_upstairs - gamma * r
    rho_a = genus_normalization + gamma
    return PhiNumbers(rank=r, degree=chi + r * (rho_a - 1), chi=chi)


def build_rational_flag(field, r: int, d: int, a: int) -> GluingFlag:
    """The standard gluing flag for a split bundle on a rational normalization.

    Row j is e_j on the p side and the sum of all f_l except f_j on the
    q side, giving the block matrix [I | J - I].  Requires r*a <= d (the
    summand-degree bound).  The q-side projection J - I has determinant
    (-1)^(r-1) * (r - 1) and is singular precisely when the field
    characteristic divides r - 1; that case is refused explicitly.
    """
    if _int_arg(r, "rank", 1) * _int_arg(a, "a") > _int_arg(d, "degree"):
        raise DegreeBound(f"need r*a <= d, got {r}*{a} > {d}")
    if not field.element(r - 1):
        raise SingularProjection(
            f"q-side projection is singular over {field.name}: "
            f"det(J - I) = (-1)^(r-1)(r-1) vanishes for r = {r}")
    one, zero = field.one, field.zero
    rows = []
    for j in range(r):
        left = [one if l == j else zero for l in range(r)]
        right = [zero if l == j else one for l in range(r)]
        rows.append(left + right)
    return GluingFlag(field=field, rank=r, basis_matrix=rows)


def check_projections(flag: GluingFlag) -> ProjectionVerdict:
    """Are both node projections isomorphisms on the flag?

    Both being isomorphisms is the local-freeness criterion for the
    descended sheaf at this node.
    """
    left, right = flag._block_ranks
    return ProjectionVerdict(pr1_iso=left == flag.rank, pr2_iso=right == flag.rank)


def check_no_kernel_section(flag: GluingFlag) -> KernelSectionVerdict:
    """Dimensions of the flag's intersections with the two coordinate halves.

    A nonzero intersection with E(p) + 0 is exactly a combination of flag
    vectors with vanishing q side, so the dimensions are the rank
    deficiencies of the two blocks.
    """
    left, right = flag._block_ranks
    return KernelSectionVerdict(dim_meet_p_side=flag.rank - right,
                                dim_meet_q_side=flag.rank - left)


def picard_rth_root(field, r: int, gluing_scalars) -> list:
    """Componentwise r-th roots of the node gluing scalars.

    Models surjectivity of the r-th power map on the gluing torus, the
    step that adjusts the gluing so the determinant is the fixed one: over
    an algebraically closed field every scalar has a root; over the
    concrete fields here a missing root raises NoRoot rather than being
    silently patched.
    """
    _int_arg(r, "root exponent", 1)
    try:
        scalars = [field.element(s) for s in gluing_scalars]
    except TypeError:   # 4 is no list of scalars
        raise InvalidInput("gluing scalars must be a sequence") from None
    if not all(scalars):
        raise InvalidInput("gluing scalars must be nonzero")
    return [field.rth_root(s, r) for s in scalars]
