"""Exact arithmetic in k[pi]/(pi^(n+1)) and the matrix-group identities
of the determinant-correction step.

Scalars are coefficient vectors over a prime field; a scalar is a unit
exactly when its constant coefficient is nonzero.  The stage-n identity
det(I + pi^n A) = 1 + pi^n tr(A) holds because pi^(2n) dies at this
truncation once n >= 1, and it is what makes the kernel of the one-stage
reduction of SL abelian and trace-classified.  The torsor correction
multiplies a cocycle of invertible matrices by trace-section lifts so
its determinant picks up a prescribed unit.
"""

from itertools import compress, repeat

from .errors import InvalidInput, NotUnit, Record, _int, _int_arg, _require, _set, _small_int
from .fields import PrimeField, mat_rank, parse_field


def _axpy(p: int, n: int, q, ys, xs=None) -> list:
    """The one product kernel, row entry: x + q y mod p for each pair (x, y) of a
    row of k[pi]/(pi^(n+1)) vectors (x = 0 without xs; q and y may be short, or
    long: their coefficients past n are not read).  A few nonzero coefficients of
    q run the sparse loop, more Kronecker substitution."""
    nz = [(i, q[i]) for i in compress(range(n + 1), q)]   # Kronecker wins past about 12
    if len(nz) > 12:
        return _kronecker(p, n, q, ys, xs)
    return [_sparse(p, n, nz, y, list(x)) for x, y in zip(xs or repeat((0,) * (n + 1)), ys)]


def _mul(p: int, n: int, q, y) -> tuple:
    """The kernel's one-pair entry: q y, by the same switch, with no row around it."""
    nz = [(i, q[i]) for i in compress(range(n + 1), q)]
    if len(nz) > 12:
        return _kronecker(p, n, q, (y,), None)[0]
    return _sparse(p, n, nz, y, [0] * (n + 1))


def _sparse(p: int, n: int, nz, y, acc: list) -> tuple:
    """The kernel as a loop over the pairs of nonzero coefficients (i, a) of q and
    of y, added into acc up to pi^n."""
    for i, a in nz:
        for j in compress(range(i, n + 1), y):
            acc[j] = (acc[j] + a * y[j - i]) % p
    return tuple(acc)


def _kronecker(p: int, n: int, q, ys, xs) -> list:
    """The kernel by Kronecker substitution at 2^b and -2^b (KS2 of D. Harvey,
    J. Symb. Comput. 44, 2009): even and odd coefficients pack into w-byte slots
    that hold (n + 1)(p - 1)^2, b is half a slot, and h(2^b) +- h(-2^b) hold the
    even and odd coefficients of h = q y: two half-length integer products."""
    m, w = n + 1, ((n + 1) * (p - 1) ** 2).bit_length() + 7 >> 3

    def at_two_points(v):   # v(2^b) and v(-2^b), b = 4w bits, of v mod pi^(n+1)
        even, odd = (int.from_bytes(b"".join([c.to_bytes(w, "little") for c in v[k:m:2]]),
                                    "little") for k in (0, 1))
        return even + (odd << 4 * w), even - (odd << 4 * w)
    q_plus, q_minus, out = *at_two_points(q), []
    for x, y in zip(xs or repeat((0,) * m), ys):
        y_plus, y_minus = at_two_points(y)
        plus, minus, h = q_plus * y_plus, q_minus * y_minus, [0] * m
        for k, z in enumerate(((plus + minus) >> 1, (plus - minus) >> 4 * w + 1)):
            bs = z.to_bytes(w * m, "little")   # h's even coefficients, then its odd ones
            h[k::2] = [int.from_bytes(bs[i:i + w], "little") for i in range(0, w * len(h[k::2]), w)]
        out.append(tuple([(a + c) % p for a, c in zip(h, x)]))
    return out


def _inverse(p: int, n: int, f) -> tuple:
    """Inverse of a unit coefficient vector f of k[pi]/(pi^(n+1)) by Newton
    iteration (H. T. Kung, Numer. Math. 22, 1974): if g is f^-1 to h terms and
    f g = 1 + pi^h e, then g - pi^h g e is f^-1 to 2h terms; O(M(n)) in all."""
    g = (pow(f[0], p - 2, p),)
    for m in sorted({-(-(n + 1) >> k) for k in range(n.bit_length())}):   # ceil((n+1)/2^k)
        e = _mul(p, m - 1, g, f)[len(g):]
        g += _mul(p, len(e) - 1, g[:len(e)], tuple([-c % p for c in e]))
    return g


def _field(p: int, n: int) -> PrimeField:
    """k = F_p, once k[pi]/(pi^(n+1)) is known to be a ring: p prime, n >= 0."""
    k = PrimeField(p)
    _int_arg(n, "truncation order", 0)   # 1.0 is refused, not read as 1
    return k


def _coeffs(k: PrimeField, n: int, xs) -> tuple:
    """The coefficient sequence xs of k[pi]/(pi^(n+1)): n + 1 elements of k,
    each an int reduced mod p (anything else is refused, never truncated)."""
    cs = tuple(map(k.element, xs))
    if len(cs) != n + 1:
        raise InvalidInput(f"need {n + 1} coefficients, got {len(cs)}")
    return cs


def _like(ring, other):
    """other, when it is a scalar of ring's k[pi]/(pi^(n+1))."""
    if not isinstance(other, TruncatedScalar) or (other.p, other.n) != (ring.p, ring.n):
        raise InvalidInput("scalars belong to different truncated rings")
    return other


def _same(m, other):
    """other, when it is a matrix of m's size over m's k[pi]/(pi^(n+1))."""
    if not isinstance(other, TruncatedMatrix) or (other.p, other.n, other.r) != (m.p, m.n, m.r):
        raise InvalidInput("matrix shapes or rings differ")
    return other


class TruncatedScalar(Record):
    """Element of k[pi]/(pi^(n+1)) over k = F_p; coeffs[k] multiplies pi^k."""

    __slots__ = _fields = ("p", "n", "coeffs")

    def __init__(self, p: int, n: int, coeffs: tuple):
        coeffs = _coeffs(_field(p, n), n, coeffs)
        _set(self, "p", p)
        _set(self, "n", n)
        _set(self, "coeffs", coeffs)

    @classmethod
    def zero(cls, p, n):
        return cls(p, n, (0,) * (n + 1))

    @classmethod
    def one(cls, p, n):
        return cls(p, n, (1,) + (0,) * n)

    @classmethod
    def pi_power(cls, p, n, k):
        if _int_arg(k, "pi exponent", 0) > n:
            return cls.zero(p, n)
        return cls(p, n, tuple(1 if j == k else 0 for j in range(n + 1)))

    @classmethod
    def constant(cls, p, n, value):
        return cls(p, n, (value,) + (0,) * n)

    def __add__(self, other):   # x + 1 y in the kernel
        ys, xs = [_like(self, other).coeffs], [self.coeffs]
        return _scalar(self.p, self.n, _axpy(self.p, self.n, (1,), ys, xs)[0])

    def __sub__(self, other):
        return self + -_like(self, other)

    def __neg__(self):
        return _scalar(self.p, self.n, tuple([-a % self.p for a in self.coeffs]))

    def __mul__(self, other):
        y = _like(self, other).coeffs
        return _scalar(self.p, self.n, _mul(self.p, self.n, self.coeffs, y))

    @property
    def is_unit(self) -> bool:
        return self.coeffs[0] != 0

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def inverse(self):
        """The inverse of a unit; see ``_inverse``."""
        if not self.is_unit:
            raise NotUnit("scalar with zero constant term has no inverse")
        return _scalar(self.p, self.n, _inverse(self.p, self.n, self.coeffs))

    def reduce(self, m: int):
        """Image in k[pi]/(pi^(m+1)) for m <= n."""
        if not 0 <= _int_arg(m, "truncation order") <= self.n:
            raise InvalidInput(f"cannot reduce order {self.n} to order {m}")
        return _scalar(self.p, m, self.coeffs[:m + 1])

    def extend(self, m: int):
        """Arbitrary preimage at order m >= n (pads zero coefficients)."""
        if _int_arg(m, "truncation order") < self.n:
            raise InvalidInput(f"cannot extend order {self.n} down to {m}")
        return _scalar(self.p, m, self.coeffs + (0,) * (m - self.n))


def _scalar(p: int, n: int, cs: tuple) -> TruncatedScalar:
    """The scalar with coefficient tuple cs, already checked and reduced mod p."""
    x = object.__new__(TruncatedScalar)
    _set(x, "p", p)
    _set(x, "n", n)
    _set(x, "coeffs", cs)
    return x


def _matrix(p: int, n: int, rows: tuple, m=None):
    """Fill m, or a new matrix, with square coefficient rows already reduced mod p."""
    if not rows or any(len(row) != len(rows) for row in rows):
        raise InvalidInput("matrix must be square and nonempty")
    m = object.__new__(TruncatedMatrix) if m is None else m
    _set(m, "p", p)
    _set(m, "n", n)
    _set(m, "rows", rows)
    return m


class TruncatedMatrix(Record):
    """Square matrix over k[pi]/(pi^(n+1)), held as coefficient rows: rows[i][j]
    is the coefficient tuple of entry (i, j), reduced mod p.  The entries may be
    given as scalars or coefficient sequences; scalars are built when ``entries``
    is read."""

    __slots__ = _fields = ("p", "n", "rows")

    def __init__(self, p: int, n: int, entries):
        rows, k = [], None
        for row in entries:
            cells = []
            for x in row:
                if isinstance(x, TruncatedScalar):
                    if (x.p, x.n) != (p, n):
                        raise InvalidInput("matrix entries belong to different rings")
                    cells.append(x.coeffs)
                else:   # p and n are checked at the first coefficient sequence
                    k = k or _field(p, n)
                    cells.append(_coeffs(k, n, x))
            rows.append(tuple(cells))
        _matrix(p, n, tuple(rows), self)

    @property
    def entries(self) -> tuple:
        return tuple(tuple(_scalar(self.p, self.n, x) for x in row) for row in self.rows)

    def __repr__(self):
        return f"{type(self).__qualname__}(p={self.p!r}, n={self.n!r}, entries={self.entries!r})"

    @property
    def r(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, p, n, r):
        _field(p, n)
        one, zero = (1,) + (0,) * n, (0,) * (n + 1)
        return _matrix(p, n, tuple(tuple(one if i == j else zero for j in range(r))
                                   for i in range(_int_arg(r, "matrix size"))))

    def __matmul__(self, other):
        p, n, others, rows = self.p, self.n, _same(self, other).rows, []
        for row in self.rows:   # row i of the product is the sum of a_ik times row k
            acc = None
            for a, other_row in zip(row, others):
                acc = _axpy(p, n, a, other_row, acc)
            rows.append(tuple(acc))
        return _matrix(p, n, tuple(rows))

    def __add__(self, other):
        p, n = self.p, self.n
        return _matrix(p, n, tuple(tuple(_axpy(p, n, (1,), rb, ra))
                                   for ra, rb in zip(self.rows, _same(self, other).rows)))

    def scale(self, s: TruncatedScalar):
        p, n, c = self.p, self.n, _like(self, s).coeffs
        return _matrix(p, n, tuple(tuple(_axpy(p, n, c, row)) for row in self.rows))

    def trace(self) -> TruncatedScalar:
        diagonal = zip(*(self.rows[i][i] for i in range(self.r)))
        return _scalar(self.p, self.n, tuple([sum(cs) % self.p for cs in diagonal]))

    def det(self) -> TruncatedScalar:
        """Gaussian elimination over the chain ring: at most O(r^3) products, a
        row per ``_axpy`` call and a pivot per ``_mul`` call, and only those that
        can leave a nonzero term.

        det is the sign of the row swaps times the product of the pivots.  Once
        the pivots taken have valuations summing to n - m, what is left counts only
        mod pi^(m+1), so det is 0 at a column with no entry nonzero mod pi^(m+1).
        Column c pivots on the first row at or below c of least valuation v (row c
        if its entry is a unit), so each entry x below is q times the pivot, q =
        (x / pi^v)(pivot / pi^v)^-1, and after it only m - v + 1 coefficients
        count: q and each row update run at order m - v.  If x has valuation w and
        the rest of the pivot row least valuation t (0 at its first unit), q * top[j]
        is a multiple of pi^(w - v + t), 0 mod pi^(m-v+1) when w + t > m: that row
        is left as it is, which is exact.  The inverse is taken for the rows that
        remain, to order m - s for s their least w.  An update at order m - v < n
        may leave coefficients past it, which nothing later reads: every scan and
        product, the running det's top m + 1 coefficients included, stops at pi^m."""
        p, n, r = self.p, self.n, self.r
        A = [list(row) for row in self.rows]
        det, sign, m = (1,) + (0,) * n, 1, n
        for c in range(r):
            v = 0   # a unit on the diagonal is a pivot of least valuation
            if not A[c][c][0]:
                vals = [next(compress(range(m + 1), row[c]), m + 1) for row in A[c:]]
                v = min(vals)
                if v > m:
                    return _scalar(p, n, (0,) * (n + 1))
                piv = c + vals.index(v)
                A[c], A[piv], sign = A[piv], A[c], sign if piv == c else -sign
            top, rest = A[c], A[c][c + 1:]
            below = [row for row in A[c + 1:] if any(row[c][:m + 1])]
            if below and not any(x[0] for x in rest):   # some rows may gain only zeros
                t = min([next(compress(range(m + 1), x), m + 1) for x in rest])
                below = [row for row in below if next(compress(range(m + 1), row[c])) <= m - t]
            if below:   # row += q * top with q = -x / pivot
                s = min(next(compress(range(m + 1), row[c])) for row in below)
                neg_inv = tuple([-a % p for a in _inverse(p, m - s, top[c][v:])])
                for row in below:
                    q = _mul(p, m - v, row[c][v:], neg_inv)
                    row[c + 1:] = _axpy(p, m - v, q, rest, row[c + 1:])
            det = (0,) * (n - m) + _mul(p, m, det[n - m:], top[c])   # det is pi^(n-m) u
            m -= v
        return _scalar(p, n, det if sign > 0 else tuple([-a % p for a in det]))

    @property
    def is_invertible(self) -> bool:
        """Invertible iff the constant-term matrix is invertible over k."""
        return mat_rank(PrimeField(self.p), [[x[0] for x in row] for row in self.rows]) == self.r

    def reduce(self, m: int):
        if not 0 <= _int_arg(m, "truncation order") <= self.n:
            raise InvalidInput(f"cannot reduce order {self.n} to order {m}")
        return _matrix(self.p, m, tuple(tuple(x[:m + 1] for x in row) for row in self.rows))

    def extend(self, m: int):
        if _int_arg(m, "truncation order") < self.n:
            raise InvalidInput(f"cannot extend order {self.n} down to {m}")
        pad = (0,) * (m - self.n)
        return _matrix(self.p, m, tuple(tuple(x + pad for x in row) for row in self.rows))


def parse_int_matrix(obj) -> list:
    """Square integer matrix document: [[a11, a12, ...], ...]."""
    _require(isinstance(obj, list) and obj, "matrix must be a nonempty array", "matrix")
    rows = []
    for k, row in enumerate(obj):
        _require(isinstance(row, list) and len(row) == len(obj),
                 "matrix must be square", "matrix[{}]", k)
        rows.append([_int(x, "matrix[{}]", k) for x in row])
    return rows


def parse_truncated_matrix(obj) -> TruncatedMatrix:
    """Matrix document: {"field": "F5", "n": 1, "entries": [[[c0, c1], ...], ...]}."""
    _require(isinstance(obj, dict), "truncated matrix document must be an object")
    _require(isinstance(obj.get("field"), str), "missing field descriptor", "field")
    field = parse_field(obj["field"])
    _require(hasattr(field, "p"), "truncated rings need a prime field", "field")
    n = _small_int(obj.get("n"), "n")
    entries = obj.get("entries")
    _require(isinstance(entries, list) and entries, "missing entries array", "entries")
    where = "entries[{0[0]}][{0[1]}]"   # the field of the entry keyed (i, j)

    # each row and entry is checked as the constructor reaches it, so the
    # first bad entry in document order is the one reported
    def cells(i, row):
        _require(isinstance(row, list) and len(row) == len(entries),
                 "entries must form a square matrix", "entries[{}]", i)
        for j, coeffs in enumerate(row):
            key = (i, j)
            _require(isinstance(coeffs, list), "each entry is a coefficient vector", where, key)
            yield [_int(x, where, key) for x in coeffs]
    return TruncatedMatrix(field.p, n, (cells(i, row) for i, row in enumerate(entries)))


def _parse_torsor(obj):
    """Torsor document: {"cocycle": [truncated matrix, ...], "gammas": [[c0, ..., cn], ...]}.

    Returns (cocycle, gammas); each gamma is a coefficient vector in the
    ring of the first cocycle matrix.
    """
    if not isinstance(obj, dict) or "cocycle" not in obj or "gammas" not in obj:
        raise InvalidInput("torsor document needs cocycle and gammas")
    _require(isinstance(obj["cocycle"], list), "cocycle must be an array", "cocycle")
    cocycle = [parse_truncated_matrix(m) for m in obj["cocycle"]]
    if not cocycle:
        raise InvalidInput("torsor document needs a nonempty cocycle")
    _require(isinstance(obj["gammas"], list), "gammas must be an array", "gammas")
    p, n = cocycle[0].p, cocycle[0].n
    gammas = []
    for k, g in enumerate(obj["gammas"]):
        _require(isinstance(g, list), "each gamma is a coefficient vector", "gammas[{}]", k)
        gammas.append(TruncatedScalar(p, n, [_int(x, "gammas[{}]", k) for x in g]))
    return cocycle, gammas


def truncated_matrix_to_obj(m: TruncatedMatrix) -> dict:
    return {"field": f"F{m.p}", "n": m.n,
            "entries": [[list(x) for x in row] for row in m.rows]}


class DetTraceVerdict(Record):
    # lhs: det(I + pi^n A); rhs: 1 + pi^n tr(A)
    __slots__ = _fields = ("lhs", "rhs", "holds")


class SlKernelVerdict(Record):
    # trace_residue: tr(B) mod p when M = I + pi^n B, else None; in_kernel:
    # det_is_one and reduces_to_identity; trace_condition: reduces_to_identity and residue 0
    __slots__ = _fields = ("det_is_one", "reduces_to_identity", "trace_residue", "in_kernel",
                           "trace_condition", "biconditional_holds")


def one_plus_pi_n(p: int, n: int, A) -> TruncatedMatrix:
    """The matrix I + pi^n A for a matrix A over k, given as ints."""
    k, one, zero = _field(p, n), (1,) + (0,) * n, (0,) * n
    try:
        square = all(len(row) == len(A) for row in A)
    except TypeError:   # 7 has no rows, and the rows of [1, 2] no length
        square = False
    if not (A and square):
        raise InvalidInput("matrix must be square and nonempty")
    for row in A:   # k.element raises at the first entry of a row that is not an int
        if not all(map(isinstance, row, repeat(int))):
            list(map(k.element, row))
    rows = [[zero + (a % p,) for a in row] for row in A]
    for i, row in enumerate(rows):   # add the identity (at n = 0, to the same coefficient)
        row[i] = one[:n] + ((one[n] + row[i][n]) % p,)
    return _matrix(p, n, tuple(map(tuple, rows)))


def det_trace_identity(p: int, A, n: int) -> DetTraceVerdict:
    """Check det(I + pi^n A) = 1 + pi^n tr(A) at truncation order n >= 1."""
    _int_arg(n, "truncation order")   # "2" is refused before it is compared
    if n < 1:
        raise InvalidInput("the determinant-trace identity needs n >= 1")
    lhs = one_plus_pi_n(p, n, A).det()
    rhs = _scalar(p, n, (1,) + (0,) * (n - 1) + (sum(A[i][i] for i in range(len(A))) % p,))
    return DetTraceVerdict(lhs=lhs, rhs=rhs, holds=lhs.coeffs == rhs.coeffs)


def sl_kernel_check(M: TruncatedMatrix) -> SlKernelVerdict:
    """Both descriptions of the kernel of the one-stage SL reduction.

    A matrix at truncation order n lies in the kernel iff it has
    determinant 1 and reduces to the identity one stage down, and that
    holds iff it is I + pi^n B with tr(B) = 0 in k.  The verdict reports
    each condition and the biconditional.
    """
    if M.n < 1:
        raise InvalidInput("kernel test needs truncation order n >= 1")
    n, p, rows = M.n, M.p, M.rows
    det_is_one = M.det().coeffs == (1,) + (0,) * n
    one, zero = (1,) + (0,) * (n - 1), (0,) * n   # entries of the identity below order n
    reduces = all(x[:n] == (one if i == j else zero)
                  for i, row in enumerate(rows) for j, x in enumerate(row))
    trace_residue = None
    if reduces:
        trace_residue = sum(row[i][n] for i, row in enumerate(rows)) % p
    in_kernel = det_is_one and reduces
    trace_condition = reduces and trace_residue == 0
    return SlKernelVerdict(det_is_one=det_is_one, reduces_to_identity=reduces,
                           trace_residue=trace_residue, in_kernel=in_kernel,
                           trace_condition=trace_condition,
                           biconditional_holds=in_kernel == trace_condition)


def trace_section(lam: TruncatedScalar, r: int) -> TruncatedMatrix:
    """Section of the trace map: lam in the (1,1) slot, zeros elsewhere."""
    _int_arg(r, "matrix size", 1)
    zero = (0,) * (lam.n + 1)
    return _matrix(lam.p, lam.n, ((lam.coeffs,) + (zero,) * (r - 1),) + ((zero,) * r,) * (r - 1))


def det_section(u: TruncatedScalar, r: int) -> TruncatedMatrix:
    """Section of the determinant map: diag(u, 1, ..., 1); u must be a unit."""
    _int_arg(r, "matrix size", 1)
    if not u.is_unit:
        raise NotUnit("determinant section needs a unit scalar")
    rows = TruncatedMatrix.identity(u.p, u.n, r).rows
    return _matrix(u.p, u.n, ((u.coeffs,) + rows[0][1:],) + rows[1:])


def torsor_correct(cocycle, gammas) -> list:
    """Multiply each cocycle matrix by the trace-section lift of its unit.

    Every gamma must lie in 1 + pi^n R.  Writing gamma = 1 + pi^n lam, the
    lift I + pi^n phi(lam) is diag(gamma, 1, ..., 1), so it scales the first
    row; the corrected determinant is gamma times the old one, which is the
    commutativity this step depends on.
    """
    cocycle, gammas = list(cocycle), list(gammas)
    if len(cocycle) != len(gammas):
        raise InvalidInput("cocycle and unit lists must have equal length")
    out = []
    for F, gamma in zip(cocycle, gammas):
        if (F.p, F.n) != (gamma.p, gamma.n):
            raise InvalidInput("cocycle and units must live in the same ring")
        n, p = F.n, F.p
        if n < 1:
            raise InvalidInput("torsor correction needs truncation order n >= 1")
        if not F.is_invertible:
            raise InvalidInput("cocycle matrices must be invertible")
        if gamma.coeffs[0] != 1 or any(gamma.coeffs[k] != 0 for k in range(1, n)):
            raise InvalidInput("units must lie in 1 + pi^n R")
        out.append(_matrix(p, n, (tuple(_axpy(p, n, gamma.coeffs, F.rows[0])),) + F.rows[1:]))
    return out


def sl_lift(M: TruncatedMatrix) -> TruncatedMatrix:
    """Lift a determinant-1 matrix one truncation stage, keeping det = 1.

    Pads the coefficients, then rescales the first column by the inverse
    of the padded determinant (a unit in 1 + pi^(n+1) R), which fixes the
    determinant without disturbing the reduction.
    """
    if M.det().coeffs != (1,) + (0,) * M.n:
        raise InvalidInput("sl_lift needs a determinant-1 matrix")
    padded = M.extend(M.n + 1)
    p, n, v = padded.p, padded.n, padded.det().inverse().coeffs
    first = _axpy(p, n, v, [row[0] for row in padded.rows])
    return _matrix(p, n, tuple((x,) + row[1:] for x, row in zip(first, padded.rows)))
