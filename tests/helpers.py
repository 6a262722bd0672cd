"""Shared generators and independent oracles for the test suite.

Everything here is deliberately written from the definitions rather than
through the package's own code paths wherever it serves as an oracle:
the ordering property checker walks the graph directly, and so does
``piece``, from which the window data read G(i); the balancing oracle
enumerates twist vectors against the window inequalities spelled out
with cleared denominators, and the truncated determinant oracle is a
permutation-sum over integer polynomial vectors.  The kernels that
elimination replaced, Berkowitz's determinant and Gauss-Jordan rank, the
coefficient-wise inverse that Newton iteration replaced, and the replay
that ``balance``'s closed-form window check replaced, are kept as second
oracles, and the row-held truncated matrices are checked
against a scalar-by-scalar reference built on them at the end.
"""

import itertools
import random
from fractions import Fraction
from math import lcm

from nodalstab import (BundleClass, Component, Polarization, TreeLikeCurve, TwistDivisor,
                       prune_ordering, twist)
from nodalstab.balance import BalanceResult
from nodalstab.errors import InvalidInput, InvariantViolated, ParseError
from nodalstab.curve import ValidationReport, ordering_to_obj
from nodalstab.stability import Window, _chosen, _windows


# ---------------------------------------------------------------- generators

def random_tree_edges(rng: random.Random, n: int):
    """Uniform random labelled tree on ids 1..n via a Pruefer sequence."""
    if n == 1:
        return []
    if n == 2:
        return [(1, 2)]
    seq = [rng.randint(1, n) for _ in range(n - 2)]
    degree = {i: 1 for i in range(1, n + 1)}
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = sorted(i for i in degree if degree[i] == 1)
    for v in seq:
        leaf = leaves.pop(0)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            import bisect
            bisect.insort(leaves, v)
    edges.append((leaves[0], leaves[1]))
    return edges


def random_curve(rng: random.Random, n_max=8, genus_max=3) -> TreeLikeCurve:
    n = rng.randint(1, n_max)
    comps = []
    for i in range(1, n + 1):
        internal = rng.randint(0, 1) if genus_max >= 1 else 0
        genus = rng.randint(0, genus_max - internal)
        comps.append(Component(id=i, geometric_genus=genus, internal_nodes=internal))
    return TreeLikeCurve(components=tuple(comps), edges=tuple(random_tree_edges(rng, n)))


SHAPES = ("prufer", "path", "star", "caterpillar")


def shaped_tree_edges(rng: random.Random, n: int, shape: str):
    """A labelled tree on ids 1..n of the given shape, labels shuffled."""
    if shape == "prufer":
        return random_tree_edges(rng, n)
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    if shape == "path":
        return list(zip(ids, ids[1:]))
    if shape == "star":
        return [(ids[0], v) for v in ids[1:]]
    spine = ids[:max(1, n // 2)]
    return list(zip(spine, spine[1:])) + [(rng.choice(spine), v) for v in ids[len(spine):]]


def shaped_curve(rng: random.Random, n: int, shape: str) -> TreeLikeCurve:
    comps = tuple(Component(id=i, geometric_genus=rng.randint(0, 2),
                            internal_nodes=rng.randint(0, 1)) for i in range(1, n + 1))
    return TreeLikeCurve(components=comps, edges=tuple(shaped_tree_edges(rng, n, shape)))


def relabel_far(rng: random.Random, c: TreeLikeCurve, increasing=False) -> TreeLikeCurve:
    """The same curve with shuffled, non-contiguous ids above 2**64 and the
    components listed in random order, so that neither id order, list order
    nor small-integer ids can stand in for the dense index.  With
    ``increasing`` the new ids keep the old ids' order."""
    n = len(c.ids)
    new_ids = rng.sample(range(2**64 + 1, 2**64 + 1 + 7 * n + 7), n)
    if increasing:
        new_ids.sort()   # c.ids ascend
    far = dict(zip(c.ids, new_ids))
    comps = [Component(id=far[comp.id], geometric_genus=comp.geometric_genus,
                       internal_nodes=comp.internal_nodes) for comp in c.components]
    rng.shuffle(comps)
    return TreeLikeCurve(components=tuple(comps),
                         edges=tuple((far[a], far[b]) for a, b in c.edges))


def random_bundle(rng: random.Random, c: TreeLikeCurve, ranks=(2, 3, 4), d_bound=20):
    return BundleClass(rank=rng.choice(list(ranks)),
                       multidegree={i: rng.randint(-d_bound, d_bound) for i in c.ids})


def random_polarization(rng: random.Random, c: TreeLikeCurve) -> Polarization:
    raw = {i: rng.randint(1, 9) for i in c.ids}
    total = sum(raw.values())
    return Polarization(weights={i: Fraction(v, total) for i, v in raw.items()})


def fraction_polarization(weights):
    """The polarization rule on Fractions, from its definition: den, the lcm
    of the weight denominators, at most 1000 digits long, every weight
    strictly positive, the weights summing to exactly 1.  Returns
    (weights, (den, {id: weight * den})), or raises what ``Polarization``
    raises, in its order: type, then the cap, then positivity, then the sum."""
    for i, v in weights.items():
        if type(v) not in (int, bool, Fraction):
            raise InvalidInput(f"the weight of component {i!r} must be an int or a Fraction, "
                               f"got {v!r}")
    w = {i: Fraction(v) for i, v in weights.items()}
    den = lcm(*[v.denominator for v in w.values()])
    if den >= 10 ** 1000:
        raise ParseError("the weights' common denominator has more than 1000 digits",
                         field="weights")
    if any(v <= 0 for v in w.values()):
        raise InvalidInput("polarization weights must be strictly positive")
    if sum(w.values()) != 1:
        raise InvalidInput("polarization weights must sum to exactly 1")
    return w, (den, {i: int(v * den) for i, v in w.items()})


def det_verdict_oracle(c: TreeLikeCurve, bc: BundleClass, det: dict):
    """(passes, mismatched, indivisible) of the determinant constraint,
    walking the ids sorted and looking each component up by id."""
    by_id = {comp.id: comp for comp in c.components}
    ids = sorted(c.ids)
    mismatched = tuple(i for i in ids if det[i] != bc.multidegree[i])
    indivisible = tuple(i for i in ids if by_id[i].is_rational and det[i] % bc.rank != 0)
    return not mismatched and not indivisible, mismatched, indivisible


def validation_oracle(c: TreeLikeCurve) -> ValidationReport:
    """The validation report in two passes over a built curve: self-loops and
    repeated nodes from ``edges``, then union-find over ``_edges`` for the
    first closing edge (only while no cycle is reported) and the pieces.
    The curve's constructor builds the same report in its one edge walk."""
    errors = []
    if len(c.simple_edges) != len(c.edges):    # some edge is a self-loop or repeated
        seen = set()
        for e in c.edges:
            if e[0] == e[1]:
                errors.append(("CycleDetected", f"edge {list(e)} joins a component to itself"))
            elif e in seen:
                errors.append(("MultiEdge",
                               f"components {e[0]} and {e[1]} meet in more than one node"))
            seen.add(e)
    parent = list(range(len(c.ids)))
    pieces = len(parent)
    cycle_reported = any(code == "CycleDetected" for code, _ in errors)
    for u, v in c._edges:
        x = u
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        y = v
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x == y:
            if not cycle_reported:
                errors.append(("CycleDetected", f"edge {[c.ids[u], c.ids[v]]} closes a cycle"))
                cycle_reported = True
        else:
            parent[x] = y
            pieces -= 1
    if pieces > 1:
        errors.append(("Disconnected", f"dual graph has {pieces} connected pieces"))
    valid = not errors
    p_a = sum(comp.arithmetic_genus for comp in c.components) if valid else None
    return ValidationReport(valid=valid, errors=tuple(errors), n_components=len(c.components),
                            p_a=p_a, genus_at_least_two=(p_a >= 2) if valid else None)


# ----------------------------------------------------------- graph utilities

def neighbors(c: TreeLikeCurve) -> dict:
    """Each component's set of neighbors, read off the raw edge list: a
    self-loop adds none and a repeated node adds its neighbor once."""
    adj = {i: set() for i in c.ids}
    for a, b in c.edges:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return adj


def piece(adj, removed, seed):
    """The ids reachable from ``seed`` without passing through ``removed``."""
    seen, stack = {seed}, [seed]
    while stack:
        for w in adj[stack.pop()]:
            if w != removed and w not in seen:
                seen.add(w)
                stack.append(w)
    return frozenset(seen)


def induced_connected(c: TreeLikeCurve, subset) -> bool:
    subset = set(subset)
    if not subset:
        return False
    adj = neighbors(c)
    seen = {next(iter(subset))}
    stack = list(seen)
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w in subset and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == subset


def connected_subcurves(c: TreeLikeCurve):
    """All nonempty connected component subsets, by brute enumeration."""
    ids = list(c.ids)
    out = []
    for mask in range(1, 1 << len(ids)):
        subset = {ids[k] for k in range(len(ids)) if mask >> k & 1}
        if induced_connected(c, subset):
            out.append(frozenset(subset))
    return out


def ordering_satisfies_one_branch(c: TreeLikeCurve, perm) -> bool:
    """The ordering property, checked straight from the definition:
    for every position i < N the higher-positioned components induce a
    connected subtree and component i has exactly one neighbor there."""
    pos = {cid: k + 1 for k, cid in enumerate(perm)}
    adj = neighbors(c)
    n = len(perm)
    for k in range(n - 1):
        i = k + 1
        higher = {cid for cid in perm if pos[cid] > i}
        if not induced_connected(c, higher):
            return False
        if len(adj[perm[k]] & higher) != 1:
            return False
    return True


def round_prune_ordering(c: TreeLikeCurve):
    """(perm, nu) of the leaf-pruning rule, peeled round by round.

    Each round takes every current leaf, smallest id first; the last
    survivor goes to position N, and nu records each leaf's surviving
    neighbor.  This is the rule ``prune_ordering`` implements in one pass.
    """
    adj = neighbors(c)
    deg = {i: len(adj[i]) for i in c.ids}
    alive = set(c.ids)
    perm, parent = [], {}
    while len(alive) > 1:
        for v in sorted(i for i in alive if deg[i] == 1):
            if len(alive) == 1:
                break
            w = next(u for u in adj[v] if u in alive)
            parent[v] = w
            perm.append(v)
            alive.discard(v)
            deg[w] -= 1
            deg[v] = 0
    perm.append(alive.pop())
    pos = {cid: k + 1 for k, cid in enumerate(perm)}
    return tuple(perm), tuple(pos[parent[v]] for v in perm[:-1])


def report_g_b(ordering):
    """(G(i), B(i)) as frozensets at every position, read from the lists of
    the ``order`` report."""
    obj = ordering_to_obj(ordering)
    return [(frozenset(obj["G"][str(i)]), frozenset(obj["B"][str(i)]))
            for i in range(1, len(ordering.perm) + 1)]


# ----------------------------------------------- window inequalities, by hand

def window_data(c: TreeLikeCurve, ordering, bc, pol):
    """Integers (den, bounds, base sums, shift vectors) for the window
    inequalities, derived from the definitions with cleared denominators."""
    ids = sorted(c.ids)
    idx = {cid: k for k, cid in enumerate(ids)}
    adj = neighbors(c)
    r = bc.rank
    rho = {comp.id: comp.arithmetic_genus for comp in c.components}
    chi_comp = {i: bc.multidegree[i] + r * (1 - rho[i]) for i in ids}
    chi = sum(chi_comp.values()) - r * (len(ids) - 1)
    den = lcm(*[pol.weights[i].denominator for i in ids])
    w_int = {i: pol.weights[i] * den for i in ids}
    # G(i) is the curve less B(i), the branch of the curve minus component i
    # that holds the top position N, found by a graph walk, not read off nu
    perm, whole, rows = ordering.perm, frozenset(ids), []
    for k, y in enumerate(perm):
        g = whole - piece(adj, y, perm[-1]) if k < len(perm) - 1 else whole
        base = sum(chi_comp[i] for i in g)
        shift = [0] * len(ids)
        for i in g:
            shift[idx[i]] -= len(adj[i])
            for j in adj[i]:
                shift[idx[j]] += 1
        lower_scaled = int(sum(w_int[i] for i in g)) * chi + den * r * (len(g) - 1)
        rows.append((base, shift, lower_scaled))
    return ids, den, r, rows


def passes_windows(ids, den, r, rows, a_by_index) -> bool:
    for base, shift, lower_scaled in rows:
        s = base + r * sum(u * a for u, a in zip(shift, a_by_index))
        scaled = den * s
        if not lower_scaled <= scaled <= lower_scaled + den * r:
            return False
    return True


def brute_force_solutions(c, ordering, bc, pol, bound):
    """Every twist vector in the box making all windows pass."""
    ids, den, r, rows = window_data(c, ordering, bc, pol)
    sols = []
    for a in itertools.product(range(-bound, bound + 1), repeat=len(ids)):
        if passes_windows(ids, den, r, rows, a):
            sols.append(dict(zip(ids, a)))
    return sols


def replay_balance(c: TreeLikeCurve, bc: BundleClass, pol: Polarization):
    """``balance`` as it was before it checked its balanced windows in closed
    form: the same top-down coefficient pass, then the accumulated twist
    replayed through the public, checking ``twist`` and every window of the
    replayed class evaluated again by a second window-kernel pass.

    Returns the result, whose windows are that second pass's, and the steps
    as ``balance`` stored them then: positions N-1 down to 1, each with its
    chi sum before its own twist."""
    ordering = prune_ordering(c)
    perm, nu, n, r = ordering.perm, ordering.nu, ordering.n, bc.rank
    values, lows, den = _windows(c, ordering, bc, pol)
    width = den * r
    before, a = values[:], [0] * n
    for k in range(n - 2, -1, -1):
        before[k] += r * a[nu[k] - 1]
        a[k] = _chosen(before[k] * den - lows[k], width)
    t = TwistDivisor(coeffs=dict(zip(perm, a)))
    balanced = twist(c, bc, t)
    after, after_lows, _ = _windows(c, ordering, balanced, pol)
    # every weight is positive, so equal bounds mean the twist kept total chi
    if balanced.total_degree != bc.total_degree or after_lows != lows \
            or not all(lo <= v * den <= lo + width for v, lo in zip(after, lows)):
        raise InvariantViolated("the accumulated twist does not balance the class")
    windows = tuple(Window(k + 1, perm[k], after[k], after_lows[k], den, r) for k in range(n))
    steps = tuple(Window(k + 1, perm[k], before[k], lows[k], den, r)
                  for k in range(n - 2, -1, -1))
    return BalanceResult(ordering=ordering, twist=t, balanced=balanced, windows=windows), steps


# ------------------------------------------- truncated-ring oracle arithmetic

def poly_add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def permutation_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def leibniz_det(entries):
    """Determinant of a matrix of integer polynomials (coefficient lists),
    as the full permutation sum over Z[x]."""
    r = len(entries)
    total = [0]
    for perm in itertools.permutations(range(r)):
        prod = [permutation_sign(perm)]
        for i in range(r):
            prod = poly_mul(prod, entries[i][perm[i]])
        total = poly_add(total, prod)
    return total


def truncate_mod(poly, p, n):
    out = [x % p for x in poly[:n + 1]]
    return tuple(out + [0] * (n + 1 - len(out)))


# --------------------------------- the kernels elimination replaced, as oracles

def dot(p, n, xs, ys):
    """Sum of xs[k] * ys[k] over coefficient vectors truncated at pi^n, mod p."""
    acc = [0] * (n + 1)
    for x, y in zip(xs, ys):
        for i, a in enumerate(x):
            if a:
                for j in range(n + 1 - i):
                    acc[i + j] += a * y[j]
    return [c % p for c in acc]


def coefficient_inverse(p, n, cs):
    """Inverse of a unit coefficient vector cs of k[pi]/(pi^(n+1)), solved
    coefficient by coefficient over the nonzero coefficients of cs: O(nnz * n),
    the kernel Newton iteration replaced."""
    c0_inv = pow(cs[0], p - 2, p)
    nz = [(i, a) for i, a in enumerate(cs[1:], 1) if a]
    out = [c0_inv]
    for k in range(1, n + 1):
        out.append(-c0_inv * sum(a * out[k - i] for i, a in nz if i <= k) % p)
    return tuple(out)


def berkowitz_det(p, n, entries):
    """Division-free determinant over k[pi]/(pi^(n+1)) in O(r^4) products of
    ``dot``: the characteristic polynomial of each leading block follows from
    the previous one by a Toeplitz product (S. J. Berkowitz, Inf. Process.
    Lett. 18, 1984).  Returns the coefficient tuple."""
    A = [[tuple(x) for x in row] for row in entries]
    r = len(A)
    one = (1,) + (0,) * n
    poly = [one]
    for k in range(r):
        row, v = A[k][:k], [A[i][k] for i in range(k)]
        col = [one, A[k][k]]
        for _ in range(k):
            col.append(dot(p, n, row, v))
            v = [dot(p, n, A[i][:k], v) for i in range(k)]
        col[1:] = [[-c % p for c in x] for x in col[1:]]
        poly = [dot(p, n, col[i::-1], poly) for i in range(k + 2)]
    last = poly[-1] if r % 2 == 0 else [-c % p for c in poly[-1]]
    return tuple(c % p for c in last)


def gauss_jordan_rank(p, rows):
    """Rank by Gauss-Jordan elimination above and below each pivot, over F_p
    on ints, or over Q on Fractions when p is None."""
    if p is None:
        m = [[Fraction(x) for x in row] for row in rows]
        is_zero, inv = (lambda a: a == 0), (lambda a: 1 / a)
        mul, sub = (lambda a, b: a * b), (lambda a, b: a - b)
    else:
        m = [[x % p for x in row] for row in rows]
        is_zero, inv = (lambda a: a % p == 0), (lambda a: pow(a, p - 2, p))
        mul, sub = (lambda a, b: a * b % p), (lambda a, b: (a - b) % p)
    if not m:
        return 0
    rank = col = 0
    while rank < len(m) and col < len(m[0]):
        pivot = next((i for i in range(rank, len(m)) if not is_zero(m[i][col])), None)
        if pivot is None:
            col += 1
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        f = inv(m[rank][col])
        m[rank] = [mul(f, x) for x in m[rank]]
        for i in range(len(m)):
            if i != rank and not is_zero(m[i][col]):
                f = m[i][col]
                m[i] = [sub(x, mul(f, y)) for x, y in zip(m[i], m[rank])]
        rank += 1
        col += 1
    return rank


# --------------------------- scalar-by-scalar reference for the row-held matrices

def ref_matmul(p, n, a, b):
    """a @ b over k[pi]/(pi^(n+1)), one ``dot`` per entry."""
    return [[tuple(dot(p, n, row, col)) for col in zip(*b)] for row in a]


def ref_add(p, n, a, b):
    return [[tuple((u + v) % p for u, v in zip(x, y)) for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)]


def ref_scale(p, n, s, a):
    return [[tuple(dot(p, n, [s], [x])) for x in row] for row in a]


def ref_trace(p, n, a):
    return tuple(dot(p, n, [(1,) + (0,) * n] * len(a), [a[i][i] for i in range(len(a))]))


def ref_reduce(a, m):
    return [[tuple(x[:m + 1]) for x in row] for row in a]


def ref_extend(a, m):
    return [[tuple(x) + (0,) * (m + 1 - len(x)) for x in row] for row in a]


def ref_sl_kernel(p, n, a):
    """The six fields of an SL kernel verdict, from the definitions."""
    r = len(a)
    det_is_one = berkowitz_det(p, n, a) == (1,) + (0,) * n
    eye = [[(int(i == j),) + (0,) * (n - 1) for j in range(r)] for i in range(r)]
    reduces = ref_reduce(a, n - 1) == eye
    residue = sum(a[i][i][n] for i in range(r)) % p if reduces else None
    in_kernel = det_is_one and reduces
    trace_condition = reduces and residue == 0
    return (det_is_one, reduces, residue, in_kernel, trace_condition,
            in_kernel == trace_condition)


def ref_torsor(p, n, a, gamma):
    """diag(gamma, 1, ..., 1) @ a: the first row scaled by gamma."""
    return [[tuple(dot(p, n, [gamma], [x])) for x in a[0]]] + [[tuple(x) for x in row]
                                                              for row in a[1:]]


def ref_sl_lift(p, n, a):
    """a padded to order n + 1, its first column divided by the padded determinant."""
    padded = ref_extend(a, n + 1)
    det = berkowitz_det(p, n + 1, padded)
    inv = [pow(det[0], p - 2, p)]
    for k in range(1, n + 2):   # inv * det = 1, solved coefficient by coefficient
        inv.append(-inv[0] * sum(det[i] * inv[k - i] for i in range(1, k + 1)) % p)
    return [[tuple(dot(p, n + 1, [row[0]], [inv]))] + row[1:] for row in padded]
