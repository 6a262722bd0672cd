"""Independent answers the benchmark checks the program's outputs against.

Nothing here imports nodalstab.  Window inequalities are evaluated with
integers scaled by the lcm of the weight denominators, G(i) is rebuilt
from the ordering's parent array, twists are replayed through an
intersection matrix built from the edge list, and truncated-ring
determinants come from the Leibniz permutation sum.
"""

import itertools
import math
from fractions import Fraction


# ------------------------------------------------------------ number theory

def is_prime(p):
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def next_prime(x):
    while not is_prime(x):
        x += 1
    return x


def has_rth_root(a, r, p):
    """a in F_p^x has an r-th root iff a^((p-1)/g) = 1, g = gcd(r, p-1)."""
    g = math.gcd(r, p - 1)
    return pow(a, (p - 1) // g, p) == 1


def roots_of_unity(g, p):
    """All g-th roots of unity in F_p^x, for g dividing p - 1, ascending."""
    primes = [q for q in range(2, g + 1) if g % q == 0 and is_prime(q)]
    for x in range(2, p):
        z = pow(x, (p - 1) // g, p)          # of exact order g generates mu_g
        if all(pow(z, g // q, p) != 1 for q in primes):
            return sorted(pow(z, k, p) for k in range(g))
    return [1]


def rank_mod_p(rows, p):
    m = [[x % p for x in row] for row in rows]
    rank, col, ncols = 0, 0, len(m[0]) if m else 0
    while rank < len(m) and col < ncols:
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
        col += 1
    return rank


# ------------------------------------------------- truncated polynomial algebra

def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def truncate(poly, p, n):
    out = [x % p for x in poly[:n + 1]]
    return tuple(out + [0] * (n + 1 - len(out)))


def _sign(perm):
    sign, seen = 1, [False] * len(perm)
    for i in range(len(perm)):
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def leibniz_det(entries, p, n):
    """det of a matrix of coefficient vectors in F_p[pi]/(pi^(n+1))."""
    r = len(entries)
    total = [0] * (n + 1)
    for perm in itertools.permutations(range(r)):
        prod = [_sign(perm)]
        for i in range(r):
            prod = poly_mul(prod, entries[i][perm[i]])[:n + 1]
        for k, x in enumerate(prod):
            total[k] += x
    return truncate(total, p, n)


def one_plus_pi_n(A, n):
    """Coefficient vectors of I + pi^n A."""
    r = len(A)
    return [[[1 if i == j else 0] + [0] * (n - 1) + [A[i][j]] for j in range(r)]
            for i in range(r)]


# ------------------------------------------------------------- tree windows

def adjacency(n, edges):
    adj = {i: [] for i in range(1, n + 1)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def prune_order(n, edges):
    """Leaf-pruning rounds, smallest id first; returns (perm, nu)."""
    if n == 1:
        return [1], []
    adj = adjacency(n, edges)
    deg = {i: len(adj[i]) for i in adj}
    alive, perm, parent = set(adj), [], {}
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
    return perm, [pos[parent[perm[k]]] for k in range(n - 1)]


def ordering_ok(n, edges, perm, nu):
    """perm/nu is a valid one-branch ordering of the tree.

    The one-branch property holds iff nu is the parent array of the tree
    rooted at perm[N], with every parent at a higher position.
    """
    if sorted(perm) != list(range(1, n + 1)) or len(nu) != n - 1:
        return False
    if any(not i < nu[i - 1] <= n for i in range(1, n)):
        return False
    tree = {frozenset(e) for e in edges}
    used = {frozenset((perm[i - 1], perm[nu[i - 1] - 1])) for i in range(1, n)}
    return used == tree and len(tree) == n - 1


def chi_components(tree, degrees):
    r = tree["rank"]
    return [degrees[i] + r * (1 - gg - internal)
            for i, (gg, internal) in enumerate(tree["genus"])]


def windows(tree, perm, nu, degrees):
    """Per position i: (value, lower as Fraction, passes), from subtree sums.

    G(i) is the subtree of position i in the parent array nu.  Bounds are
    compared as integers scaled by D = lcm of the weight denominators.
    """
    n, r = tree["n"], tree["rank"]
    total_w = sum(tree["w"])
    den = math.lcm(*(Fraction(w, total_w).denominator for w in tree["w"]))
    w_int = [w * den // total_w for w in tree["w"]]
    chi_c = chi_components(tree, degrees)
    chi = sum(chi_c) - r * (n - 1)
    g_chi = [chi_c[perm[k] - 1] for k in range(n)]
    g_w = [w_int[perm[k] - 1] for k in range(n)]
    g_size = [1] * n
    for k in range(n - 1):          # children sit at lower positions than parents
        up = nu[k] - 1
        g_chi[up] += g_chi[k]
        g_w[up] += g_w[k]
        g_size[up] += g_size[k]
    out = []
    for k in range(n):
        lower = g_w[k] * chi + den * r * (g_size[k] - 1)
        scaled = den * g_chi[k]
        out.append((g_chi[k], Fraction(lower, den), lower <= scaled <= lower + den * r))
    return out


def replay_twist(tree, coeffs):
    """Degrees after twisting by sum a_i Y_i, via the intersection matrix."""
    n, r = tree["n"], tree["rank"]
    adj = adjacency(n, tree["edges"])
    return [tree["deg"][i - 1] + r * (-len(adj[i]) * coeffs[i] + sum(coeffs[j] for j in adj[i]))
            for i in range(1, n + 1)]


def total_chi(tree, degrees):
    return sum(chi_components(tree, degrees)) - tree["rank"] * (tree["n"] - 1)
