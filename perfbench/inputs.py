"""Seeded input generation for every workload, as plain Python data.

Each workload's inputs come in blocks, and every block has the same mix:
one item per (kind, size stratum), with the size at the stratum's
midpoint of the target distribution.  Blocks hold an odd number of
items, so the median request of a run falls inside one item type
rather than on the gap between two.  The seed draws everything else
(tree structure, labels, genera, ranks, degrees, weights, primes, matrix
entries).  A run of any number of whole blocks therefore sees the same
size distribution, which keeps heavy-tailed costs from making runs of
different lengths or seeds disagree.  Item ``j`` of block ``b`` depends
only on (workload, seed, b, j), never on how many blocks a run uses.
"""

import heapq
import json
import random
from fractions import Fraction

from oracle import has_rth_root, next_prime, rank_mod_p, roots_of_unity

SHAPES = ("prufer", "path", "star", "caterpillar")
BLOCK_SHAPES = ("prufer", "prufer", "path", "star", "caterpillar")   # random trees twice
TREE_STRATA = 5


def rng_for(*key):
    return random.Random(":".join(str(k) for k in key))


def midpoint(q, strata):
    """Midpoint of stratum q of [0, 1) cut into `strata` equal parts."""
    return (q + 0.5) / strata


# ------------------------------------------------------------------- trees

def tree_edges(shape, n, rng):
    if n == 1:
        return []
    if shape == "path":
        return [(i, i + 1) for i in range(1, n)]
    if shape == "star":
        return [(1, i) for i in range(2, n + 1)]
    if shape == "caterpillar":
        spine = rng.randint(max(2, n // 4), max(2, n // 2))
        edges = [(i, i + 1) for i in range(1, spine)]
        edges += [(rng.randint(1, spine), leaf) for leaf in range(spine + 1, n + 1)]
        return edges
    # uniform labelled tree from a Pruefer sequence
    if n == 2:
        return [(1, 2)]
    seq = [rng.randint(1, n) for _ in range(n - 2)]
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    leaves = [i for i in range(1, n + 1) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        edges.append((heapq.heappop(leaves), v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def tree_item(shape, n, rng):
    """Curve, class and polarization on ids 1..n, labels shuffled."""
    edges = tree_edges(shape, n, rng)
    label = list(range(1, n + 1))
    rng.shuffle(label)
    edges = [(label[a - 1], label[b - 1]) for a, b in edges]
    genus = []
    for _ in range(n):
        internal = rng.randint(0, 1)
        genus.append((rng.randint(0, 3 - internal), internal))
    return {"kind": shape, "n": n, "edges": edges, "genus": genus,
            "rank": rng.randint(2, 5),
            "deg": [rng.randint(-20, 20) for _ in range(n)],
            "w": [rng.randint(1, 9) for _ in range(n)]}


def tree_block(workload, seed, block, size_at):
    items = []
    for k, shape in enumerate(BLOCK_SHAPES):
        for q in range(TREE_STRATA):
            n = size_at(midpoint(q, TREE_STRATA))
            items.append(tree_item(shape, n, rng_for(workload, seed, block, k, q)))
    rng_for(workload, seed, block, "order").shuffle(items)
    return items


def balance_size(t):
    return 4 + int(t * 37)                 # uniform in 4..40


def check_size(t):
    return int(32 * 16 ** t)               # log-uniform in 32..511


# -------------------------------------------------------------- ring/field

P_MAGNITUDES = (2, 4, 6)
SMALL_PRIMES = (2, 3, 5, 7, 11)


def prime_near(rng, k, modulus=1):
    """A prime in [10^k, 1.1 * 10^k), congruent to 1 mod `modulus`."""
    base = 10 ** k
    p = rng.randint(base, base + base // 10)
    while True:
        p = next_prime(p)
        if p % modulus == 1 % modulus:
            return p
        p += 1


def random_matrix(rng, r, p):
    return [[rng.randrange(p) for _ in range(r)] for _ in range(r)]


def invertible_constant(rng, r, p):
    while True:
        m = random_matrix(rng, r, p)
        if rank_mod_p(m, p) == r:
            return m


def ring_block(seed, block):
    """37 requests with fixed sizes: for each magnitude of p, det for every
    r in 2..6, two SL kernel checks, a torsor correction, an r-th root
    request with roots and one without; plus seven gluing flags."""
    wl = "ring-field"
    items = []
    for k, mag in enumerate(P_MAGNITUDES):
        for r in range(2, 7):
            rng = rng_for(wl, seed, block, "det", mag, r)
            p = prime_near(rng, mag)
            items.append({"kind": "det", "p": p, "r": r, "n": 1 + (r + k) % 3,
                          "A": random_matrix(rng, r, p)})
        rng = rng_for(wl, seed, block, "sl", mag)
        p = prime_near(rng, mag)
        items.append(sl_item(rng, p, "in", r=2 + k, n=1 + k))
        items.append(sl_item(rng, p, ("out-trace", "out-reduce")[block % 2], r=4 - k, n=3 - k))
        rng = rng_for(wl, seed, block, "torsor", mag)
        items.append(torsor_item(rng, prime_near(rng, mag), r=2 + k, n=3 - k, count=2))
        rng = rng_for(wl, seed, block, "root", mag)
        p = prime_near(rng, mag, modulus=60)
        items.append(root_item(rng, p, 2 + k, True))
        items.append(root_item(rng, p, 6 - k, False))
    rng = rng_for(wl, seed, block, "flag")
    fields = ["Q"] + [f"F{p}" for p in rng.sample(SMALL_PRIMES, 3)] + \
        [f"F{prime_near(rng, mag)}" for mag in P_MAGNITUDES]
    for field, r in zip(fields, (8, 3, 5, 7, 4, 8, 12)):
        a = rng.randint(-2, 3)
        items.append({"kind": "flag", "field": field, "r": r, "a": a,
                      "d": r * a + rng.randint(0, 10)})
    rng_for(wl, seed, block, "order").shuffle(items)
    return items


def sl_item(rng, p, variant, r=None, n=None):
    """A truncated matrix inside or outside the kernel of the SL reduction."""
    if r is None:
        r, n = rng.randint(2, 4), rng.randint(1, 3)
    if variant == "out-reduce":
        const = invertible_constant(rng, r, p)
        if const == [[int(i == j) for j in range(r)] for i in range(r)]:
            const[0][1] = 1
        entries = [[[const[i][j]] + [rng.randrange(p) for _ in range(n)] for j in range(r)]
                   for i in range(r)]
        return {"kind": "sl", "variant": variant, "p": p, "n": n, "r": r,
                "entries": entries}
    B = random_matrix(rng, r, p)
    tr = sum(B[i][i] for i in range(r)) % p
    if variant == "in":
        B[r - 1][r - 1] = (B[r - 1][r - 1] - tr) % p
    elif tr == 0:
        B[0][0] = (B[0][0] + 1) % p
    entries = [[[int(i == j)] + [0] * (n - 1) + [B[i][j]] for j in range(r)]
               for i in range(r)]
    return {"kind": "sl", "variant": variant, "p": p, "n": n, "r": r, "entries": entries}


def torsor_item(rng, p, r=None, n=None, count=None):
    if r is None:
        r, n, count = rng.randint(2, 4), rng.randint(1, 3), None
    cocycle, gammas = [], []
    for _ in range(count or rng.randint(1, 2)):
        const = invertible_constant(rng, r, p)
        cocycle.append([[[const[i][j]] + [rng.randrange(p) for _ in range(n)]
                         for j in range(r)] for i in range(r)])
        gammas.append([1] + [0] * (n - 1) + [rng.randrange(p)])
    return {"kind": "torsor", "p": p, "n": n, "r": r, "cocycle": cocycle, "gammas": gammas}


def root_item(rng, p, r, all_roots):
    """r-th roots for p = 1 mod 60, so g = gcd(r, p - 1) = r.

    With roots: two scalars whose smallest roots lie near p/(3r) and
    2p/(3r), so the search cost is fixed by p and r.  Without: one
    scalar with no root, which the search scans all of F_p for.
    """
    if not all_roots:
        a = rng.randrange(1, p)
        while has_rth_root(a, r, p):
            a = rng.randrange(1, p)
        return {"kind": "root", "p": p, "r": r, "scalars": [a]}
    unity = roots_of_unity(r, p)
    scalars = []
    for target in (p // (3 * r), 2 * p // (3 * r)):
        m = target + rng.randrange(r)
        while min(m * z % p for z in unity) != m:
            m += 1
        scalars.append(pow(m, r, p))
    return {"kind": "root", "p": p, "r": r, "scalars": scalars}


# ------------------------------------------------------------ CLI documents

CLI_TREE_KINDS = ("validate", "order", "check", "balance")
CLI_RING_KINDS = ("gpb-build", "gpb-flag", "gpb-num", "dvr-matrix", "dvr-sl", "dvr-torsor")
MALFORMED = ("triangle", "disconnected", "multiedge", "bad-json", "bad-key",
             "torsor-no-gammas", "flag-composite-field")


def cli_block(seed, block):
    """22 requests: 20 well-formed (two per kind), one malformed document
    that rotates through MALFORMED, and the non-UTF-8 document."""
    wl = "cli-process"
    items = []
    for kind in CLI_TREE_KINDS:
        for q in range(2):
            rng = rng_for(wl, seed, block, kind, q)
            n = 4 + int(midpoint(q, 2) * 21)          # N in 4..24
            items.append({"kind": kind, "tree": tree_item(rng.choice(SHAPES), n, rng)})
    for kind in CLI_RING_KINDS:
        for q in range(2):
            rng = rng_for(wl, seed, block, kind, q)
            p = prime_near(rng, rng.choice((1, 2, 3)))
            items.append(cli_ring_item(kind, rng, p))
    shift = rng_for(wl, seed, "malformed").randrange(len(MALFORMED))
    items.append({"kind": "malformed", "what": MALFORMED[(block + shift) % len(MALFORMED)]})
    items.append({"kind": "malformed", "what": "non-utf8"})
    rng_for(wl, seed, block, "order").shuffle(items)
    return items


def cli_ring_item(kind, rng, p):
    r = rng.randint(2, 6)
    if kind == "gpb-build":
        field = rng.choice(["Q", f"F{rng.choice(SMALL_PRIMES)}", f"F{p}"])
        a = rng.randint(-2, 3)
        return {"kind": kind, "field": field, "r": r, "a": a, "d": r * a + rng.randint(0, 10)}
    if kind == "gpb-flag":
        while True:
            rows = [[rng.randrange(p) for _ in range(2 * r)] for _ in range(r)]
            if rng.random() < 0.5:         # force a degenerate q side half the time
                for row in rows:
                    row[-1] = row[-2]
            if rank_mod_p(rows, p) == r:
                return {"kind": kind, "p": p, "r": r, "rows": rows}
    if kind == "gpb-num":
        return {"kind": kind, "r": r, "d": rng.randint(-20, 20), "nodes": rng.randint(0, 4),
                "genus": rng.randint(0, 3)}
    if kind == "dvr-matrix":
        return {"kind": kind, "p": p, "n": rng.randint(1, 3), "A": random_matrix(rng, r, p)}
    if kind == "dvr-sl":
        return dict(sl_item(rng, p, rng.choice(("in", "out-trace", "out-reduce"))), kind=kind)
    return dict(torsor_item(rng, p), kind=kind)


def curve_doc(tree):
    return {"components": [{"id": i + 1, "geometric_genus": gg, "internal_nodes": internal}
                           for i, (gg, internal) in enumerate(tree["genus"])],
            "edges": [list(e) for e in tree["edges"]]}


def bundle_doc(tree):
    return {"rank": tree["rank"],
            "multidegree": {str(i + 1): d for i, d in enumerate(tree["deg"])}}


def pol_doc(tree):
    total = sum(tree["w"])
    return {"weights": {str(i + 1): str(Fraction(w, total)) for i, w in enumerate(tree["w"])}}


def truncated_doc(p, n, entries):
    return {"field": f"F{p}", "n": n, "entries": entries}


def cli_documents(item, fixtures):
    """(argv with FILE placeholders, {placeholder: bytes}) for one request."""
    kind = item["kind"]
    enc = lambda obj: json.dumps(obj, indent=1).encode()
    if kind in CLI_TREE_KINDS:
        t = item["tree"]
        docs = {"curve": enc(curve_doc(t))}
        argv = [kind, "--curve", "{curve}"]
        if kind in ("check", "balance"):
            docs.update(bundle=enc(bundle_doc(t)), pol=enc(pol_doc(t)))
            argv += ["--bundle", "{bundle}", "--pol", "{pol}"]
        return argv, docs
    if kind == "gpb-build":
        return (["gpb", "--build", "--field", item["field"], "--rank", str(item["r"]),
                 "--degree", str(item["d"]), "--shift", str(item["a"])], {})
    if kind == "gpb-flag":
        return (["gpb", "--flag", "{flag}"],
                {"flag": enc({"field": f"F{item['p']}",
                              "basis_matrix": [[str(x) for x in row] for row in item["rows"]]})})
    if kind == "gpb-num":
        return (["gpb", "--rank", str(item["r"]), "--degree", str(item["d"]),
                 "--nodes", str(item["nodes"]), "--genus", str(item["genus"])], {})
    if kind == "dvr-matrix":
        return (["dvr", "--matrix", "{matrix}", "--field", f"F{item['p']}", "--n", str(item["n"])],
                {"matrix": enc(item["A"])})
    if kind == "dvr-sl":
        return (["dvr", "--sl", "{sl}"],
                {"sl": enc(truncated_doc(item["p"], item["n"], item["entries"]))})
    if kind == "dvr-torsor":
        return (["dvr", "--torsor", "{torsor}"],
                {"torsor": enc({"cocycle": [truncated_doc(item["p"], item["n"], m)
                                            for m in item["cocycle"]],
                                "gammas": item["gammas"]})})
    return malformed_documents(item["what"], fixtures)


def malformed_documents(what, fixtures):
    path2 = {"components": [{"id": 1, "geometric_genus": 1}, {"id": 2, "geometric_genus": 1}],
             "edges": [[1, 2]]}
    good_bundle = json.dumps({"rank": 2, "multidegree": {"1": 1, "2": 1}}).encode()
    good_pol = json.dumps({"weights": {"1": "1/2", "2": "1/2"}}).encode()
    if what == "non-utf8":
        return (["validate", "--curve", "{curve}"],
                {"curve": b'{"components": [{"id": 1, "geometric_genus": 1}], "edges": [], '
                          b'"note": "\xff\xfe"}'})
    if what == "triangle":
        return ["validate", "--curve", "{curve}"], {"curve": fixtures["triangle_invalid"]}
    if what == "disconnected":
        return ["order", "--curve", "{curve}"], {"curve": fixtures["disconnected_invalid"]}
    if what == "multiedge":
        return (["check", "--curve", "{curve}", "--bundle", "{bundle}", "--pol", "{pol}"],
                {"curve": fixtures["multiedge_invalid"], "bundle": good_bundle, "pol": good_pol})
    if what == "bad-json":
        return (["balance", "--curve", "{curve}", "--bundle", "{bundle}", "--pol", "{pol}"],
                {"curve": json.dumps(path2).encode()[:-3], "bundle": good_bundle, "pol": good_pol})
    if what == "bad-key":
        return (["check", "--curve", "{curve}", "--bundle", "{bundle}", "--pol", "{pol}"],
                {"curve": json.dumps(path2).encode(),
                 "bundle": json.dumps({"rank": 2, "multidegree": {"x1": 1, "2": 1}}).encode(),
                 "pol": good_pol})
    if what == "torsor-no-gammas":
        return (["dvr", "--torsor", "{torsor}"],
                {"torsor": json.dumps({"cocycle": []}).encode()})
    if what == "flag-composite-field":
        return (["gpb", "--flag", "{flag}"],
                {"flag": json.dumps({"field": "F9", "basis_matrix": [["1", "0"]]}).encode()})
    raise ValueError(what)
