"""The four workloads: how each request is built, sent and checked.

A workload turns a plain-data item (from ``inputs``) into program objects
outside the timed region (``prepare``), makes one request (``call``, the
only timed part), and checks the answer against ``oracle`` (``check``).
``check`` returns (ok, reason, canonical bytes); the bytes are what the
stored digests cover.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import inputs
import oracle

KNOWN_DEFECT = "non-utf8 input exits 1 with a traceback"


class Outcome:
    """What one request produced: a value or a raised exception."""

    __slots__ = ("value", "exc")

    def __init__(self, value=None, exc=None):
        self.value, self.exc = value, exc


def invoke(fn, *args):
    try:
        return Outcome(value=fn(*args))
    except Exception as e:          # any exception is an outcome the check judges
        return Outcome(exc=e)


def canon(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str).encode()


def exc_text(e):
    return f"{type(e).__name__}: {e}"


REFERENCE_TREE = inputs.tree_item("prufer", 300, inputs.rng_for("reference"))
REFERENCE_ORDER = oracle.prune_order(REFERENCE_TREE["n"], REFERENCE_TREE["edges"])
REFERENCE_MATRIX = [[[(7 * i + 3 * j + k) % 101 for k in range(3)] for j in range(5)]
                    for i in range(5)]


class InProcess:
    """Workloads whose requests are library calls in this process.

    The reference is the benchmark's own oracle code (window sums over a
    fixed 300-component tree, a 5x5 Leibniz determinant): Python of the
    same kind as the program's, which never changes with the program.
    """

    blocks = 8
    trace_blocks = 1
    tracer = None
    reference_every = 4
    reference_nominal_s = 0.005

    @staticmethod
    def reference():
        perm, nu = REFERENCE_ORDER
        for _ in range(6):
            oracle.windows(REFERENCE_TREE, perm, nu, REFERENCE_TREE["deg"])
        oracle.leibniz_det(REFERENCE_MATRIX, 101, 2)

    def __init__(self, ns, root, seed):
        self.ns, self.seed = ns, seed

    def setup(self):
        return [self.block(b) for b in range(self.blocks)]

    def warm(self):
        """One small request of each kind, so lazy imports and caches are filled."""
        for item in self.warm_items():
            self.call(self.prepare(item))

    def close(self):
        pass


# ----------------------------------------------------------------- trees

def build_tree(ns, t):
    comps = tuple(ns.Component(i + 1, gg, internal) for i, (gg, internal) in enumerate(t["genus"]))
    c = ns.TreeLikeCurve(components=comps, edges=tuple(tuple(e) for e in t["edges"]))
    bc = ns.BundleClass(rank=t["rank"], multidegree={i + 1: d for i, d in enumerate(t["deg"])})
    total = sum(t["w"])
    pol = ns.Polarization(weights={i + 1: Fraction(w, total) for i, w in enumerate(t["w"])})
    return c, bc, pol


class TreeBalance(InProcess):
    name = "tree-balance"
    blocks = 8
    trace_blocks = 2

    def block(self, b):
        return inputs.tree_block(self.name, self.seed, b, inputs.balance_size)

    def warm_items(self):
        return [inputs.tree_item(shape, 6, inputs.rng_for("warm", shape)) for shape in inputs.SHAPES]

    def prepare(self, item):
        return build_tree(self.ns, item)

    def call(self, args):
        return invoke(self.ns.balance, *args)

    def check(self, t, out):
        if out.exc is not None:
            return False, exc_text(out.exc), b""
        res = out.value
        n, perm, nu = t["n"], list(res.ordering.perm), list(res.ordering.nu)
        if not oracle.ordering_ok(n, t["edges"], perm, nu):
            return False, "ordering is not a one-branch ordering", b""
        coeffs = res.twist.coeffs
        if sorted(coeffs) != list(range(1, n + 1)):
            return False, "twist keys differ from the component ids", b""
        replay = oracle.replay_twist(t, coeffs)
        got = [res.balanced.multidegree.get(i) for i in range(1, n + 1)]
        if got != replay or res.balanced.rank != t["rank"]:
            return False, "twist does not replay to the balanced class", b""
        if sum(replay) != sum(t["deg"]) or \
                oracle.total_chi(t, replay) != oracle.total_chi(t, t["deg"]):
            return False, "total degree or chi not conserved", b""
        if not all(ok for _, _, ok in oracle.windows(t, perm, nu, replay)):
            return False, "balanced class fails a window", b""
        return True, "", canon({
            "perm": perm, "nu": nu, "twist": [coeffs[i] for i in range(1, n + 1)],
            "steps": [[s.i, s.component, s.value, s.lower, s.upper, list(s.candidates), s.chosen]
                      for s in res.steps]})


class TreeCheck(InProcess):
    name = "tree-check"
    blocks = 6

    def block(self, b):
        return inputs.tree_block(self.name, self.seed, b, inputs.check_size)

    warm_items = TreeBalance.warm_items

    def prepare(self, item):
        return build_tree(self.ns, item)

    def call(self, args):
        ns = self.ns
        c, bc, pol = args

        def request():
            report = ns.validate_curve(c)
            ordering = ns.prune_ordering(c)
            return report, ordering, ns.lambda_check(c, ordering, bc, pol)
        return invoke(request)

    def check(self, t, out):
        if out.exc is not None:
            return False, exc_text(out.exc), b""
        report, ordering, verdicts = out.value
        n = t["n"]
        p_a = sum(gg + internal for gg, internal in t["genus"])
        if (report.valid, report.p_a, report.n_components, report.genus_at_least_two) != \
                (True, p_a, n, p_a >= 2):
            return False, "validation report is wrong", b""
        perm, nu = list(ordering.perm), list(ordering.nu)
        if not oracle.ordering_ok(n, t["edges"], perm, nu):
            return False, "ordering is not a one-branch ordering", b""
        expect = oracle.windows(t, perm, nu, t["deg"])
        if len(verdicts) != n:
            return False, "wrong number of verdicts", b""
        for k, (v, (value, lower, passes)) in enumerate(zip(verdicts, expect)):
            if (v.i, v.component, v.value, v.lower, v.upper, v.passes) != \
                    (k + 1, perm[k], value, lower, lower + t["rank"], passes):
                return False, f"verdict at position {k + 1} differs from the oracle", b""
        return True, "", canon({
            "p_a": p_a, "perm": perm, "nu": nu,
            "verdicts": [[v.value, v.lower, v.passes] for v in verdicts]})


# ------------------------------------------------------------- ring/field

class RingField(InProcess):
    name = "ring-field"
    blocks = 16
    trace_blocks = 4

    def block(self, b):
        return inputs.ring_block(self.seed, b)

    def warm_items(self):
        return [item for item in inputs.ring_block(0, 0)
                if item.get("p", 0) < 1000 and item["r"] <= 4]

    def prepare(self, item):
        ns, kind = self.ns, item["kind"]
        if kind == "det":
            return kind, (item["p"], item["A"], item["n"])
        if kind == "sl":
            return kind, (ns.TruncatedMatrix(item["p"], item["n"], item["entries"]),)
        if kind == "torsor":
            p, n = item["p"], item["n"]
            return kind, ([ns.TruncatedMatrix(p, n, m) for m in item["cocycle"]],
                          [ns.TruncatedScalar(p, n, g) for g in item["gammas"]])
        if kind == "flag":
            return kind, (ns.parse_field(item["field"]), item["r"], item["d"], item["a"])
        return kind, (ns.PrimeField(item["p"]), item["r"], item["scalars"])

    def call(self, args):
        ns = self.ns
        kind, a = args
        if kind == "det":
            return invoke(ns.det_trace_identity, *a)
        if kind == "sl":
            return invoke(ns.sl_kernel_check, *a)
        if kind == "torsor":
            return invoke(ns.torsor_correct, *a)
        if kind == "flag":
            def request():
                flag = ns.build_rational_flag(*a)
                return flag, ns.check_projections(flag), ns.check_no_kernel_section(flag)
            return invoke(request)
        return invoke(ns.picard_rth_root, *a)

    def check(self, item, out):
        return getattr(self, "check_" + item["kind"])(item, out)

    def check_det(self, item, out):
        if out.exc is not None:
            return False, exc_text(out.exc), b""
        p, n, A = item["p"], item["n"], item["A"]
        tr = sum(A[i][i] for i in range(len(A))) % p
        expect = tuple(1 if k == 0 else (tr if k == n else 0) for k in range(n + 1))
        v = out.value
        if (v.lhs.coeffs, v.rhs.coeffs, v.holds) != (expect, expect, True):
            return False, "det(I + pi^n A) differs from 1 + pi^n tr(A)", b""
        if item["r"] <= 4 and oracle.leibniz_det(oracle.one_plus_pi_n(A, n), p, n) != v.lhs.coeffs:
            return False, "determinant differs from the Leibniz sum", b""
        return True, "", canon([v.lhs.coeffs, v.rhs.coeffs, v.holds])

    def check_sl(self, item, out):
        if out.exc is not None:
            return False, exc_text(out.exc), b""
        p, n, r, ent = item["p"], item["n"], item["r"], item["entries"]
        one = tuple(1 if k == 0 else 0 for k in range(n + 1))
        det_one = oracle.leibniz_det(ent, p, n) == one
        if item["variant"] == "out-reduce":
            expect = (det_one, False, None, False, False, True)
        else:
            tr = sum(ent[i][i][n] for i in range(r)) % p
            if det_one != (tr == 0):
                return False, "oracle: det of I + pi^n B is not 1 + pi^n tr(B)", b""
            expect = (tr == 0, True, tr, tr == 0, tr == 0, True)
        v = out.value
        got = (v.det_is_one, v.reduces_to_identity, v.trace_residue, v.in_kernel,
               v.trace_condition, v.biconditional_holds)
        if got != expect:
            return False, f"kernel verdict {got} != {expect}", b""
        return True, "", canon(got)

    def check_torsor(self, item, out):
        if out.exc is not None:
            return False, exc_text(out.exc), b""
        p, n = item["p"], item["n"]
        got_all = []
        if len(out.value) != len(item["cocycle"]):
            return False, "wrong number of corrected matrices", b""
        for F, gamma, m in zip(item["cocycle"], item["gammas"], out.value):
            expect = [[oracle.truncate(oracle.poly_mul(gamma, x) if i == 0 else x, p, n)
                       for x in row] for i, row in enumerate(F)]
            got = [[x.coeffs for x in row] for row in m.entries]
            if got != expect:
                return False, "corrected matrix is not the trace-section lift times F", b""
            lhs = oracle.leibniz_det(got, p, n)
            rhs = oracle.truncate(oracle.poly_mul(gamma, oracle.leibniz_det(F, p, n)), p, n)
            if lhs != rhs:
                return False, "det(lift) != gamma * det(F)", b""
            got_all.append(got)
        return True, "", canon(got_all)

    def check_flag(self, item, out):
        field, r = item["field"], item["r"]
        singular = field != "Q" and (r - 1) % int(field[1:]) == 0
        if singular:
            if type(out.exc).__name__ != "SingularProjection":
                return False, "expected SingularProjection", b""
            return True, "", canon(["singular", exc_text(out.exc)])
        if out.exc is not None:
            return False, exc_text(out.exc), b""
        flag, proj, kern = out.value
        expect = [[int(l == j) for l in range(r)] + [int(l != j) for l in range(r)]
                  for j in range(r)]
        if [list(row) for row in flag.basis_matrix] != expect:
            return False, "flag is not [I | J - I]", b""
        got = (proj.pr1_iso, proj.pr2_iso, kern.dim_meet_p_side, kern.dim_meet_q_side)
        if got != (True, True, 0, 0):
            return False, f"projection verdict {got} on a nonsingular flag", b""
        return True, "", canon([field, r, got])

    def check_root(self, item, out):
        p, r, scalars = item["p"], item["r"], item["scalars"]
        if not all(oracle.has_rth_root(a, r, p) for a in scalars):
            if type(out.exc).__name__ != "NoRoot":
                return False, "expected NoRoot", b""
            return True, "", canon(["NoRoot", exc_text(out.exc)])
        if out.exc is not None:
            return False, exc_text(out.exc), b""
        roots = out.value
        unity = oracle.roots_of_unity(math.gcd(r, p - 1), p)
        for a, b in zip(scalars, roots):
            if not 0 < b < p or pow(b, r, p) != a:
                return False, f"{b}^{r} != {a} mod {p}", b""
            if b != min(b * z % p for z in unity):
                return False, f"{b} is not the smallest {r}-th root of {a}", b""
        if len(roots) != len(scalars):
            return False, "wrong number of roots", b""
        return True, "", canon(roots)


# -------------------------------------------------------------------- CLI

class CliProcess:
    """Each request is one fresh ``python -m nodalstab.cli`` process.

    The reference is a fresh interpreter that imports the standard-library
    modules nodalstab uses, and exits.
    """

    name = "cli-process"
    blocks = 8
    trace_blocks = 1
    reference_every = 6
    reference_nominal_s = 0.060

    def __init__(self, ns, root, seed):
        self.seed = seed
        self.src = root / "src"
        self.work = root / ".perfbench_work" / f"{self.name}-s{seed}"
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.tracer = None
        fx = Path(__file__).resolve().parent / "fixtures"
        self.fixtures = {f.stem: f.read_bytes() for f in fx.glob("*.json")}

    def block(self, b):
        return inputs.cli_block(self.seed, b)

    def setup(self):
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        pool = []
        for b in range(self.blocks):
            block = self.block(b)
            for j, item in enumerate(block):
                argv, docs = inputs.cli_documents(item, self.fixtures)
                paths = {}
                for key, data in docs.items():
                    path = self.work / f"b{b:02d}-{j:02d}-{key}.json"
                    path.write_bytes(data)
                    paths[key] = os.path.relpath(path, self.src)
                item["argv"] = [a.format(**paths) for a in argv]
            pool.append(block)
        self.probe()
        return pool

    def probe(self):
        """Children resolve nodalstab under this checkout's src/."""
        proc = subprocess.run([sys.executable, "-c", "import nodalstab; print(nodalstab.__file__)"],
                              cwd=self.src, env=self.env, capture_output=True, text=True, timeout=60)
        path = Path(proc.stdout.strip()).resolve()
        if proc.returncode != 0 or self.src.resolve() not in path.parents:
            raise SystemExit(f"CLI children import nodalstab from {path}, not {self.src}")

    def warm(self):
        self.call(self.prepare({"argv": ["gpb", "--rank", "2", "--degree", "3", "--nodes", "1"]}))

    def reference(self):
        subprocess.run([sys.executable, "-c", "import argparse, dataclasses, fractions, json"],
                       cwd=self.src, env=self.env, timeout=60, check=True)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def prepare(self, item):
        if self.tracer is None:
            return [sys.executable, "-m", "nodalstab.cli", *item["argv"]]
        spans = self.work / "spans.json"
        runner = Path(__file__).resolve().parent / "cli_child.py"
        return [sys.executable, str(runner), str(spans), *item["argv"]]

    def call(self, cmd):
        if self.tracer is not None:
            (self.work / "spans.json").unlink(missing_ok=True)
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.src, env=self.env, capture_output=True, timeout=120)
        t1 = time.perf_counter()
        if self.tracer is not None:
            self.tracer.merge_child(self.work / "spans.json", t0, t1)
        return Outcome(value=(proc.returncode, proc.stdout, proc.stderr))

    def check(self, item, out):
        code, stdout, stderr = out.value
        kind = item["kind"]
        blob = canon([code]) + stdout
        expect = self.expected(item)
        if kind == "malformed" and item["what"] == "non-utf8" and code != 2:
            return False, KNOWN_DEFECT, b""
        if code != expect:
            return False, f"{kind}: exit {code}, expected {expect}", b""
        if stderr:
            return False, f"{kind}: unexpected stderr", b""
        try:
            obj = json.loads(stdout)
        except ValueError:
            return False, f"{kind}: stdout is not JSON", b""
        if code == 2 and "error" not in obj and item.get("what") != "triangle":
            return False, f"{kind}: exit 2 without a JSON error", b""
        if kind == "order" and obj.get("perm") != oracle.prune_order(
                item["tree"]["n"], item["tree"]["edges"])[0]:
            return False, "order: perm differs from leaf pruning", b""
        if kind == "balance":
            t = item["tree"]
            coeffs = {int(k): a for k, a in obj["twist"].items()}
            degs = [obj["multidegree"][str(i)] for i in range(1, t["n"] + 1)]
            if not obj["passes"] or oracle.replay_twist(t, coeffs) != degs:
                return False, "balance: twist does not replay or does not pass", b""
        return True, "", blob

    @staticmethod
    def expected(item):
        """Exit code the CLI contract demands for this request."""
        kind = item["kind"]
        if kind == "malformed":
            return 2
        if kind == "check":
            t = item["tree"]
            perm, nu = oracle.prune_order(t["n"], t["edges"])
            return 0 if all(ok for _, _, ok in oracle.windows(t, perm, nu, t["deg"])) else 1
        if kind == "gpb-build":
            field = item["field"]
            return 1 if field != "Q" and (item["r"] - 1) % int(field[1:]) == 0 else 0
        if kind == "gpb-flag":
            r, p, rows = item["r"], item["p"], item["rows"]
            full = oracle.rank_mod_p([row[:r] for row in rows], p) == r and \
                oracle.rank_mod_p([row[r:] for row in rows], p) == r
            return 0 if full else 1
        return 0


WORKLOADS = {w.name: w for w in (TreeBalance, TreeCheck, RingField, CliProcess)}
