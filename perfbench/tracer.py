"""Outside-in tracing: spans around nodalstab's public functions.

``install`` replaces each public function of the traced modules, and a
few methods, with a wrapper that records a span (name, start, end,
parent span, request id, size).  Functions are replaced in every
nodalstab module that imported them, so ``from .stability import
lambda_check`` inside ``balance`` is traced too; nothing under ``src/``
is edited.  Spans are recorded only while a request is open.

Per-component helpers (``twist.require_match``,
``twist.euler_char_component``, ``twist.intersection``) and per-value
formatters (``serialize.frac_to_str``, ``serialize.frac_from_str``) are
left unwrapped: they run once per component or value inside the window
sums, so a span each would multiply the trace volume by N.  Their time
is self time of the caller.
"""

import functools
import importlib
import inspect
import json
import math
import sys
from array import array
from time import perf_counter

MODULES = ("serialize", "curve", "stability", "twist", "balance", "fields", "gpb",
           "truncated", "cli")
UNWRAPPED = {"twist.require_match", "twist.euler_char_component", "twist.intersection",
             "serialize.frac_to_str", "serialize.frac_from_str"}


def _curve_n(args, kwargs):
    return len(args[0].components)


def _matrix_r(args, kwargs):
    return len(args[0].entries)


def _rows(args, kwargs):
    return len(args[1])


def _scalar_log_p(args, kwargs):
    return math.log(kwargs["p"] if "p" in kwargs else args[1])


def _field_log_p(args, kwargs):
    return math.log(args[0].p)


# span name -> size of one call, for the layers whose growth is reported
SIZE_OF = {
    "stability.lambda_check": _curve_n,
    "curve.verify_ordering": _curve_n,
    "balance.balance": _curve_n,
    "curve.prune_ordering": _curve_n,
    "truncated.TruncatedMatrix.det": _matrix_r,
    "truncated.TruncatedScalar": _scalar_log_p,
    "fields.PrimeField.rth_root": _field_log_p,
    "fields.mat_rank": _rows,
}

# reported layer -> the spans it sums
REPORTED = {
    "stability.lambda_check": ["stability.lambda_check"],
    "curve.verify_ordering": ["curve.verify_ordering"],
    "twist.chi_subcurve_sum": ["twist.chi_subcurve_sum"],
    "balance.balance": ["balance.balance"],
    "balance.balance_step": ["balance.balance_step"],
    "twist.twist": ["twist.twist"],
    "curve.prune_ordering": ["curve.prune_ordering"],
    "curve.validate_curve": ["curve.validate_curve"],
    "truncated.TruncatedMatrix.det": ["truncated.TruncatedMatrix.det"],
    "truncated.TruncatedScalar": ["truncated.TruncatedScalar"],
    "truncated.TruncatedScalar.__mul__": ["truncated.TruncatedScalar.__mul__"],
    "fields.PrimeField.rth_root": ["fields.PrimeField.rth_root"],
    "fields.mat_rank": ["fields.mat_rank"],
    "fields.mat_det": ["fields.mat_det"],
    "gpb.build_rational_flag": ["gpb.build_rational_flag"],
    "gpb.check_projections": ["gpb.check_projections"],
    "serialize.read_json": ["serialize.read_json"],
    "serialize.parse": ["serialize.parse_curve", "serialize.parse_bundle",
                        "serialize.parse_polarization", "serialize.parse_twist",
                        "serialize.parse_flag", "serialize.parse_int_matrix",
                        "serialize.parse_truncated_matrix"],
    "serialize.dumps_report": ["serialize.dumps_report"],
    "cli.import": ["cli.import"],
    "cli.run": ["cli.run"],
    "cli.interpreter": ["cli.interpreter"],
}

# (module, class, method) -> span name; only methods with a reported layer are
# wrapped, so the arithmetic of other methods counts as its caller's self time
METHODS = {
    ("truncated", "TruncatedScalar", "__init__"): "truncated.TruncatedScalar",
    ("truncated", "TruncatedScalar", "__mul__"): "truncated.TruncatedScalar.__mul__",
    ("truncated", "TruncatedMatrix", "det"): "truncated.TruncatedMatrix.det",
    ("fields", "PrimeField", "rth_root"): "fields.PrimeField.rth_root",
}


class Tracer:
    """In-memory span store; one open request at a time."""

    def __init__(self):
        self.names, self.ids = [], {}
        self.request = -1
        self.stack = []
        self.clear()

    def clear(self):
        self.name, self.parent, self.req = array("i"), array("i"), array("i")
        self.start, self.end, self.size = array("d"), array("d"), array("d")

    def __len__(self):
        return len(self.name)

    def name_id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def add(self, name, start, end, parent, size=0.0):
        i = len(self.name)
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.req.append(self.request)
        self.start.append(start)
        self.end.append(end)
        self.size.append(size)
        return i

    def begin(self, request_id, name="request", start=None):
        self.request = request_id
        self.stack = [self.add(name, perf_counter() if start is None else start, 0.0, -1)]

    def finish(self):
        self.end[self.stack[0]] = perf_counter()
        self.request, self.stack = -1, []

    def wrap(self, fn, span):
        nid, size_of, tr = self.name_id(span), SIZE_OF.get(span), self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tr.request < 0:
                return fn(*args, **kwargs)
            i = len(tr.name)
            tr.name.append(nid)
            tr.parent.append(tr.stack[-1])
            tr.req.append(tr.request)
            tr.size.append(size_of(args, kwargs) if size_of else 0.0)
            tr.end.append(0.0)
            tr.stack.append(i)
            tr.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tr.end[i] = perf_counter()
                tr.stack.pop()
        return traced

    def dump(self):
        return {"names": self.names,
                "spans": [[self.name[i], self.start[i], self.end[i], self.parent[i],
                           self.req[i], self.size[i]] for i in range(len(self))]}

    def merge_child(self, path, spawn, exited):
        """Fold a traced CLI child's spans under the open request.

        The child's clock is the same monotonic clock as ours.  Process
        wall time not covered by the child's own root span becomes the
        ``cli.interpreter`` span: interpreter start-up and exit.
        """
        try:
            with open(path) as fh:
                child = json.load(fh)
        except FileNotFoundError:
            return                    # the child died before writing; its check fails
        root = self.stack[0]
        spans = child["spans"]
        inside = spans[0][2] - spans[0][1]
        self.add("cli.interpreter", spawn, spawn + (exited - spawn - inside), root)
        offset = len(self)
        for nid, start, end, parent, _, size in spans:
            self.add(child["names"][nid], start, end,
                     root if parent < 0 else parent + offset, size)


def install(tracer):
    """Wrap the public functions of every traced module, everywhere they are
    bound.  Returns a function that puts the originals back."""
    mods = {short: importlib.import_module("nodalstab." + short) for short in MODULES}
    wrapped, saved = {}, []
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            span = f"{short}.{attr}"
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                    and not attr.startswith("_") and span not in UNWRAPPED:
                wrapped[obj] = tracer.wrap(obj, span)
    for (short, cls_name, meth), span in METHODS.items():
        cls = getattr(mods[short], cls_name)
        saved.append((cls, meth, cls.__dict__[meth]))
        setattr(cls, meth, tracer.wrap(cls.__dict__[meth], span))
    for modname, mod in list(sys.modules.items()):
        if modname == "nodalstab" or modname.startswith("nodalstab."):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    saved.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])

    def uninstall():
        for owner, attr, original in saved:
            setattr(owner, attr, original)
    return uninstall


# ------------------------------------------------------------- aggregation

class LayerStats:
    """Per-span-name totals accumulated over traced passes."""

    def __init__(self, buckets):
        self.buckets = buckets        # span name -> ascending bucket edges
        self.requests, self.request_s = 0, 0.0
        self.calls, self.self_s = {}, {}
        self.by_bucket = {}           # span name -> [[calls, span time, sum ln size], ...]

    def add(self, tr):
        n = len(tr)
        child = [0.0] * n
        for i in range(n):
            p = tr.parent[i]
            if p >= 0:
                child[p] += tr.end[i] - tr.start[i]
        for i in range(n):
            name = tr.names[tr.name[i]]
            dur = tr.end[i] - tr.start[i]
            if name == "request":
                self.requests += 1
                self.request_s += dur
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - child[i]
            edges = self.buckets.get(name)
            if edges:
                size = tr.size[i]
                k = sum(1 for e in edges[1:-1] if size >= e)
                rows = self.by_bucket.setdefault(name, [[0, 0.0, 0.0] for _ in edges[:-1]])
                rows[k][0] += 1
                rows[k][1] += dur
                rows[k][2] += math.log(size)

    def layer(self, names):
        calls = sum(self.calls.get(s, 0) for s in names)
        self_s = sum(self.self_s.get(s, 0.0) for s in names)
        req = max(self.requests, 1)
        return {"calls": calls / req, "self_ms": 1000 * self_s / req,
                "share": self_s / self.request_s if self.request_s else 0.0}

    def growth(self, name):
        """(overall slope, slope bucket 1->2, slope bucket 2->3, bucket table).

        Each bucket contributes (mean ln size, ln mean time per call); the
        overall slope is their least-squares fit.  A slope without two
        populated buckets reads 0.
        """
        rows = self.by_bucket.get(name, [])
        pts = [(ls / c, math.log(t / c)) if c and t > 0 else None for c, t, ls in rows]
        table = [{"calls": c, "mean_size": math.exp(ls / c) if c else None,
                  "ms_per_call": 1000 * t / c if c else None} for c, t, ls in rows]

        def slope(a, b):
            if a is None or b is None or a[0] == b[0]:
                return 0.0
            return (b[1] - a[1]) / (b[0] - a[0])
        got = [p for p in pts if p]
        overall = 0.0
        if len(got) >= 2:
            mx = sum(x for x, _ in got) / len(got)
            my = sum(y for _, y in got) / len(got)
            sxx = sum((x - mx) ** 2 for x, _ in got)
            if sxx:
                overall = sum((x - mx) * (y - my) for x, y in got) / sxx
        pts += [None] * (3 - len(pts))
        return overall, slope(pts[0], pts[1]), slope(pts[1], pts[2]), table
