"""Run one workload in this (fresh) interpreter and print its result.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  The
last line of standard output is one JSON object: the end-to-end metrics
(untraced run) or the per-layer metrics (traced run), the request
counts, and detail for the report.
"""

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing
from workloads import KNOWN_DEFECT, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5

# size-bucket edges per workload, for the layers whose growth is reported
N_EDGES = {"tree-balance": (4, 16, 28, 41), "tree-check": (32, 81, 204, 513),
           "cli-process": (4, 12, 25)}
R_EDGES = (2, 4, 5, 7)
RANK_EDGES = {"ring-field": (1, 5, 9, 13), "cli-process": (1, 3, 5, 7)}
LOG_P_EDGES = {"ring-field": (0.0, 6.9, 11.5, 20.0),        # p near 10^2, 10^4, 10^6
               "cli-process": (0.0, 3.5, 5.7, 20.0)}        # p near 10, 10^2, 10^3


def bucket_edges(workload):
    edges = {}
    if workload in N_EDGES:
        for span in ("stability.lambda_check", "curve.verify_ordering", "balance.balance",
                     "curve.prune_ordering"):
            edges[span] = N_EDGES[workload]
    if workload in RANK_EDGES:
        edges["truncated.TruncatedMatrix.det"] = R_EDGES
        edges["fields.mat_rank"] = RANK_EDGES[workload]
        edges["truncated.TruncatedScalar"] = LOG_P_EDGES[workload]
        edges["fields.PrimeField.rth_root"] = LOG_P_EDGES[workload]
    return edges


def reference_s(wl):
    """Time of one run of the workload's fixed reference work."""
    t0 = time.perf_counter()
    wl.reference()
    return time.perf_counter() - t0


def speed(wl, refs):
    """Factor that scales times measured next to `refs` to nominal speed."""
    return wl.reference_nominal_s / statistics.median(refs)


def digest(blob):
    return hashlib.sha256(blob).hexdigest()[:12]


class Runner:
    """Sends requests in closed loop and checks every answer."""

    def __init__(self, wl, pool, expected_digests):
        self.wl, self.pool, self.expected = wl, pool, expected_digests
        self.attempted = self.failed = 0
        self.unexpected = 0
        self.reasons = {}
        self.digests = [None] * sum(len(block) for block in pool)

    def run_block(self, b, latencies, tr=None, refs=None):
        """Send block b's requests in order; with `refs`, also time the
        workload's reference before every `reference_every`-th request
        and after the last."""
        block = self.pool[b % len(self.pool)]
        for j, item in enumerate(block):
            if refs is not None and j % self.wl.reference_every == 0:
                refs.append(reference_s(self.wl))
            args = self.wl.prepare(item)
            if tr is not None:
                tr.begin(self.attempted)
            t0 = time.perf_counter()
            out = self.wl.call(args)
            t1 = time.perf_counter()
            if tr is not None:
                tr.finish()
            latencies.append(t1 - t0)
            self.judge(b % len(self.pool), j, item, out)
        if refs is not None:
            refs.append(reference_s(self.wl))

    def judge(self, b, j, item, out):
        self.attempted += 1
        ok, why, blob = self.wl.check(item, out)
        index = b * len(self.pool[0]) + j
        if ok:
            d = digest(blob)
            want = self.expected[index] if index < len(self.expected) else None
            if want and want != d:
                ok, why = False, "output differs from the digest stored for this seed"
        if ok:
            self.digests[index] = d
            return
        self.failed += 1
        self.unexpected += why != KNOWN_DEFECT
        self.reasons[why] = self.reasons.get(why, 0) + 1


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(runner, seconds):
    """Whole blocks in closed loop until at least `seconds` have passed.

    Returns every request's latency scaled to nominal speed by its block's
    median reference time, each block's scaled throughput (requests over
    the time spent in them) and 90th percentile latency, and the block
    speed factors.  The p90 is taken per block because a burst of
    contention the references miss slows a whole block: pooled, one such
    block holds more than a tenth of the samples and sets the p90.
    """
    lat, block_rps, block_p90, speeds = [], [], [], []
    deadline = time.perf_counter() + seconds
    b = 0
    while b == 0 or time.perf_counter() < deadline:
        block_lat, refs = [], []
        runner.run_block(b, block_lat, refs=refs)
        factor = speed(runner.wl, refs)
        scaled = [x * factor for x in block_lat]
        lat += scaled
        block_rps.append(len(scaled) / sum(scaled))
        block_p90.append(quantile(scaled, 90))
        speeds.append(factor)
        b += 1
    return lat, block_rps, block_p90, speeds


def import_seconds(root):
    """Import time of nodalstab in a fresh interpreter, from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import nodalstab"],
                          cwd=root, capture_output=True, text=True, timeout=60, check=True)
    for line in proc.stderr.splitlines():
        fields = [f.strip() for f in line.split("|")]
        if len(fields) == 3 and fields[2] == "nodalstab":
            return int(fields[1]) / 1e6
    raise RuntimeError("no import time reported for nodalstab")


def traced(runner, wl, seconds, workload):
    """Per-layer numbers from the workload's first `trace_blocks` blocks.

    Rounds of the same blocks, each sent once untraced and once traced,
    repeat until `seconds` have passed (at least one round), so calls per
    request repeat exactly and traced over untraced throughput is the
    tracing overhead, measured side by side.
    """
    stats = tracing.LayerStats(bucket_edges(workload))
    tr = tracing.Tracer()
    first = None
    untraced_s = traced_s = 0.0
    deadline = time.perf_counter() + seconds
    while first is None or time.perf_counter() < deadline:
        lat = []
        for b in range(wl.trace_blocks):
            runner.run_block(b, lat)
        untraced_s += sum(lat)
        uninstall = tracing.install(tr)
        wl.tracer = tr
        lat = []
        try:
            for b in range(wl.trace_blocks):
                runner.run_block(b, lat, tr)
        finally:
            uninstall()
            wl.tracer = None
        traced_s += sum(lat)
        stats.add(tr)
        if first is None:
            first = tr.dump()
        tr.clear()
    return stats, untraced_s / traced_s, first


def per_layer_metrics(stats, overhead):
    metrics = {"trace.overhead": {"value": overhead, "unit": "ratio"}}
    for layer, spans in tracing.REPORTED.items():
        got = stats.layer(spans)
        metrics[f"{layer}.calls"] = {"value": got["calls"], "unit": "calls/req"}
        metrics[f"{layer}.self_ms"] = {"value": got["self_ms"], "unit": "ms/req"}
        metrics[f"{layer}.share"] = {"value": got["share"], "unit": "ratio"}
    tables = {}
    for layer in tracing.SIZE_OF:
        overall, b1, b2, table = stats.growth(layer)
        metrics[f"{layer}.growth"] = {"value": overall, "unit": "slope"}
        metrics[f"{layer}.growth.b1"] = {"value": b1, "unit": "slope"}
        metrics[f"{layer}.growth.b2"] = {"value": b2, "unit": "slope"}
        if any(row["calls"] for row in table):
            tables[layer] = table
    return metrics, tables


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--record", action="store_true",
                    help="answer every pool item once and print digests")
    args = ap.parse_args(argv)
    root = Path(args.root).resolve()

    import nodalstab as ns
    src = root / "src"
    if src not in Path(ns.__file__).resolve().parents:
        print(f"nodalstab imported from {ns.__file__}, not from {src}", file=sys.stderr)
        return 3

    wl = WORKLOADS[args.workload](ns, root, args.seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pool = wl.setup()
        wl.warm()
        took = time.perf_counter() - t0 + import_seconds(root)
        setups.append(took * speed(wl, [reference_s(wl) for _ in range(3)]))
    setup_s = statistics.median(setups)
    gc.collect()
    gc.freeze()

    with open(HERE / "digests.json") as fh:
        stored = json.load(fh).get(args.workload, {}).get(str(args.seed), "")
    expected = [stored[k:k + 12].strip("-") for k in range(0, len(stored), 12)]
    runner = Runner(wl, pool, [] if args.record else expected)
    result = {"workload": args.workload, "seed": args.seed}
    try:
        if args.record:
            for b in range(len(pool)):
                runner.run_block(b, [])
            result["digests"] = "".join(d or "-" * 12 for d in runner.digests)
        elif args.trace:
            stats, overhead, first = traced(runner, wl, args.seconds, args.workload)
            metrics, tables = per_layer_metrics(stats, overhead)
            result.update(metrics=metrics, growth_tables=tables,
                          traced_requests=stats.requests,
                          spans={n: {"calls": stats.calls[n], "self_ms": 1000 * stats.self_s[n]}
                                 for n in sorted(stats.calls)})
            out = root / ".perfbench_work" / f"trace-{args.workload}-s{args.seed}.json"
            out.parent.mkdir(exist_ok=True)
            with open(out, "w") as fh:
                json.dump({"layers": result["spans"], "first_round": first}, fh)
            result["trace_file"] = str(out.relative_to(root))
        else:
            lat, block_rps, block_p90, speeds = measure(runner, args.seconds)
            usage = resource.getrusage(resource.RUSAGE_CHILDREN if args.workload == "cli-process"
                                       else resource.RUSAGE_SELF)
            result["metrics"] = {
                "throughput_rps": {"value": statistics.median(block_rps), "unit": "1/s"},
                "latency_p50_ms": {"value": 1000 * statistics.median(lat), "unit": "ms"},
                "latency_p90_ms": {"value": 1000 * statistics.median(block_p90), "unit": "ms"},
                "peak_rss_mib": {"value": usage.ru_maxrss / 1024, "unit": "MiB"},
                "setup_s": {"value": setup_s, "unit": "s"},
            }
            result.update(samples=len(lat), blocks=len(block_rps), block_rps=block_rps,
                          speed=statistics.median(speeds),
                          latencies_ms=[round(1000 * x, 3) for x in lat],
                          setup_samples=len(setups))
    finally:
        wl.close()
    result.update(attempted=runner.attempted, failed=runner.failed,
                  unexpected_failures=runner.unexpected, reasons=runner.reasons)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
