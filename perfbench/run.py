"""nodalstab benchmark: four seeded workloads, closed loop, one caller each.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from the
checkout's src/.  Each workload runs in its own fresh interpreter, one
at a time.  With --trace 0 the end-to-end metrics are printed, with
--trace 1 the per-layer metrics of a traced run.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tree-balance", "tree-check", "ring-field", "cli-process")
WORKER_TIMEOUT_S = 170


def run_workload(name, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(ROOT)]
    # own session, so a timeout also stops the worker's CLI children
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"{name}: worker did not finish in {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(stderr)
        print(f"{name}: worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    res = json.loads(lines[-1])
    with open(ROOT / ".perfbench_work" / f"result-{name}-s{args.seed}-t{args.trace}.json", "w") as fh:
        json.dump(res, fh)
    return res


def report(res):
    name = res["workload"]
    error_rate = res["failed"] / res["attempted"]
    print(f"== {name}  seed={res['seed']}  attempted={res['attempted']}  "
          f"failed={res['failed']}  error_rate={error_rate:.4f}")
    for why, count in sorted(res["reasons"].items()):
        print(f"   failure x{count}: {why}")
    if "samples" in res:
        n = res["samples"]
        for metric, m in res["metrics"].items():
            count = {"setup_s": res["setup_samples"], "peak_rss_mib": 1,
                     "throughput_rps": res["blocks"], "latency_p90_ms": res["blocks"]}.get(metric, n)
            print(f"   {metric:<16} {m['value']:12.4f} {m['unit']:<4}  (n={count})")
        print(f"   {'error_rate':<16} {error_rate:12.4f} ratio (n={res['attempted']})")
        print(f"   machine speed factor {res['speed']:.3f} (median over blocks; times are scaled by it)")
        return
    print(f"   traced requests={res['traced_requests']}  trace file={res['trace_file']}")
    for metric, m in res["metrics"].items():
        if metric.endswith((".calls", ".growth")) or metric == "trace.overhead":
            layer = metric.rsplit(".", 1)[0]
            extra = ""
            if metric.endswith(".calls"):
                extra = (f"  self_ms={res['metrics'][layer + '.self_ms']['value']:.3f}"
                         f"  share={res['metrics'][layer + '.share']['value']:.4f}")
            if m["value"] or metric == "trace.overhead":
                print(f"   {metric:<46} {m['value']:12.4f}{extra}")
    for layer, table in res["growth_tables"].items():
        cells = "  ".join(f"size~{row['mean_size']:.3g}: {row['ms_per_call']:.4g} ms x{row['calls']}"
                          for row in table if row["calls"])
        print(f"   growth buckets {layer}: {cells}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "nodalstab" / "__init__.py").is_file():
        print(f"no nodalstab package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = run_workload(name, args)
        if res is None:
            return 1
        report(res)
        results.append(res)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["unexpected_failures"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
