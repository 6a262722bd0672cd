"""Record the output digests the benchmark compares against.

    python3 perfbench/record_digests.py

Answers every pool item of every workload once for each seed 1-10, two
workers at a time, and stores a 12-hex-digit digest of each checked output
in perfbench/digests.json ("-" * 12 where the check failed, so no digest is
stored).  Run it only
when outputs are meant to change; a later run that produces different
bytes for a recorded seed counts the request as failed.
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from run import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)
JOBS = 2


def record(workload, seed):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--root", str(ROOT), "--record"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    return workload, seed, res["digests"], res["reasons"]


def main():
    jobs = [(w, s) for w in WORKLOADS for s in SEEDS]
    out = {w: {} for w in WORKLOADS}
    with ThreadPoolExecutor(JOBS) as pool:
        for workload, seed, digests, reasons in pool.map(lambda job: record(*job), jobs):
            out[workload][str(seed)] = digests
            print(f"{workload} seed {seed}: {len(digests) // 12} outputs, failures {reasons}")
    with open(HERE / "digests.json", "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
