"""Check that the benchmark is steady: run it over several seeds and report,
per workload and end-to-end metric, the median and the interquartile spread
as a share of the median, against the metric's bound in BENCHMARK.json.

Usage (from the repository root):

    python3 bench/steady.py --seeds 10 [--first-seed 1] [--workloads a,b]

The workloads are interleaved (seed 1 of every workload, then seed 2, ...),
so drift in the machine hits all of them alike.  Exits 1 if a spread other
than that of setup_s exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    names = args.workloads.split(",")
    values: dict = {w: {} for w in names}
    started = time.time()
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for workload in names:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            begun = time.time()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {time.time() - begun:.1f} s, " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    print(f"\n{args.seeds} seeds, {time.time() - started:.0f} s in all")
    print(f"{'workload':14s} {'metric':16s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for workload in names:
        for name, vals in values[workload].items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median
            flag = " > bound/3" if spread > bounds[name] / 3 else ""
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"{workload:14s} {name:16s} {median:12.5g} {spread:8.4f} {bounds[name]:6.2f}{flag}")
    out = ROOT / "bench" / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{int(started)}.json").write_text(json.dumps(values, indent=1) + "\n")
    return 1 if worst > 1 else 0


if __name__ == "__main__":
    raise SystemExit(main())
