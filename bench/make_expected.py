"""Write bench/expected.json: every pool input with the output it must produce.

Usage (from the repository root, at the commit whose outputs are the
reference):  python3 bench/make_expected.py

For each workload the pool comes from ``workloads.generate_pool`` with
``POOL_SEED``; each input is run once, in process or as a ``python -m
ringline`` request, and its output digest (plus exit code, or per-check
verify statuses) is recorded.  Runs use the same code paths as bench/run.py.
"""

import json
import subprocess
import sys

import run
import workloads as wl


def main() -> int:
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True).stdout.strip()
    table = {"commit": commit, "pool_seed": wl.POOL_SEED, "workloads": {}}
    modules = run.import_ringline()
    for workload in wl.WORKLOADS:
        pool = wl.generate_pool(workload)
        if workload == "cli-session":
            for entry in pool:
                code, stdout, _ = run.run_request(entry["op"]["argv"])
                entry.update(run.cli_outcome(entry["op"]["argv"], code, stdout))
        else:
            _, built, enumerated = run.SETUP[workload]
            moduli, points = run.build_setup(modules, built, enumerated)
            for entry, owner, attr, args in run.prepare(workload, pool, modules, moduli, points):
                entry.update(run.outcome(workload, entry, getattr(owner, attr)(*args)))
        table["workloads"][workload] = pool
        print(f"{workload}: {len(pool)} inputs", file=sys.stderr)
    (run.BENCH / "expected.json").write_text(json.dumps(table, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
