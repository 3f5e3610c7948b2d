"""The ringline benchmark: three workloads, timed end to end and traced per layer.

Run from the repository root:

    python3 bench/run.py --workload verify-sweep --seed 0 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` adds a traced pass and reports the per-layer metrics, with the
tracing overhead and the share of traced time no layer span covers.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full record (machine facts, sample counts, failures) is
written to ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_PROBES = 11
REQUEST_TIMEOUT_S = 120
# workload -> (module imported, moduli built, moduli whose points are enumerated)
SETUP = {
    "verify-sweep": ("ringline", (8, 10, 15, 18, 21), (15, 18, 21)),
    "cli-session": ("ringline.cli", wl.HEAVY_D, ()),
    "line-queries": ("ringline", wl.QUERY_D, wl.QUERY_D),
}
COMMANDS = ("factor", "perp", "points", "commute", "count", "graph", "verify")

END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s", "sweep_s": "s",
    "latency_p50_ms": "ms", "latency_p90_ms": "ms",
}


class Tally:
    """Attempted ops and the failures among them, each naming its op."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.errors: list[str] = []  # failed checks that are not ops

    def record(self, key: str, reason: str | None) -> None:
        self.attempted += 1
        if reason:
            self.failures.append(f"{key}: {reason}")


# ------------------------------------------------------------ program access

def load_pool(workload: str) -> list[dict]:
    table = json.loads((BENCH / "expected.json").read_text())
    return table["workloads"][workload]


def import_ringline() -> dict:
    """Import ringline from this checkout's src/ and return its layer modules."""
    sys.path.insert(0, str(SRC))
    import ringline
    import ringline.cli

    if not Path(ringline.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported ringline from {ringline.__file__}, not {SRC}")
    names = ("ring", "symplectic", "projline", "pauli", "oracle", "cli")
    return {name: getattr(ringline, name) for name in names}


def build_setup(modules: dict, built, enumerated) -> tuple[dict, dict]:
    """Moduli, and the points of some of them keyed by canonical generator."""
    ring, projline = modules["ring"], modules["projline"]
    moduli = {d: ring.make_modulus(d) for d in built}
    points = {d: {p.generator: p for p in projline.enumerate_points(moduli[d])}
              for d in enumerated}
    return moduli, points


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# ----------------------------------------------------------- in-process ops

def prepare(workload: str, deck: list[dict], modules: dict, moduli: dict, points: dict):
    """(entry, owner, attribute, args) per op; the callable is looked up on
    the owner at call time, so installed wrappers take effect."""
    prepared = []
    for entry in deck:
        op = entry["op"]
        if workload == "verify-sweep":
            prepared.append((entry, modules["oracle"], "verify_all",
                             (moduli[op["d"]], [op["check"]])))
            continue
        fn, d, args = op["fn"], op["d"], op["args"]
        if fn == "perp_set":
            owner = modules["symplectic"]
        elif fn in ("commutes", "commuting_count"):
            owner = modules["pauli"]
            args = [modules["pauli"].PauliOp(*w) for w in args]
        else:
            owner = modules["projline"]
            if fn == "is_distant":
                args = [points[d][tuple(g)] for g in args]
            else:
                args = [tuple(args[0])]
        prepared.append((entry, owner, fn, (*args, moduli[d])))
    return prepared


def canonical(workload: str, fn: str, result):
    """A JSON-able form of an op's result, for its digest."""
    if workload == "verify-sweep":
        return result.to_json_dict(include_elapsed=False)
    if fn == "points_containing":
        return [list(p.generator) for p in result]
    if fn == "point_through":
        return [list(result.generator), sorted(map(list, result.members))]
    if fn == "perp_set":
        return [list(result.base), sorted(map(list, result.members))]
    if fn == "perp_as_point_union":
        return sorted(map(list, result))
    if fn == "index_set_K":
        return sorted(result)
    return result


def outcome(workload: str, entry: dict, result) -> dict:
    """What the table records for an in-process op."""
    out = {"sha256": wl.digest(canonical(workload, entry["op"].get("fn"), result))}
    if workload == "verify-sweep":
        out["status"] = result.checks[0].status
    return out


def check(expected: dict, actual: dict) -> str | None:
    for field in expected:
        if expected[field] != actual.get(field):
            return f"{field} {actual.get(field)!r}, expected {expected[field]!r}"
    return None


def expected_of(entry: dict) -> dict:
    return {k: entry[k] for k in ("exit", "statuses", "status", "sha256") if k in entry}


def inprocess_pass(workload, prepared, tally, tracer=None):
    """Run the prepared ops once, in order; returns [(index, ns)]."""
    clock, timings = time.perf_counter_ns, []
    for i, (entry, owner, attr, args) in enumerate(prepared):
        fn = getattr(owner, attr)
        if tracer is not None:
            tracer.op = i
        start = clock()
        try:
            result = fn(*args)
        except Exception as exc:  # an op that raises is a failed op; keep going
            end = clock()
            reason = f"raised {exc!r}"
        else:
            end = clock()
            reason = check(expected_of(entry), outcome(workload, entry, result))
        tally.record(entry["key"], reason)
        timings.append((i, end - start))
    return timings


# ------------------------------------------------------------------ CLI ops

def parse_statuses(argv: list[str], stdout: bytes) -> dict | None:
    """Check name -> status from a verify command's output, in any format."""
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    try:
        text = stdout.decode()
        if fmt == "json":
            return {c["name"]: c["status"] for c in json.loads(text)["checks"]}
        if fmt == "csv":
            return {row[0]: row[1] for row in list(csv.reader(io.StringIO(text)))[1:]}
        return {line.split()[1]: line.split()[0].lower() for line in text.splitlines()
                if line.split() and line.split()[0] in ("PASS", "FAIL", "SKIP")}
    except (ValueError, KeyError, IndexError):
        return None


def cli_outcome(argv: list[str], code: int, stdout: bytes) -> dict:
    out = {"exit": code, "sha256": wl.digest(stdout)}
    if argv[0] == "verify":
        out["statuses"] = parse_statuses(argv, stdout)
    return out


def run_request(argv: list[str], traced_dump: Path | None = None):
    """One request in a fresh interpreter: (exit code, stdout, ns) or None on timeout."""
    if traced_dump is None:
        cmd = [sys.executable, "-m", "ringline", *argv]
    else:
        cmd = [sys.executable, str(BENCH / "cli_entry.py"), str(SRC), str(traced_dump), *argv]
    start = time.perf_counter_ns()
    try:
        proc = subprocess.run(cmd, capture_output=True, env=subprocess_env(), cwd=ROOT,
                              timeout=REQUEST_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    return proc.returncode, proc.stdout, time.perf_counter_ns() - start


def cli_pass(deck, tally, tracer=None, extra=None):
    """Run the deck's requests once, in order; returns [(index, ns)]."""
    timings = []
    dump = OUT / f"request-trace-{os.getpid()}.json" if tracer is not None else None
    for i, entry in enumerate(deck):
        argv = entry["op"]["argv"]
        if dump is not None:
            dump.unlink(missing_ok=True)
        ran = run_request(argv, dump)
        if ran is None:
            tally.record(entry["key"], f"timed out after {REQUEST_TIMEOUT_S} s")
            timings.append((i, REQUEST_TIMEOUT_S * 10**9))
            continue
        code, stdout, ns = ran
        tally.record(entry["key"], check(expected_of(entry), cli_outcome(argv, code, stdout)))
        timings.append((i, ns))
        if tracer is not None:
            if not dump.exists():
                tally.errors.append(f"{entry['key']}: the traced request wrote no trace")
                continue
            dumped = json.loads(dump.read_text())
            tracer.merge(dumped, i)
            extra["import_ns"].append(dumped["self_ns"].get("cli.import", 0))
            extra["stdout_bytes"] += len(stdout)
    if dump is not None:
        dump.unlink(missing_ok=True)
    return timings


# -------------------------------------------------------------- measurement

def percentile(samples: list[int], q: int) -> int:
    """Nearest-rank percentile: the smallest sample with q% of samples at or below it."""
    return sorted(samples)[math.ceil(q / 100 * len(samples)) - 1]


def warm_up(deck: list[dict]) -> list[dict]:
    """The first entry of each slot: one of every kind of op in the deck."""
    seen, out = set(), []
    for entry in deck:
        if entry["slot"] not in seen:
            seen.add(entry["slot"])
            out.append(entry)
    return out


def measure(run_pass, seconds: float) -> list[list[tuple[int, int]]]:
    """Whole passes while the next one is predicted (by the last) to end
    within ``seconds``; always at least one."""
    start = time.perf_counter()
    passes, last = [], 0.0
    while not passes or time.perf_counter() - start + last <= seconds:
        begun = time.perf_counter()
        passes.append(run_pass())
        last = time.perf_counter() - begun
    return passes


def setup_seconds(workload: str) -> list[float]:
    """Wall time from starting a fresh interpreter to the set-up being done."""
    module, built, enumerated = SETUP[workload]
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), module,
           ",".join(map(str, built)), ",".join(map(str, enumerated))]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=subprocess_env(), cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line != b"ready\n":
            raise SystemExit(f"error: set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return times


def end_to_end(passes, setup: list[float], peak_rss_mb: float):
    """Each deck entry's time is its best over the measured passes; the
    deck's latency distribution and pass time are taken over those."""
    best = [min(ns for _, ns in column) for column in zip(*passes)]
    sweep_s = sum(best) / 1e9
    values = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        "ops_per_s": len(best) / sweep_s,
        "sweep_s": sweep_s,
        "latency_p50_ms": percentile(best, 50) / 1e6,
        "latency_p90_ms": percentile(best, 90) / 1e6,
    }
    counts = {"setup_s": len(setup), "peak_rss_mb": 1}
    counts.update(dict.fromkeys(("ops_per_s", "sweep_s", "latency_p50_ms", "latency_p90_ms"),
                                f"{len(best)} ops, best of {len(passes)} passes"))
    return values, counts


# ------------------------------------------------------------ layer metrics

def computed_work(workload: str, deck: list[dict], setup_moduli=()) -> Counter:
    total = Counter()
    for entry in deck:
        total += wl.work_counts(workload, entry)
    for d in setup_moduli:
        total["trial_divisions"] += wl.trial_divisions(d)
    return total


def per_ns(ns: float, units: int) -> float:
    return ns / units if units else 0.0


def layer_metrics(t: tr.Tracer, work: Counter, extra: dict) -> dict:
    """Per-layer metrics of one traced set-up plus one traced pass."""
    calls, self_ns = t.calls, t.self_ns
    scanned = work["points_scanned"]
    check_ns = sum(ns for name, ns in self_ns.items()
                   if name.startswith(("oracle.theorem1.", "oracle.theorem2.")))
    group_ns = sum(ns for name, ns in self_ns.items() if name.startswith("oracle.group."))
    witness_ns = sum(ns for name, ns in self_ns.items()
                     if name.startswith("oracle.witness_construction."))
    m = {
        "ring.make_modulus.calls": calls["ring.make_modulus"],
        "ring.make_modulus.self_s": t.self_s("ring.make_modulus"),
        "ring.trial_divisions": work["trial_divisions"],
        "ring.ns_per_trial_division": per_ns(self_ns["ring.make_modulus"], work["trial_divisions"]),
        "symplectic.perp_set.calls": calls["symplectic.perp_set"],
        "symplectic.perp_set.self_s": t.self_s("symplectic.perp_set"),
        "symplectic.form.calls": calls["symplectic.form"],
        "symplectic.pairs_evaluated": work["pairs"],
        "symplectic.ns_per_pair": per_ns(self_ns["symplectic.perp_set"], work["pairs"]),
        "projline.enumerate_points.cold_calls": calls["projline.enumerate_points.cold"],
        "projline.enumerate_points.warm_calls": calls["projline.enumerate_points.warm"],
        "projline.enumerate_points.self_s":
            t.self_s("projline.enumerate_points") + t.self_s("projline._points_cached"),
        "projline.neighbour_graph.self_s": t.self_s("projline.neighbour_graph"),
        "projline.is_distant.calls": calls["projline.is_distant"],
        "projline.points_containing.self_s": t.self_s("projline.points_containing"),
        "projline.points_scanned": scanned,
        "projline.points_matched": work["points_matched"],
        "projline.scan_hit_ratio": work["points_matched"] / scanned if scanned else 0.0,
        "projline.ns_per_point_scanned":
            per_ns(self_ns["projline.points_containing"] + check_ns, scanned),
        "pauli.multiply.calls": calls["pauli.multiply"],
        "pauli.multiply.self_s": t.self_s("pauli.multiply"),
        "pauli.inverse.calls": calls["pauli.inverse"],
        "pauli.to_matrix.calls": calls["pauli.to_matrix"],
        "pauli.GenPermMatrix.matmul.calls": calls["pauli.GenPermMatrix.matmul"],
        "pauli.GenPermMatrix.matmul.self_s": t.self_s("pauli.GenPermMatrix.matmul"),
        "pauli.group_closure_order.self_s": t.self_s("pauli.group_closure_order"),
        "pauli.group_products": work["group_products"],
        "pauli.ns_per_group_product":
            per_ns(self_ns["pauli.multiply"] + group_ns, work["group_products"]),
    }
    for check_name, d in wl.SWEEP:
        m[f"oracle.{check_name}.d{d}.self_s"] = t.self_s(f"oracle.{check_name}.d{d}")
    m["oracle.construct_witness.calls"] = calls["oracle.construct_witness"]
    m["oracle.witness_pairs"] = work["witness_pairs"]
    m["oracle.ns_per_witness_pair"] = per_ns(witness_ns, work["witness_pairs"])
    m["cli.import_s"] = statistics.median(extra["import_ns"]) / 1e9 if extra["import_ns"] else 0.0
    for cmd in COMMANDS:
        m[f"cli.cmd.{cmd}.self_s"] = t.self_s(f"cli.cmd.{cmd}")
    m["cli.stdout_bytes"] = extra["stdout_bytes"]
    return m


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last.startswith("ns_per_"):
        return "ns"
    if last.endswith(("_ratio", "_share")):
        return "ratio"
    return {"self_s": "s", "import_s": "s", "stdout_bytes": "bytes"}.get(last, "count")


# --------------------------------------------------------------------- runs

def run_untraced(workload: str, deck: list[dict], seconds: float, tally: Tally) -> dict:
    if workload == "cli-session":
        cli_pass(warm_up(deck), tally)
        passes = measure(lambda: cli_pass(deck, tally), seconds)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        modules = import_ringline()
        _, built, enumerated = SETUP[workload]
        moduli, points = build_setup(modules, built, enumerated)
        inprocess_pass(workload, prepare(workload, warm_up(deck), modules, moduli, points), tally)
        prepared = prepare(workload, deck, modules, moduli, points)
        passes = measure(lambda: inprocess_pass(workload, prepared, tally), seconds)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values, counts = end_to_end(passes, setup_seconds(workload), rss_kb / 1024)
    return {"values": values, "samples": counts, "passes": len(passes)}


def run_traced(workload: str, deck: list[dict], tally: Tally, spans_path: Path) -> dict:
    """Warm-up, one untraced pass, then one traced set-up and pass."""
    t = tr.Tracer()
    extra = {"import_ns": [], "stdout_bytes": 0}
    if workload == "cli-session":
        cli_pass(warm_up(deck), tally)
        untraced = cli_pass(deck, tally)
        traced = cli_pass(deck, tally, tracer=t, extra=extra)
        covered = t.covered_ns
        work = computed_work(workload, deck)
    else:
        modules = import_ringline()
        cache = modules["projline"]._points_cached
        _, built, enumerated = SETUP[workload]

        def traced_phase(body):
            before = cache.cache_info()
            tr.install(t, modules)
            try:
                return body()
            finally:
                t.uninstall()
                after = cache.cache_info()
                t.calls["projline.enumerate_points.cold"] += after.misses - before.misses
                t.calls["projline.enumerate_points.warm"] += after.hits - before.hits

        t.op = "setup"
        moduli, points = traced_phase(
            lambda: t.run_span("setup", lambda: build_setup(modules, built, enumerated)))
        inprocess_pass(workload, prepare(workload, warm_up(deck), modules, moduli, points), tally)
        prepared = prepare(workload, deck, modules, moduli, points)
        untraced = inprocess_pass(workload, prepared, tally)
        covered_before = t.covered_ns
        traced = traced_phase(lambda: inprocess_pass(workload, prepared, tally, tracer=t))
        covered = t.covered_ns - covered_before
        work = computed_work(workload, deck, built)
    untraced_ns = sum(ns for _, ns in untraced)
    traced_ns = sum(ns for _, ns in traced)
    OUT.mkdir(exist_ok=True)
    t.write(spans_path)
    metrics = layer_metrics(t, work, extra)
    metrics["trace.overhead_ratio"] = (traced_ns - untraced_ns) / untraced_ns
    metrics["trace.uncovered_share"] = max(0.0, 1 - covered / traced_ns)
    if metrics["oracle.construct_witness.calls"] != metrics["oracle.witness_pairs"]:
        tally.errors.append(
            f"trace: oracle.construct_witness.calls = {metrics['oracle.construct_witness.calls']}"
            f", but the closed form gives {metrics['oracle.witness_pairs']}")
    return {"values": metrics, "samples": {"traced_ops": len(traced), "untraced_ops": len(untraced)}}


def machine_facts() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": model, "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ringline" / "__init__.py").is_file():
        print(f"error: ringline sources not found under {SRC}", file=sys.stderr)
        return 2
    facts = machine_facts()
    load_before = os.getloadavg()
    deck = wl.make_deck(args.workload, args.seed, load_pool(args.workload))
    tally = Tally()
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result = run_traced(args.workload, deck, tally, OUT / f"spans-{name}.json")
        units = {k: layer_unit(k) for k in result["values"]}
    else:
        result = run_untraced(args.workload, deck, args.seconds, tally)
        units = END_TO_END_UNITS
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts, "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(), "deck_ops": len(deck), **result,
        "attempted": tally.attempted, "failed": len(tally.failures),
        "error_rate": len(tally.failures) / tally.attempted, "failures": tally.failures,
        "errors": tally.errors,
    }
    (OUT / f"result-{name}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace}  python {facts['python']}, "
          f"{facts['nproc']} CPUs, {facts['cpu_model']}")
    print(f"# loadavg before {load_before[0]:.2f}, after {record['loadavg_after'][0]:.2f}; "
          f"error_rate {record['error_rate']:.4f} ({record['failed']}/{tally.attempted})")
    for key, value in result["values"].items():
        n = result["samples"].get(key)
        print(f"# {key:40s} {value:>16.6g} {units[key]:6s}" + (f" n: {n}" if n else ""))
    for failure in tally.errors + tally.failures[:20]:
        print(f"# FAILED {failure}")
    print(json.dumps({
        "correct": not (tally.failures or tally.errors),
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["values"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
